// Open-loop load against the predict daemon (serve::Daemon): a seeded
// Poisson schedule at fixed rates, spread over one session per captured
// rank stream on three client connections driven by one sender thread
// that shares the daemon loop's core, with hot registry publishes,
// rare kAnalyze queries and open/close churn beside the observe/predict
// reads. The rates are measured in short slices interleaved with the rest
// of the run, so a few seconds of host noise spoil a few slices, not a
// rung.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capture.hpp"
#include "common.hpp"
#include "engine/snapshot.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace perfbench {

/// One registered trace file and the later-execution streams that
/// sessions on it replay (one per section).
struct ServeTrace {
  std::string name;
  std::string path;
  const std::vector<Stream>* streams = nullptr;
};

class ServeBench {
 public:
  static constexpr std::size_t kClients = 3;

  ServeBench(std::vector<ServeTrace> traces, std::uint64_t seed);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Starts the daemon, registers every trace, connects the clients and
  /// opens their sessions: one per stream of every trace, dealt round-robin
  /// over the connections. Part of the benchmark's set-up.
  pythia::Status start();

  /// Warm-up, then slices interleaved with other work, then end(). The
  /// connections record spans into their own tracers when `tracer` is
  /// enabled.
  void begin(Tracer& tracer, Checks& checks);
  void slice(Tracer& tracer, Checks& checks);
  void end(Tracer& tracer, Checks& checks);
  /// True once the nominal rung has `min_nominal_slices` slices and every
  /// other rung (the capacity rung too) has at least one.
  bool measured(std::size_t min_nominal_slices) const;

  /// Collects server-side statistics, then stops clients and daemon.
  void stop(Checks& checks);

  void report_end_to_end(Report& out) const;
  void report_layers(Report& out) const;
  /// Requests attempted over every slice, and the failed ones among those
  /// attempted at or below the nominal rate (faster rungs are allowed to
  /// fail: they find the daemon's limit).
  std::uint64_t attempted() const;
  std::uint64_t failed_through_nominal() const;
  /// Human-readable per-rung table.
  void print_rungs() const;
  /// The connections' tracers (for span output and self times).
  std::vector<const Tracer*> tracers() const;

 private:
  struct Generator;
  struct SliceStats {
    std::uint64_t due = 0, sent = 0, succeeded = 0, failed = 0;
    std::uint64_t backlog_end = 0;  ///< due by the slice's end, not yet sent
    double p99_us = 0;
    double late_p99_us = 0;   ///< generator lateness (send - due)
    double end_late_us = 0;   ///< median lateness of the last tenth
    double daemon_busy = 0;   ///< daemon loop CPU time / wall time
    double completed_rps = 0;  ///< completions inside the slice window
    double core_cpu_s = 0;     ///< sender + loop thread CPU time
  };
  struct RungResult {
    double rate = 0;
    std::size_t slices = 0;
    std::uint64_t due = 0, sent = 0, succeeded = 0, failed = 0;
    std::uint64_t backlog_end = 0;  ///< worst slice
    double p50_us = 0;  ///< over every request of the rung
    double p99_us = 0, late_p99_us = 0, end_late_us = 0;
    double pooled_p99_us = 0;  ///< p99 over every request of the rung
    double daemon_busy = 0;
    double completed_rps = 0;  ///< mean over the rung's slices
    /// Requests answered per CPU second of the sender and the loop.
    double core_rps = 0;
    bool passed = false;
  };

  std::size_t pick_session(Generator& g) const;
  bool request(Generator& g, std::uint64_t now);
  bool open_session(Generator& g, std::size_t slot, std::uint64_t id);
  bool close_session(Generator& g, std::size_t slot, std::uint64_t id);
  bool analyze(Generator& g, std::uint64_t id);
  bool observe(Generator& g, std::size_t slot, std::uint64_t id);
  bool predict(Generator& g, std::size_t slot, std::uint64_t id);
  /// How long after its window a drive keeps sending due requests: not
  /// at all, for a quarter of the window (the rest are abandoned and
  /// fail), or until every due request is sent.
  enum class Drain { kNone, kAllowance, kAll };
  /// `core_cpu_s` is the CPU time the sender and the loop thread used
  /// from `start` until the sender finished.
  void drive(Tracer& tracer, Checks& checks, double rate, double seconds,
             Drain drain, std::uint64_t& start, std::uint64_t& end,
             double& core_cpu_s);
  SliceStats evaluate(std::uint64_t start, std::uint64_t end,
                      Samples& pooled) const;
  void publish_one(Tracer& tracer, Checks& checks);
  void check_analysis(Tracer& tracer, Checks& checks);

  std::vector<ServeTrace> traces_;
  std::uint64_t seed_;
  std::vector<std::shared_ptr<const pythia::engine::TraceSnapshot>> mapped_;
  std::unique_ptr<pythia::serve::Daemon> daemon_;
  int daemon_tid_ = 0;
  int serve_cpu_ = -1;  ///< core of the loop thread and the sender
  std::vector<std::unique_ptr<Generator>> generators_;
  std::uint64_t published_version_ = 1;
  /// Offset into the next drive of its first publish.
  std::uint64_t next_publish_ns_ = 0;
  std::uint64_t drives_ = 0;
  std::size_t next_slice_ = 0, next_other_ = 0;
  std::vector<std::vector<SliceStats>> slices_;  ///< per rung (+ capacity)
  std::vector<Samples> pooled_us_;  ///< every latency, per rung
  std::vector<RungResult> rungs_;

  // Layer figures.
  Samples publish_ns_, make_ns_, query_ns_, phases_ns_;
  pythia::serve::TraceRegistry::Stats registry_stats_{};
  pythia::serve::ServerCore::Stats server_stats_{};
  pythia::serve::Daemon::Stats transport_stats_{};
};

}  // namespace perfbench
