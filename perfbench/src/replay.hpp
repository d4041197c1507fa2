// The record -> finish -> compile -> save -> mapped load -> predict ->
// online pipeline, run over every captured stream of one app set.
#pragma once

#include <string>
#include <vector>

#include "capture.hpp"
#include "common.hpp"
#include "core/trace_io.hpp"

namespace perfbench {

/// What one record_and_save call measured, summed over its streams.
struct RecordFigures {
  double event_ns = 0;   ///< Oracle::record event() calls
  double record_ns = 0;  ///< event() calls plus finish()
  double finish_ns = 0;  ///< finish() + compile() + try_save()
  double events = 0;
  double allocations = 0;  ///< during event() calls (traced only)
  double rules = 0, blob_bytes = 0;
  Samples finish_call_ns, compile_ns, save_ns;  ///< one sample per call

  void add(const RecordFigures& other);
};

/// Records every reference stream of `app` (Oracle::record(true) event()
/// -> finish() -> ThreadTrace::compile()) into `trace` and saves it to
/// `path`. Set-up and the replay pipeline both build their trace files
/// here; event() runs in spans of a batch of events.
pythia::Status record_and_save(const AppStreams& app, const std::string& path,
                               Tracer& tracer, pythia::Trace& trace,
                               RecordFigures& figures);

class ReplayBench {
 public:
  /// `dir` receives one trace file per app (rewritten every pass).
  ReplayBench(std::vector<AppStreams>& apps, const std::string& dir);

  /// Runs the pipeline over the streams of the next app; the step that
  /// completes a pass over every app adds one sample of each end-to-end
  /// figure. Steps let the caller interleave other work between apps.
  /// Pass the same tracer for every step of a pass: with an enabled one
  /// the pass records spans and fills the per-layer accumulators; with a
  /// disabled one it feeds only the end-to-end samples. Alternating the
  /// two over passes measures the tracing overhead.
  void step(Tracer& tracer, Checks& checks);

  /// True between passes (the next step starts a new one).
  bool at_pass_start() const { return next_app_ == 0; }

  /// Passes completed so far (traced and untraced).
  std::size_t completed_passes() const {
    return plain_.record_eps.size() + traced_.record_eps.size();
  }

  /// Differential check on the saved traces: every k-th prediction of the
  /// compiled (mapped) path must equal the interpreted Predictor over the
  /// same grammar. Untimed.
  void verify(Checks& checks) const;

  /// End-to-end metrics from the untraced passes.
  void report_end_to_end(Report& out) const;
  /// Per-layer metrics from the traced passes, plus the tracing overhead
  /// (traced / untraced pass medians) of each replay end-to-end metric.
  void report_layers(Report& out) const;

 private:
  struct PassSamples {
    Samples record_eps, finish_s, cold_ms, predict_eps, online_eps;
    Samples predict_hit, online_hit;
  };

  std::vector<AppStreams>& apps_;
  std::vector<std::string> paths_;         ///< per app
  /// Online ramp_digest of each stream in its first pass, per app.
  std::vector<std::vector<std::uint64_t>> ramp_digests_;
  std::uint64_t recorded_events_ = 0;      ///< per pass
  std::uint64_t file_bytes_ = 0;           ///< per pass

  /// Sums of the pass in progress.
  struct PassState {
    double record_ns = 0, finish_ns = 0, cold_ns = 0, predict_ns = 0,
           online_ns = 0;
    std::uint64_t recorded = 0, predicted = 0, learned = 0;
    std::uint64_t predict_hits = 0, predict_scored = 0;
    std::uint64_t online_hits = 0, online_scored = 0;
    std::uint64_t file_bytes = 0;
  };
  PassState current_;
  std::size_t next_app_ = 0;

  PassSamples plain_;
  PassSamples traced_;

  // Per-layer accumulators (traced passes).
  RecordFigures record_;
  Samples load_mapped_ns_;
  double predict_batch_ns_ = 0, predict_events_ = 0;
  Samples predict1_ns_, time_ns_, window_ns_;
  double windows_ = 0;
  pythia::Predictor::Stats predictor_{};
  double degraded_events_ = 0;
  double online_observe_ns_ = 0, online_observes_ = 0;
  Samples online_publish_ns_, online_predict1_ns_;
  double online_publishes_ = 0, online_incremental_ = 0, online_dirty_ = 0;
  double online_served_ = 0, online_events_ = 0, online_withheld_ = 0;
  double online_trips_ = 0, online_self_hits_ = 0;
};

}  // namespace perfbench
