#include "serve_mix.hpp"

#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "analysis/query.hpp"
#include "core/compiled_predictor.hpp"
#include "serve/wire.hpp"

namespace perfbench {

using namespace pythia;

namespace {

enum Op : std::uint8_t { kOpen, kObserve, kPredict, kClose, kAnalyze, kOps };
const char* const kOpNames[kOps] = {"open", "observe", "predict", "close",
                                    "analyze"};

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kObserveBatch = 1;
/// Server-side expiry budget for predicts: a request that waited this
/// long in the daemon's backlog is answered kDeadlineExpired.
constexpr std::uint64_t kPredictDeadlineNs = 50'000'000;
/// Offered rates, requests/s over all connections, and the nominal rung
/// (see README.md for why 10k/s); the capacity rung is offered far more
/// than the synchronous connections can carry.
constexpr double kRates[] = {5000, 10000, 20000, 40000, 80000};
constexpr std::size_t kRungs = std::size(kRates);
constexpr std::size_t kNominal = 1;
constexpr double kCapacityRate = 400000;
/// Length of one measured slice and of the unreported warm-up.
constexpr double kSliceSeconds = 0.25;
constexpr double kWarmupSeconds = 0.25;
/// p99 limit a rung must meet (failed requests count as misses).
constexpr double kLatencyLimitUs = 1000.0;
/// Heavy operations on fixed schedules: a registry publish from the main
/// thread, and per connection one kAnalyze and one session churn. One
/// publish per slice length keeps every slice's share of writes equal.
constexpr std::uint64_t kPublishEveryNs = 250'000'000;
constexpr std::uint64_t kAnalyzeEveryNs = 1'000'000'000;
constexpr std::uint64_t kChurnEveryNs = 250'000'000;
constexpr std::uint64_t kSpinNs = 30'000;

/// CPU seconds a thread of this process has used, from its per-thread CPU
/// clock (the clock id glibc's pthread_getcpuclockid builds from a tid);
/// 0 when unknown.
double thread_cpu_s(int tid) {
  if (tid <= 0) return 0.0;
  const auto clock =
      static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6U);
  timespec used{};
  if (::clock_gettime(clock, &used) != 0) return 0.0;
  return static_cast<double>(used.tv_sec) +
         static_cast<double>(used.tv_nsec) * 1e-9;
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    ids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  return ids;
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`.
bool set_cpus(int tid, const cpu_set_t& cpus) {
  return ::sched_setaffinity(tid, sizeof(cpus), &cpus) == 0;
}

/// The highest-numbered core this process may run on; -1 when unknown.
int last_allowed_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) return cpu;
  }
  return -1;
}

double exp_gap_ns(support::Rng& rng, double rate_per_s) {
  const double u = rng.uniform();
  return -std::log(1.0 - u) / rate_per_s * 1e9;
}

/// Waits until `due` (steady clock): a timed sleep until kSpinNs before
/// it, then a short spin. The publisher sleeps so that it takes no CPU
/// from the cores the daemon and the sender use.
void wait_until(std::uint64_t due) {
  const std::uint64_t wake = due > kSpinNs ? due - kSpinNs : 0;
  const timespec at{static_cast<time_t>(wake / 1'000'000'000ULL),
                    static_cast<long>(wake % 1'000'000'000ULL)};
  while (now_ns() < wake) {
    ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr);
  }
  while (now_ns() < due) {
  }
}

/// Busy-waits until `due` (steady clock). The sender never sleeps, so
/// the core it shares with the daemon loop never idles during a drive:
/// no round trip waits for a halted virtual CPU to wake.
void spin_until(std::uint64_t due) {
  while (now_ns() < due) {
  }
}

/// Frame size of an encoded payload; clears it for the next encode.
std::size_t frame_bytes(std::vector<std::uint8_t>& payload) {
  const std::size_t bytes = serve::kFrameHeaderSize + payload.size();
  payload.clear();
  return bytes;
}

}  // namespace

struct ServeBench::Generator {
  /// One per captured rank stream: a rank of an app's later execution.
  struct Session {
    serve::ClientSession client;
    bool open = false;
    std::size_t trace = 0;
    std::uint32_t section = 0;
    double weight = 0;  ///< the stream's events
    std::size_t pos = 0;
    bool observed = false;    ///< next op on it is a predict
    bool verifiable = false;  ///< every reply so far was kOk
    std::unique_ptr<CompiledPredictor> replica;
    std::size_t replica_pos = 0;  ///< stream events the replica observed
  };
  struct Record {
    std::uint64_t due = 0, send = kNever, done = kNever;
    bool ok = false;
  };
  struct Analyzed {
    std::size_t trace;
    std::uint32_t section;
    std::uint64_t events;
    std::uint32_t rules;
    std::size_t phases;
  };

  std::size_t index = 0;
  std::unique_ptr<serve::PredictClient> client;
  support::Rng rng;
  Tracer tracer;
  Checks checks;
  std::vector<Session> sessions;
  std::vector<double> session_cdf;  ///< by weight, normalised
  std::vector<Record> records;
  Samples rtt_us[kOps];
  std::vector<Analyzed> analyzed;
  std::uint64_t requests = 0;
  std::uint64_t next_analyze_ns = 0, next_churn_ns = 0;
  std::uint64_t verified_predicts = 0;
  std::uint64_t lost = 0, shed = 0, expired = 0, errors = 0;
  double wire_bytes = 0, wire_requests = 0;
  std::vector<std::uint8_t> scratch;

  Generator(std::size_t i, std::uint64_t seed) : index(i), rng(seed) {}
};

ServeBench::ServeBench(std::vector<ServeTrace> traces, std::uint64_t seed)
    : traces_(std::move(traces)),
      seed_(seed),
      next_publish_ns_(kPublishEveryNs / 2) {}

ServeBench::~ServeBench() {
  if (daemon_) daemon_->stop();
}

Status ServeBench::start() {
  for (const ServeTrace& trace : traces_) {
    auto mapped = engine::TraceSnapshot::load_mapped(trace.path);
    if (!mapped.ok()) return mapped.status();
    mapped_.push_back(mapped.take());
  }
  serve::DaemonOptions options;
  // Fewer resident traces than registered ones: LRU cold loads (mapped)
  // keep happening under the skewed popularity.
  options.server.registry.max_resident =
      std::max<std::size_t>(2, traces_.size() - 1);
  daemon_ = std::make_unique<serve::Daemon>(options);
  for (const ServeTrace& trace : traces_) {
    Status added = daemon_->core().registry().add(trace.name, trace.path);
    if (!added.ok()) return added;
  }
  // The benchmark's tenants are not rate-limited: admission stays in the
  // path (and counted), but the budget is not what is being measured.
  serve::TenantLimits generous;
  generous.rate_per_sec = 1e9;
  generous.burst = 1e9;
  generous.max_inflight = 1 << 20;
  for (std::size_t i = 0; i < kClients; ++i) {
    serve::AdmissionController& admission = daemon_->core().admission();
    admission.set_limits(
        admission.register_tenant("tenant-" + std::to_string(i)), generous);
  }
  const std::vector<int> before = thread_ids();
  Status started = daemon_->start();
  if (!started.ok()) return started;
  // The daemon's loop thread is the one thread start() added.
  for (int tid : thread_ids()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      daemon_tid_ = tid;
    }
  }
  // The loop thread and the sender share one core (see drive()); when
  // pinning is refused both run wherever the scheduler puts them.
  serve_cpu_ = last_allowed_cpu();
  if (serve_cpu_ >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(serve_cpu_, &one);
    if (!set_cpus(daemon_tid_, one)) serve_cpu_ = -1;
  }
  for (std::size_t i = 0; i < kClients; ++i) {
    auto generator =
        std::make_unique<Generator>(i, seed_ * 1000003ULL + i * 7919ULL + 1);
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
      return Status::io_error("socketpair failed");
    }
    Status adopted = daemon_->adopt(pair[0]);
    if (!adopted.ok()) {
      ::close(pair[1]);
      return adopted;
    }
    serve::ClientOptions client_options;
    client_options.tenant = "tenant-" + std::to_string(i);
    client_options.request_timeout_ms = 2000;
    client_options.max_retries = 0;   // a lost request stays lost
    client_options.degraded_ttl_ms = 0;  // every degraded answer is asked
    client_options.jitter_seed = seed_ + i;
    generator->client = std::make_unique<serve::PredictClient>(client_options);
    Status connected = generator->client->connect_fd(pair[1]);
    if (!connected.ok()) return connected;
    Status hello = generator->client->hello();
    if (!hello.ok()) return hello;
    // Every rank stream of every trace is one session; they are dealt
    // round-robin over the connections. A request picks a session in
    // proportion to its stream's events: a runtime asks the oracle once
    // per event, so a rank's request rate follows its event count.
    std::size_t stream_index = 0;
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      for (std::size_t r = 0; r < traces_[t].streams->size(); ++r) {
        if (stream_index++ % kClients != i) continue;
        Generator::Session session;
        session.trace = t;
        session.section = static_cast<std::uint32_t>(r);
        session.weight =
            static_cast<double>((*traces_[t].streams)[r].events.size());
        generator->sessions.push_back(std::move(session));
      }
    }
    double cumulative = 0.0;
    for (const Generator::Session& session : generator->sessions) {
      cumulative += session.weight;
      generator->session_cdf.push_back(cumulative);
    }
    for (double& c : generator->session_cdf) c /= cumulative;
    // Warm pool: every session is open before anything is measured.
    for (std::size_t slot = 0; slot < generator->sessions.size(); ++slot) {
      if (!open_session(*generator, slot, 0)) {
        return Status::invalid_state("warm-up open failed");
      }
    }
    const std::uint64_t now = now_ns();
    generator->next_analyze_ns =
        now + generator->rng.below(kAnalyzeEveryNs);
    generator->next_churn_ns =
        now + generator->rng.below(kChurnEveryNs);
    generators_.push_back(std::move(generator));
  }
  return Status();
}

std::size_t ServeBench::pick_session(Generator& g) const {
  const double u = g.rng.uniform();
  const auto it =
      std::lower_bound(g.session_cdf.begin(), g.session_cdf.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - g.session_cdf.begin()),
      g.sessions.size() - 1);
}

// Each op below performs one round trip and returns true when the daemon
// answered usefully (kOk, or kDegraded = "run your vanilla policy");
// lost, shed, expired and error replies return false.

bool ServeBench::open_session(Generator& g, std::size_t slot,
                              std::uint64_t id) {
  Generator::Session& s = g.sessions[slot];
  const ServeTrace& trace = traces_[s.trace];
  const std::uint64_t start = now_ns();
  auto opened = g.client->open(trace.name, s.section);
  const std::uint64_t end = now_ns();
  g.tracer.add("serve.client", kOpNames[kOpen], start, end, id, 1);
  g.rtt_us[kOpen].add(static_cast<double>(end - start) * 1e-3);
  g.scratch.clear();
  serve::encode_open(serve::OpenMsg{trace.name, s.section}, g.scratch);
  std::size_t bytes = frame_bytes(g.scratch);
  serve::encode_open_ack(serve::OpenAckMsg{}, g.scratch);
  bytes += frame_bytes(g.scratch);
  g.wire_bytes += static_cast<double>(bytes);
  g.wire_requests += 1;
  if (!opened.ok()) return ++g.lost, false;
  if (!opened.value().open) {
    // kDegraded ("run your vanilla policy") is an answer; the slot stays
    // closed and a later request opens it again.
    const serve::ReplyCode code = opened.value().last_code;
    if (code == serve::ReplyCode::kDegraded) return true;
    code == serve::ReplyCode::kShed ? ++g.shed : ++g.errors;
    return false;
  }
  s.client = opened.take();
  s.open = true;
  // Sessions start at a seeded offset into their stream, so a long run
  // does not replay only stream prefixes.
  s.pos = g.rng.below((*trace.streams)[s.section].events.size() / 2 + 1);
  s.observed = false;
  // The in-process replica mirrors the daemon session: same options and
  // breaker jitter seed, and it observes exactly the events sent.
  Predictor::Options options = Predictor::Options::runtime_defaults();
  options.breaker.backoff_jitter = daemon_->core().options().breaker_jitter;
  options.breaker.jitter_seed = s.client.server_id;
  s.replica = std::make_unique<CompiledPredictor>(
      mapped_[s.trace]->section(s.section).compiled, options);
  s.verifiable = true;
  s.replica_pos = s.pos;
  return true;
}

bool ServeBench::close_session(Generator& g, std::size_t slot,
                               std::uint64_t id) {
  Generator::Session& s = g.sessions[slot];
  const std::uint64_t start = now_ns();
  Status closed = g.client->close(s.client);
  const std::uint64_t end = now_ns();
  g.tracer.add("serve.client", kOpNames[kClose], start, end, id, 1);
  g.rtt_us[kClose].add(static_cast<double>(end - start) * 1e-3);
  serve::encode_close(serve::CloseMsg{s.client.server_id}, g.scratch);
  std::size_t bytes = frame_bytes(g.scratch);
  serve::encode_close_ack(serve::CloseAckMsg{}, g.scratch);
  bytes += frame_bytes(g.scratch);
  g.wire_bytes += static_cast<double>(bytes);
  g.wire_requests += 1;
  s.open = false;
  s.replica.reset();
  if (!closed.ok()) return ++g.lost, false;
  return true;
}

bool ServeBench::analyze(Generator& g, std::uint64_t id) {
  const Generator::Session& picked = g.sessions[pick_session(g)];
  const std::size_t t = picked.trace;
  const std::uint32_t section = picked.section;
  const std::uint64_t start = now_ns();
  auto reply = g.client->analyze(traces_[t].name, section);
  const std::uint64_t end = now_ns();
  g.tracer.add("serve.client", kOpNames[kAnalyze], start, end, id, 1);
  g.rtt_us[kAnalyze].add(static_cast<double>(end - start) * 1e-3);
  g.wire_requests += 1;
  if (!reply.ok()) return ++g.lost, false;
  const auto& r = reply.value();
  if (r.code == serve::ReplyCode::kDegraded) return true;
  if (r.code != serve::ReplyCode::kOk) {
    r.code == serve::ReplyCode::kShed ? ++g.shed : ++g.errors;
    return false;
  }
  g.analyzed.push_back({t, section, r.events, r.rules, r.phases.size()});
  serve::AnalyzeMsg msg;
  msg.trace = traces_[t].name;
  msg.section = section;
  serve::encode_analyze(msg, g.scratch);
  g.wire_bytes += static_cast<double>(
      frame_bytes(g.scratch) + serve::kFrameHeaderSize +
      serve::analyze_ack_bytes(r.phases.size()));
  return true;
}

bool ServeBench::observe(Generator& g, std::size_t slot, std::uint64_t id) {
  Generator::Session& s = g.sessions[slot];
  const Stream& stream = (*traces_[s.trace].streams)[s.section];
  const TerminalId* events = stream.events.data() + s.pos;
  const std::size_t count = std::min(kObserveBatch, stream.events.size() - s.pos);
  const std::uint64_t start = now_ns();
  auto observed = g.client->observe(s.client, events, count);
  const std::uint64_t end = now_ns();
  g.tracer.add("serve.client", kOpNames[kObserve], start, end, id, 1);
  g.rtt_us[kObserve].add(static_cast<double>(end - start) * 1e-3);
  serve::encode_observe(s.client.server_id, events, count, g.scratch);
  std::size_t bytes = frame_bytes(g.scratch);
  serve::encode_observe_ack(serve::ObserveAckMsg{}, g.scratch);
  bytes += frame_bytes(g.scratch);
  g.wire_bytes += static_cast<double>(bytes);
  g.wire_requests += 1;
  s.pos += count;
  s.observed = true;
  if (!observed.ok()) {
    s.verifiable = false;
    return ++g.lost, false;
  }
  const serve::ReplyCode code = observed.value().code;
  if (code != serve::ReplyCode::kOk) s.verifiable = false;
  if (s.verifiable) {
    // Catch the replica up with everything the daemon session observed.
    const std::int32_t span = g.tracer.begin("bench", "replica", id);
    const std::size_t from = s.replica_pos;
    for (; s.replica_pos < s.pos; ++s.replica_pos) {
      s.replica->observe(stream.events[s.replica_pos]);
    }
    g.tracer.end(span, s.pos - from);
  }
  if (code == serve::ReplyCode::kOk || code == serve::ReplyCode::kDegraded) {
    return true;
  }
  code == serve::ReplyCode::kShed ? ++g.shed : ++g.errors;
  return false;
}

bool ServeBench::predict(Generator& g, std::size_t slot, std::uint64_t id) {
  Generator::Session& s = g.sessions[slot];
  s.observed = false;
  const std::uint64_t start = now_ns();
  auto predicted = g.client->predict(s.client, 1, 1, kPredictDeadlineNs);
  const std::uint64_t end = now_ns();
  g.tracer.add("serve.client", kOpNames[kPredict], start, end, id, 1);
  g.rtt_us[kPredict].add(static_cast<double>(end - start) * 1e-3);
  serve::PredictMsg msg;
  msg.session_id = s.client.server_id;
  serve::encode_predict(msg, g.scratch);
  std::size_t bytes = frame_bytes(g.scratch);
  g.wire_requests += 1;
  if (!predicted.ok()) {
    g.wire_bytes += static_cast<double>(bytes);
    s.verifiable = false;
    return ++g.lost, false;
  }
  const serve::PredictResult& r = predicted.value();
  serve::encode_predict_ack(r.code, 0, 0.0, 0.0, r.events.data(),
                            r.events.size(), g.scratch);
  bytes += frame_bytes(g.scratch);
  g.wire_bytes += static_cast<double>(bytes);
  if (r.code == serve::ReplyCode::kOk) {
    if (s.verifiable) {
      const std::int32_t span = g.tracer.begin("bench", "replica", id);
      const std::optional<Prediction> expect = s.replica->predict(1);
      g.tracer.end(span);
      g.checks.expect(
          r.events.empty()
              ? !expect.has_value()
              : expect.has_value() && expect->event == r.events.front(),
          "daemon predict differs from in-process CompiledPredictor on " +
              traces_[s.trace].name);
      ++g.verified_predicts;
    }
    return true;
  }
  s.verifiable = false;
  switch (r.code) {
    case serve::ReplyCode::kDegraded:
      return true;
    case serve::ReplyCode::kShed:
      return ++g.shed, false;
    case serve::ReplyCode::kDeadlineExpired:
      return ++g.expired, false;
    default:
      return ++g.errors, false;
  }
}

bool ServeBench::request(Generator& g, std::uint64_t now) {
  const std::uint64_t id =
      (static_cast<std::uint64_t>(g.index + 1) << 48) | ++g.requests;
  // The heavy ops run on fixed per-second schedules, independent of the
  // offered read rate, so the stalls they cause are the same at every rung.
  if (now >= g.next_analyze_ns) {
    g.next_analyze_ns = now + kAnalyzeEveryNs;
    return analyze(g, id);
  }
  const std::size_t slot = pick_session(g);
  Generator::Session& s = g.sessions[slot];
  if (!s.open) return open_session(g, slot, id);
  if (now >= g.next_churn_ns ||
      s.pos >= (*traces_[s.trace].streams)[s.section].events.size()) {
    if (now >= g.next_churn_ns) g.next_churn_ns = now + kChurnEveryNs;
    return close_session(g, slot, id);
  }
  return s.observed ? predict(g, slot, id) : observe(g, slot, id);
}

void ServeBench::drive(Tracer& tracer, Checks& checks, double rate,
                       double seconds, Drain drain, std::uint64_t& start,
                       std::uint64_t& end, double& core_cpu_s) {
  const auto span_ns = static_cast<std::uint64_t>(seconds * 1e9);
  start = now_ns() + 2'000'000;
  end = start + span_ns;
  const std::uint64_t give_up = drain == Drain::kAll         ? kNever
                                : drain == Drain::kAllowance ? end + span_ns / 4
                                                             : end;
  const std::uint64_t salt = ++drives_;
  // One sender thread serves every connection, in due order over their
  // merged Poisson schedules, on the daemon loop's core: a round trip is
  // two context switches on that core, not two cross-core wake-ups whose
  // cost is the hypervisor's. The main thread (publishes) keeps off it.
  cpu_set_t main_cpus;
  CPU_ZERO(&main_cpus);
  const bool pinned = serve_cpu_ >= 0 &&
                      ::sched_getaffinity(0, sizeof(main_cpus), &main_cpus) == 0;
  if (pinned) {
    cpu_set_t others = main_cpus;
    CPU_CLR(serve_cpu_, &others);
    if (CPU_COUNT(&others) > 0) set_cpus(0, others);
  }
  std::thread sender([this, rate, start, end, give_up, drain, salt,
                      &core_cpu_s] {
    if (serve_cpu_ >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(serve_cpu_, &one);
      set_cpus(0, one);
    }
    const double per_client = rate / static_cast<double>(kClients);
    std::vector<support::Rng> arrivals;
    std::vector<double> due;
    for (auto& generator : generators_) {
      arrivals.emplace_back(seed_ * 0x9e3779b97f4a7c15ULL + salt * 131 +
                            generator->index);
      due.push_back(static_cast<double>(start) +
                    exp_gap_ns(arrivals.back(), per_client));
      generator->records.clear();
    }
    spin_until(start);
    const std::uint64_t sender_cpu = thread_cpu_ns();
    const double loop_cpu = thread_cpu_s(daemon_tid_);
    for (;;) {
      const std::size_t i = static_cast<std::size_t>(
          std::min_element(due.begin(), due.end()) - due.begin());
      if (due[i] >= static_cast<double>(end)) break;
      Generator& g = *generators_[i];
      Generator::Record record;
      record.due = static_cast<std::uint64_t>(due[i]);
      due[i] += exp_gap_ns(arrivals[i], per_client);
      if (now_ns() > give_up) {
        // Past the drain allowance: in a measured rung the request is
        // abandoned (a failure); in the capacity rung it was never due.
        if (drain != Drain::kNone) g.records.push_back(record);
        continue;
      }
      spin_until(record.due);
      record.send = now_ns();
      record.ok = request(g, record.send);
      record.done = now_ns();
      g.records.push_back(record);
    }
    core_cpu_s = static_cast<double>(thread_cpu_ns() - sender_cpu) * 1e-9 +
                 (thread_cpu_s(daemon_tid_) - loop_cpu);
  });
  // Hot publishes beside the reads, from this thread, every
  // kPublishEveryNs of driven time; the schedule carries over from one
  // drive to the next.
  std::uint64_t at = next_publish_ns_;
  for (; at < span_ns; at += kPublishEveryNs) {
    wait_until(start + at);
    publish_one(tracer, checks);
  }
  next_publish_ns_ = at - span_ns;
  sender.join();
  if (pinned) set_cpus(0, main_cpus);
}

ServeBench::SliceStats ServeBench::evaluate(std::uint64_t start,
                                            std::uint64_t end,
                                            Samples& pooled) const {
  SliceStats stats;
  std::vector<const Generator::Record*> records;
  for (const auto& generator : generators_) {
    for (const Generator::Record& record : generator->records) {
      records.push_back(&record);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const auto* x, const auto* y) { return x->due < y->due; });
  Samples latency_us, late_us, end_late_us;
  std::uint64_t completed_in_window = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Generator::Record& record = *records[i];
    ++stats.due;
    if (record.send != kNever) ++stats.sent;
    double latency = std::numeric_limits<double>::infinity();
    if (record.ok) {
      ++stats.succeeded;
      latency = static_cast<double>(record.done - record.due) * 1e-3;
      if (record.done <= end) ++completed_in_window;
    } else {
      // A failed or refused request misses any latency limit.
      ++stats.failed;
    }
    latency_us.add(latency);
    pooled.add(latency);
    const double late =
        record.send == kNever
            ? std::numeric_limits<double>::infinity()
            : static_cast<double>(record.send - record.due) * 1e-3;
    late_us.add(late);
    if (i >= records.size() - records.size() / 10) end_late_us.add(late);
    if (record.due <= end && record.send > end) ++stats.backlog_end;
  }
  stats.p99_us = latency_us.quantile(0.99);
  stats.late_p99_us = late_us.quantile(0.99);
  stats.end_late_us = end_late_us.median();
  stats.completed_rps = static_cast<double>(completed_in_window) /
                        (static_cast<double>(end - start) * 1e-9);
  return stats;
}

void ServeBench::begin(Tracer& tracer, Checks& checks) {
  for (auto& generator : generators_) {
    generator->tracer = Tracer(tracer.enabled());
  }
  // Unreported warm-up at the nominal rate: caches, page faults and the
  // daemon's session tables settle before anything is measured.
  std::uint64_t start = 0, end = 0;
  double core_cpu_s = 0;
  drive(tracer, checks, kRates[kNominal], kWarmupSeconds, Drain::kAll,
        start, end, core_cpu_s);
  slices_.assign(kRungs + 1, {});
  pooled_us_.assign(kRungs + 1, Samples());
}

void ServeBench::slice(Tracer& tracer, Checks& checks) {
  // Slices cycle: one of the other rungs in turn, nominal, capacity,
  // nominal, capacity (the capacity rung has index rates.size()). The two
  // end-to-end rungs get most slices; the others come first in each cycle
  // so that a short run still covers the ladder.
  std::size_t rung = kNominal;
  const std::size_t phase = next_slice_++ % 5;
  if (phase == 0) {
    rung = next_other_++ % (kRungs - 1);
    if (rung >= kNominal) ++rung;
  } else if (phase % 2 == 0) {
    rung = kRungs;
  }
  const bool capacity = rung == kRungs;
  const double rate = capacity ? kCapacityRate : kRates[rung];
  const double cpu_before = thread_cpu_s(daemon_tid_);
  std::uint64_t start = 0, end = 0;
  // Up to the nominal rate every due request is sent: a stall of the host
  // (which stalls the generator too) shows as latency from due time, not
  // as requests the program never saw. Faster rungs may give up on a
  // backlog; the capacity rung only measures completions in its window.
  const Drain drain = capacity           ? Drain::kNone
                      : rung <= kNominal ? Drain::kAll
                                         : Drain::kAllowance;
  double core_cpu_s = 0;
  drive(tracer, checks, rate, kSliceSeconds, drain, start, end, core_cpu_s);
  SliceStats stats = evaluate(start, end, pooled_us_[rung]);
  stats.core_cpu_s = core_cpu_s;
  stats.daemon_busy = (thread_cpu_s(daemon_tid_) - cpu_before) /
                      (static_cast<double>(now_ns() - start) * 1e-9);
  slices_[rung].push_back(stats);
}

bool ServeBench::measured(std::size_t min_nominal_slices) const {
  if (slices_.empty() || slices_[kNominal].size() < min_nominal_slices) {
    return false;
  }
  for (const std::vector<SliceStats>& rung : slices_) {
    if (rung.empty()) return false;
  }
  return true;
}

void ServeBench::end(Tracer& tracer, Checks& checks) {
  rungs_.clear();
  for (std::size_t k = 0; k <= kRungs; ++k) {
    RungResult rung;
    rung.rate = k < kRungs ? kRates[k]
                                         : kCapacityRate;
    Samples p99, late99, end_late, busy, rps;
    double core_cpu_s = 0;
    for (const SliceStats& slice : slices_[k]) {
      core_cpu_s += slice.core_cpu_s;
      rung.due += slice.due;
      rung.sent += slice.sent;
      rung.succeeded += slice.succeeded;
      rung.failed += slice.failed;
      rung.backlog_end = std::max(rung.backlog_end, slice.backlog_end);
      p99.add(slice.p99_us);
      late99.add(slice.late_p99_us);
      end_late.add(slice.end_late_us);
      busy.add(slice.daemon_busy);
      rps.add(slice.completed_rps);
    }
    rung.slices = slices_[k].size();
    rung.pooled_p99_us = pooled_us_[k].quantile(0.99);
    // p50 over every request of the rung, and the mean completion rate
    // (all slices are equally long): both use every sample, where a
    // median over a few slices would move with the slices' mix of heavy
    // operations.
    rung.p50_us = pooled_us_[k].median();
    rung.p99_us = p99.median();
    rung.late_p99_us = late99.median();
    rung.end_late_us = end_late.median();
    rung.daemon_busy = busy.median();
    rung.completed_rps =
        rps.empty() ? 0.0 : rps.sum() / static_cast<double>(rps.size());
    rung.core_rps = core_cpu_s > 0
                        ? static_cast<double>(rung.succeeded) / core_cpu_s
                        : 0.0;
    // A growing backlog shows as lateness that has not drained by the end
    // of a slice: the median lateness of its last tenth of requests.
    rung.passed = rung.slices > 0 &&
                  rung.p99_us <= kLatencyLimitUs &&
                  rung.end_late_us <= kLatencyLimitUs;
    rungs_.push_back(rung);
  }
  check_analysis(tracer, checks);
}

void ServeBench::publish_one(Tracer& tracer, Checks& checks) {
  // Publishes cycle through the traces: sessions pin the version they
  // opened on, so publishing only the hottest trace would make memory
  // depend on which trace the seed made hot.
  const std::uint64_t version = ++published_version_;
  const ServeTrace& trace = traces_[version % traces_.size()];
  Result<Trace> fresh = Status::invalid_state("not loaded");
  {
    ScopedSpan span(tracer, "core.trace_io", "load");
    fresh = Trace::try_load(trace.path);
  }
  checks.expect(fresh.ok(), trace.name + ": publish reload failed");
  if (!fresh.ok()) return;
  const std::uint64_t m0 = now_ns();
  std::shared_ptr<const engine::TraceSnapshot> snapshot;
  {
    ScopedSpan span(tracer, "engine.snapshot", "make");
    snapshot = engine::TraceSnapshot::make(fresh.take(), version);
  }
  const std::uint64_t m1 = now_ns();
  Status published;
  {
    ScopedSpan span(tracer, "serve.registry", "publish");
    published = daemon_->core().registry().publish(trace.name, snapshot);
  }
  const std::uint64_t m2 = now_ns();
  make_ns_.add(static_cast<double>(m1 - m0));
  publish_ns_.add(static_cast<double>(m2 - m1));
  checks.expect(published.ok(), trace.name + ": registry publish failed");
}

void ServeBench::check_analysis(Tracer& tracer, Checks& checks) {
  // The daemon's kAnalyze answers must match the same query run
  // in-process over the mapped section (daemon defaults: depth 4, 256
  // nodes, 1% coverage). Timed here, off the request path.
  analysis::PhaseOptions options;
  options.min_coverage = 0.01;
  options.max_depth = 4;
  options.max_nodes = 256;
  analysis::PhaseTree tree;
  for (const auto& generator : generators_) {
    for (const Generator::Analyzed& seen : generator->analyzed) {
      const ThreadTrace& section = mapped_[seen.trace]->section(seen.section);
      const std::uint64_t q0 = now_ns();
      analysis::Query query;
      {
        ScopedSpan span(tracer, "analysis", "query");
        query = analysis::Query::over_thread(section);
      }
      const std::uint64_t q1 = now_ns();
      {
        ScopedSpan span(tracer, "analysis", "phases");
        query.phases(options, tree);
      }
      const std::uint64_t q2 = now_ns();
      query_ns_.add(static_cast<double>(q1 - q0));
      phases_ns_.add(static_cast<double>(q2 - q1));
      checks.expect(query.events() == seen.events &&
                        query.rules() == seen.rules &&
                        tree.nodes.size() == seen.phases,
                    traces_[seen.trace].name +
                        ": daemon analyze differs from in-process query");
    }
  }
}

void ServeBench::stop(Checks& checks) {
  if (!daemon_) return;
  for (auto& generator : generators_) {
    checks.merge(generator->checks);
    generator->checks = Checks();
  }
  // Stop the loop first: its statistics are loop-thread private, and a
  // client hanging up before it stops would count as a dropped peer.
  daemon_->stop();
  registry_stats_ = daemon_->core().registry().stats();
  if (drives_ > 0) {
    checks.expect(publish_ns_.size() > 0 &&
                      registry_stats_.publishes == publish_ns_.size(),
                  "registry publishes beside the reads did not all land");
  }
  server_stats_ = daemon_->core().stats();
  transport_stats_ = daemon_->transport_stats();
  for (auto& generator : generators_) generator->client.reset();
  daemon_.reset();
}

std::vector<const Tracer*> ServeBench::tracers() const {
  std::vector<const Tracer*> out;
  for (const auto& generator : generators_) out.push_back(&generator->tracer);
  return out;
}

void ServeBench::report_end_to_end(Report& out) const {
  const RungResult& nominal = rungs_[kNominal];
  const RungResult& capacity = rungs_.back();
  out.set("serve_p50_us", "us", nominal.p50_us, nominal.due);
  out.set("serve_max_rps", "req/s", capacity.core_rps, capacity.slices);
  out.set("serve_success_share", "ratio",
          nominal.due > 0 ? static_cast<double>(nominal.succeeded) /
                                static_cast<double>(nominal.due)
                          : 0.0,
          nominal.due);
}

void ServeBench::report_layers(Report& out) const {
  for (Op op : {kOpen, kObserve, kPredict, kAnalyze}) {
    Samples rtt;
    for (const auto& generator : generators_) rtt.append(generator->rtt_us[op]);
    const std::string base = std::string("serve.client.") + kOpNames[op];
    out.set(base + "_rtt_us.p50", "us", rtt.median(), rtt.size());
    out.set(base + "_rtt_us.p99", "us", rtt.quantile(0.99), rtt.size());
  }
  std::uint64_t verified = 0;
  double wire_bytes = 0, wire_requests = 0;
  for (const auto& generator : generators_) {
    verified += generator->verified_predicts;
    wire_bytes += generator->wire_bytes;
    wire_requests += generator->wire_requests;
  }
  out.set("serve.client.verified_predicts", "count",
          static_cast<double>(verified), verified);
  out.set("analysis.query_ns", "ns", query_ns_.median(), query_ns_.size());
  out.set("analysis.phases_ns", "ns", phases_ns_.median(), phases_ns_.size());
  out.set("serve.registry.publish_ns", "ns", publish_ns_.median(),
          publish_ns_.size());
  out.set("engine.snapshot.make_ns", "ns", make_ns_.median(),
          make_ns_.size());
  const auto count = [&out](const char* name, std::uint64_t value) {
    out.set(name, "count", static_cast<double>(value), 1);
  };
  count("serve.registry.cold_loads", registry_stats_.cold_loads);
  count("serve.registry.mapped_loads", registry_stats_.mapped_loads);
  count("serve.registry.mapped_fallbacks", registry_stats_.mapped_fallbacks);
  count("serve.registry.evictions", registry_stats_.evictions);
  count("serve.registry.publishes", registry_stats_.publishes);
  count("serve.server.frames", server_stats_.frames);
  count("serve.server.replies", server_stats_.replies);
  count("serve.server.shed", server_stats_.shed);
  count("serve.server.degraded", server_stats_.degraded);
  count("serve.server.expired", server_stats_.expired);
  count("serve.server.bad_frames", server_stats_.bad_frames);
  count("serve.daemon.dropped_slow_reader",
        transport_stats_.dropped_slow_reader);
  count("serve.daemon.dropped_hangup", transport_stats_.dropped_hangup);
  const RungResult& nominal = rungs_[kNominal];
  // Every nominal request pooled; the sample count is how many lie
  // beyond p99 (the figure needs at least ten).
  out.set("serve.p99_us", "us", nominal.pooled_p99_us, nominal.due / 100);
  out.set("serve.gen.late_us", "us", nominal.late_p99_us, nominal.slices);
  out.set("serve.gen.backlog", "count",
          static_cast<double>(nominal.backlog_end), nominal.slices);
  out.set("serve.daemon.busy_share", "ratio", nominal.daemon_busy,
          nominal.slices);
  out.set("serve.wire.bytes_per_request", "B",
          wire_requests > 0 ? wire_bytes / wire_requests : 0.0,
          static_cast<std::size_t>(wire_requests));
  double max_passing = 0.0;
  for (std::size_t k = 0; k < kRungs; ++k) {
    if (rungs_[k].passed) max_passing = rungs_[k].rate;
  }
  out.set("serve.ladder.max_passing_rps", "req/s", max_passing,
          kRungs);
  for (std::size_t k = 0; k < kRungs; ++k) {
    const RungResult& rung = rungs_[k];
    const std::string base = "serve.rung" + std::to_string(k) + ".";
    out.set(base + "sent", "count", static_cast<double>(rung.sent), 1);
    out.set(base + "succeeded", "count", static_cast<double>(rung.succeeded),
            1);
    out.set(base + "failed", "count", static_cast<double>(rung.failed), 1);
    out.set(base + "p99_us", "us", rung.p99_us, rung.slices);
    out.set(base + "daemon_busy", "ratio", rung.daemon_busy, rung.slices);
  }
  out.set("serve.capacity.daemon_busy", "ratio", rungs_.back().daemon_busy,
          rungs_.back().slices);
  out.set("serve.capacity.wall_rps", "req/s", rungs_.back().completed_rps,
          rungs_.back().slices);
}

std::uint64_t ServeBench::attempted() const {
  std::uint64_t total = 0;
  for (const RungResult& rung : rungs_) total += rung.due;
  return total;
}

std::uint64_t ServeBench::failed_through_nominal() const {
  std::uint64_t total = 0;
  for (std::size_t k = 0; k <= kNominal && k < rungs_.size(); ++k) {
    total += rungs_[k].failed;
  }
  return total;
}

void ServeBench::print_rungs() const {
  std::printf("  serve ladder: open loop, latency from due time; per-rung "
              "p50 and rate/s over all its requests, other figures medians over "
              "its slices; failed = lost + shed + "
              "expired + error + never sent\n");
  std::printf("  %8s %6s %8s %8s %9s %6s %8s %8s %9s %10s %7s %5s  %s\n",
              "rate/s", "slices", "due", "sent", "succeeded", "failed",
              "p50_us", "p99_us", "late99_us", "endlate_us", "backlog",
              "busy", "verdict");
  for (std::size_t k = 0; k < rungs_.size(); ++k) {
    const RungResult& r = rungs_[k];
    const bool capacity = k == kRungs;
    std::printf("  %8.0f %6zu %8llu %8llu %9llu %6llu %8.1f %8.1f %9.1f "
                "%10.1f %7llu %5.2f  %s%s\n",
                r.rate, r.slices, static_cast<unsigned long long>(r.due),
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.succeeded),
                static_cast<unsigned long long>(r.failed), r.p50_us,
                r.p99_us, r.late_p99_us, r.end_late_us,
                static_cast<unsigned long long>(r.backlog_end), r.daemon_busy,
                capacity ? "capacity" : r.passed ? "pass" : "FAIL",
                k == kNominal ? " [nominal]" : "");
  }
  // Each connection carries the same rate; inside one, a session's share
  // is its stream's share of the connection's events.
  std::vector<double> trace_share(traces_.size(), 0.0);
  std::size_t sessions = 0;
  for (const auto& generator : generators_) {
    double total = 0.0;
    for (const Generator::Session& s : generator->sessions) total += s.weight;
    for (const Generator::Session& s : generator->sessions) {
      trace_share[s.trace] += s.weight / total / kClients;
    }
    sessions += generator->sessions.size();
  }
  const auto hottest =
      std::max_element(trace_share.begin(), trace_share.end());
  std::printf("  %zu sessions over %zu traces; hottest trace %s gets %.2f "
              "of requests\n",
              sessions, traces_.size(),
              traces_[static_cast<std::size_t>(hottest - trace_share.begin())]
                  .name.c_str(),
              *hottest);
  std::printf("  capacity: %.0f req/s per CPU second of the serve core, "
              "%.0f req/s of wall time, with %.0f req/s offered\n",
              rungs_.back().core_rps, rungs_.back().completed_rps,
              kCapacityRate);
  const RungResult& nominal = rungs_[kNominal];
  std::printf("  nominal rate: p50 %.1f us, p99 %.1f us over %llu requests "
              "(%llu beyond p99)\n",
              nominal.p50_us, nominal.pooled_p99_us,
              static_cast<unsigned long long>(nominal.due),
              static_cast<unsigned long long>(nominal.due / 100));
  std::uint64_t lost = 0, shed = 0, expired = 0, errors = 0;
  for (const auto& generator : generators_) {
    lost += generator->lost;
    shed += generator->shed;
    expired += generator->expired;
    errors += generator->errors;
  }
  std::printf("  failed replies, all rungs: %llu lost, %llu shed, %llu "
              "expired, %llu errors\n",
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(expired),
              static_cast<unsigned long long>(errors));
}

}  // namespace perfbench
