#include "replay.hpp"

#include <filesystem>
#include <optional>
#include <utility>

#include "core/oracle.hpp"
#include "engine/snapshot.hpp"
#include "support/alloc_counter.hpp"

namespace perfbench {

using namespace pythia;

namespace {

/// Events per batched span: event() and predict_event() take ~100 ns or
/// less, so they are spanned per batch, never per call.
constexpr std::size_t kBatch = 1024;
/// k: a predict_sequence_into window of kWindow events every k events.
constexpr std::size_t kWindowEvery = 64;
constexpr std::size_t kWindow = 16;
/// Repetitions of a const predict call per traced probe.
constexpr std::size_t kProbeReps = 64;
/// Every kVerifyEvery-th prediction is checked compiled vs interpreted.
constexpr std::size_t kVerifyEvery = 64;

double ns_between(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start);
}

std::size_t window_into(const Oracle& oracle, TerminalId* out,
                        std::size_t count) {
  if (const CompiledPredictor* compiled = oracle.compiled_predictor()) {
    return compiled->predict_sequence_into(out, count);
  }
  if (const Predictor* predictor = oracle.predictor()) {
    return predictor->predict_sequence_into(out, count);
  }
  return 0;
}

bool hit(const std::optional<Prediction>& prediction, TerminalId next) {
  return prediction.has_value() && prediction->event == next;
}

/// Mean cost of one call of `call` at the oracle's current state, from
/// kProbeReps back-to-back calls (const calls only).
template <typename Call>
double probe_ns(Tracer& tracer, const char* op, Call&& call) {
  volatile std::size_t sink = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < kProbeReps; ++i) sink = sink + call();
  const std::uint64_t end = now_ns();
  tracer.add("trace.probe", op, start, end, 0, kProbeReps);
  return ns_between(start, end) / static_cast<double>(kProbeReps);
}

}  // namespace

void RecordFigures::add(const RecordFigures& other) {
  event_ns += other.event_ns;
  record_ns += other.record_ns;
  finish_ns += other.finish_ns;
  events += other.events;
  allocations += other.allocations;
  rules += other.rules;
  blob_bytes += other.blob_bytes;
  finish_call_ns.append(other.finish_call_ns);
  compile_ns.append(other.compile_ns);
  save_ns.append(other.save_ns);
}

Status record_and_save(const AppStreams& app, const std::string& path,
                       Tracer& tracer, Trace& trace, RecordFigures& figures) {
  const bool traced = tracer.enabled();
  trace = Trace();
  trace.registry = app.registry;
  for (const Stream& stream : app.reference) {
    const std::size_t n = stream.events.size();
    const std::uint64_t allocs_before =
        traced ? support::alloc_snapshot().allocations : 0;
    const std::uint64_t t0 = thread_cpu_ns();
    Oracle recorder = Oracle::record(true);
    for (std::size_t i = 0; i < n; i += kBatch) {
      const std::size_t end = std::min(n, i + kBatch);
      ScopedSpan span(tracer, "core.record", "event");
      span.set_count(end - i);
      for (std::size_t j = i; j < end; ++j) {
        recorder.event(stream.events[j], stream.times_ns[j]);
      }
    }
    const std::uint64_t t1 = thread_cpu_ns();
    if (traced) {
      figures.allocations += static_cast<double>(
          support::alloc_snapshot().allocations - allocs_before);
    }
    ThreadTrace thread;
    {
      ScopedSpan span(tracer, "core.record", "finish");
      thread = recorder.finish();
    }
    const std::uint64_t t2 = thread_cpu_ns();
    bool compiled = false;
    {
      ScopedSpan span(tracer, "core.compile", "compile");
      compiled = thread.compile();
    }
    const std::uint64_t t3 = thread_cpu_ns();
    if (!compiled) {
      return Status::invalid_state(app.app->name() + ": compile failed");
    }
    figures.event_ns += ns_between(t0, t1);
    figures.record_ns += ns_between(t0, t2);
    figures.finish_ns += ns_between(t1, t3);
    figures.events += static_cast<double>(n);
    figures.finish_call_ns.add(ns_between(t1, t2));
    figures.compile_ns.add(ns_between(t2, t3));
    figures.rules += static_cast<double>(thread.grammar.rule_count());
    figures.blob_bytes += static_cast<double>(thread.compiled_blob.size());
    trace.threads.push_back(std::move(thread));
  }
  const std::uint64_t s0 = thread_cpu_ns();
  Status saved;
  {
    ScopedSpan span(tracer, "core.trace_io", "save");
    saved = trace.try_save(path);
  }
  const std::uint64_t s1 = thread_cpu_ns();
  figures.finish_ns += ns_between(s0, s1);
  figures.save_ns.add(ns_between(s0, s1));
  return saved;
}

ReplayBench::ReplayBench(std::vector<AppStreams>& apps,
                         const std::string& dir)
    : apps_(apps) {
  std::filesystem::create_directories(dir);
  ramp_digests_.resize(apps_.size());
  for (const AppStreams& app : apps_) {
    paths_.push_back(dir + "/" + app.app->name() + ".pythia");
  }
}

void ReplayBench::step(Tracer& tracer, Checks& checks) {
  if (next_app_ == 0) current_ = PassState{};
  PassState& pass = current_;
  const bool traced = tracer.enabled();
  TerminalId window[kWindow];

  ScopedSpan step_span(tracer, "bench", "replay_step");
  const std::size_t a = next_app_;
  const AppStreams& app = apps_[a];
  const std::string& name = app.app->name();
  // record -> finish -> compile, one stream per rank, then save. The file
  // is the pipeline's own: the daemon maps the set-up's copies, and the
  // timed save must not replace files under it.
  const std::string& path = paths_[a];
  Trace trace;
  RecordFigures figures;
  const Status saved = record_and_save(app, path, tracer, trace, figures);
  checks.expect(saved.ok(), name + ": " + saved.message());
  pass.record_ns += figures.record_ns;
  pass.finish_ns += figures.finish_ns;
  pass.recorded += static_cast<std::uint64_t>(figures.events);
  if (traced) record_.add(figures);
  std::error_code size_error;
  const auto size = std::filesystem::file_size(path, size_error);
  if (!size_error) pass.file_bytes += size;

  std::vector<std::uint64_t> digests;
  for (const ThreadTrace& thread : trace.threads) {
    digests.push_back(thread_section_digest(thread));
  }

  // Mapped cold load, then predict-mode replay of the later execution.
  const std::uint64_t c0 = thread_cpu_ns();
  Result<std::shared_ptr<const engine::TraceSnapshot>> loaded =
      Status::invalid_state("not loaded");
  {
    ScopedSpan span(tracer, "engine.snapshot", "load_mapped");
    loaded = engine::TraceSnapshot::load_mapped(path);
  }
  const std::uint64_t c1 = thread_cpu_ns();
  pass.cold_ns += ns_between(c0, c1);
  if (traced) load_mapped_ns_.add(ns_between(c0, c1));
  checks.expect(loaded.ok(), name + ": mapped load failed");
  if (loaded.ok()) {
    const std::shared_ptr<const engine::TraceSnapshot> snapshot =
        loaded.take();
    for (std::size_t r = 0; r < app.replay.size(); ++r) {
      checks.expect(r < digests.size() && snapshot->section_ok(r) &&
                        snapshot->section(r).compiled.valid() &&
                        snapshot->section(r).compiled.grammar_digest() ==
                            digests[r],
                    name + ": mapped section digest differs from memory");
    }

    for (std::size_t r = 0; r < app.replay.size(); ++r) {
      const Stream& stream = app.replay[r];
      const std::size_t n = stream.events.size();
      const std::uint64_t q0 = thread_cpu_ns();
      Oracle oracle = Oracle::predict(snapshot->section(r),
                                      Predictor::Options::runtime_defaults());
      std::size_t i = 0;
      bool answered = false;
      {
        ScopedSpan span(tracer, "core.predict", "cold_start");
        while (i < n && !answered) {
          oracle.event(stream.events[i]);
          const std::optional<Prediction> p = oracle.predict_event(1);
          answered = p.has_value();
          if (i + 1 < n) {
            ++pass.predict_scored;
            pass.predict_hits += hit(p, stream.events[i + 1]) ? 1 : 0;
          }
          ++i;
        }
      }
      const std::uint64_t q1 = thread_cpu_ns();
      pass.cold_ns += ns_between(q0, q1);

      double degraded = 0;
      for (std::size_t b = i; b < n; b += kBatch) {
        const std::size_t end = std::min(n, b + kBatch);
        const std::uint64_t b0 = now_ns();
        {
          ScopedSpan span(tracer, "core.predict", "replay");
          span.set_count(end - b);
          for (std::size_t j = b; j < end; ++j) {
            oracle.event(stream.events[j]);
            const std::optional<Prediction> p = oracle.predict_event(1);
            const std::optional<double> t = oracle.predict_time_ns(1);
            (void)t;
            if (j % kWindowEvery == 0) {
              (void)window_into(oracle, window, kWindow);
              if (traced) windows_ += 1;
            }
            if (j + 1 < n) {
              ++pass.predict_scored;
              pass.predict_hits += hit(p, stream.events[j + 1]) ? 1 : 0;
            }
            if (traced && oracle.degraded()) degraded += 1;
          }
        }
        if (traced) {
          predict_batch_ns_ += ns_between(b0, now_ns());
          predict_events_ += static_cast<double>(end - b);
          predict1_ns_.add(probe_ns(tracer, "predict1", [&] {
            return oracle.predict_event(1).has_value() ? 1u : 0u;
          }));
          time_ns_.add(probe_ns(tracer, "time", [&] {
            return oracle.predict_time_ns(1).has_value() ? 1u : 0u;
          }));
          window_ns_.add(probe_ns(tracer, "window", [&] {
            return window_into(oracle, window, kWindow);
          }));
        }
      }
      const std::uint64_t q2 = thread_cpu_ns();
      pass.predict_ns += ns_between(q1, q2);
      pass.predicted += n - i;
      if (traced) {
        const Predictor::Stats& s = oracle.predictor_stats();
        predictor_.observed += s.observed;
        predictor_.reanchored += s.reanchored;
        predictor_.anchors += s.anchors;
        predictor_.anchors_suppressed += s.anchors_suppressed;
        predictor_.unknown += s.unknown;
        degraded_events_ += degraded;
      }
    }
  }

  // Learn-while-running on the same later execution, no reference.
  std::vector<std::uint64_t>& digests_seen = ramp_digests_[a];
  for (std::size_t r = 0; r < app.replay.size(); ++r) {
    const Stream& stream = app.replay[r];
    const std::size_t n = stream.events.size();
    const std::uint64_t o0 = thread_cpu_ns();
    Oracle oracle = Oracle::online();
    const OnlineOracle& online = *oracle.online_oracle();
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t end = std::min(n, b + kBatch);
      ScopedSpan span(tracer, "core.online", "observe_predict");
      span.set_count(end - b);
      for (std::size_t j = b; j < end; ++j) {
        if (traced) {
          const std::uint64_t snapshots = online.stats().snapshots;
          const std::uint64_t e0 = now_ns();
          oracle.event(stream.events[j], stream.times_ns[j]);
          const std::uint64_t e1 = now_ns();
          if (online.stats().snapshots != snapshots) {
            tracer.add("core.online", "publish", e0, e1, 0, 1);
            online_publish_ns_.add(ns_between(e0, e1));
            online_dirty_ += static_cast<double>(
                online.publish_telemetry().last_dirty_rules);
          } else {
            online_observe_ns_ += ns_between(e0, e1);
            online_observes_ += 1;
          }
        } else {
          oracle.event(stream.events[j], stream.times_ns[j]);
        }
        const std::optional<Prediction> p = oracle.predict_event(1);
        if (j + 1 < n) {
          ++pass.online_scored;
          pass.online_hits += hit(p, stream.events[j + 1]) ? 1 : 0;
        }
      }
      if (traced) {
        online_predict1_ns_.add(probe_ns(tracer, "online_predict1", [&] {
          return oracle.predict_event(1).has_value() ? 1u : 0u;
        }));
      }
    }
    pass.online_ns += ns_between(o0, thread_cpu_ns());
    pass.learned += n;

    const std::uint64_t digest = online.ramp_digest();
    if (digests_seen.size() <= r) {
      digests_seen.push_back(digest);
    } else {
      checks.expect(digests_seen[r] == digest,
                    name + ": online ramp_digest differs between passes");
    }
    if (traced) {
      const OnlineOracle::Stats& s = online.stats();
      const OnlineOracle::PublishTelemetry& t = online.publish_telemetry();
      online_publishes_ += static_cast<double>(t.publishes);
      online_incremental_ += static_cast<double>(t.incremental);
      online_served_ += static_cast<double>(s.served_events);
      online_events_ += static_cast<double>(s.events);
      online_withheld_ += static_cast<double>(s.withheld_events);
      online_trips_ += static_cast<double>(s.ramp_trips);
      online_self_hits_ += static_cast<double>(s.hits);
    }
  }
  if (++next_app_ < apps_.size()) return;

  // The pass is complete: one sample of every end-to-end figure.
  next_app_ = 0;
  PassSamples& out = traced ? traced_ : plain_;
  recorded_events_ = pass.recorded;
  file_bytes_ = pass.file_bytes;
  auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  out.record_eps.add(static_cast<double>(pass.recorded) /
                     (pass.record_ns * 1e-9));
  out.finish_s.add(pass.finish_ns * 1e-9);
  out.cold_ms.add(pass.cold_ns * 1e-6);
  out.predict_eps.add(static_cast<double>(pass.predicted) /
                      (pass.predict_ns * 1e-9));
  out.online_eps.add(static_cast<double>(pass.learned) /
                     (pass.online_ns * 1e-9));
  out.predict_hit.add(ratio(pass.predict_hits, pass.predict_scored));
  out.online_hit.add(ratio(pass.online_hits, pass.online_scored));
}

void ReplayBench::verify(Checks& checks) const {
  // Recording is deterministic, so every pass wrote the same files.
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const AppStreams& app = apps_[a];
    Result<Trace> full = Trace::try_load(paths_[a]);
    checks.expect(full.ok(), app.app->name() + ": verify load failed");
    if (!full.ok()) continue;
    const Trace trace = full.take();
    auto loaded = engine::TraceSnapshot::load_mapped(paths_[a]);
    checks.expect(loaded.ok(), app.app->name() + ": verify load failed");
    if (!loaded.ok()) continue;
    const auto snapshot = loaded.take();
    const Predictor::Options options = Predictor::Options::runtime_defaults();
    for (std::size_t r = 0; r < app.replay.size(); ++r) {
      const ThreadTrace& thread = trace.threads[r];
      if (!snapshot->section(r).compiled.valid()) {
        checks.expect(false, app.app->name() + ": no compiled section");
        continue;
      }
      CompiledPredictor compiled(snapshot->section(r).compiled, options);
      Predictor interpreted(thread.grammar,
                            thread.timing.empty() ? nullptr : &thread.timing,
                            options);
      const Stream& stream = app.replay[r];
      for (std::size_t j = 0; j < stream.events.size(); ++j) {
        compiled.observe(stream.events[j]);
        interpreted.observe(stream.events[j]);
        if (j % kVerifyEvery != 0) continue;
        const auto c = compiled.predict(1);
        const auto i = interpreted.predict(1);
        checks.expect(c.has_value() == i.has_value() &&
                          (!c.has_value() || c->event == i->event),
                      app.app->name() + ": compiled and interpreted "
                                        "predictions differ");
      }
    }
  }
}

void ReplayBench::report_end_to_end(Report& out) const {
  const std::size_t n = plain_.record_eps.size();
  out.set("record_events_per_s", "events/s", plain_.record_eps.median(), n);
  out.set("finish_s", "s", plain_.finish_s.median(), n);
  out.set("cold_start_ms", "ms", plain_.cold_ms.median(), n);
  out.set("predict_events_per_s", "events/s", plain_.predict_eps.median(), n);
  out.set("predict_hit_rate", "ratio", plain_.predict_hit.median(), n);
  out.set("online_events_per_s", "events/s", plain_.online_eps.median(), n);
  out.set("online_hit_rate", "ratio", plain_.online_hit.median(), n);
  out.set("bytes_per_event", "B/event",
          recorded_events_ > 0 ? static_cast<double>(file_bytes_) /
                                     static_cast<double>(recorded_events_)
                               : 0.0,
          n);
}

void ReplayBench::report_layers(Report& out) const {
  auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  const std::size_t n = traced_.record_eps.size();
  const auto recorded = static_cast<std::size_t>(record_.events);
  out.set("core.record.ns_per_event", "ns",
          per(record_.event_ns, record_.events), recorded);
  out.set("core.record.allocs_per_event", "count",
          support::alloc_hook_active()
              ? per(record_.allocations, record_.events)
              : 0.0,
          recorded);
  out.set("core.record.finish_ns", "ns", record_.finish_call_ns.median(),
          record_.finish_call_ns.size());
  out.set("core.compile.ns", "ns", record_.compile_ns.median(),
          record_.compile_ns.size());
  out.set("core.trace_io.save_ns", "ns", record_.save_ns.median(),
          record_.save_ns.size());
  out.set("core.grammar.rules", "count", per(record_.rules, n), n);
  out.set("core.compile.blob_bytes", "B", per(record_.blob_bytes, n), n);
  out.set("core.trace_io.file_bytes", "B", static_cast<double>(file_bytes_),
          n);
  out.set("engine.snapshot.load_mapped_ns", "ns", load_mapped_ns_.median(),
          load_mapped_ns_.size());

  const double p1 = predict1_ns_.median();
  const double tn = time_ns_.median();
  const double wn = window_ns_.median();
  // Observe cost: batch time minus the per-event predict calls and the
  // windows, each costed by its probe at the same oracle states.
  const double observe =
      per(predict_batch_ns_ - predict_events_ * (p1 + tn) - windows_ * wn,
          predict_events_);
  out.set("core.predict.observe_ns", "ns", std::max(0.0, observe),
          static_cast<std::size_t>(predict_events_));
  out.set("core.predict.predict1_ns", "ns", p1, predict1_ns_.size());
  out.set("core.predict.time_ns", "ns", tn, time_ns_.size());
  out.set("core.predict.window_ns", "ns", wn, window_ns_.size());
  out.set("core.predict.reanchored", "count",
          per(static_cast<double>(predictor_.reanchored), n), n);
  out.set("core.predict.anchors", "count",
          per(static_cast<double>(predictor_.anchors), n), n);
  out.set("core.predict.anchors_suppressed", "count",
          per(static_cast<double>(predictor_.anchors_suppressed), n), n);
  out.set("core.predict.unknown", "count",
          per(static_cast<double>(predictor_.unknown), n), n);
  out.set("core.predict.degraded_events", "count", per(degraded_events_, n),
          n);

  out.set("core.online.observe_ns", "ns",
          per(online_observe_ns_, online_observes_),
          static_cast<std::size_t>(online_observes_));
  out.set("core.online.publish_ns", "ns", online_publish_ns_.median(),
          online_publish_ns_.size());
  out.set("core.online.publish_ns_sum", "ns", per(online_publish_ns_.sum(), n),
          n);
  out.set("core.online.predict1_ns", "ns", online_predict1_ns_.median(),
          online_predict1_ns_.size());
  out.set("core.online.publishes", "count", per(online_publishes_, n), n);
  out.set("core.online.incremental_publishes", "count",
          per(online_incremental_, n), n);
  out.set("core.online.dirty_rules", "count", per(online_dirty_, n), n);
  out.set("core.online.served_share", "ratio",
          per(online_served_, online_events_), n);
  out.set("core.online.withheld_events", "count", per(online_withheld_, n),
          n);
  out.set("core.online.ramp_trips", "count", per(online_trips_, n), n);
  out.set("core.online.self_hits", "count", per(online_self_hits_, n), n);

  // Tracing overhead: traced-pass median over untraced-pass median, minus
  // one, for each throughput/time the replay reports (both from this run).
  auto overhead = [&](const char* name, const Samples& traced,
                      const Samples& plain, bool rate) {
    if (traced.empty() || plain.empty()) return;
    const double t = traced.median();
    const double p = plain.median();
    // For rates, slower means a lower value; express both as added cost.
    const double value = rate ? (t > 0 ? p / t - 1.0 : 0.0)
                              : (p > 0 ? t / p - 1.0 : 0.0);
    out.set(std::string("trace.overhead.") + name, "ratio", value,
            traced.size());
  };
  overhead("record_events_per_s", traced_.record_eps, plain_.record_eps,
           true);
  overhead("finish_s", traced_.finish_s, plain_.finish_s, false);
  overhead("cold_start_ms", traced_.cold_ms, plain_.cold_ms, false);
  overhead("predict_events_per_s", traced_.predict_eps, plain_.predict_eps,
           true);
  overhead("online_events_per_s", traced_.online_eps, plain_.online_eps,
           true);
}

}  // namespace perfbench
