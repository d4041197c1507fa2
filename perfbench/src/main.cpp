// perfbench — the system benchmark of the PYTHIA oracle.
//
//   perfbench --workload <replay-regular|replay-irregular|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1> --dir <work dir>
//             [--spans <file>]
//
// Every workload runs the same three stages on its own inputs:
//   1. the replay pipeline (record -> finish -> compile -> save -> mapped
//      load -> predict replay -> online learn-while-running) over every
//      captured rank stream of its app set;
//   2. the open-loop predict-daemon ladder over the traces recorded at
//      set-up;
//   3. the harness -> ompsim decision loop behind the virtual speedups.
// The workloads differ in inputs and in how the time budget is split
// (see README.md). With --trace 0 the last stdout line carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a traced run (spans around the calls into each layer).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "capture.hpp"
#include "common.hpp"
#include "harness/runner.hpp"
#include "replay.hpp"
#include "serve_mix.hpp"

namespace perfbench {
namespace {

using namespace pythia;

/// Problem scale of the app skeletons (AppConfig::scale).
constexpr double kAppScale = 20.0;
/// Set-up runs per invocation; setup_s is their median.
constexpr int kSetups = 3;
/// Fewest nominal-rate slices a run measures, however short --seconds;
/// every other rung gets at least one slice too.
constexpr std::size_t kMinNominalSlices = 3;

struct Workload {
  std::string name;
  std::vector<std::string> sets;  ///< app sets replayed and served
  double serve_share;             ///< of the measured time
};

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> workloads = {
      {"replay-regular", {"regular"}, 0.25},
      {"replay-irregular", {"irregular"}, 0.25},
      {"serve-mixed", {"regular", "irregular"}, 0.5},
  };
  for (const Workload& workload : workloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

struct Setup {
  std::vector<AppStreams> streams;
  std::vector<std::string> references;  ///< trace file per app, seed s
  std::unique_ptr<ServeBench> serve;
};

/// Capture, reference recording, trace files, daemon start and trace
/// registration: everything a run needs before it measures.
Status run_setup(const Workload& workload, std::uint64_t seed,
                 const std::string& dir, Setup& out) {
  std::vector<const apps::App*> apps;
  for (const std::string& set : workload.sets) {
    for (const apps::App* app : app_set(set)) apps.push_back(app);
  }
  out.streams = capture_streams(apps, seed, kAppScale);
  out.references.clear();
  std::vector<ServeTrace> traces;
  const std::string ref_dir = dir + "/ref";
  std::filesystem::create_directories(ref_dir);
  Tracer untraced(false);
  for (const AppStreams& app : out.streams) {
    const std::string path = ref_dir + "/" + app.app->name() + ".pythia";
    Trace trace;
    RecordFigures figures;
    Status saved = record_and_save(app, path, untraced, trace, figures);
    if (!saved.ok()) return saved;
    traces.push_back({app.app->name(), path, &app.replay});
    out.references.push_back(path);
  }
  out.serve = std::make_unique<ServeBench>(std::move(traces), seed);
  return out.serve->start();
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// The harness -> ompsim decision loop: each hybrid app of the workload
/// runs vanilla, predict-guided (adaptive OpenMP teams, reference from
/// set-up) and online, all on the later execution (seed s + 1).
void run_speedups(const Setup& setup, std::uint64_t seed, Tracer& tracer,
                  Checks& checks, Report& e2e, Report& layers) {
  std::vector<double> predict_ratio, online_ratio;
  ompsim::OmpRuntime::Stats predict_omp{}, online_omp{};
  for (std::size_t a = 0; a < setup.streams.size(); ++a) {
    const apps::App& app = *setup.streams[a].app;
    if (!app.hybrid()) continue;
    harness::RunConfig base;
    base.ranks = kRanks;
    base.app.scale = kAppScale;
    base.app.seed = seed + 1;
    harness::RunConfig vanilla = base;
    vanilla.mode = harness::Mode::kVanilla;
    Result<Trace> reference = Trace::try_load(setup.references[a]);
    if (!reference.ok()) {
      checks.expect(false, app.name() + ": reference reload failed");
      continue;
    }
    const Trace reference_trace = reference.take();
    harness::RunConfig predict = base;
    predict.mode = harness::Mode::kPredict;
    predict.reference = &reference_trace;
    predict.omp_adaptive = true;
    harness::RunConfig online = base;
    online.mode = harness::Mode::kOnline;
    online.omp_adaptive = true;

    harness::RunResult v, p, o;
    {
      ScopedSpan span(tracer, "harness", "vanilla");
      v = harness::run_app(app, vanilla);
    }
    {
      ScopedSpan span(tracer, "harness", "predict");
      p = harness::run_app(app, predict);
    }
    {
      ScopedSpan span(tracer, "harness", "online");
      o = harness::run_app(app, online);
    }
    predict_ratio.push_back(static_cast<double>(v.makespan_virtual_ns) /
                            static_cast<double>(p.makespan_virtual_ns));
    online_ratio.push_back(static_cast<double>(v.makespan_virtual_ns) /
                           static_cast<double>(o.makespan_virtual_ns));
    for (auto [sum, add] : {std::pair{&predict_omp, &p.omp_stats},
                            std::pair{&online_omp, &o.omp_stats}}) {
      sum->regions += add->regions;
      sum->threads_used_total += add->threads_used_total;
      sum->adaptive_decisions += add->adaptive_decisions;
      sum->fallback_decisions += add->fallback_decisions;
      sum->degraded_decisions += add->degraded_decisions;
    }
  }
  e2e.set("virtual_speedup", "ratio", geomean(predict_ratio),
          predict_ratio.size());
  e2e.set("online_virtual_speedup", "ratio", geomean(online_ratio),
          online_ratio.size());
  for (auto [prefix, stats] : {std::pair{"ompsim.predict.", &predict_omp},
                               std::pair{"ompsim.online.", &online_omp}}) {
    const std::string base = prefix;
    layers.set(base + "regions", "count", static_cast<double>(stats->regions),
               1);
    layers.set(base + "adaptive_decisions", "count",
               static_cast<double>(stats->adaptive_decisions), 1);
    layers.set(base + "fallback_decisions", "count",
               static_cast<double>(stats->fallback_decisions), 1);
    layers.set(base + "degraded_decisions", "count",
               static_cast<double>(stats->degraded_decisions), 1);
    layers.set(base + "mean_team", "threads", stats->mean_team(), 1);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The layers whose self time the traced run reports.
const char* const kLayers[] = {
    "core.record",     "core.compile", "core.trace_io", "engine.snapshot",
    "core.predict",    "core.online",  "harness",       "serve.client",
    "serve.registry",  "analysis",     "bench",         "trace.probe"};

void print_json_line(const Report& report, bool correct,
                     std::uint64_t attempted, std::uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Report::Metric& metric : report.metrics()) {
    // JSON has no infinities: an unmeasurable value (e.g. every request
    // of the nominal rung failed) is reported as a huge finite number.
    const double value = std::isfinite(metric.value) ? metric.value : 1e12;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", metric.name.c_str(), value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void print_table(const char* title, const Report& report) {
  std::printf("  %s\n", title);
  for (const Report::Metric& metric : report.metrics()) {
    std::printf("    %-40s %18.6g %-9s n=%zu\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <replay-regular|replay-irregular"
               "|serve-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--dir <work dir> [--spans <file>]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name, dir, spans_path;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--dir") {
      dir = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      dir.empty() || argc % 2 == 0) {
    return usage();
  }
  const bool traced = trace == 1;

  Checks checks;
  Tracer main_tracer(traced);
  Tracer plain(false);

  // Set-up, several times; the last one's products are used. Timed with
  // the process's CPU clock: its threads wait only for each other, and
  // the CPU clock leaves out the time a virtual machine's host ran other
  // guests (see thread_cpu_ns).
  Samples setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    if (setup.serve) {
      Checks discarded;
      setup.serve->stop(discarded);
      setup.serve.reset();
    }
    const std::uint64_t start = process_cpu_ns();
    Status status = run_setup(*workload, seed, dir, setup);
    setup_s.add(static_cast<double>(process_cpu_ns() - start) * 1e-9);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.message().c_str());
      return 1;
    }
  }
  std::uint64_t events = 0;
  for (const AppStreams& app : setup.streams) {
    events += app.reference_events() + app.replay_events();
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %zu apps x %d "
              "ranks, %llu captured events, set-up %.3f CPU s (median of "
              "%d)\n",
              workload->name.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace, setup.streams.size(), kRanks,
              static_cast<unsigned long long>(events), setup_s.median(),
              kSetups);

  // Replay steps (one app each) interleaved with daemon slices, keeping
  // the serve share of the measured time; both sample the whole run, so a
  // few seconds of host noise touch a few samples of each. The run ends
  // between passes once --seconds are spent. A traced run alternates
  // traced and untraced replay passes to measure the tracing overhead.
  ReplayBench replay(setup.streams, dir + "/replay");
  ServeBench& serve = *setup.serve;
  serve.begin(main_tracer, checks);
  const double serve_per_replay =
      workload->serve_share / (1.0 - workload->serve_share);
  double replay_ns = 0, serve_ns = 0;
  const std::uint64_t measure_end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (!replay.at_pass_start() || now_ns() < measure_end ||
         replay.completed_passes() < 2 ||
         !serve.measured(kMinNominalSlices)) {
    Tracer& tracer =
        traced && replay.completed_passes() % 2 == 1 ? main_tracer : plain;
    std::uint64_t start = now_ns();
    replay.step(tracer, checks);
    replay_ns += static_cast<double>(now_ns() - start);
    while (serve_ns < replay_ns * serve_per_replay) {
      start = now_ns();
      serve.slice(main_tracer, checks);
      serve_ns += static_cast<double>(now_ns() - start);
    }
  }
  const std::uint64_t measured = now_ns();
  serve.end(main_tracer, checks);
  serve.stop(checks);
  replay.verify(checks);
  const std::uint64_t verified = now_ns();
  serve.print_rungs();

  // The decision loop behind the virtual speedups (untimed).
  Report e2e, layers;
  run_speedups(setup, seed, main_tracer, checks, e2e, layers);
  std::printf("  wall: measured %.1f s, checks %.1f s, speedups %.1f s\n",
              static_cast<double>(measured - measure_end) * 1e-9 + seconds,
              static_cast<double>(verified - measured) * 1e-9,
              static_cast<double>(now_ns() - verified) * 1e-9);

  e2e.set("setup_s", "s", setup_s.median(), setup_s.size());
  replay.report_end_to_end(e2e);
  setup.serve->report_end_to_end(e2e);
  e2e.set("peak_rss_mb", "MB", peak_rss_mb(), 1);

  const std::uint64_t attempted = checks.attempted + setup.serve->attempted();
  const std::uint64_t failed =
      checks.failed + setup.serve->failed_through_nominal();
  for (const std::string& failure : checks.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("  checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));

  if (!traced) {
    print_table("end-to-end metrics", e2e);
    print_json_line(e2e, failed == 0, attempted, failed);
    return 0;
  }

  replay.report_layers(layers);
  setup.serve->report_layers(layers);
  std::vector<std::pair<int, const Tracer*>> all = {{0, &main_tracer}};
  int thread = 1;
  for (const Tracer* tracer : setup.serve->tracers()) {
    all.emplace_back(thread++, tracer);
  }
  std::map<std::string, double> self;
  for (const auto& [index, tracer] : all) {
    for (const auto& [layer, ns] : layer_self_ns(tracer->spans())) {
      self[layer] += ns;
    }
  }
  double total_self = 0.0;
  for (const auto& [layer, ns] : self) total_self += ns;
  for (const char* layer : kLayers) {
    const double ns = self.count(layer) != 0 ? self[layer] : 0.0;
    layers.set(std::string("layer.") + layer + ".self_ms", "ms", ns * 1e-6,
               1);
    layers.set(std::string("layer.") + layer + ".self_share", "ratio",
               total_self > 0 ? ns / total_self : 0.0, 1);
  }
  if (!spans_path.empty() && !write_spans(spans_path, all)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 spans_path.c_str());
  }
  print_table("per-layer metrics (traced run)", layers);
  print_table("end-to-end metrics of this traced run (not for comparison)",
              e2e);
  print_json_line(layers, failed == 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
