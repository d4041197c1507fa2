// Shared pieces of the system benchmark: clock, sample sets, the metric
// report and the span tracer.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into each layer of the program (core, engine, analysis, serve,
// harness/ompsim). A span carries a layer name, an operation, start/end,
// its parent span and a request id; spans stay in memory and are written
// out when the run ends.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// CPU time the calling thread has used, in ns. The replay's figures are
/// timed with it: on a virtual machine (with paravirtual steal accounting)
/// it leaves out the time the hypervisor gave the core to other guests,
/// which wall time counts; on a shared 4-core VM such steal episodes made
/// whole runs 15-20 % slower for minutes at a time.
inline std::uint64_t thread_cpu_ns() {
  timespec used{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &used);
  return static_cast<std::uint64_t>(used.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(used.tv_nsec);
}

/// CPU time all threads of this process have used, in ns (set-up runs
/// the harness ranks on several threads).
inline std::uint64_t process_cpu_ns() {
  timespec used{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &used);
  return static_cast<std::uint64_t>(used.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(used.tv_nsec);
}

/// A set of measured values; order statistics on demand.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const {
    double total = 0.0;
    for (double value : values_) total += value;
    return total;
  }
  /// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
  double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double position = q * static_cast<double>(sorted.size() - 1);
    const auto lower = static_cast<std::size_t>(position);
    const std::size_t upper = std::min(lower + 1, sorted.size() - 1);
    const double frac = position - static_cast<double>(lower);
    return sorted[lower] + (sorted[upper] - sorted[lower]) * frac;
  }
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Named metrics with units and sample counts, in insertion order.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
  };

  void set(const std::string& name, const std::string& unit, double value,
           std::size_t samples) {
    for (Metric& metric : metrics_) {
      if (metric.name == name) {
        metric = {name, unit, value, samples};
        return;
      }
    }
    metrics_.push_back({name, unit, value, samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness bookkeeping: every check is one attempted operation; a
/// failed check is a failed operation and fails the run.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
  void merge(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& failure : other.failures) {
      if (failures.size() < 16) failures.push_back(failure);
    }
  }
};

struct Span {
  const char* layer = "";  ///< e.g. "core.record"; static storage
  const char* op = "";     ///< e.g. "finish"; static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;  ///< spans of one request share this id
  std::uint64_t count = 1;    ///< calls covered (batched spans > 1)
};

/// Per-thread span recorder. Disabled tracers record nothing and cost one
/// branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  std::int32_t begin(const char* layer, const char* op,
                     std::uint64_t request = 0) {
    if (!enabled_) return -1;
    Span span;
    span.layer = layer;
    span.op = op;
    span.start_ns = now_ns();
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    spans_.push_back(span);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  void end(std::int32_t id, std::uint64_t count = 1) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    spans_[static_cast<std::size_t>(id)].count = count;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// A span measured elsewhere (start/end already known).
  void add(const char* layer, const char* op, std::uint64_t start_ns,
           std::uint64_t end_ns, std::uint64_t request, std::uint64_t count) {
    if (!enabled_) return;
    Span span{layer, op, start_ns, end_ns,
              stack_.empty() ? -1 : stack_.back(), request, count};
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* layer, const char* op,
             std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(layer, op, request)) {}
  ~ScopedSpan() { tracer_.end(id_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_count(std::uint64_t count) { count_ = count; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
  std::uint64_t count_ = 1;
};

/// Self time per layer over a set of spans: a span's duration minus the
/// part its direct children cover (children never overlap on one thread).
inline std::map<std::string, double> layer_self_ns(
    const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    self[spans[i].layer] += std::max(0.0, duration - child_ns[i]);
  }
  return self;
}

/// Writes spans as tab-separated lines: thread, index, layer, op, start,
/// end, parent, request, count.
inline bool write_spans(const std::string& path,
                        const std::vector<std::pair<int, const Tracer*>>& all) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "thread\tindex\tlayer\top\tstart_ns\tend_ns\tparent\t"
                     "request\tcount\n");
  for (const auto& [thread, tracer] : all) {
    const std::vector<Span>& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(file, "%d\t%zu\t%s\t%s\t%llu\t%llu\t%d\t%llu\t%llu\n",
                   thread, i, s.layer, s.op,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.count));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
