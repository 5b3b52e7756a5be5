#pragma once
// Shared plumbing for sfly_bench: timing, the in-memory span
// tracer, metric collection, percentile helpers and small process facts.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sflybench {

// ---------------------------------------------------------------------------
// Time.

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Run arguments (see main.cpp for the flag surface).

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 4;
  std::string sflyd;    // path of the sflyd binary
  std::string workdir;  // scratch directory for snapshots, journals, traces
  bool setup_child = false;  // only set up, report "ready" and exit
};

// ---------------------------------------------------------------------------
// Span tracer.  Spans are recorded only while enabled (the traced run);
// each has a name, start/end offsets from the tracer origin, the index of
// the enclosing span on the same thread (-1 = root) and a request id
// (0 = none).  Everything stays in memory until write().

class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its index, or -1 when tracing is off.
  int open(const char* name, std::uint64_t request = 0);
  void close(int index);
  /// Record an already-measured interval (e.g. a scenario's wall time
  /// reported by the engine) as a child of the current span.
  void record(const char* name, double start_s, double end_s,
              std::uint64_t request = 0);
  [[nodiscard]] double now() const { return seconds_since(origin_); }

  struct Totals {
    double total_s = 0.0;  // summed span durations
    double self_s = 0.0;   // total minus time covered by direct children
    std::uint64_t count = 0;
  };
  /// Per-name totals with self time (duration minus direct children).
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Spans as JSON lines (name, start, end, parent, request).
  void write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    const char* name;
    double start, end;
    int parent;
    std::uint64_t request;
  };
  Clock::time_point origin_ = Clock::now();
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : index_(Tracer::get().open(name, request)) {}
  ~Span() { Tracer::get().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Metrics.  A workload fills `end_to_end` (untraced runs) and `layer`
// (traced runs) keyed by metric name; `report` holds the workload's
// named figures (sim_events_per_s, route_p99_us, ...) printed for humans.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;  // gate failures (correct = false)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layer;
  std::vector<std::pair<std::string, Metric>> report;
  std::map<std::string, std::string> facts;  // digests and other labels

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, {value, unit}});
  }
  void set_layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = {value, unit};
  }
};

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Tracing overhead from rates measured alternately untraced (even
/// indices) and traced (odd): the median over pairs (2k, 2k+1) of the
/// relative rate lost with tracing on.  Both members of a pair see the
/// same host conditions.
[[nodiscard]] double paired_loss(const std::vector<double>& rates);

// ---------------------------------------------------------------------------
// Process facts.

/// Peak resident set (VmHWM) of `pid` (0 = this process), MiB; 0 if unknown.
[[nodiscard]] double peak_rss_mib(int pid = 0);

/// Set-up times of `reps` fresh processes: this program run again with
/// --setup-child, each timed from spawn until it reports that its set-up
/// is done, so every figure includes the start-up and first-use costs a
/// user pays (loader, allocator, OpenMP runtime, cold caches).  A set-up
/// that failed or took longer than 120 s is returned as a negative value.
[[nodiscard]] std::vector<double> fresh_setups(const RunArgs& a, int reps);

/// 64-bit FNV-1a, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ull);

[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace sflybench
