#pragma once
// The four sfly-bench workloads and the per-layer probes that fill in a
// traced run's layers its own workload does not exercise.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/graph.hpp"

namespace sflybench {

/// A topology the benchmark registers: registration name, deferred
/// builder, endpoints per router.
struct TopoDef {
  std::string name;
  std::function<sfly::Graph()> build;
  std::uint32_t concentration = 8;
};

/// Set-ups per run of the engine-driven workloads, each in a fresh
/// process; setup_s is their median.
inline constexpr int kSetupReps = 11;
/// sflyd instances per run of the service workloads (each a fresh
/// process serving an equal slice of the window); setup_s is the median
/// of their start-up times.  large_route's cold start takes seconds.
inline constexpr int kWarmInstances = 5;
inline constexpr int kColdInstances = 3;

// Each workload fills `out` with its gate results, attempted/failed
// counts, end-to-end metrics, printed figures and the layer metrics it
// measures (plus trace.overhead_frac in a traced run).  `probe` selects
// the small configuration that measures layers for another workload's
// traced run.
void run_sim_sweep(const RunArgs& a, Outcome& out, bool probe);
void run_svc_mix(const RunArgs& a, Outcome& out, bool probe);
void run_large_route(const RunArgs& a, Outcome& out, bool probe);
void run_failure_trials(const RunArgs& a, Outcome& out, bool probe);

// The set-up alone of the engine-driven workloads, as fresh_setups()
// times it in a child process.
void set_up_sim_sweep(const RunArgs& a);
void set_up_failure_trials(const RunArgs& a);

}  // namespace sflybench
