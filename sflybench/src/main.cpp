// sfly_bench — the sfly-bench workload runner.
//
//   sfly_bench --workload NAME --seed N --seconds S --trace 0|1
//              --sflyd PATH --workdir DIR [--threads N]
//   sfly_bench --workload sim_sweep|failure_trials --workdir DIR
//              --setup-child 1 [--threads N]
//
// Runs one workload (sim_sweep, svc_mix, large_route, failure_trials),
// prints its named figures and gate results as "# ..." lines, and ends
// with one JSON line: {"correct","attempted","failed","metrics"}.  With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set, and the spans are written to DIR/trace-*.jsonl.
// Exit code: 0 when every correctness gate passed, 1 otherwise, 2 on
// bad arguments.  --setup-child 1 only performs the workload's set-up,
// prints "ready" and exits: the fresh process that setup_s times.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace sflybench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sfly_bench --workload sim_sweep|svc_mix|large_route|"
               "failure_trials --seed N --seconds S --trace 0|1 --sflyd PATH "
               "--workdir DIR [--threads N] [--setup-child 0|1]\n");
  return 2;
}

bool parse_args(int argc, char** argv, RunArgs& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--threads") {
      a.threads = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
      if (*end || a.threads == 0) return false;
    } else if (k == "--sflyd") {
      a.sflyd = v;
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--setup-child") {
      if (v != "0" && v != "1") return false;
      a.setup_child = v == "1";
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.workdir.empty();
}

// Every per-layer metric a traced run reports, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"topo.graph_build_s", "s"},
      {"routing.tables_build_s", "s"},
      {"routing.tables_bytes", "B"},
      {"routing.next_hops_build_s", "s"},
      {"routing.next_hops_bytes", "B"},
      {"routing.large_index_build_s", "s"},
      {"routing.large_index_bytes", "B"},
      {"routing.boundary_frac", "ratio"},
      {"routing.dst_prepare_ms", "ms"},
      {"routing.prepares_per_route", "count"},
      {"routing.route_walk_us", "us"},
      {"spectral.spectra_s", "s"},
      {"graph.failure_sample_s", "s"},
      {"graph.distance_stats_s", "s"},
      {"partition.bisection_s", "s"},
      {"sim.events", "count"},
      {"sim.packets_forwarded", "count"},
      {"sim.scenario_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"engine.scenario_s_max", "s"},
      {"engine.pool_idle_frac", "ratio"},
      {"engine.sink_s", "s"},
      {"engine.journal_bytes", "B"},
      {"service.snapshot_open_s", "s"},
      {"service.snapshot_load_s", "s"},
      {"service.snapshot_bytes", "B"},
      {"service.decode_us", "us"},
      {"service.handle_route_us", "us"},
      {"service.handle_sim_ms", "ms"},
      {"service.frontend_p50_us", "us"},
      {"service.frontend_p99_us", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  return m;
}

using Runner = void (*)(const RunArgs&, Outcome&, bool);

Runner runner_for(const std::string& w) {
  if (w == "sim_sweep") return run_sim_sweep;
  if (w == "svc_mix") return run_svc_mix;
  if (w == "large_route") return run_large_route;
  if (w == "failure_trials") return run_failure_trials;
  return nullptr;
}

using Setup = void (*)(const RunArgs&);

Setup setup_for(const std::string& w) {
  if (w == "sim_sweep") return set_up_sim_sweep;
  if (w == "failure_trials") return set_up_failure_trials;
  return nullptr;
}

// A traced run reports every per-layer metric.  Layers the workload does
// not exercise are measured by the other workloads' probe configurations
// (small topologies, a fraction of a second each), in this order.
void fill_missing_layers(const RunArgs& a, Outcome& out) {
  const char* order[] = {"sim_sweep", "svc_mix", "large_route", "failure_trials"};
  for (const char* w : order) {
    bool missing = false;
    for (const auto& [name, unit] : layer_metrics())
      if (!out.layer.count(name)) missing = true;
    if (!missing) return;
    if (a.workload == w) continue;
    Outcome probe;
    {
      Span s("probe");
      runner_for(w)(a, probe, /*probe=*/true);
    }
    if (!probe.correct)
      for (const auto& e : probe.errors) out.fail(std::string("probe ") + w + ": " + e);
    for (const auto& [name, m] : probe.layer)
      if (!out.layer.count(name)) {
        out.layer[name] = m;
        out.facts["layer_source." + name] = std::string("probe:") + w;
      }
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs a;
  if (!parse_args(argc, argv, a)) return usage();
  if (a.setup_child) {
    const Setup set_up = setup_for(a.workload);
    if (!set_up) return usage();
    set_up(a);
    std::printf("ready\n");
    std::fflush(stdout);
    return 0;
  }
  const Runner run = runner_for(a.workload);
  if (!run) return usage();
  ::mkdir(a.workdir.c_str(), 0755);

  Tracer::get().enable(a.trace);
  Outcome out;
  try {
    run(a, out, /*probe=*/false);
    if (a.trace) fill_missing_layers(a, out);
  } catch (const std::exception& e) {
    out.fail(std::string("exception: ") + e.what());
  }

  if (out.attempted == 0) {  // nothing ran: count the run itself as failed
    out.attempted = 1;
    out.failed = 1;
    out.fail("no operation was attempted");
  }

  std::string metrics;
  if (a.trace) {
    const std::string path = a.workdir + "/trace-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".jsonl";
    Tracer::get().write(path);
    std::printf("# spans: %zu written to %s\n", Tracer::get().size(), path.c_str());
    for (const auto& [name, t] : Tracer::get().totals())
      std::printf("# span %-26s count %-8llu total %.6f s  self %.6f s\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s, t.self_s);
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = out.layer.find(name);
      if (it == out.layer.end()) {
        out.fail("layer metric not measured: " + name);
        continue;
      }
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": " +
                 json_number(it->second.value) + ", \"unit\": \"" + unit + "\"}");
    }
  } else {
    for (const auto& [name, m] : out.end_to_end)
      metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": " +
                 json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}");
  }
  for (const auto& [name, m] : out.report)
    std::printf("# %-28s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  for (const auto& [name, v] : out.facts)
    std::printf("# %-28s %s\n", name.c_str(), v.c_str());
  std::printf("# %-28s %.6g ratio (%llu of %llu)\n", "failed_frac",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto& e : out.errors) std::printf("# GATE FAILED: %s\n", e.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
