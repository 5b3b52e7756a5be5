// sim_sweep: the four paper-scale Section VI-B topologies at 8192 ranks,
// pattern x load x {minimal, valiant, ugal-l}, streamed through
// Engine::run_sims_stream at --threads into a JSONL journal.  The same grid
// repeats in waves for the whole measuring window; every wave's journal
// bytes must equal a 1-thread evaluation of the grid.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "engine/campaign.hpp"
#include "engine/engine.hpp"
#include "engine/sink.hpp"
#include "topo/bundlefly.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "sinks.hpp"
#include "workloads.hpp"

namespace sflybench {

using namespace sfly;

namespace {

struct SweepConfig {
  std::vector<TopoDef> topos;
  std::vector<sim::Pattern> patterns;
  std::vector<double> loads;
  std::uint32_t ranks = 0;
  std::uint32_t msgs = 0;
};

SweepConfig sweep_config(bool probe) {
  if (probe)
    return {{{"SpectralFly", [] { return topo::lps_graph({11, 7}); }, 8}},
            {sim::Pattern::kRandom, sim::Pattern::kTranspose},
            {0.3},
            256,
            4};
  return {{{"SpectralFly", [] { return topo::lps_graph({23, 13}); }, 8},
           {"DragonFly", [] { return topo::dragonfly_graph({16, 8, 69}); }, 8},
           {"SlimFly", [] { return topo::slimfly_graph({27}); }, 8},
           {"BundleFly",
            [] { return topo::bundlefly_graph({9, 9, topo::BundleShift::kAffine}); },
            6}},
          {sim::Pattern::kRandom, sim::Pattern::kTranspose},
          {0.3, 0.7},
          8192,
          4};
}

// Graphs + exact tables + next-hop index of every topology: everything
// the first scenario needs.
struct SimSetup {
  std::unique_ptr<engine::Engine> eng;
  double graph_s = 0, tables_s = 0, hops_s = 0;
  std::size_t tables_bytes = 0, hops_bytes = 0;
};

SimSetup set_up(const SweepConfig& cfg, unsigned threads) {
  SimSetup su;
  engine::EngineConfig ecfg;
  ecfg.threads = threads;
  su.eng = std::make_unique<engine::Engine>(ecfg);
  for (const auto& t : cfg.topos) {
    su.eng->register_topology(t.name, t.build, t.concentration);
    auto art = su.eng->artifacts().get(t.name);
    auto ts = Clock::now();
    {
      Span s("topo.graph_build");
      (void)art->graph();
    }
    su.graph_s += seconds_since(ts);
    ts = Clock::now();
    {
      Span s("routing.tables_build");
      (void)art->tables();
    }
    su.tables_s += seconds_since(ts);
    ts = Clock::now();
    {
      Span s("routing.next_hops_build");
      (void)art->next_hops();
    }
    su.hops_s += seconds_since(ts);
    const auto f = art->footprint();
    su.tables_bytes += f.tables_bytes;
    su.hops_bytes += f.next_hops_bytes;
  }
  return su;
}

// Work counters and per-scenario wall times of the streamed results.
// The engine reports each scenario's evaluation time but not its start,
// so the recorded engine.scenario span ends at delivery.
class WaveSink final : public engine::ResultSink {
 public:
  void consume(const engine::SimResult& r) override {
    events += r.events;
    packets += r.packets;
    ++delivered;
    if (!r.ok) ++failed;
    wall_ms.push_back(r.wall_ms);
    const double end = Tracer::get().now();
    Tracer::get().record("engine.scenario", end - r.wall_ms / 1e3, end, r.index + 1);
  }
  std::uint64_t events = 0, packets = 0, delivered = 0, failed = 0;
  std::vector<double> wall_ms;
};

}  // namespace

void set_up_sim_sweep(const RunArgs& a) { (void)set_up(sweep_config(false), a.threads); }

void run_sim_sweep(const RunArgs& a, Outcome& out, bool probe) {
  const SweepConfig cfg = sweep_config(probe);
  const double seconds = probe ? 0.5 : a.seconds;

  // --- set-up: timed in kSetupReps fresh processes (setup_s), then once
  // more in this one for the waves (the layer figures).
  std::vector<double> setups;
  if (!probe) {
    setups = fresh_setups(a, kSetupReps);
    if (*std::min_element(setups.begin(), setups.end()) < 0) {
      out.fail("sim_sweep: a fresh-process set-up failed");
      return;
    }
  }
  const auto setup_t0 = Clock::now();
  const SimSetup su = set_up(cfg, a.threads);
  const double setup_here_s = seconds_since(setup_t0);
  engine::Engine* eng = su.eng.get();

  // --- the grid.
  engine::CampaignBuilder grid;
  std::vector<engine::TopologySpec> specs;
  for (const auto& t : cfg.topos) specs.push_back({t.name, t.build, t.concentration});
  grid.patterns(cfg.patterns)
      .loads(cfg.loads)
      .algos({routing::Algo::kMinimal, routing::Algo::kValiant, routing::Algo::kUgalL})
      .topologies(std::move(specs))
      .each([&](engine::Scenario& s) {
        s.workload.nranks = cfg.ranks;
        s.workload.messages_per_rank = cfg.msgs;
        s.seed = a.seed;
      });
  const std::vector<engine::SimScenario> batch = grid.expand_sims();

  // --- measured waves.  In a traced run the waves alternate untraced and
  // traced, so the two waves of a pair see the same host conditions.
  const std::string journal_path =
      a.workdir + (probe ? "/probe_sim.journal.jsonl" : "/sim_sweep.journal.jsonl");
  std::FILE* journal = std::fopen(journal_path.c_str(), "wb");
  if (!journal) {
    out.fail("cannot open journal " + journal_path);
    return;
  }
  engine::JsonlSink jsonl(journal);
  TimedSink timed(jsonl);
  WaveSink waves;
  std::vector<double> wave_rates;  // events/s per wave
  std::size_t wave_count = 0;
  double eval_s = 0, peak_mib = 0;
  double idle_num = 0, idle_den = 0;
  const bool tracing = Tracer::get().enabled();
  const auto start = Clock::now();
  // A traced run always ends with at least one untraced-traced pair,
  // however long a wave takes.
  while (wave_count == 0 || seconds_since(start) < seconds ||
         (tracing && !probe && wave_count < 2)) {
    Tracer::get().enable(tracing && (probe || wave_count % 2 == 1));
    const std::uint64_t events_before = waves.events;
    const std::size_t walls_before = waves.wall_ms.size();
    const auto w0 = Clock::now();
    {
      Span s("engine.wave", wave_count + 1);
      eng->run_sims_stream(batch, {&timed, &waves});
    }
    const double wave_s = seconds_since(w0);
    eval_s += wave_s;
    wave_rates.push_back(static_cast<double>(waves.events - events_before) / wave_s);
    double busy = 0;
    for (std::size_t i = walls_before; i < waves.wall_ms.size(); ++i)
      busy += waves.wall_ms[i] / 1e3;
    idle_num += static_cast<double>(a.threads) * wave_s - busy;
    idle_den += static_cast<double>(a.threads) * wave_s;
    // The set-up and one pass over the batch, as a single run of it sees;
    // later waves repeat the batch on a heap that earlier waves grew.
    if (wave_count == 0) peak_mib = peak_rss_mib();
    ++wave_count;
  }
  Tracer::get().enable(tracing);
  std::fclose(journal);

  // --- correctness: every wave's journal bytes == a 1-thread evaluation.
  std::string reference;
  std::uint64_t ref_events = 0, ref_packets = 0;
  std::vector<double> ref_scenario_s;
  double ref_s = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto t0 = Clock::now();
    engine::SimResult r;
    {
      Span s("sim.evaluate_sim", i + 1);
      r = eng->evaluate_sim(batch[i], i);
    }
    const double d = seconds_since(t0);
    ref_s += d;
    ref_scenario_s.push_back(d);
    ref_events += r.events;
    ref_packets += r.packets;
    reference += engine::jsonl_row(r);
  }
  const std::string written = read_file(journal_path);
  if (written.size() != reference.size() * wave_count) {
    out.fail("sim_sweep: journal holds " + std::to_string(written.size()) +
             " bytes, expected " + std::to_string(wave_count) + " waves of " +
             std::to_string(reference.size()));
  } else {
    for (std::size_t w = 0; w < wave_count; ++w)
      if (written.compare(w * reference.size(), reference.size(), reference) != 0) {
        out.fail("sim_sweep: wave " + std::to_string(w) +
                 " journal differs from the 1-thread evaluation");
        break;
      }
  }
  if (waves.events != ref_events * wave_count)
    out.fail("sim_sweep: event count differs from the 1-thread evaluation");

  out.attempted += waves.delivered;
  out.failed += waves.failed + (batch.size() * wave_count - waves.delivered);

  // The median wave rate: a burst of host noise slows one wave, not the
  // figure.
  const double events_per_s = median(wave_rates);
  if (!probe) {
    out.end_to_end["setup_s"] = {median(setups), "s"};
    out.note("setup_max_s", *std::max_element(setups.begin(), setups.end()), "s");
  }
  out.note("setup_in_process_s", setup_here_s, "s");
  out.end_to_end["peak_rss_mib"] = {peak_mib, "MiB"};
  out.note("vm_hwm_mib", peak_rss_mib(), "MiB");
  out.end_to_end["ops_per_s"] = {events_per_s, "1/s"};

  out.note("scenarios_per_wave", static_cast<double>(batch.size()), "count");
  out.note("waves", static_cast<double>(wave_count), "count");
  out.note("sim_events_per_s", events_per_s, "events/s");
  out.note("scenario_p50_ms", percentile(waves.wall_ms, 0.5), "ms");
  out.note("scenario_p99_ms", percentile(waves.wall_ms, 0.99), "ms");
  out.note("eval_s", eval_s, "s");
  out.note("reference_1thread_s", ref_s, "s");
  out.facts["journal_digest"] = hex64(fnv1a(reference));
  out.note("events_per_wave", static_cast<double>(ref_events), "count");

  // Layers (reported by traced runs).
  out.set_layer("topo.graph_build_s", su.graph_s, "s");
  out.set_layer("routing.tables_build_s", su.tables_s, "s");
  out.set_layer("routing.tables_bytes", static_cast<double>(su.tables_bytes), "B");
  out.set_layer("routing.next_hops_build_s", su.hops_s, "s");
  out.set_layer("routing.next_hops_bytes", static_cast<double>(su.hops_bytes), "B");
  out.set_layer("sim.events", static_cast<double>(ref_events), "count");
  out.set_layer("sim.packets_forwarded", static_cast<double>(ref_packets), "count");
  out.set_layer("sim.scenario_s", median(ref_scenario_s), "s");
  out.set_layer("sim.ns_per_event", ref_s * 1e9 / static_cast<double>(ref_events), "ns");
  out.set_layer("engine.scenario_s_max", percentile(waves.wall_ms, 1.0) / 1e3, "s");
  out.set_layer("engine.pool_idle_frac", idle_num / idle_den, "ratio");
  out.set_layer("engine.sink_s", timed.seconds(), "s");
  out.set_layer("engine.journal_bytes", static_cast<double>(written.size()), "B");
  if (tracing && !probe)
    out.set_layer("trace.overhead_frac", paired_loss(wave_rates), "ratio");
}

}  // namespace sflybench
