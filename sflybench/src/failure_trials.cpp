// failure_trials: Fig. 5's large class (LPS(71,17), SlimFly(47),
// BundleFly(137,4), DragonFly(69)) x failure fractions, a fixed number of
// Kind::kStructure trials (seeded link deletion, all-pairs distance
// stats, 2-restart bisection) streamed through Engine::run_stream at
// --threads into a JSONL journal.  The same batch repeats in waves; every
// wave's rows must be byte-identical to the first, and a seeded sample of
// trials recomputed in-process from the public graph/partition calls must
// match the engine's rows.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "engine/engine.hpp"
#include "engine/sink.hpp"
#include "graph/failures.hpp"
#include "graph/metrics.hpp"
#include "partition/bisection.hpp"
#include "sinks.hpp"
#include "topo/bundlefly.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "topo/slimfly.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace sflybench {

using namespace sfly;

namespace {

// engine.cpp derives a scenario's failure-sampling seed as
// split_seed(seed, 0xFA11); the in-process recomputation must use the
// same stream to delete the same links.
constexpr std::uint64_t kFailureStream = 0xFA11;
constexpr int kRestarts = 2;

struct TrialConfig {
  std::vector<TopoDef> topos;
  std::vector<double> fractions;
  std::uint64_t trials = 0;  // per (topology, fraction) point
  std::size_t replays = 0;   // in-process recomputations checked per run
};

TrialConfig trial_config(bool probe) {
  if (probe)
    return {{{"LPS(23,11)", [] { return topo::lps_graph({23, 11}); }, 8}},
            {0.2, 0.4},
            1,
            2};
  return {{{"LPS(71,17)", [] { return topo::lps_graph({71, 17}); }, 8},
           {"SlimFly(47)", [] { return topo::slimfly_graph({47}); }, 8},
           {"BundleFly(137,4)",
            [] { return topo::bundlefly_graph({137, 4, topo::BundleShift::kAffine}); },
            8},
           {"DragonFly(69)",
            [] { return topo::dragonfly_graph(topo::DragonFlyParams::canonical(69)); }, 8}},
          {0.2, 0.4, 0.6},
          1,
          2};
}

class RowSink final : public engine::ResultSink {
 public:
  void consume(const engine::Result& r) override {
    ++delivered;
    if (!r.ok) ++failed;
    wall_ms.push_back(r.wall_ms);
    const double end = Tracer::get().now();
    Tracer::get().record("engine.scenario", end - r.wall_ms / 1e3, end, r.index + 1);
    if (first_wave) rows.push_back(r);
  }
  bool first_wave = true;
  std::uint64_t delivered = 0, failed = 0;
  std::vector<double> wall_ms;
  std::vector<engine::Result> rows;  // first wave only
};

// The pristine graphs: everything the first trial needs.
std::unique_ptr<engine::Engine> set_up(const TrialConfig& cfg, unsigned threads) {
  engine::EngineConfig ecfg;
  ecfg.threads = threads;
  auto eng = std::make_unique<engine::Engine>(ecfg);
  for (const auto& t : cfg.topos) {
    eng->register_topology(t.name, t.build, t.concentration);
    Span s("topo.graph_build");
    (void)eng->artifacts().get(t.name)->graph();
  }
  return eng;
}

}  // namespace

void set_up_failure_trials(const RunArgs& a) { (void)set_up(trial_config(false), a.threads); }

void run_failure_trials(const RunArgs& a, Outcome& out, bool probe) {
  const TrialConfig cfg = trial_config(probe);
  const double seconds = probe ? 0.5 : a.seconds;
  const bool tracing = Tracer::get().enabled();

  // --- set-up: timed in kSetupReps fresh processes (setup_s), then once
  // more in this one for the waves.
  std::vector<double> setups;
  if (!probe) {
    setups = fresh_setups(a, kSetupReps);
    if (*std::min_element(setups.begin(), setups.end()) < 0) {
      out.fail("failure_trials: a fresh-process set-up failed");
      return;
    }
  }
  const auto setup_t0 = Clock::now();
  const std::unique_ptr<engine::Engine> eng = set_up(cfg, a.threads);
  const double graph_s = seconds_since(setup_t0);

  // --- the batch: topology x fraction x trial, seeds derived from --seed.
  std::vector<engine::Scenario> batch;
  for (const auto& t : cfg.topos)
    for (double f : cfg.fractions)
      for (std::uint64_t k = 0; k < cfg.trials; ++k) {
        engine::Scenario s;
        s.topology = t.name;
        s.kind = engine::Kind::kStructure;
        s.bisection_restarts = kRestarts;
        s.failure_fraction = f;
        s.seed = split_seed(a.seed, batch.size());
        batch.push_back(s);
      }

  const std::string journal_path =
      a.workdir + (probe ? "/probe_trials.journal.jsonl" : "/failure_trials.journal.jsonl");
  std::FILE* journal = std::fopen(journal_path.c_str(), "wb");
  if (!journal) {
    out.fail("cannot open journal " + journal_path);
    return;
  }
  engine::JsonlSink jsonl(journal);
  TimedSink timed(jsonl);
  RowSink rows;
  std::vector<double> wave_rates;  // trials/s per wave
  std::size_t wave_count = 0;
  double eval_s = 0, peak_mib = 0;
  double idle_num = 0, idle_den = 0;
  const auto start = Clock::now();
  // In a traced run the waves alternate untraced and traced, so the two
  // waves of a pair see the same host conditions; the run always ends
  // with at least one such pair, however long a wave takes.
  while (wave_count == 0 || seconds_since(start) < seconds ||
         (tracing && !probe && wave_count < 2)) {
    Tracer::get().enable(tracing && (probe || wave_count % 2 == 1));
    const std::size_t walls_before = rows.wall_ms.size();
    const auto w0 = Clock::now();
    {
      Span s("engine.wave", wave_count + 1);
      eng->run_stream(batch, {&timed, &rows});
    }
    const double wave_s = seconds_since(w0);
    eval_s += wave_s;
    wave_rates.push_back(static_cast<double>(batch.size()) / wave_s);
    double busy = 0;
    for (std::size_t i = walls_before; i < rows.wall_ms.size(); ++i)
      busy += rows.wall_ms[i] / 1e3;
    idle_num += static_cast<double>(a.threads) * wave_s - busy;
    idle_den += static_cast<double>(a.threads) * wave_s;
    rows.first_wave = false;
    // The set-up and one pass over the batch, as a single run of it sees;
    // later waves repeat the batch on a heap that earlier waves grew.
    if (wave_count == 0) peak_mib = peak_rss_mib();
    ++wave_count;
  }
  Tracer::get().enable(tracing);
  std::fclose(journal);

  // --- gate 1: every wave's journal rows are byte-identical.
  const std::string written = read_file(journal_path);
  const std::size_t wave_bytes = written.size() / wave_count;
  const std::string first = written.substr(0, wave_bytes);
  if (wave_bytes * wave_count != written.size()) {
    out.fail("failure_trials: journal size is not a whole number of waves");
  } else {
    for (std::size_t w = 1; w < wave_count; ++w)
      if (written.compare(w * wave_bytes, wave_bytes, first) != 0) {
        out.fail("failure_trials: wave " + std::to_string(w) + " rows differ from wave 0");
        break;
      }
  }

  // --- gate 2: recompute a seeded sample of trials in-process through the
  // public calls (the per-layer spans) and compare with the engine rows.
  std::vector<double> sample_s, dist_s, cut_s;
  for (std::size_t k = 0; k < cfg.replays && k < rows.rows.size(); ++k) {
    const std::size_t i = split_seed(a.seed, 0xB15EC7 + k) % batch.size();
    const engine::Scenario& s = batch[i];
    const engine::Result& r = rows.rows[i];
    const auto base = eng->artifacts().get(s.topology)->graph();
    auto t0 = Clock::now();
    Graph g;
    {
      Span sp("graph.failure_sample", i + 1);
      g = delete_random_edges(*base, s.failure_fraction, split_seed(s.seed, kFailureStream));
    }
    sample_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    DistanceStats ds;
    {
      Span sp("graph.distance_stats", i + 1);
      ds = distance_stats(g);
    }
    dist_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    std::uint64_t cut = 0;
    {
      Span sp("partition.bisection", i + 1);
      BisectionOptions opts;
      opts.restarts = kRestarts;
      opts.seed = s.seed;
      cut = bisection_bandwidth(g, opts);
    }
    cut_s.push_back(seconds_since(t0));
    const bool same = r.ok && ds.connected == r.connected &&
                      (!ds.connected || (ds.diameter == r.diameter &&
                                         ds.mean_distance == r.mean_hops)) &&
                      static_cast<double>(cut) == r.bisection;
    if (!same)
      out.fail("failure_trials: in-process recomputation of trial " + std::to_string(i) +
               " (" + s.topology + ") differs from the engine row");
  }

  out.attempted += rows.delivered;
  out.failed += rows.failed + (batch.size() * wave_count - rows.delivered);

  // The median wave rate: a burst of host noise slows one wave, not the
  // figure.
  const double trials_per_s = median(wave_rates);
  if (!probe) {
    out.end_to_end["setup_s"] = {median(setups), "s"};
    out.note("setup_max_s", *std::max_element(setups.begin(), setups.end()), "s");
  }
  out.note("setup_in_process_s", graph_s, "s");
  out.end_to_end["peak_rss_mib"] = {peak_mib, "MiB"};
  out.note("vm_hwm_mib", peak_rss_mib(), "MiB");
  out.end_to_end["ops_per_s"] = {trials_per_s, "1/s"};

  out.note("trials_per_wave", static_cast<double>(batch.size()), "count");
  out.note("waves", static_cast<double>(wave_count), "count");
  out.note("trials_per_s", trials_per_s, "scenarios/s");
  out.note("trial_p50_ms", percentile(rows.wall_ms, 0.5), "ms");
  out.note("trial_p99_ms", percentile(rows.wall_ms, 0.99), "ms");
  out.note("eval_s", eval_s, "s");
  out.facts["row_digest"] = hex64(fnv1a(first));

  out.set_layer("topo.graph_build_s", graph_s, "s");
  out.set_layer("graph.failure_sample_s", median(sample_s), "s");
  out.set_layer("graph.distance_stats_s", median(dist_s), "s");
  out.set_layer("partition.bisection_s", median(cut_s), "s");
  out.set_layer("engine.scenario_s_max", percentile(rows.wall_ms, 1.0) / 1e3, "s");
  out.set_layer("engine.pool_idle_frac", idle_num / idle_den, "ratio");
  out.set_layer("engine.sink_s", timed.seconds(), "s");
  out.set_layer("engine.journal_bytes", static_cast<double>(written.size()), "B");
  if (tracing && !probe)
    out.set_layer("trace.overhead_frac", paired_loss(wave_rates), "ratio");
}

}  // namespace sflybench
