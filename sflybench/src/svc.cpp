// The two service workloads, both driving a real sflyd child with a
// closed loop of 4 connections from one client thread:
//
//   svc_mix     — warm start from a snapshot of the four Section VI-B
//                 topologies (written by an untimed pre-step); ~98% route
//                 queries, ~2% small sim queries.
//   large_route — cold start with --topos on one LPS and one DragonFly
//                 above engine::kCellExactThreshold, so every route walks
//                 the large-graph cell index; route queries only.
//
// Every answer must be "ok":true and end its path at the destination.
// A seeded sample is checked further: byte-identical to an in-process
// QueryEngine::handle of the same request (svc_mix, and large_route in a
// traced run), hop count equal to a BFS oracle (large_route).

#include <algorithm>
#include <cstdio>
#include <memory>

#include "engine/artifact_cache.hpp"
#include "graph/metrics.hpp"
#include "routing/cell_index.hpp"
#include "routing/policy.hpp"
#include "service/json.hpp"
#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "sflyd_client.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace sflybench {

using namespace sfly;

namespace {

constexpr int kRoute = 0;
constexpr int kSim = 1;
constexpr const char* kAlgos[] = {"minimal", "valiant", "ugal-l"};
constexpr sim::Pattern kPatterns[] = {sim::Pattern::kRandom, sim::Pattern::kShuffle,
                                      sim::Pattern::kBitReverse, sim::Pattern::kTranspose};

struct ServiceConfig {
  std::vector<std::string> specs;  // topo::parse_topology specs
  bool warm = true;                // snapshot warm start vs --topos cold start
  unsigned sim_per_mille = 0;      // share of sim queries
  std::uint64_t sample_every = 0;  // every Nth request is gate-checked
};

ServiceConfig service_config(const std::string& workload, bool probe) {
  if (workload == "svc_mix")
    return probe ? ServiceConfig{{"LPS(11,7)"}, true, 20, 16}
                 : ServiceConfig{{"LPS(23,13)", "DF(16,8,69)", "SF(27)", "BF(9,9)"},
                                 true, 20, 97};
  return probe ? ServiceConfig{{"LPS(23,17)"}, false, 0, 16}
               : ServiceConfig{{"LPS(23,17)", "DF(22,11,243)"}, false, 0, 97};
}

struct Target {
  std::string name;  // canonical name (the "topo" field)
  std::shared_ptr<const Graph> graph;
};

std::string route_request(std::uint64_t id, const Target& t, Vertex src, Vertex dst,
                          const char* algo, std::uint64_t seed) {
  return "{\"id\":" + std::to_string(id) + ",\"kind\":\"route\",\"topo\":\"" + t.name +
         "\",\"src\":" + std::to_string(src) + ",\"dst\":" + std::to_string(dst) +
         ",\"algo\":\"" + algo + "\",\"seed\":" + std::to_string(seed) + "}";
}

// Request i of the seeded stream.
Request make_request(std::uint64_t seed, std::uint64_t id, const ServiceConfig& cfg,
                     const std::vector<Target>& targets) {
  Rng rng(split_seed(seed, id));
  const Target& t = targets[uniform_below(rng, targets.size())];
  const Vertex n = t.graph->num_vertices();
  if (uniform_below(rng, 1000) < cfg.sim_per_mille) {
    const char* pattern = sim::pattern_name(kPatterns[uniform_below(rng, 4)]);
    const char* algo = kAlgos[uniform_below(rng, 3)];
    return {"{\"id\":" + std::to_string(id) + ",\"kind\":\"sim\",\"topo\":\"" + t.name +
                "\",\"algo\":\"" + algo + "\",\"pattern\":\"" + pattern +
                "\",\"load\":0.3,\"nranks\":256,\"messages\":2,\"seed\":" +
                std::to_string(rng() % 1000000) + "}",
            kSim};
  }
  const Vertex src = static_cast<Vertex>(uniform_below(rng, n));
  const Vertex dst = static_cast<Vertex>(uniform_below(rng, n));
  const char* algo = kAlgos[uniform_below(rng, 3)];
  return {route_request(id, t, src, dst, algo, rng() % 1000000), kRoute};
}

// Cheap per-answer check: id echoed, ok, and (routes) the path ends at dst.
bool answer_ok(std::uint64_t id, const Request& req, const std::string& resp) {
  const std::string head = "{\"id\":" + std::to_string(id) + ",\"ok\":true,";
  if (resp.compare(0, head.size(), head) != 0) return false;
  if (req.kind != kRoute) return true;
  const std::size_t d = req.body.find("\"dst\":");
  const std::size_t comma = req.body.find(',', d);
  const std::string dst = req.body.substr(d + 6, comma - d - 6);
  // ...,"path":[..., dst]}
  if (resp.size() < dst.size() + 2 || resp.compare(resp.size() - 2, 2, "]}") != 0)
    return false;
  const std::size_t end = resp.size() - 2;
  const std::size_t start = resp.find_last_of("[,", end - 1) + 1;
  return resp.compare(start, end - start, dst) == 0;
}

struct Sample {
  Request req;
  std::string resp;
  double rtt_us = 0.0;
};

std::string workdir_file(const RunArgs& a, const std::string& leaf) {
  return a.workdir + "/" + leaf;
}

void run_service(const RunArgs& a, Outcome& out, bool probe, const std::string& workload) {
  const ServiceConfig cfg = service_config(workload, probe);
  const double seconds = probe ? 1.0 : a.seconds;
  const bool tracing = Tracer::get().enabled();
  engine::EngineConfig ecfg;
  ecfg.threads = 1;

  // --- in-process side: graphs (request generation, oracle), and for
  // warm starts the snapshot pre-step + the replica QueryEngine.
  service::QueryEngine replica(ecfg);
  std::vector<Target> targets;
  const std::string snap_path = workdir_file(a, probe ? "probe.snap" : workload + ".snap");
  std::string topo_list;
  double graph_s = 0, tables_s = 0, hops_s = 0, spectra_s = 0, cells_s = 0;
  std::size_t tables_bytes = 0, hops_bytes = 0, cells_bytes = 0;
  double boundary = 0, vertices = 0;
  {
    service::QueryEngine builder(ecfg);
    // Cold starts only need the in-process artifacts in a traced run
    // (layer timings and the byte-identity replay).
    const bool build_all = cfg.warm || tracing;
    for (const auto& spec : cfg.specs) {
      topo_list += (topo_list.empty() ? "" : ",") + spec;
      const std::string name = builder.register_spec(spec);
      auto art = builder.engine().artifacts().get(name);
      auto ts = Clock::now();
      std::shared_ptr<const Graph> g;
      {
        Span s("topo.graph_build");
        g = art->graph();
      }
      graph_s += seconds_since(ts);
      targets.push_back({name, g});
      if (!build_all) continue;
      if (g->num_vertices() <= engine::kCellExactThreshold) {
        ts = Clock::now();
        {
          Span s("routing.tables_build");
          (void)art->tables();
        }
        tables_s += seconds_since(ts);
        ts = Clock::now();
        {
          Span s("routing.next_hops_build");
          (void)art->next_hops();
        }
        hops_s += seconds_since(ts);
      } else {
        ts = Clock::now();
        std::shared_ptr<const routing::CellIndex> cell;
        {
          Span s("routing.large_index_build");
          cell = art->cell_index();
        }
        cells_s += seconds_since(ts);
        boundary += cell->num_boundary();
        vertices += cell->num_vertices();
      }
      ts = Clock::now();
      {
        Span s("spectral.spectra");
        (void)art->spectra();
      }
      spectra_s += seconds_since(ts);
      const auto f = art->footprint();
      tables_bytes += f.tables_bytes;
      hops_bytes += f.next_hops_bytes;
      cells_bytes += f.cells_bytes;
    }
    if (cfg.warm) {
      Span s("service.snapshot_write");
      service::write_snapshot(snap_path, builder.engine().artifacts());
    } else if (tracing) {
      // The replica adopts the artifacts built above.
      for (const auto& t : targets)
        replica.engine().artifacts().adopt(t.name, builder.engine().artifacts().get(t.name));
    }
  }
  double open_s = 0, load_s = 0, snap_bytes = 0;
  if (cfg.warm) {
    auto t0 = Clock::now();
    std::shared_ptr<service::Snapshot> snap;
    {
      Span s("service.snapshot_open");
      snap = service::Snapshot::open(snap_path);
    }
    open_s = seconds_since(t0);
    t0 = Clock::now();
    {
      Span s("service.snapshot_load");
      service::Snapshot::load_into(snap, replica.engine().artifacts());
    }
    load_s = seconds_since(t0);
    snap_bytes = static_cast<double>(snap->size_bytes());
  }

  // --- set-up and load.  sflyd is started kWarmInstances (cold:
  // kColdInstances) times; each instance serves an equal slice of the
  // window and the figures are medians over instances, so one slow
  // stretch of the window moves no figure.  In a
  // traced run the instances alternate untraced and traced, so the two
  // instances of a pair see the same host conditions.
  std::vector<std::string> args =
      cfg.warm ? std::vector<std::string>{"--snapshot", snap_path}
               : std::vector<std::string>{"--topos", topo_list};
  args.insert(args.end(), {"--threads", std::to_string(a.threads)});
  Sflyd server(a.sflyd, a.workdir);
  const int reps = probe ? 1 : cfg.warm ? kWarmInstances : kColdInstances;
  std::vector<double> setups, rss, qps, route_p50;
  std::vector<Sample> samples;
  std::string first_bad;
  LoopStats st;  // totals over instances
  st.latency_us.resize(2);
  for (int rep = 0; rep < reps; ++rep) {
    const bool trace_on = tracing && (probe || rep % 2 == 1);
    Tracer::get().enable(trace_on);
    double ready = 0;
    {
      Span sp("service.sflyd_start", static_cast<std::uint64_t>(rep) + 1);
      ready = server.start(args);
    }
    if (ready < 0) {
      out.fail(workload + ": sflyd did not start (see " + workdir_file(a, "sflyd.log") + ")");
      out.attempted += 1;
      out.failed += 1;
      Tracer::get().enable(tracing);
      return;
    }
    setups.push_back(ready);
    const std::uint64_t id_base = static_cast<std::uint64_t>(rep) << 40;
    LoopStats one;
    {
      Span sp("service.closed_loop", static_cast<std::uint64_t>(rep) + 1);
      one = closed_loop(
          server, static_cast<int>(a.threads), seconds / reps,
          [&](std::uint64_t i) { return make_request(a.seed, id_base + i, cfg, targets); },
          [&](std::uint64_t i, const Request& req, const std::string& resp, double us) {
            const bool ok = answer_ok(id_base + i, req, resp);
            if (!ok && first_bad.empty()) first_bad = req.body + " -> " + resp;
            if (ok && (id_base + i) % cfg.sample_every == 0)
              samples.push_back({req, resp, us});
            return ok;
          });
    }
    rss.push_back(server.peak_rss_mib());
    if (!server.stop()) out.fail(workload + ": sflyd did not shut down cleanly");
    // Whole one-second slices where the instance's share of the window
    // holds any; the whole share otherwise.
    const double q = one.slice_rates.empty()
                         ? static_cast<double>(one.completed) / one.wall_s
                         : median(one.slice_rates);
    qps.push_back(q);
    one.latency_us.resize(2);  // kRoute, kSim, even when one kind never answered
    route_p50.push_back(percentile(one.latency_us[kRoute], 0.5));
    st.sent += one.sent;
    st.completed += one.completed;
    st.failed += one.failed;
    for (int k = 0; k < 2; ++k)
      st.latency_us[k].insert(st.latency_us[k].end(), one.latency_us[k].begin(),
                              one.latency_us[k].end());
  }
  Tracer::get().enable(tracing);

  if (!first_bad.empty()) out.facts["first_failed_request"] = first_bad;
  out.attempted += st.sent;
  out.failed += st.failed;
  if (st.sent == 0) out.fail(workload + ": no request was sent");

  // --- gates on the sample: BFS oracle for every route; byte identity
  // with the in-process replica where it holds the artifacts.
  const bool replay = cfg.warm || tracing;
  std::vector<double> decode_us, handle_route_us, handle_sim_ms, walk_us, frontend_us;
  std::vector<double> prepare_ms;
  double prepares = 0, sampled_routes = 0;
  for (const auto& s : samples) {
    service::JsonObject q, r;
    if (!service::JsonObject::scan(s.req.body, q) || !service::JsonObject::scan(s.resp, r)) {
      out.fail(workload + ": unparsable sample " + s.req.body);
      continue;
    }
    if (replay) {
      auto t0 = Clock::now();
      {
        Span sp("service.decode");
        service::JsonObject tmp;
        (void)service::JsonObject::scan(s.req.body, tmp);
      }
      decode_us.push_back(seconds_since(t0) * 1e6);
      t0 = Clock::now();
      std::string local;
      {
        Span sp(s.req.kind == kRoute ? "service.handle_route" : "service.handle_sim");
        local = replica.handle(s.req.body);
      }
      const double handle_s = seconds_since(t0);
      if (local != s.resp)
        out.fail(workload + ": sflyd answer differs from in-process handle for " +
                 s.req.body);
      if (s.req.kind == kRoute) {
        handle_route_us.push_back(handle_s * 1e6);
        frontend_us.push_back(s.rtt_us - handle_s * 1e6);
      } else {
        handle_sim_ms.push_back(handle_s * 1e3);
      }
    }
    if (s.req.kind != kRoute) continue;

    std::string topo, algo;
    std::uint64_t src = 0, dst = 0, seed = 0;
    std::vector<std::uint64_t> path;
    (void)q.get_str("topo", topo);
    (void)q.get_str("algo", algo);
    (void)q.get_u64("src", src);
    (void)q.get_u64("dst", dst);
    (void)q.get_u64("seed", seed);
    if (!r.get_u64_array("path", path) || path.empty() || path.front() != src ||
        path.back() != dst) {
      out.fail(workload + ": bad path in " + s.resp);
      continue;
    }
    const auto t = std::find_if(targets.begin(), targets.end(),
                                [&](const Target& x) { return x.name == topo; });
    const Graph& g = *t->graph;
    for (std::size_t i = 1; i < path.size(); ++i)
      if (!g.has_edge(static_cast<Vertex>(path[i - 1]), static_cast<Vertex>(path[i]))) {
        out.fail(workload + ": path uses a non-edge in " + s.resp);
        break;
      }
    // Oracle: every hop is a shortest-path step toward the current
    // target — the Valiant intermediate until it is reached, then dst
    // (minimal and zero-occupancy UGAL-L target dst throughout).  The
    // walk ends as soon as it reaches dst, even on the way to the
    // intermediate.
    std::uint64_t mid = 0;
    const bool valiant = r.get_u64("intermediate", mid);
    {
      Span sp("graph.bfs_oracle");
      const auto d_dst = bfs_distances(g, static_cast<Vertex>(dst));
      const auto d_mid = valiant ? bfs_distances(g, static_cast<Vertex>(mid)) : d_dst;
      bool phase0 = valiant;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (phase0 && path[i] == mid) phase0 = false;
        const auto& d = phase0 ? d_mid : d_dst;
        if (d[path[i + 1]] != d[path[i]] - 1) {
          out.fail(workload + ": hop " + std::to_string(i) +
                   " is not a shortest-path step (BFS oracle) in " + s.resp);
          break;
        }
      }
    }

    if (!replay) continue;
    // Layer replay of the route walk itself (no JSON): exact tables walk
    // source_decision + next_hop; cell-index graphs prepare a CellQuery
    // per target (the intermediate, then dst) and sample hops from it.
    auto art = replica.engine().artifacts().get(topo);
    const routing::Algo al = algo == "valiant"  ? routing::Algo::kValiant
                             : algo == "ugal-l" ? routing::Algo::kUgalL
                                                : routing::Algo::kMinimal;
    std::vector<std::uint64_t> walked{src};
    if (g.num_vertices() <= engine::kCellExactThreshold) {
      auto tables = art->tables();
      const auto t0 = Clock::now();
      {
        Span sp("routing.route_walk");
        const routing::QueueProbe probe_fn = [](Vertex, Vertex) { return 0ull; };
        routing::PacketRoute route = routing::source_decision(
            al, g, *tables, static_cast<Vertex>(src), static_cast<Vertex>(dst), seed,
            probe_fn);
        Vertex at = static_cast<Vertex>(src);
        std::uint64_t hop = 0;
        while (at != dst && walked.size() <= path.size()) {
          at = routing::next_hop(g, *tables, at, static_cast<Vertex>(dst), route,
                                 split_seed(seed, hop++));
          walked.push_back(at);
        }
      }
      walk_us.push_back(seconds_since(t0) * 1e6);
    } else {
      auto cell = art->cell_index();
      routing::CellQuery cq = cell->make_query(g);
      Vertex at = static_cast<Vertex>(src);
      std::uint64_t hop = 0;
      bool phase0 = valiant;
      const auto t0 = Clock::now();
      {
        Span sp("routing.route_walk");
        while (at != dst && walked.size() <= path.size()) {
          const std::uint64_t e = split_seed(seed, hop++);
          if (phase0 && at == mid) phase0 = false;
          const Vertex target = static_cast<Vertex>(phase0 ? mid : dst);
          if (cq.dst() != target) {
            const auto p0 = Clock::now();
            {
              Span pp("routing.dst_prepare");
              cq.prepare(target);
            }
            prepare_ms.push_back(seconds_since(p0) * 1e3);
            prepares += 1;
          }
          at = cq.sample_next_hop(at, e);
          walked.push_back(at);
        }
      }
      walk_us.push_back(seconds_since(t0) * 1e6);
    }
    sampled_routes += 1;
    if (walked != path)
      out.fail(workload + ": in-process route walk differs from sflyd for " + s.req.body);
  }

  // --- metrics.
  const auto& route_us = st.latency_us[kRoute];
  const auto& sim_us = st.latency_us[kSim];
  out.end_to_end["setup_s"] = {median(setups), "s"};
  out.note("setup_max_s", *std::max_element(setups.begin(), setups.end()), "s");
  out.end_to_end["peak_rss_mib"] = {median(rss), "MiB"};
  out.end_to_end["ops_per_s"] = {median(qps), "1/s"};
  out.note("instances", static_cast<double>(reps), "count");
  out.note("svc_qps", median(qps), "req/s");
  out.note("route_p50_us", median(route_p50), "us");
  out.note("route_p99_us", percentile(route_us, 0.99), "us");
  out.note("route_samples", static_cast<double>(route_us.size()), "count");
  if (cfg.sim_per_mille > 0) {
    out.note("sim_p50_ms", percentile(sim_us, 0.5) / 1e3, "ms");
    out.note("sim_p99_ms", percentile(sim_us, 0.99) / 1e3, "ms");
    out.note("sim_samples", static_cast<double>(sim_us.size()), "count");
  }
  out.note("gate_samples", static_cast<double>(samples.size()), "count");

  out.set_layer("topo.graph_build_s", graph_s, "s");
  if (replay) {
    out.set_layer("spectral.spectra_s", spectra_s, "s");
    out.set_layer("service.decode_us", median(decode_us), "us");
    if (!handle_route_us.empty()) {
      out.set_layer("service.handle_route_us", median(handle_route_us), "us");
      out.set_layer("service.frontend_p50_us", percentile(frontend_us, 0.5), "us");
      out.set_layer("service.frontend_p99_us", percentile(frontend_us, 0.99), "us");
      out.set_layer("routing.route_walk_us", median(walk_us), "us");
    }
    if (!handle_sim_ms.empty())
      out.set_layer("service.handle_sim_ms", median(handle_sim_ms), "ms");
  }
  if (cfg.warm) {
    out.set_layer("routing.tables_build_s", tables_s, "s");
    out.set_layer("routing.tables_bytes", static_cast<double>(tables_bytes), "B");
    out.set_layer("routing.next_hops_build_s", hops_s, "s");
    out.set_layer("routing.next_hops_bytes", static_cast<double>(hops_bytes), "B");
    out.set_layer("service.snapshot_open_s", open_s, "s");
    out.set_layer("service.snapshot_load_s", load_s, "s");
    out.set_layer("service.snapshot_bytes", snap_bytes, "B");
  } else if (replay && vertices > 0) {
    out.set_layer("routing.large_index_build_s", cells_s, "s");
    out.set_layer("routing.large_index_bytes", static_cast<double>(cells_bytes), "B");
    out.set_layer("routing.boundary_frac", boundary / vertices, "ratio");
    if (!prepare_ms.empty()) {
      out.set_layer("routing.dst_prepare_ms", median(prepare_ms), "ms");
      out.set_layer("routing.prepares_per_route", prepares / sampled_routes, "count");
    }
  }
  if (tracing && !probe)
    out.set_layer("trace.overhead_frac", paired_loss(qps), "ratio");
}

}  // namespace

void run_svc_mix(const RunArgs& a, Outcome& out, bool probe) {
  run_service(a, out, probe, "svc_mix");
}

void run_large_route(const RunArgs& a, Outcome& out, bool probe) {
  run_service(a, out, probe, "large_route");
}

}  // namespace sflybench
