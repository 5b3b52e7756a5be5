// Scale bench — per-destination BFS routing at 50k+ routers.
//
// The exact all-pairs Tables artifact is O(V^2) bytes (2.7 GB of distance
// matrix alone at 52k routers) and was the hard wall between the paper's
// ~1k-router simulations and datacenter-scale topology evaluation.  This
// bench drives the large-graph route path directly — graph construction,
// the one-BFS CellIndex build (connectivity + diameter bound), and
// per-destination label BFS with sampled distance/path queries — on a
// SpectralFly instance and a port-comparable DragonFly, and records
// wall-clock and memory footprint against the projected exact-table cost.
//
// Standalone by design: it never touches engine::Campaign, whose
// scenario kinds would materialize the O(V^2) tables this bench exists
// to avoid.  Default preset is the ~1.1k-router pair from the paper's
// simulations (seconds); --full is the 50k+ sweep committed as
// BENCH_scale.json:
//   LPS(71,47)            51,888 routers, radix 72 (SpectralFly)
//   DF(a=48,h=24,g=1153)  55,344 routers, radix 71
//
// Every sampled walk self-checks: greedy minimal next-hop sampling must
// reach the destination in exactly distance(src) hops, and distances
// must be bounded by the index's diameter bound.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "routing/cell_index.hpp"
#include "topo/dragonfly.hpp"
#include "topo/lps.hpp"
#include "util/options.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace sfly;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ScaleRow {
  std::string name;
  std::uint64_t routers = 0;
  std::uint32_t radix = 0;
  std::uint64_t edges = 0;
  double graph_build_s = 0;
  double index_build_s = 0;
  std::uint32_t diameter_bound = 0;
  std::uint64_t label_bytes = 0;  // one query's label array + BFS queue
  std::uint64_t projected_exact_bytes = 0;  // V^2 distance matrix alone
  std::uint64_t queries = 0;
  double prepare_ms_mean = 0;   // per-destination label BFS
  double distance_us_mean = 0;  // per distance lookup after prepare
  double walk_hops_mean = 0;
  std::uint32_t walk_hops_max = 0;
};

ScaleRow run_one(const std::string& name, const Graph& g, double graph_s,
                 std::uint64_t ndst,
                 std::uint64_t nsrc_per_dst, std::uint64_t seed) {
  ScaleRow row;
  row.name = name;
  row.routers = g.num_vertices();
  row.radix = g.degree(0);
  row.edges = g.num_edges();
  row.graph_build_s = graph_s;
  row.projected_exact_bytes =
      static_cast<std::uint64_t>(g.num_vertices()) * g.num_vertices();

  auto t0 = std::chrono::steady_clock::now();
  const routing::CellIndex x = routing::CellIndex::build(g);
  row.index_build_s = seconds_since(t0);
  row.diameter_bound = x.diameter_bound();

  routing::CellQuery q = x.make_query(g);
  Rng rng(seed);
  const Vertex n = g.num_vertices();
  row.label_bytes = static_cast<std::uint64_t>(n) * (1 + sizeof(Vertex));
  double prepare_s = 0, distance_s = 0;
  std::uint64_t hops_total = 0, walks = 0;
  for (std::uint64_t d = 0; d < ndst; ++d) {
    const Vertex dst = static_cast<Vertex>(uniform_below(rng, n));
    t0 = std::chrono::steady_clock::now();
    q.prepare(dst);
    prepare_s += seconds_since(t0);
    for (std::uint64_t s = 0; s < nsrc_per_dst; ++s) {
      Vertex src = static_cast<Vertex>(uniform_below(rng, n));
      if (src == dst) src = (src + 1) % n;
      t0 = std::chrono::steady_clock::now();
      const std::uint8_t dist = q.distance(src);
      distance_s += seconds_since(t0);
      if (dist > row.diameter_bound) {
        std::fprintf(stderr, "error: %s d(%u,%u)=%u exceeds bound %u\n",
                     name.c_str(), src, dst, dist, row.diameter_bound);
        std::exit(2);
      }
      // Greedy minimal walk: each sampled hop must shave exactly one off
      // the distance, so the walk length equals the queried distance.
      Vertex at = src;
      std::uint32_t hops = 0;
      while (at != dst) {
        at = q.sample_next_hop(at, split_seed(seed, hops));
        ++hops;
      }
      if (hops != dist) {
        std::fprintf(stderr, "error: %s walk %u->%u took %u hops, d=%u\n",
                     name.c_str(), src, dst, hops, dist);
        std::exit(2);
      }
      hops_total += hops;
      ++walks;
      if (hops > row.walk_hops_max) row.walk_hops_max = hops;
    }
    row.queries += nsrc_per_dst;
  }
  row.prepare_ms_mean = ndst ? prepare_s * 1e3 / static_cast<double>(ndst) : 0;
  row.distance_us_mean =
      row.queries ? distance_s * 1e6 / static_cast<double>(row.queries) : 0;
  row.walk_hops_mean =
      walks ? static_cast<double>(hops_total) / static_cast<double>(walks) : 0;
  return row;
}

void print_row(const ScaleRow& r) {
  std::printf(
      "%-22s %7llu routers  radix %-3u  build %7.3f s  labels %6.2f MB "
      "(exact: %7.1f MB)  prepare %7.2f ms  "
      "distance %6.2f us  hops mean %.2f max %u <= bound %u\n",
      r.name.c_str(), static_cast<unsigned long long>(r.routers), r.radix,
      r.index_build_s, static_cast<double>(r.label_bytes) / 1e6,
      static_cast<double>(r.projected_exact_bytes) / 1e6, r.prepare_ms_mean,
      r.distance_us_mean, r.walk_hops_mean, r.walk_hops_max,
      r.diameter_bound);
}

void write_json(const std::string& path, bool full,
                const std::vector<ScaleRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_scale\",\n"
               "  \"full\": %s,\n"
               "  \"topologies\": [",
               full ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(
        f,
        "%s\n    {\"name\": \"%s\", \"routers\": %llu, \"radix\": %u, "
        "\"edges\": %llu,\n"
        "     \"graph_build_s\": %.3f, \"index_build_s\": %.3f, "
        "\"diameter_bound\": %u,\n"
        "     \"label_bytes\": %llu, \"projected_exact_bytes\": %llu,\n"
        "     \"queries\": %llu, \"prepare_ms_mean\": %.3f, "
        "\"distance_us_mean\": %.3f,\n"
        "     \"walk_hops_mean\": %.3f, \"walk_hops_max\": %u}",
        i ? "," : "", r.name.c_str(),
        static_cast<unsigned long long>(r.routers), r.radix,
        static_cast<unsigned long long>(r.edges), r.graph_build_s,
        r.index_build_s, r.diameter_bound,
        static_cast<unsigned long long>(r.label_bytes),
        static_cast<unsigned long long>(r.projected_exact_bytes),
        static_cast<unsigned long long>(r.queries), r.prepare_ms_mean,
        r.distance_us_mean, r.walk_hops_mean, r.walk_hops_max);
  }
  if (std::fprintf(f, "\n  ]\n}\n") < 0) {
    std::fprintf(stderr, "error: writing %s failed: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bench::StandardOptions opts(
      argc, argv,
      {"Scale: per-destination BFS routing at 50k+ routers (no O(V^2) "
       "tables)",
       "#   --queries N    destination samples per topology (default 64)\n"
       "#   --sources N    source walks per destination (default 4)\n"
       "#   --out PATH     JSON record path (default BENCH_scale.json)",
       {{"--queries", true, "destination samples per topology (default 64)"},
        {"--sources", true, "source walks per destination (default 4)"},
        {"--out", true, "JSON record path (default BENCH_scale.json)"}}});
  const bool full = opts.full();
  const std::uint64_t ndst = opts.flags().get("--queries", 64);
  const std::uint64_t nsrc = opts.flags().get("--sources", 4);
  const std::string out = opts.flags().get_str("--out", "BENCH_scale.json");
  const std::uint64_t seed = opts.seed_or(1);
#ifdef _OPENMP
  if (opts.threads() > 0)
    omp_set_num_threads(static_cast<int>(opts.threads()));
#endif

  // --full: the 50k+ sweep this bench exists for.  Default: the paper's
  // simulation-scale pair, same code path in seconds.
  const topo::LpsParams lps = full ? topo::LpsParams{71, 47}
                                   : topo::LpsParams{23, 13};
  const topo::DragonFlyParams df =
      full ? topo::DragonFlyParams{48, 24, 1153}
           : topo::DragonFlyParams{16, 8, 69};

  std::vector<ScaleRow> rows;
  for (int t = 0; t < 2; ++t) {
    const std::string name = t == 0 ? lps.name() : df.name();
    std::fprintf(stderr, "# building %s ...\n", name.c_str());
    const auto t0 = std::chrono::steady_clock::now();
    const Graph g = t == 0 ? topo::lps_graph(lps) : topo::dragonfly_graph(df);
    const double graph_s = seconds_since(t0);
    rows.push_back(run_one(name, g, graph_s, ndst, nsrc, seed));
    print_row(rows.back());
  }
  write_json(out, full, rows);
  std::fprintf(stderr, "# wrote %s\n", out.c_str());
  return 0;
}
