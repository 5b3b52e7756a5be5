// Randomized small-V equivalence harness for the large-graph route path:
// on graphs small enough to afford exact all-pairs tables, per-destination
// BFS labels (CellQuery) must reproduce the Tables answers exactly —
// distances, minimal next-hop sets, and the sampled next hop bit for bit.
// This is the pin that lets the 50k+-router path ship without a
// 50k-router oracle.

#include "routing/cell_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "engine/artifact_cache.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "service/query.hpp"
#include "topo/factory.hpp"
#include "util/rng.hpp"

namespace sfly::routing {
namespace {

// Random connected graph: a random spanning tree (each vertex v >= 1
// attaches to a uniform earlier vertex) plus `extra` random non-loop
// edges; duplicates collapse in from_edges.
Graph random_connected_graph(Vertex n, std::size_t extra, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex v = 1; v < n; ++v)
    e.emplace_back(v, static_cast<Vertex>(uniform_below(rng, v)));
  for (std::size_t i = 0; i < extra; ++i) {
    const Vertex u = static_cast<Vertex>(uniform_below(rng, n));
    const Vertex w = static_cast<Vertex>(uniform_below(rng, n));
    if (u != w) e.emplace_back(u, w);
  }
  return Graph::from_edges(n, std::move(e));
}

void expect_equivalent(const Graph& g, const Tables& t, const CellIndex& x) {
  const Vertex n = g.num_vertices();
  CellQuery q = x.make_query(g);
  std::vector<Vertex> want, got;
  for (Vertex dst = 0; dst < n; ++dst) {
    q.prepare(dst);
    for (Vertex u = 0; u < n; ++u) {
      ASSERT_EQ(q.distance(u), t.distance(u, dst))
          << "d(" << u << "," << dst << ")";
      t.minimal_next_hops(g, u, dst, want);
      q.minimal_next_hops(u, got);
      ASSERT_EQ(got, want) << "hops(" << u << "," << dst << ")";
      if (u == dst) continue;
      for (std::uint64_t entropy : {0ull, 1ull, 7ull, 0xDEADBEEFull})
        ASSERT_EQ(q.sample_next_hop(u, entropy),
                  t.sample_next_hop(g, u, dst, entropy))
            << "sample(" << u << "," << dst << "," << entropy << ")";
    }
  }
}

TEST(CellIndex, MatchesTablesOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Vertex n = static_cast<Vertex>(24 + 7 * seed);
    const Graph g = random_connected_graph(n, 2 * n, seed);
    const Tables t = Tables::build(g);
    const CellIndex x = CellIndex::build(g);
    EXPECT_EQ(x.num_vertices(), n);
    expect_equivalent(g, t, x);
  }
}

TEST(CellIndex, MatchesTablesOnRegisteredTopologies) {
  for (const char* spec : {"Paley(13)", "DF(4)", "Hypercube(4)"}) {
    auto parsed = topo::parse_topology(spec);
    const Graph g = parsed.build();
    const Tables t = Tables::build(g);
    expect_equivalent(g, t, CellIndex::build(g));
  }
}

TEST(CellIndex, SingleCellGraphStillAnswers) {
  // The whole graph is one cell: no boundary vertices, and a two-vertex
  // graph (the smallest with a route) answers like the tables.
  const Graph g = random_connected_graph(20, 30, 42);
  const CellIndex x = CellIndex::build(g);
  EXPECT_EQ(x.num_boundary(), 0u);
  expect_equivalent(g, Tables::build(g), x);
  const Graph pair = Graph::from_edges(2, {{0, 1}});
  expect_equivalent(pair, Tables::build(pair), CellIndex::build(pair));
}

TEST(CellIndex, DiameterBoundIsAnUpperBound) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = random_connected_graph(60, 90, seed);
    const Tables t = Tables::build(g);
    EXPECT_GE(CellIndex::build(g).diameter_bound(), t.diameter());
  }
}

TEST(CellIndex, ThrowsOnDisconnected) {
  // Both the one-time build and every per-destination BFS reject a graph
  // with more than one component; the query stays unprepared.
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  EXPECT_THROW((void)CellIndex::build(g), std::runtime_error);
  CellQuery q(g);
  EXPECT_THROW(q.prepare(4), std::runtime_error);
  EXPECT_EQ(q.dst(), g.num_vertices());
}

TEST(CellIndex, PrepareThrowsPastTheU8DistanceRange) {
  // Path 0-1-...-255: d(255, 0) = 255 does not fit a u8 label; 254 does.
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex v = 1; v < 256; ++v) e.emplace_back(v - 1, v);
  const Graph path = Graph::from_edges(256, std::move(e));
  CellQuery q(path);
  EXPECT_THROW(q.prepare(0), std::runtime_error);
  q.prepare(1);
  EXPECT_EQ(q.distance(255), 254);
  EXPECT_EQ(q.sample_next_hop(255, 0), 254u);
}

TEST(CellIndex, ArtifactsCellIndexWalksMatchTables) {
  // Artifacts::cell_index() is one connectivity BFS at any size; the walk
  // a large-graph route takes is byte-identical to the exact one —
  // sample-by-sample over every pair at a fixed seed.
  engine::ArtifactCache cache;
  auto parsed = topo::parse_topology("Paley(13)");
  cache.register_topology(parsed.name, std::move(parsed.build));
  auto art = cache.get("Paley(13)");
  const std::uint64_t builds_before = CellIndex::builds();
  auto cell = art->cell_index();
  EXPECT_EQ(CellIndex::builds(), builds_before + 1);
  EXPECT_EQ(art->cell_index().get(), cell.get());
  EXPECT_EQ(art->footprint().cells_bytes, 0u);

  auto g = art->graph();
  auto t = art->tables();
  EXPECT_GE(cell->diameter_bound(), t->diameter());
  CellQuery q = cell->make_query(*g);
  for (Vertex dst = 0; dst < g->num_vertices(); ++dst) {
    q.prepare(dst);
    for (Vertex u = 0; u < g->num_vertices(); ++u) {
      if (u == dst) continue;
      Vertex at_exact = u, at_cell = u;
      std::uint64_t hop = 0;
      while (at_exact != dst) {
        const std::uint64_t e = split_seed(11, hop++);
        at_exact = t->sample_next_hop(*g, at_exact, dst, e);
        at_cell = q.sample_next_hop(at_cell, e);
        ASSERT_EQ(at_cell, at_exact);
      }
    }
  }
}

// ---------------------------------------------------------------------
// The sflyd route handler above engine::kCellExactThreshold, against an
// oracle walk over exact Tables of the same graph.  LPS(23,17) has 4896
// routers: past the threshold, yet small enough for Tables::build here.

constexpr const char* kLarge = "LPS(23,17)";

// The route response the exact path would give: source_decision under the
// zero-occupancy probe, then next_hop per split_seed(seed, hop).
std::string oracle_route(const Graph& g, const Tables& t, Algo algo, Vertex src,
                         Vertex dst, std::uint64_t seed, std::uint64_t id) {
  const QueueProbe probe = [](Vertex, Vertex) { return 0ull; };
  PacketRoute route = source_decision(algo, g, t, src, dst, seed, probe);
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"ok\":true,\"kind\":\"route\",\"topology\":\"" + kLarge +
                    "\",\"algo\":\"" + algo_name(algo) +
                    "\",\"src\":" + std::to_string(src) +
                    ",\"dst\":" + std::to_string(dst) +
                    ",\"valiant\":" + (route.valiant ? "true" : "false");
  if (route.valiant)
    out += ",\"intermediate\":" + std::to_string(route.intermediate);
  std::vector<Vertex> path{src};
  for (std::uint64_t hop = 0; path.back() != dst; ++hop)
    path.push_back(next_hop(g, t, path.back(), dst, route, split_seed(seed, hop)));
  out += ",\"hops\":" + std::to_string(path.size() - 1) + ",\"path\":[";
  for (std::size_t i = 0; i < path.size(); ++i)
    out += (i ? "," : "") + std::to_string(path[i]);
  return out + "]}";
}

std::string route_request(std::uint64_t id, Algo algo, Vertex src, Vertex dst,
                          std::uint64_t seed, const std::string& fail = "") {
  std::string req = "{\"id\":" + std::to_string(id) +
                    ",\"kind\":\"route\",\"topo\":\"" + kLarge +
                    "\",\"src\":" + std::to_string(src) +
                    ",\"dst\":" + std::to_string(dst) + ",\"algo\":\"" +
                    algo_name(algo) + "\",\"seed\":" + std::to_string(seed);
  if (!fail.empty()) req += ",\"fail\":[" + fail + "]";
  return req + "}";
}

// Seeded (src, dst, algo, seed) requests, one src == dst among them.
void expect_handler_matches_oracle(service::QueryEngine& qe, const Graph& g,
                                   const Tables& t, const std::string& fail,
                                   std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  const Vertex n = g.num_vertices();
  std::uint64_t id = 0;
  for (int i = 0; i < 16; ++i) {
    const Vertex src = static_cast<Vertex>(uniform_below(rng, n));
    const Vertex dst = i == 0 ? src : static_cast<Vertex>(uniform_below(rng, n));
    const std::uint64_t seed = rng();
    for (Algo algo : {Algo::kMinimal, Algo::kValiant, Algo::kUgalL}) {
      ++id;
      ASSERT_EQ(qe.handle(route_request(id, algo, src, dst, seed, fail)),
                oracle_route(g, t, algo, src, dst, seed, id))
          << route_request(id, algo, src, dst, seed, fail);
    }
  }
}

TEST(LargeRoute, HandlerMatchesTablesWalk) {
  service::QueryEngine qe;
  ASSERT_EQ(qe.register_spec(kLarge), kLarge);
  const auto g = qe.engine().artifacts().get(kLarge)->graph();
  ASSERT_GT(g->num_vertices(), engine::kCellExactThreshold);
  const std::uint64_t tables_before = Tables::builds();
  const std::uint64_t cells_before = CellIndex::builds();
  const Tables t = Tables::build(*g);
  expect_handler_matches_oracle(qe, *g, t, "", 17);
  // The handler built no index of its own: only the oracle's tables.
  EXPECT_EQ(Tables::builds(), tables_before + 1);
  EXPECT_EQ(CellIndex::builds(), cells_before);
}

TEST(LargeRoute, FailOverlayMatchesOverlayTablesWalk) {
  service::QueryEngine qe;
  qe.register_spec(kLarge);
  const auto g = qe.engine().artifacts().get(kLarge)->graph();
  // Fail two links at vertex 0 and one elsewhere.
  const auto n0 = g->neighbors(0);
  const auto n9 = g->neighbors(9);
  const std::vector<std::pair<Vertex, Vertex>> dead = {
      {0, n0[0]}, {n0[1], 0}, {9, n9[3]}};
  std::string fail;
  auto edges = g->edge_list();
  for (auto [u, v] : dead) {
    fail += (fail.empty() ? "" : ",") + std::to_string(u) + "," + std::to_string(v);
    const auto it = std::find(edges.begin(), edges.end(),
                              std::make_pair(std::min(u, v), std::max(u, v)));
    ASSERT_NE(it, edges.end()) << u << "-" << v;
    edges.erase(it);
  }
  const Graph overlay = Graph::from_edges(g->num_vertices(), std::move(edges));
  const Tables t = Tables::build(overlay);
  expect_handler_matches_oracle(qe, overlay, t, fail, 29);
}

TEST(LargeRoute, DisconnectingOverlayIsAnErrorFrame) {
  service::QueryEngine qe;
  qe.register_spec(kLarge);
  const auto g = qe.engine().artifacts().get(kLarge)->graph();
  // Cut every link of vertex 7: the graph is disconnected even for
  // src/dst pairs (and src == dst) that never touch vertex 7.
  std::string fail;
  for (Vertex w : g->neighbors(7))
    fail += (fail.empty() ? "" : ",") + std::string("7,") + std::to_string(w);
  for (auto [src, dst] : {std::pair<Vertex, Vertex>{1, 2}, {7, 3}, {5, 5}}) {
    for (Algo algo : {Algo::kMinimal, Algo::kValiant}) {
      const std::string resp = qe.handle(route_request(3, algo, src, dst, 1, fail));
      EXPECT_EQ(resp, service::error_response(3, "routing::CellIndex: graph disconnected"))
          << resp;
    }
  }
  EXPECT_EQ(qe.errors(), 6u);
  // The engine keeps answering on the intact graph.
  EXPECT_NE(qe.handle(route_request(4, Algo::kMinimal, 1, 2, 1)).find("\"ok\":true"),
            std::string::npos);
}

}  // namespace
}  // namespace sfly::routing
