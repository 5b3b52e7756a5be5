#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/failures.hpp"
#include "topo/lps.hpp"
#include "util/rng.hpp"

namespace sfly {
namespace {

Graph cycle_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return Graph::from_edges(n, std::move(e));
}

Graph complete_graph(Vertex n) {
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < n; ++i)
    for (Vertex j = i + 1; j < n; ++j) e.emplace_back(i, j);
  return Graph::from_edges(n, std::move(e));
}

Graph petersen() {
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex i = 0; i < 5; ++i) {
    e.emplace_back(i, (i + 1) % 5);
    e.emplace_back(i + 5, (i + 2) % 5 + 5);
    e.emplace_back(i, i + 5);
  }
  return Graph::from_edges(10, std::move(e));
}

Graph hypercube(unsigned d) {
  Vertex n = 1u << d;
  std::vector<std::pair<Vertex, Vertex>> e;
  for (Vertex v = 0; v < n; ++v)
    for (unsigned b = 0; b < d; ++b)
      if (!(v & (1u << b))) e.emplace_back(v, v | (1u << b));
  return Graph::from_edges(n, std::move(e));
}

TEST(Metrics, BfsDistancesOnCycle) {
  auto d = bfs_distances(cycle_graph(8), 0);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[4], 4);
  EXPECT_EQ(d[7], 1);
}

TEST(Metrics, DistanceStatsCycle) {
  auto s = distance_stats(cycle_graph(8));
  EXPECT_TRUE(s.connected);
  EXPECT_EQ(s.diameter, 4);
  // Mean distance on C8: (1+2+3+4+3+2+1)/7 = 16/7.
  EXPECT_NEAR(s.mean_distance, 16.0 / 7.0, 1e-12);
  // Histogram: 8 vertices * 2 at distance 1,2,3; *1 at distance 4.
  ASSERT_EQ(s.histogram.size(), 5u);
  EXPECT_EQ(s.histogram[1], 16u);
  EXPECT_EQ(s.histogram[4], 8u);
}

TEST(Metrics, DistanceStatsComplete) {
  auto s = distance_stats(complete_graph(7));
  EXPECT_EQ(s.diameter, 1);
  EXPECT_DOUBLE_EQ(s.mean_distance, 1.0);
}

TEST(Metrics, HypercubeDiameterAndMean) {
  auto s = distance_stats(hypercube(4));
  EXPECT_EQ(s.diameter, 4);
  EXPECT_NEAR(s.mean_distance, 4 * 8.0 / 15.0 * 1.0, 1e-9);
  // Mean distance of Q_d is d*2^(d-1)/(2^d - 1) = 32/15 for d=4.
  EXPECT_NEAR(s.mean_distance, 32.0 / 15.0, 1e-9);
}

TEST(Metrics, GirthKnownGraphs) {
  EXPECT_EQ(girth(cycle_graph(9)), 9u);
  EXPECT_EQ(girth(complete_graph(4)), 3u);
  EXPECT_EQ(girth(petersen()), 5u);
  EXPECT_EQ(girth(hypercube(3)), 4u);
}

TEST(Metrics, GirthForest) {
  auto g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(girth(g), 0u);
}

TEST(Metrics, Components) {
  auto g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(num_components(g), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
}

TEST(Metrics, DisconnectedStatsFlag) {
  auto g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  auto s = distance_stats(g);
  EXPECT_FALSE(s.connected);
}

// Independent reference for distance_stats: one bfs_distances per source.
DistanceStats per_source_stats(const Graph& g) {
  DistanceStats ref;
  double total = 0.0;
  std::uint64_t pairs = 0;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    const auto dist = bfs_distances(g, s);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::int32_t d = dist[v];
      if (d == kUnreachable) {
        ref.connected = false;
        continue;
      }
      if (static_cast<std::size_t>(d) >= ref.histogram.size())
        ref.histogram.resize(d + 1, 0);
      ref.diameter = std::max(ref.diameter, d);
      if (d == 0) continue;
      ++ref.histogram[d];
      total += d;
      ++pairs;
    }
  }
  ref.mean_distance = pairs ? total / static_cast<double>(pairs) : 0.0;
  return ref;
}

Graph random_graph(Vertex n, double avg_degree, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Vertex, Vertex>> e;
  if (n < 2) return Graph::from_edges(n, std::move(e));
  const auto m = static_cast<std::uint64_t>(avg_degree * n / 2);
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = static_cast<Vertex>(uniform_below(rng, n));
    const auto v = static_cast<Vertex>(uniform_below(rng, n));
    if (u != v) e.emplace_back(u, v);
  }
  return Graph::from_edges(n, std::move(e));
}

void expect_same_stats(const DistanceStats& a, const DistanceStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.histogram, b.histogram) << what;
  EXPECT_EQ(a.diameter, b.diameter) << what;
  EXPECT_EQ(a.connected, b.connected) << what;
  EXPECT_EQ(a.mean_distance, b.mean_distance) << what;
}

TEST(Metrics, DistanceStatsMatchesPerSourceBfs) {
  std::vector<std::pair<std::string, Graph>> cases;
  // Block edges of the 64-source kernel, and a partial last block.
  for (Vertex n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 300u})
    for (double deg : {1.5, 6.0})
      cases.emplace_back("random n=" + std::to_string(n) +
                             " deg=" + std::to_string(deg),
                         random_graph(n, deg, split_seed(n, deg > 2)));
  cases.emplace_back("empty", Graph::from_edges(0, {}));
  cases.emplace_back("isolated vertex",
                     Graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  cases.emplace_back("two components",
                     Graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5},
                                           {5, 6}, {6, 3}}));
  const Graph lps = topo::lps_graph({23, 11});
  for (double f : {0.2, 0.6})
    cases.emplace_back("LPS(23,11) f=" + std::to_string(f),
                       delete_random_edges(lps, f, split_seed(3, 0)));

  bool saw_disconnected = false;
  for (const auto& [what, g] : cases) {
    const DistanceStats got = distance_stats(g);
    expect_same_stats(got, per_source_stats(g), what);
    saw_disconnected = saw_disconnected || !got.connected;
#ifdef _OPENMP
    const int threads = omp_get_max_threads();
    omp_set_num_threads(1);
    const DistanceStats one = distance_stats(g);
    omp_set_num_threads(4);
    const DistanceStats four = distance_stats(g);
    omp_set_num_threads(threads);
    expect_same_stats(one, four, what + " (1 vs 4 threads)");
    expect_same_stats(one, got, what + " (1 thread vs default)");
#endif
  }
  EXPECT_TRUE(saw_disconnected);
  EXPECT_TRUE(distance_stats(lps).connected);
}

TEST(Metrics, Bipartiteness) {
  std::vector<std::uint8_t> side;
  EXPECT_TRUE(is_bipartite(cycle_graph(8), &side));
  EXPECT_NE(side[0], side[1]);
  EXPECT_FALSE(is_bipartite(cycle_graph(7)));
  EXPECT_TRUE(is_bipartite(hypercube(4)));
  EXPECT_FALSE(is_bipartite(petersen()));
}

TEST(Metrics, Eccentricity) {
  auto g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(eccentricity(g, 0), 3);
  EXPECT_EQ(eccentricity(g, 1), 2);
}

}  // namespace
}  // namespace sfly
