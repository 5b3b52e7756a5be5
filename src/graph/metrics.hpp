#pragma once
// BFS-based structural metrics: distances, diameter, average shortest path
// length, girth, connectivity, bipartiteness.  distance_stats runs a
// bit-parallel BFS from 64 sources at a time, OpenMP-parallel over the
// blocks with 24*n bytes of scratch per thread; its results are bitwise
// identical to one BFS per source at any thread count.  girth is
// OpenMP-parallel over source vertices.

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace sfly {

inline constexpr std::int32_t kUnreachable = -1;

/// Single-source BFS hop distances (kUnreachable where disconnected).
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const Graph& g, Vertex src);

struct DistanceStats {
  std::int32_t diameter = 0;       // max finite distance
  double mean_distance = 0.0;      // over ordered pairs u != v, connected pairs
  bool connected = true;
  std::vector<std::uint64_t> histogram;  // histogram[d] = #ordered pairs at hop d
};

/// All-pairs distance statistics (exact, 64-source bit-parallel BFS).
[[nodiscard]] DistanceStats distance_stats(const Graph& g);

/// Exact girth (length of shortest cycle); returns 0 for forests.
/// Early-exits once a 3-cycle is found.
[[nodiscard]] std::uint32_t girth(const Graph& g);

/// Number of connected components.
[[nodiscard]] std::uint32_t num_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

/// 2-colorability; if bipartite and `side` non-null, writes the parity
/// (0/1) of each vertex (component-wise).
[[nodiscard]] bool is_bipartite(const Graph& g, std::vector<std::uint8_t>* side = nullptr);

/// Eccentricity of one vertex (max finite BFS distance).
[[nodiscard]] std::int32_t eccentricity(const Graph& g, Vertex v);

}  // namespace sfly
