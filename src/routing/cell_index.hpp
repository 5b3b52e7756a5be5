#pragma once
// Large-graph routing: exact per-destination BFS labels, the sub-quadratic
// replacement for the all-pairs Tables/NextHopIndex pair past
// engine::kCellExactThreshold routers.
//
// CellQuery::prepare(dst) runs one BFS over the graph CSR into a reused u8
// d(., dst) array; distance / minimal-next-hop / sampled-next-hop queries
// read it.  Next-hop sets come from the same adjacency-order scan and the
// same (entropy % count) pick as Tables::sample_next_hop, so wherever both
// exist the sampled hops agree bit for bit (tests/test_cell_index.cpp pins
// this).  Memory is the graph plus V bytes of labels per live query; there
// is no build step beyond one connectivity BFS.
//
// Why not a cell hierarchy: OSRM-style cell routing wins only where the
// graph has small cuts, and by Cheeger's inequality an expander has none.
// On LPS and DragonFly every vertex ended up a boundary vertex, and the
// overlay query cost more than this plain BFS (DESIGN.md §9).
//
// The CellIndex/CellQuery names predate that finding and are kept only
// because the benchmark harness (sflybench/src/svc.cpp) compiles against
// them; renaming to DistLabels waits for a benchmark change that retargets
// its large_route workload.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace sfly::routing {

/// Per-destination distance labels over one graph.  Not thread-safe; make
/// one per thread and prepare() it per destination.  The graph must
/// outlive the query.
class CellQuery {
 public:
  explicit CellQuery(const Graph& g);

  /// BFS from `dst` into the label array.  Throws std::runtime_error if
  /// the graph is disconnected or a distance exceeds 254 hops; the query
  /// is then unprepared.
  void prepare(Vertex dst);

  /// Destination of the last successful prepare() (num_vertices() when
  /// unprepared).
  [[nodiscard]] Vertex dst() const { return dst_; }

  /// Exact d(u, dst).
  [[nodiscard]] std::uint8_t distance(Vertex u) const { return label_[u]; }

  /// Append all minimal next hops from u toward dst (adjacency order) —
  /// the same set Tables::minimal_next_hops yields.
  void minimal_next_hops(Vertex u, std::vector<Vertex>& out) const;

  /// The (entropy % count)-th minimal next hop — bitwise the hop
  /// Tables::sample_next_hop picks.  Requires u != dst.
  [[nodiscard]] Vertex sample_next_hop(Vertex u, std::uint64_t entropy) const;

 private:
  const Graph* graph_;
  Vertex dst_;
  std::vector<std::uint8_t> label_;  // vertex -> d(., dst)
  std::vector<Vertex> queue_;        // BFS frontier, reused
};

/// Whole-graph facts the large-graph route path needs up front: the graph
/// is connected, and a diameter bound to budget walks.
class CellIndex {
 public:
  /// One BFS from vertex 0 (CellQuery::prepare).  Throws if the graph is
  /// disconnected (like Tables::build) or deeper than 254 hops.
  static CellIndex build(const Graph& g);

  /// Process-wide count of build() calls.
  static std::uint64_t builds();

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  /// Always 0: the whole graph is one cell, so no vertex is on a boundary.
  [[nodiscard]] std::uint32_t num_boundary() const { return 0; }
  /// Upper bound on the graph diameter: 2 * ecc(vertex 0), capped at 254.
  [[nodiscard]] std::uint8_t diameter_bound() const { return diameter_bound_; }

  /// A query over `g`, which must be the graph this index was built over.
  [[nodiscard]] CellQuery make_query(const Graph& g) const {
    return CellQuery(g);
  }

 private:
  CellIndex() = default;

  Vertex n_ = 0;
  std::uint8_t diameter_bound_ = 0;
};

}  // namespace sfly::routing
