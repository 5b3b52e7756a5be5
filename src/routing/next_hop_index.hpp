#pragma once
// Precomputed minimal next-hop index.
//
// Tables recovers minimal next-hop sets by scanning a router's adjacency
// and testing dist(w,v)+1 == dist(u,v) per neighbor — O(radix) distance-
// matrix probes per hop, which is where the simulator's event loop spends
// its time.  NextHopIndex runs that scan once per (router, dst-router)
// pair at build time and stores the result as one CSR structure: for each
// ordered pair, the minimal next hops in adjacency order, recorded both as
// the neighbor vertex and as the *port slot* (position within the
// router's adjacency list).  A routing query is then one offset lookup
// plus an `entropy % count` pick — no scan, no search, no allocation —
// and the simulator maps slot -> output port as net_port_base[u] + slot
// without the per-hop lower_bound that port_toward used to do.
//
// The stored order is exactly the scan order, so sample(u, v, e) returns
// the same hop as Tables::sample_next_hop(g, u, v, e) bit for bit; the
// golden-value pins in tests/test_sim.cpp hold across both paths, and
// tests/test_next_hop_index.cpp pins set- and order-equality explicitly.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "util/owned_span.hpp"
#include "util/rng.hpp"

namespace sfly::routing {

class NextHopIndex {
 public:
  /// One (vertex, port-slot) next-hop entry.
  struct Hop {
    Vertex vert = 0;
    std::uint16_t slot = 0;  // position in u's adjacency list
  };

  /// A (u, v) row: minimal next hops in adjacency order.
  struct HopList {
    const Vertex* verts = nullptr;
    const std::uint16_t* slots = nullptr;
    std::uint32_t count = 0;
  };

  /// Scan every (u, v) pair once (OpenMP-parallel over sources).  Throws
  /// if `tables` was not built over `g` (size mismatch) or a radix
  /// exceeds the uint16 slot range.
  static NextHopIndex build(const Graph& g, const Tables& tables);

  /// Zero-copy view over externally owned CSR arrays (e.g. an mmap'd
  /// snapshot): `offsets` must hold n*n+1 entries, `verts`/`slots` the
  /// offsets[n*n] parallel hop entries.  The backing memory must outlive
  /// the index and every copy of it.
  static NextHopIndex from_view(Vertex n, std::span<const std::uint32_t> offsets,
                                std::span<const Vertex> verts,
                                std::span<const std::uint16_t> slots);

  /// Process-wide count of build() calls — warm-restart assertions check
  /// that snapshot-served queries never trigger an index rebuild.
  static std::uint64_t builds();

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_entries() const { return verts_.size(); }

  /// Raw CSR arrays (snapshot serialization; read-only).
  [[nodiscard]] std::span<const std::uint32_t> raw_offsets() const {
    return {offsets_.data(), offsets_.size()};
  }
  [[nodiscard]] std::span<const Vertex> raw_verts() const {
    return {verts_.data(), verts_.size()};
  }
  [[nodiscard]] std::span<const std::uint16_t> raw_slots() const {
    return {slots_.data(), slots_.size()};
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.size() * sizeof(std::uint32_t) +
           verts_.size() * sizeof(Vertex) + slots_.size() * sizeof(std::uint16_t);
  }
  [[nodiscard]] bool is_view() const { return offsets_.is_view(); }

  [[nodiscard]] HopList hops(Vertex u, Vertex v) const {
    const std::size_t row = static_cast<std::size_t>(u) * n_ + v;
    const std::uint32_t b = offsets_[row];
    return {verts_.data() + b, slots_.data() + b, offsets_[row + 1] - b};
  }

  [[nodiscard]] std::uint32_t count(Vertex u, Vertex v) const {
    const std::size_t row = static_cast<std::size_t>(u) * n_ + v;
    return offsets_[row + 1] - offsets_[row];
  }

  /// The (entropy % count)-th minimal next hop — identical to the hop
  /// Tables::sample_next_hop picks.  Requires u != v (count > 0).
  [[nodiscard]] Hop pick(Vertex u, Vertex v, std::uint64_t entropy) const {
    const std::size_t row = static_cast<std::size_t>(u) * n_ + v;
    const std::uint32_t b = offsets_[row];
    const std::uint32_t c = offsets_[row + 1] - b;
    const std::uint32_t at = b + static_cast<std::uint32_t>(entropy % c);
    return {verts_[at], slots_[at]};
  }

 private:
  Vertex n_ = 0;
  OwnedSpan<std::uint32_t> offsets_;  // n*n + 1
  OwnedSpan<Vertex> verts_;           // next-hop router ids
  OwnedSpan<std::uint16_t> slots_;    // parallel port slots
};

/// Indexed mirror of policy.cpp's source_decision: same entropy streams,
/// same tie-breaks, but every next-hop sample is an index pick and every
/// queue probe addresses an output port directly by (router, slot).
/// `probe(at, slot)` must return the bytes queued on router `at`'s output
/// port `slot` (the simulator's per-port running total).  Templated so
/// the probe inlines — the hot path neither allocates nor makes an
/// indirect call.
template <class PortProbe>
[[nodiscard]] PacketRoute source_decision_indexed(
    Algo algo, const Tables& tables, const NextHopIndex& idx, Vertex src_router,
    Vertex dst_router, std::uint64_t entropy, PortProbe&& probe) {
  PacketRoute route;
  if (algo == Algo::kMinimal || algo == Algo::kAdaptiveMin ||
      src_router == dst_router)
    return route;

  const Vertex mid = valiant_intermediate(tables.num_vertices(), src_router,
                                          dst_router, entropy);

  if (algo == Algo::kValiant) {
    route.valiant = true;
    route.intermediate = mid;
    return route;
  }

  const NextHopIndex::Hop min_next =
      idx.pick(src_router, dst_router, split_seed(entropy, 1));
  const NextHopIndex::Hop val_next =
      idx.pick(src_router, mid, split_seed(entropy, 2));
  const std::uint64_t h_min = tables.distance(src_router, dst_router);
  const std::uint64_t h_val =
      static_cast<std::uint64_t>(tables.distance(src_router, mid)) +
      tables.distance(mid, dst_router);
  std::uint64_t q_min = probe(src_router, min_next.slot);
  std::uint64_t q_val = probe(src_router, val_next.slot);
  if (algo == Algo::kUgalG) {
    if (min_next.vert != dst_router)
      q_min += probe(min_next.vert,
                     idx.pick(min_next.vert, dst_router, split_seed(entropy, 3)).slot);
    if (val_next.vert != mid)
      q_val += probe(val_next.vert,
                     idx.pick(val_next.vert, mid, split_seed(entropy, 4)).slot);
  }
  if (q_val * h_val < q_min * h_min) {
    route.valiant = true;
    route.intermediate = mid;
  }
  return route;
}

/// Indexed mirror of policy.cpp's next_hop: resolves the Valiant phase and
/// returns the output-port slot of the sampled hop at `at`.
[[nodiscard]] inline std::uint16_t next_hop_slot(const NextHopIndex& idx,
                                                 Vertex at, Vertex dst_router,
                                                 PacketRoute& route,
                                                 std::uint64_t entropy) {
  if (route.valiant && route.phase == 0) {
    if (at == route.intermediate)
      route.phase = 1;
    else
      return idx.pick(at, route.intermediate, entropy).slot;
  }
  return idx.pick(at, dst_router, entropy).slot;
}

}  // namespace sfly::routing
