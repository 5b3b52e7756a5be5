#pragma once
// Routing policies of Section V: minimal (shortest path with full next-hop
// diversity), Valiant (random intermediate, two minimal phases), and
// UGAL-L (per-packet choice between the minimal and Valiant route using
// only local output-queue occupancy at the source router).
//
// Deadlock avoidance follows Section V-A option (2): the virtual-channel
// index increases by one on every network hop, so the channel dependency
// graph is acyclic.  The paper sizes the VC pool as diameter+1 for minimal
// and 2*diameter+1 for Valiant routing; `required_vcs` reproduces that.

#include <cstdint>
#include <functional>

#include "graph/graph.hpp"
#include "routing/tables.hpp"
#include "util/rng.hpp"

namespace sfly::routing {

enum class Algo {
  kMinimal,
  kValiant,
  kUgalL,
  // Library extensions beyond the paper's three schemes:
  kUgalG,        // UGAL with a two-hop (rather than source-local) queue probe
  kAdaptiveMin,  // minimal next-hop set, per-hop choice by local queue depth
};

[[nodiscard]] const char* algo_name(Algo a);

/// VC pool size the paper uses for a given algorithm and topology diameter.
[[nodiscard]] std::uint32_t required_vcs(Algo a, std::uint32_t diameter);

/// Per-packet routing state carried in the packet header.
struct PacketRoute {
  Vertex intermediate = 0;  // Valiant waypoint (router id)
  std::uint8_t phase = 0;   // 0: toward intermediate; 1: toward destination
  bool valiant = false;     // true when the packet takes the two-phase route
};

/// Queue-occupancy probe: bytes queued on the local output port toward
/// neighbor `next` of router `at` (UGAL-L's only state input).
using QueueProbe = std::function<std::uint64_t(Vertex at, Vertex next)>;

/// The Valiant intermediate for a packet from `src_router` to a distinct
/// `dst_router` in an n-router graph (n >= 3): a router distinct from both,
/// drawn from `entropy`'s 0xA11CE stream (counter-driven redraws cannot
/// cycle).  Every source decision draws it here, so the scan, indexed and
/// large-graph paths agree bit for bit.
[[nodiscard]] inline Vertex valiant_intermediate(Vertex n, Vertex src_router,
                                                 Vertex dst_router,
                                                 std::uint64_t entropy) {
  std::uint64_t draw = 0xA11CE;
  Vertex mid = static_cast<Vertex>(split_seed(entropy, draw) % n);
  while (mid == src_router || mid == dst_router)
    mid = static_cast<Vertex>(split_seed(entropy, ++draw) % n);
  return mid;
}

/// Decide the route mode at the source router (called once per packet).
/// For kUgalL this compares queue x hops of the minimal first hop against
/// the Valiant first hop (Valiant wins ties only if strictly better).
/// `entropy` drives the intermediate / next-hop sampling deterministically.
[[nodiscard]] PacketRoute source_decision(Algo algo, const Graph& g,
                                          const Tables& tables, Vertex src_router,
                                          Vertex dst_router, std::uint64_t entropy,
                                          const QueueProbe& probe);

/// The next router for a packet in flight; advances `route.phase` when the
/// Valiant intermediate is reached.
[[nodiscard]] Vertex next_hop(const Graph& g, const Tables& tables, Vertex at,
                              Vertex dst_router, PacketRoute& route,
                              std::uint64_t entropy);

}  // namespace sfly::routing
