#include "routing/policy.hpp"

#include "util/rng.hpp"

namespace sfly::routing {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kMinimal: return "minimal";
    case Algo::kValiant: return "valiant";
    case Algo::kUgalL: return "ugal-l";
    case Algo::kUgalG: return "ugal-g";
    case Algo::kAdaptiveMin: return "adaptive-min";
  }
  return "?";
}

std::uint32_t required_vcs(Algo a, std::uint32_t diameter) {
  return (a == Algo::kMinimal || a == Algo::kAdaptiveMin) ? diameter + 1
                                                          : 2 * diameter + 1;
}

PacketRoute source_decision(Algo algo, const Graph& g, const Tables& tables,
                            Vertex src_router, Vertex dst_router,
                            std::uint64_t entropy, const QueueProbe& probe) {
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

  // UGAL: queue x hop-count product of the two candidate routes. UGAL-L
  // probes only the source router's output queues; UGAL-G additionally
  // probes one hop ahead on each candidate route.
  const Vertex min_next =
      tables.sample_next_hop(g, src_router, dst_router, split_seed(entropy, 1));
  const Vertex val_next =
      tables.sample_next_hop(g, src_router, mid, split_seed(entropy, 2));
  const std::uint64_t h_min = tables.distance(src_router, dst_router);
  const std::uint64_t h_val = static_cast<std::uint64_t>(tables.distance(src_router, mid)) +
                              tables.distance(mid, dst_router);
  std::uint64_t q_min = probe(src_router, min_next);
  std::uint64_t q_val = probe(src_router, val_next);
  if (algo == Algo::kUgalG) {
    if (min_next != dst_router)
      q_min += probe(min_next, tables.sample_next_hop(g, min_next, dst_router,
                                                      split_seed(entropy, 3)));
    if (val_next != mid)
      q_val += probe(val_next, tables.sample_next_hop(g, val_next, mid,
                                                      split_seed(entropy, 4)));
  }
  if (q_val * h_val < q_min * h_min) {
    route.valiant = true;
    route.intermediate = mid;
  }
  return route;
}

Vertex next_hop(const Graph& g, const Tables& tables, Vertex at, Vertex dst_router,
                PacketRoute& route, std::uint64_t entropy) {
  if (route.valiant && route.phase == 0) {
    if (at == route.intermediate)
      route.phase = 1;
    else
      return tables.sample_next_hop(g, at, route.intermediate, entropy);
  }
  return tables.sample_next_hop(g, at, dst_router, entropy);
}

}  // namespace sfly::routing
