#include "routing/cell_index.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace sfly::routing {

namespace {
std::atomic<std::uint64_t> g_cell_builds{0};
constexpr std::uint8_t kUnreached = 0xFF;
}  // namespace

CellQuery::CellQuery(const Graph& g)
    : graph_(&g), dst_(g.num_vertices()), label_(g.num_vertices()) {
  queue_.reserve(g.num_vertices());
}

void CellQuery::prepare(Vertex dst) {
  const Graph& g = *graph_;
  dst_ = g.num_vertices();
  std::fill(label_.begin(), label_.end(), kUnreached);
  queue_.clear();
  label_[dst] = 0;
  queue_.push_back(dst);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const Vertex u = queue_[head];
    const std::uint8_t du = label_[u];
    for (Vertex w : g.neighbors(u)) {
      if (label_[w] != kUnreached) continue;
      if (du == kUnreached - 1)
        throw std::runtime_error("routing::CellIndex: distance overflow");
      label_[w] = static_cast<std::uint8_t>(du + 1);
      queue_.push_back(w);
    }
  }
  if (queue_.size() != g.num_vertices())
    throw std::runtime_error("routing::CellIndex: graph disconnected");
  dst_ = dst;
}

void CellQuery::minimal_next_hops(Vertex u, std::vector<Vertex>& out) const {
  out.clear();
  const std::uint8_t du = distance(u);
  for (Vertex w : graph_->neighbors(u))
    if (distance(w) + 1 == du) out.push_back(w);
}

Vertex CellQuery::sample_next_hop(Vertex u, std::uint64_t entropy) const {
  const std::uint8_t du = distance(u);
  // Same two-pass count-then-pick as Tables::sample_next_hop — the picked
  // hop is bitwise identical wherever both representations exist.
  std::uint32_t count = 0;
  for (Vertex w : graph_->neighbors(u))
    if (distance(w) + 1 == du) ++count;
  if (count == 0) throw std::logic_error("sample_next_hop: u == v or no path");
  std::uint32_t pick = static_cast<std::uint32_t>(entropy % count);
  for (Vertex w : graph_->neighbors(u)) {
    if (distance(w) + 1 == du) {
      if (pick == 0) return w;
      --pick;
    }
  }
  throw std::logic_error("sample_next_hop: unreachable");
}

std::uint64_t CellIndex::builds() { return g_cell_builds.load(); }

CellIndex CellIndex::build(const Graph& g) {
  g_cell_builds.fetch_add(1, std::memory_order_relaxed);
  CellIndex x;
  x.n_ = g.num_vertices();
  if (x.n_ == 0) return x;
  // 2 * ecc(0) bounds the diameter (used only to budget route walks, so
  // the cap at 254 is harmless).
  CellQuery q(g);
  q.prepare(0);
  std::uint32_t ecc = 0;
  for (Vertex u = 0; u < x.n_; ++u) ecc = std::max<std::uint32_t>(ecc, q.distance(u));
  x.diameter_bound_ = static_cast<std::uint8_t>(std::min<std::uint32_t>(2u * ecc, 254u));
  return x;
}

}  // namespace sfly::routing
