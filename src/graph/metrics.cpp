#include "graph/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "util/parallel.hpp"

namespace sfly {
namespace {

// BFS into a caller-provided scratch vector; returns max distance reached.
std::int32_t bfs_into(const Graph& g, Vertex src, std::vector<std::int32_t>& dist,
                      std::vector<Vertex>& queue) {
  dist.assign(g.num_vertices(), kUnreachable);
  queue.clear();
  queue.push_back(src);
  dist[src] = 0;
  std::int32_t maxd = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    Vertex u = queue[head];
    std::int32_t du = dist[u];
    for (Vertex v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = du + 1;
        maxd = du + 1;
        queue.push_back(v);
      }
    }
  }
  return maxd;
}

}  // namespace

std::vector<std::int32_t> bfs_distances(const Graph& g, Vertex src) {
  std::vector<std::int32_t> dist;
  std::vector<Vertex> queue;
  queue.reserve(g.num_vertices());
  bfs_into(g, src, dist, queue);
  return dist;
}

// All-pairs BFS, 64 sources at a time (Then et al., "The More the Merrier:
// Efficient Multi-Source Graph Traversal", VLDB 2014).  Bit i of a
// vertex's word stands for source 64*block + i.  One level is a pull step,
// next[v] = (OR over u in N(v) of frontier[u]) & ~seen[v], so every bit set
// in next[v] is one (source, v) pair at that hop.  The per-level counts are
// the same integers per-source BFS produces, and every statistic is derived
// from them, so the result does not depend on the thread count.
DistanceStats distance_stats(const Graph& g) {
  const Vertex n = g.num_vertices();
  DistanceStats out;
  if (n == 0) return out;

  const std::int64_t blocks = (static_cast<std::int64_t>(n) + 63) / 64;
  std::vector<std::uint64_t> hist(1, 0);
  bool disconnected = false;

#pragma omp parallel
  {
    std::vector<std::uint64_t> seen(n), frontier(n), next(n);
    std::vector<std::uint64_t> local_hist(1, 0);
    bool local_disc = false;

#pragma omp for schedule(dynamic, 1)
    for (std::int64_t b = 0; b < blocks; ++b) {
      const Vertex first = static_cast<Vertex>(64 * b);
      const Vertex count = std::min<Vertex>(64, n - first);
      // The last block may hold fewer than 64 sources; its unused bits
      // never get set, so "full" means every bit of this block's sources.
      const std::uint64_t full = count == 64 ? ~std::uint64_t{0}
                                             : (std::uint64_t{1} << count) - 1;
      std::fill(seen.begin(), seen.end(), 0);
      std::fill(frontier.begin(), frontier.end(), 0);
      for (Vertex i = 0; i < count; ++i)
        seen[first + i] = frontier[first + i] = std::uint64_t{1} << i;

      for (std::size_t level = 1;; ++level) {
        std::uint64_t found = 0;
        for (Vertex v = 0; v < n; ++v) {
          const std::uint64_t sv = seen[v];
          if (sv == full) {
            next[v] = 0;
            continue;
          }
          std::uint64_t x = 0;
          for (Vertex u : g.neighbors(v)) x |= frontier[u];
          x &= ~sv;
          next[v] = x;
          seen[v] = sv | x;
          found += static_cast<std::uint64_t>(std::popcount(x));
        }
        if (found == 0) break;
        if (level >= local_hist.size()) local_hist.resize(level + 1, 0);
        local_hist[level] += found;
        frontier.swap(next);
      }
      for (Vertex v = 0; v < n && !local_disc; ++v)
        if (seen[v] != full) local_disc = true;
    }

#pragma omp critical
    {
      if (local_hist.size() > hist.size()) hist.resize(local_hist.size(), 0);
      for (std::size_t d = 0; d < local_hist.size(); ++d) hist[d] += local_hist[d];
      disconnected = disconnected || local_disc;
    }
  }

  // Both sums are integers below 2^53, hence exact in double: the mean is
  // the same bits as an average taken pair by pair.
  std::uint64_t pairs = 0, total = 0;
  for (std::size_t d = 1; d < hist.size(); ++d) {
    pairs += hist[d];
    total += d * hist[d];
  }
  out.diameter = static_cast<std::int32_t>(hist.size() - 1);
  out.mean_distance =
      pairs ? static_cast<double>(total) / static_cast<double>(pairs) : 0.0;
  out.connected = !disconnected;
  out.histogram = std::move(hist);
  return out;
}

std::uint32_t girth(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::atomic<std::uint32_t> best{std::numeric_limits<std::uint32_t>::max()};

#pragma omp parallel
  {
    std::vector<std::int32_t> dist(n);
    std::vector<Vertex> parent(n);
    std::vector<Vertex> queue;
    queue.reserve(n);

#pragma omp for schedule(dynamic, 16)
    for (std::int64_t s = 0; s < static_cast<std::int64_t>(n); ++s) {
      std::uint32_t bound = best.load(std::memory_order_relaxed);
      if (bound == 3) continue;  // cannot improve
      // BFS from s; a non-tree edge (u,v) closes a cycle through s of
      // length dist[u] + dist[v] + 1 (>= girth; the minimum over all roots
      // is exact).
      std::fill(dist.begin(), dist.end(), kUnreachable);
      queue.clear();
      queue.push_back(static_cast<Vertex>(s));
      dist[s] = 0;
      parent[s] = static_cast<Vertex>(s);
      std::uint32_t local = bound;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        Vertex u = queue[head];
        // Depth pruning: any cycle found deeper cannot beat `local`.
        if (2 * static_cast<std::uint32_t>(dist[u]) + 1 >= local) break;
        for (Vertex v : g.neighbors(u)) {
          if (dist[v] == kUnreachable) {
            dist[v] = dist[u] + 1;
            parent[v] = u;
            queue.push_back(v);
          } else if (v != parent[u]) {
            std::uint32_t len = static_cast<std::uint32_t>(dist[u] + dist[v]) + 1;
            local = std::min(local, len);
          }
        }
      }
      // Publish improvement.
      std::uint32_t cur = best.load(std::memory_order_relaxed);
      while (local < cur &&
             !best.compare_exchange_weak(cur, local, std::memory_order_relaxed)) {
      }
    }
  }
  std::uint32_t b = best.load();
  return b == std::numeric_limits<std::uint32_t>::max() ? 0 : b;
}

std::uint32_t num_components(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<std::int32_t> dist(n, kUnreachable);
  std::vector<Vertex> queue;
  queue.reserve(n);
  std::uint32_t comps = 0;
  for (Vertex s = 0; s < n; ++s) {
    if (dist[s] != kUnreachable) continue;
    ++comps;
    queue.clear();
    queue.push_back(s);
    dist[s] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (Vertex v : g.neighbors(queue[head]))
        if (dist[v] == kUnreachable) {
          dist[v] = 0;
          queue.push_back(v);
        }
  }
  return comps;
}

bool is_connected(const Graph& g) {
  return g.num_vertices() == 0 || num_components(g) == 1;
}

bool is_bipartite(const Graph& g, std::vector<std::uint8_t>* side) {
  const Vertex n = g.num_vertices();
  std::vector<std::int8_t> color(n, -1);
  std::vector<Vertex> queue;
  queue.reserve(n);
  for (Vertex s = 0; s < n; ++s) {
    if (color[s] != -1) continue;
    color[s] = 0;
    queue.clear();
    queue.push_back(s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      Vertex u = queue[head];
      for (Vertex v : g.neighbors(u)) {
        if (color[v] == -1) {
          color[v] = static_cast<std::int8_t>(1 - color[u]);
          queue.push_back(v);
        } else if (color[v] == color[u]) {
          return false;
        }
      }
    }
  }
  if (side) {
    side->resize(n);
    for (Vertex v = 0; v < n; ++v) (*side)[v] = static_cast<std::uint8_t>(color[v]);
  }
  return true;
}

std::int32_t eccentricity(const Graph& g, Vertex v) {
  std::vector<std::int32_t> dist;
  std::vector<Vertex> queue;
  queue.reserve(g.num_vertices());
  return bfs_into(g, v, dist, queue);
}

}  // namespace sfly
