#pragma once
// Per-topology artifact cache.  Building a topology's graph, all-pairs
// routing tables, and spectra dominates the cost of small-scenario sweeps
// and is identical across every scenario that names the same topology, so
// the engine computes each artifact once (thread-safe, lazily) and hands
// out shared pointers.  Failure-perturbed scenarios reuse the cached
// pristine graph as their base and derive the rest per scenario.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/spectralfly_net.hpp"
#include "graph/graph.hpp"
#include "routing/cell_index.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/tables.hpp"
#include "spectral/spectra.hpp"

namespace sfly::engine {

/// Vertex-count ceiling for exact all-pairs routing artifacts.  Above it
/// the O(V^2) tables are impractical: routes run one BFS per destination
/// (routing::CellQuery) and snapshots store graph + spectra only.
inline constexpr Vertex kCellExactThreshold = 4096;

/// Lazily materialized per-topology artifacts.  Thread-safe: concurrent
/// callers block until the single builder finishes, then share the result.
class Artifacts {
 public:
  /// Per-component byte sizes of the materialized artifacts (zero for
  /// components not yet built).  Sizes snapshots and the --profile dump.
  struct Footprint {
    std::size_t graph_bytes = 0;
    std::size_t tables_bytes = 0;
    std::size_t next_hops_bytes = 0;
    std::size_t spectra_bytes = 0;
    // Always 0: the large-graph route labels are query-local and
    // CellIndex stores no arrays.  Kept for the stats/bench field.
    std::size_t cells_bytes = 0;
    [[nodiscard]] std::size_t total() const {
      return graph_bytes + tables_bytes + next_hops_bytes + spectra_bytes;
    }
  };

  Artifacts(std::function<Graph()> build, std::uint32_t concentration)
      : build_(std::move(build)), concentration_(concentration) {}

  /// Pre-materialized construction (snapshot restore): the components are
  /// adopted as-is and the lazy builders never run.  Any nullptr component
  /// falls back to lazy building from the graph (which must be non-null).
  Artifacts(std::shared_ptr<const Graph> graph,
            std::shared_ptr<const routing::Tables> tables,
            std::shared_ptr<const routing::NextHopIndex> next_hops,
            std::shared_ptr<const Spectra> spectra, std::uint32_t concentration)
      : concentration_(concentration),
        graph_(std::move(graph)),
        tables_(std::move(tables)),
        next_hops_(std::move(next_hops)),
        spectra_(std::move(spectra)) {}

  [[nodiscard]] std::uint32_t concentration() const { return concentration_; }

  [[nodiscard]] std::shared_ptr<const Graph> graph();
  [[nodiscard]] std::shared_ptr<const routing::Tables> tables();
  [[nodiscard]] std::shared_ptr<const routing::NextHopIndex> next_hops();
  [[nodiscard]] std::shared_ptr<const Spectra> spectra();

  /// Connectivity check + diameter bound from one BFS (CellIndex::build),
  /// at any size.  Safe to force at 50k+ routers, unlike tables().
  [[nodiscard]] std::shared_ptr<const routing::CellIndex> cell_index();

  /// A core::Network sharing the cached graph, all-pairs tables, and
  /// next-hop index (Network::from_shared — no per-call BFS rebuild, no
  /// adjacency copy; scenario evaluation is allocation-free on the
  /// topology).  `opts.concentration` is overridden from the
  /// registration; routing/vcs/sim knobs pass through.
  [[nodiscard]] core::Network make_network(std::string name,
                                           core::NetworkOptions opts = {});

  /// Bytes per materialized component; does not force any build.
  [[nodiscard]] Footprint footprint() const;

 private:
  std::function<Graph()> build_;
  std::uint32_t concentration_;
  std::once_flag graph_once_, tables_once_, next_hops_once_, spectra_once_,
      cell_once_;
  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const routing::Tables> tables_;
  std::shared_ptr<const routing::NextHopIndex> next_hops_;
  std::shared_ptr<const Spectra> spectra_;
  std::shared_ptr<const routing::CellIndex> cell_;
};

class ArtifactCache {
 public:
  /// Register a topology under `name`; `build` is deferred until the first
  /// scenario needs the graph.  Re-registering a name replaces the entry
  /// (and drops the old artifacts).
  void register_topology(std::string name, std::function<Graph()> build,
                         std::uint32_t concentration = 8);

  /// Install pre-materialized artifacts under `name` (snapshot restore).
  /// Re-adopting a name replaces the entry, same as register_topology.
  void adopt(std::string name, std::shared_ptr<Artifacts> artifacts);

  /// Shared artifact set for `name`; throws std::out_of_range if unknown.
  [[nodiscard]] std::shared_ptr<Artifacts> get(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Artifacts>> entries_;
};

}  // namespace sfly::engine
