#pragma once
/// \file graph_topology.hpp
/// Topology over an arbitrary connected undirected graph
/// (`graph/compact_graph.hpp` CSR representation) with BFS hop distances
/// served by the scalable `DistanceOracle` (graph/distance_oracle.hpp):
///
///  * small graphs (n <= `DistanceOracle::Options::dense_threshold`) keep
///    the historical dense all-pairs `uint16` matrix — O(1) exact queries,
///    bit-identical to the pre-oracle behavior, so every existing golden
///    master is preserved;
///  * large graphs switch to on-demand truncated BFS rows (LRU-cached) plus
///    landmark upper bounds for far pairs — memory proportional to what
///    queries visit, which is what lets graph-backed topologies reach
///    n = 10⁶–10⁷.
///
/// This is the backing for irregular networks; the built-in random
/// geometric graph (`make_rgg_topology`) models servers scattered in the
/// unit square with radio-range links, the classic non-lattice testbed for
/// proximity-aware allocation.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/compact_graph.hpp"
#include "graph/distance_oracle.hpp"
#include "topology/topology.hpp"
#include "util/types.hpp"

namespace proxcache {

/// BFS-distance topology over a connected CompactGraph.
class GraphTopology final : public Topology {
 public:
  using Options = DistanceOracle::Options;

  /// Takes ownership of `graph`; throws std::invalid_argument when the
  /// graph is empty, not connected (every topology query assumes finite
  /// distances), or deeper than the uint16 distance storage. `description`
  /// becomes `describe()`, canonically the spec string that built the
  /// graph. Below `options.dense_threshold` nodes this costs O(V·(V+E))
  /// construction and O(V²) memory (the exact dense regime); above it,
  /// construction is `num_landmarks` BFS passes plus up to
  /// `diameter_bfs_budget` eccentricities, computed 64 per bit-parallel
  /// sweep (⌈budget/64⌉ sweeps), and memory is O(k·V) plus the bounded
  /// row cache.
  GraphTopology(CompactGraph graph, std::string description,
                Options options = Options{});

  [[nodiscard]] std::size_t size() const override {
    return static_cast<std::size_t>(graph_.num_vertices());
  }
  [[nodiscard]] Hop distance(NodeId u, NodeId v) const override {
    return oracle_.distance(u, v);
  }
  /// One oracle call (one lock in the sparse regime) per target list.
  void distances(NodeId u, std::span<const NodeId> vs,
                 std::span<Hop> out) const override {
    oracle_.distances(u, vs, out);
  }
  [[nodiscard]] Hop diameter() const override { return oracle_.diameter(); }

  /// Exact shell in increasing node-id order (deterministic in both oracle
  /// regimes): a row scan when dense, the cached BFS level when sparse.
  void visit_shell(NodeId u, Hop d, NodeVisitor fn) const override;

  /// Sparse regime only: shells come straight off BFS levels, so the
  /// expanding-shell search is O(|ball|), not O(n · diameter).
  [[nodiscard]] bool directly_enumerates_shells() const override {
    return !oracle_.exact();
  }

  /// Sparse regime only: a ball walk beats scanning global replica lists.
  [[nodiscard]] bool prefers_local_enumeration() const override {
    return !oracle_.exact();
  }

  /// Sparse regime: walk only within the budget ball B*(u) — at most
  /// `distance_ball_budget` nodes, and exactly where `distance` answers
  /// exactly. Beyond it (notably small-diameter hyperbolic graphs, where
  /// B_8(u) is nearly everything) radius queries scan the replica list.
  [[nodiscard]] Hop local_enumeration_horizon(NodeId u) const override {
    return oracle_.budget_ball_depth(u);
  }

  [[nodiscard]] std::size_t shell_size(NodeId u, Hop d) const override {
    return oracle_.shell_size(u, d);
  }
  [[nodiscard]] std::size_t ball_size(NodeId u, Hop r) const override {
    return oracle_.ball_size(u, r);
  }
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId u) const override;
  [[nodiscard]] std::string describe() const override;

  /// The underlying graph (degree stats, edge counts for diagnostics).
  [[nodiscard]] const CompactGraph& graph() const { return graph_; }

  /// The distance layer itself (regime, stats, certified queries).
  [[nodiscard]] const DistanceOracle& oracle() const { return oracle_; }

 private:
  CompactGraph graph_;
  std::string description_;
  DistanceOracle oracle_;  ///< references graph_; declared after it
};

/// Deterministic random geometric graph topology: `n` points uniform in the
/// unit square (all randomness from `seed`), an edge between every pair at
/// Euclidean distance <= `radius`. Edge enumeration runs on a bucket grid
/// (O(n · expected degree), not O(n²)). When the raw graph is disconnected,
/// each minor component is stitched to the giant component through the
/// closest-pair link (deterministic repair; compare `graph().num_edges()`
/// against the raw radius graph to detect it) so distances stay finite.
std::shared_ptr<const GraphTopology> make_rgg_topology(
    std::size_t n, double radius, std::uint64_t seed,
    GraphTopology::Options options = GraphTopology::Options{});

}  // namespace proxcache
