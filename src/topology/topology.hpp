#pragma once
/// \file topology.hpp
/// The cache network's topology seam: an abstract graph of `n` servers with
/// a hop metric and `B_r(u)` neighborhood enumeration — everything the
/// spatial query layer, the strategies and the workload generators need to
/// know about "where the servers are".
///
/// The paper states its results on a torus lattice (`Lattice`,
/// topology/lattice.hpp), but the load/proximity trade-off is a graph
/// phenomenon: Panigrahy et al. study the same policies on rings, trees and
/// random geometric graphs, and hierarchical cache tiers are trees. This
/// interface is what lets the simulator sweep that axis: `Lattice`
/// implements it bit-identically to its pre-interface behavior, and
/// `RingTopology` / `TreeTopology` / `GraphTopology` open the non-lattice
/// networks (see topology/registry.hpp for the spec-string catalog).
///
/// Contract for implementations:
///  * node ids are dense, `[0, size())`;
///  * `distance` is a metric in hops; `diameter()` is its maximum;
///  * `distances(u, vs, out)` answers `out[i] = distance(u, vs[i])` for a
///    whole target list and must agree with the per-pair calls value for
///    value; overrides only amortize per-call cost (one oracle lock per
///    list on sparse graphs) and never invoke caller code;
///  * `visit_shell(u, d, fn)` enumerates every node at distance exactly `d`
///    from `u`, each exactly once, in a *deterministic* order — the
///    reservoir-sampling query layer consumes RNG draws per visited node,
///    so enumeration order is part of the reproducibility contract;
///  * `central_node()` is the deterministic "center" used by hotspot/flash
///    workloads to anchor demand discs.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/function_ref.hpp"
#include "util/types.hpp"

namespace proxcache {

class Lattice;
class TieredTopology;

/// Visitor for shell/ball enumeration.
using NodeVisitor = FunctionRef<void(NodeId)>;

/// Abstract network topology: node count, hop metric, and neighborhood
/// enumeration. Implementations must be immutable after construction and
/// safe to query from multiple threads concurrently.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Number of servers `n`.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Hop (shortest-path) distance between two nodes.
  [[nodiscard]] virtual Hop distance(NodeId u, NodeId v) const = 0;

  /// Bulk distance from one source: `out[i] = distance(u, vs[i])` for
  /// every `i` (`out.size() == vs.size()`). The default is the per-pair
  /// loop; `GraphTopology` forwards to its oracle's batched query.
  virtual void distances(NodeId u, std::span<const NodeId> vs,
                         std::span<Hop> out) const;

  /// Largest hop distance between any two nodes.
  [[nodiscard]] virtual Hop diameter() const = 0;

  /// Invoke `fn(v)` for every node at distance exactly `d` from `u`, each
  /// exactly once, in the implementation's deterministic order. The default
  /// scans all nodes in id order (O(n) per shell); structured topologies
  /// override with direct enumeration.
  virtual void visit_shell(NodeId u, Hop d, NodeVisitor fn) const;

  /// True when `visit_shell` enumerates a shell in ~O(|shell|) without
  /// scanning all nodes. The expanding-shell nearest-replica search is only
  /// profitable on such topologies; on scan-based ones it would degenerate
  /// to O(n · diameter) per query. Default: false (the base scan).
  [[nodiscard]] virtual bool directly_enumerates_shells() const {
    return false;
  }

  /// True when radius-limited queries should walk the ball around the
  /// requester (via `visit_shell`) instead of scanning global node/replica
  /// lists. Distinct from `directly_enumerates_shells`: ring/tree
  /// enumerate shells directly but answer `distance` in O(1), so list
  /// scans stay cheap there; a sparse graph oracle answers far-pair
  /// distances approximately and pays a BFS per new source, so local ball
  /// walks are both faster *and* exact. Default: false.
  [[nodiscard]] virtual bool prefers_local_enumeration() const {
    return false;
  }

  /// Largest radius for which a ball walk around `u` is still "local" —
  /// guaranteed to touch a bounded number of nodes. Radius queries on
  /// topologies that prefer local enumeration fall back to list scans
  /// beyond it: on small-diameter graphs (hyperbolic/expanders) even
  /// B_8(u) can be most of the graph. Must be a pure function of the
  /// topology (never of query history). Default: the diameter (every ball
  /// walk allowed).
  [[nodiscard]] virtual Hop local_enumeration_horizon(NodeId u) const {
    (void)u;
    return diameter();
  }

  /// Exact number of nodes at distance exactly `d` from `u`.
  [[nodiscard]] virtual std::size_t shell_size(NodeId u, Hop d) const;

  /// Exact `|B_r(u)|` — nodes within distance `r` of `u`, including `u`.
  [[nodiscard]] virtual std::size_t ball_size(NodeId u, Hop r) const;

  /// Direct neighbors of `u` (distance exactly 1).
  [[nodiscard]] virtual std::vector<NodeId> neighbors(NodeId u) const;

  /// Average hop distance from `u` to a uniformly random node (including
  /// `u` itself at distance 0) — the "no proximity constraint" reference
  /// communication cost.
  [[nodiscard]] virtual double mean_distance_to_random_node(NodeId u) const;

  /// Deterministic anchor node for spatially concentrated workloads
  /// (hotspot/flash discs). Defaults to `size() / 2`.
  [[nodiscard]] virtual NodeId central_node() const;

  /// Canonical one-line description, e.g. `torus(side=45)` — matches the
  /// registry spec string that would rebuild this topology.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Human-readable coordinate/debug label of a node (e.g. `(x, y)` on a
  /// lattice, `depth:index` on a tree). Defaults to the bare id.
  [[nodiscard]] virtual std::string node_label(NodeId u) const;

  /// Fast-path hook: the concrete `Lattice` when this topology is one,
  /// nullptr otherwise. The spatial layer uses it to keep the paper's
  /// torus/grid hot paths devirtualized and bucket-grid accelerated.
  [[nodiscard]] virtual const Lattice* as_lattice() const { return nullptr; }

  /// Hierarchy hook: the concrete `TieredTopology` when this topology is a
  /// tier composition (tier/tiered_topology.hpp), nullptr otherwise. The
  /// workload generators and cross-tier strategies use it to learn the
  /// tier/cluster structure without the core layers depending on it.
  [[nodiscard]] virtual const TieredTopology* as_tiered() const {
    return nullptr;
  }

  /// Number of nodes that originate requests — the prefix `[0,
  /// origin_universe())` of the id space. Flat topologies serve and
  /// originate everywhere (the default, `size()`); a tier composition
  /// restricts demand to its front-end tier while back-end/origin nodes
  /// only ever *serve*.
  [[nodiscard]] virtual std::size_t origin_universe() const { return size(); }
};

}  // namespace proxcache
