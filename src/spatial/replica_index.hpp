#pragma once
/// \file replica_index.hpp
/// Spatial queries over a placement: nearest replica of a file (with exact
/// uniform tie breaking) and replica streams, in list order or filtered by
/// radius. This is the query layer all allocation strategies are built on,
/// and it works over any `Topology` (topology/topology.hpp).
///
/// **Lattice kernel.** On a `Lattice` the index keeps one flat array of
/// packed `uint16` (x, y) replica coordinates, aligned with
/// `Placement::replicas(j)`, for every file whose list the kernel scans:
/// `|S_j|² <= kShellWalkFactor · n`. Every replica-list scan of such a
/// file — `nearest`, `for_each_replica` and the radius stream behind
/// least-loaded and two-choice(r) — runs one inlined torus/grid L1 kernel
/// over it: no per-replica division or virtual call, and no allocation or
/// shared scratch per query, so sharded `propose` lanes call it
/// concurrently. Denser files store no coordinates: their list scans call
/// `Lattice::distance`, and once `|S_j|` reaches the bucket threshold
/// their radius streams use a per-file bucket grid.
///
/// **Seed contract.** `nearest()` draws exactly what the historical
/// dispatch drew: `nearest_by_scan` when `|S_j|² <= n` or the topology
/// cannot enumerate shells directly, else `nearest_by_shells`. That
/// crossover stays part of the contract. On a lattice three cost bands
/// reproduce it:
///
///  * `|S_j|² <= n` — the kernel replays the scan's reservoir offers in
///    list order;
///  * `n < |S_j|² <= kShellWalkFactor · n` — the kernel takes the minimum
///    distance and offers the tied replicas in the shell walk's canonical
///    order (torus: ring dx, then x-offset, then y-offset; grid: dx + D,
///    then upper before lower), so the same draws pick the same server
///    with the same tie count and leave the Rng in the same state, and no
///    shell is walked;
///  * above — the shell walk itself, which visits about `n / |S_j|` nodes
///    where the kernel would scan `|S_j|` replicas.
///
/// **Other topologies.** List scans ask the topology for a chunk of
/// `kDistanceChunk` replica distances at a time (`Topology::distances`,
/// one oracle lock per chunk on sparse graphs) into a stack buffer, then
/// hand the chunk to the visitor — again no allocation or shared scratch,
/// and no visitor runs inside the topology. `nearest()`'s scan band reads
/// the same stream.
///
/// The two reference algorithms stay public as test oracles
/// (`nearest_by_scan` asks for one distance at a time);
/// `nearest_by_shells` also answers every shell band.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "catalog/placement.hpp"
#include "random/rng.hpp"
#include "random/sampling.hpp"
#include "spatial/bucket_grid.hpp"
#include "topology/lattice.hpp"
#include "topology/shells.hpp"
#include "topology/topology.hpp"
#include "util/types.hpp"

namespace proxcache {

/// Result of a nearest-replica query.
struct NearestResult {
  NodeId server = kInvalidNode;  ///< chosen replica (invalid if none exists)
  Hop distance = 0;              ///< hop distance to it
  std::uint32_t ties = 0;        ///< number of equidistant candidates
};

/// Spatial query index bound to one (topology, placement) pair. Holds
/// references; the topology and placement must outlive the index.
class ReplicaIndex {
 public:
  /// Build the index. On lattice topologies, files whose replica list
  /// exceeds `bucket_threshold` get a bucket grid for radius queries
  /// (0 disables bucket grids; non-lattice topologies never build them).
  ReplicaIndex(const Topology& topology, const Placement& placement,
               std::size_t bucket_threshold = 512);

  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] const Placement& placement() const { return *placement_; }

  /// Lattice files with `|S_j|² > kShellWalkFactor · n` answer `nearest`
  /// by walking shells and store no packed coordinates (file comment).
  /// The shell-order replay and the shell walk cost the same at about
  /// `|S_j|² = 12n..18n` on tori and grids of side 45 to 400.
  static constexpr std::size_t kShellWalkFactor = 16;

  /// Replica distances a non-lattice list scan requests per
  /// `Topology::distances` call (file comment).
  static constexpr std::size_t kDistanceChunk = 256;

  /// Nearest replica of `j` to `u`, uniform among ties. Same server, tie
  /// count and Rng draws as `nearest_by_scan` when `|S_j|² <= n` or the
  /// topology cannot enumerate shells directly, and as `nearest_by_shells`
  /// otherwise (see the file comment). Returns an invalid server if the
  /// file has no replica.
  NearestResult nearest(NodeId u, FileId j, Rng& rng) const;

  /// Nearest replica via the replica-list scan (always exact).
  NearestResult nearest_by_scan(NodeId u, FileId j, Rng& rng) const;

  /// Nearest replica via the expanding-shell scan (always exact).
  NearestResult nearest_by_shells(NodeId u, FileId j, Rng& rng) const;

  /// Invoke `fn(NodeId replica, Hop distance)` for every replica of `j`,
  /// in `placement().replicas(j)` order.
  template <typename Fn>
  void for_each_replica(NodeId u, FileId j, Fn&& fn) const {
    if (has_coords(j)) {
      scan_lattice(u, j, [&](std::size_t, NodeId v, Hop d) { fn(v, d); });
    } else if (lattice_ != nullptr) {
      for (const NodeId v : placement_->replicas(j)) {
        fn(v, lattice_->distance(u, v));
      }
    } else {
      scan_topology(u, j, fn);
    }
  }

  /// Invoke `fn(NodeId replica, Hop distance)` for every replica of `j`
  /// within distance `r` of `u` (including `u` itself if it caches `j`).
  /// Each replica visited exactly once, unspecified order. On a sparse
  /// graph, inside the local horizon, `fn` runs inside the distance
  /// oracle's shell walk: it must not query the topology (that throws
  /// std::logic_error rather than deadlock).
  template <typename Fn>
  void for_each_replica_within(NodeId u, FileId j, Hop r, Fn&& fn) const {
    if (r >= topology_->diameter()) {
      // Unconstrained: the whole replica list qualifies, in list order.
      for_each_replica(u, j, std::forward<Fn>(fn));
      return;
    }
    if (buckets_[j]) {
      buckets_[j]->for_each_within(u, r, std::forward<Fn>(fn));
      return;
    }
    if (topology_->prefers_local_enumeration() &&
        r <= topology_->local_enumeration_horizon(u)) {
      // Sparse graph oracles, inside the budget ball: walk the ball around
      // the requester — exact distances, touches a bounded number of nodes
      // — instead of scanning the global replica list through
      // (approximate, per-source-BFS) far-pair distance queries. Beyond
      // the horizon the "ball" can be most of the graph (hyperbolic /
      // expander topologies have diameter O(log n)), so the list scan wins
      // again; there `d` may be a landmark upper bound, which only ever
      // *excludes* replicas whose true distance is within r, never admits
      // one beyond.
      for_each_in_ball(*topology_, u, r, [&](NodeId v, Hop d) {
        if (placement_->caches(v, j)) fn(v, d);
      });
      return;
    }
    for_each_replica(u, j, [&](NodeId v, Hop d) {
      if (d <= r) fn(v, d);
    });
  }

  /// `|F_j(u)|` — number of replicas of `j` within distance `r` of `u`.
  [[nodiscard]] std::size_t count_replicas_within(NodeId u, FileId j,
                                                  Hop r) const;

  /// True iff file `j` has a bucket grid (exposed for tests/benches).
  [[nodiscard]] bool has_bucket_grid(FileId j) const {
    return buckets_[j] != nullptr;
  }

 private:
  /// One replica's lattice coordinate; side <= 65535 keeps both in range.
  struct PackedCoord {
    std::uint16_t x;
    std::uint16_t y;
  };

  /// Lattice coordinate of node `v`.
  [[nodiscard]] PackedCoord coord_of(NodeId v) const {
    const auto side = static_cast<NodeId>(lattice_->side());
    return {static_cast<std::uint16_t>(v % side),
            static_cast<std::uint16_t>(v / side)};
  }

  /// True iff the kernel scans `j`'s list: the lattice files with
  /// `|S_j|² <= kShellWalkFactor · n`, which hold packed coordinates.
  [[nodiscard]] bool has_coords(FileId j) const {
    if (lattice_ == nullptr) return false;
    const std::size_t replicas = placement_->replica_count(j);
    return replicas * replicas <= kShellWalkFactor * lattice_->size();
  }

  /// The lattice kernel: invoke `fn(i, replica, distance)` for every
  /// replica of `j` in list order, with distances from the packed
  /// coordinates. Files with `has_coords(j)` only.
  template <typename Fn>
  void scan_lattice(NodeId u, FileId j, Fn&& fn) const {
    const auto list = placement_->replicas(j);
    const PackedCoord* coords = coords_.get() + coord_offsets_[j];
    const std::int32_t side = lattice_->side();
    const PackedCoord origin = coord_of(u);
    const std::int32_t ux = origin.x;
    const std::int32_t uy = origin.y;
    const auto axis = [side](std::int32_t a, std::int32_t b, auto torus) {
      const std::int32_t direct = a > b ? a - b : b - a;
      if constexpr (decltype(torus)::value) {
        return std::min(direct, side - direct);
      } else {
        return direct;
      }
    };
    const auto run = [&](auto torus) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        fn(i, list[i],
           static_cast<Hop>(axis(coords[i].x, ux, torus) +
                            axis(coords[i].y, uy, torus)));
      }
    };
    if (lattice_->wrap() == Wrap::Torus) {
      run(std::true_type{});
    } else {
      run(std::false_type{});
    }
  }

  /// `for_each_replica` off lattices: `kDistanceChunk` distances per
  /// `Topology::distances` call (file comment). A function of its own so
  /// `for_each_replica` stays small enough to inline into its callers:
  /// with this loop written inline, prox-weighted's torus scan no longer
  /// inlined and ran slower.
  template <typename Fn>
  void scan_topology(NodeId u, FileId j, Fn& fn) const {
    const auto list = placement_->replicas(j);
    Hop hops[kDistanceChunk];
    for (std::size_t begin = 0; begin < list.size();
         begin += kDistanceChunk) {
      const auto chunk =
          list.subspan(begin, std::min(kDistanceChunk, list.size() - begin));
      topology_->distances(u, chunk, std::span<Hop>(hops, chunk.size()));
      for (std::size_t i = 0; i < chunk.size(); ++i) fn(chunk[i], hops[i]);
    }
  }

  /// `nearest()` on a lattice between the crossover and the shell-walk
  /// band: the shell walk's result and draws without walking shells.
  NearestResult nearest_in_shell_order(NodeId u, FileId j, Rng& rng) const;

  const Topology* topology_;
  const Lattice* lattice_;  ///< `topology_->as_lattice()`, cached
  const Placement* placement_;
  /// Lattice only: packed replica coordinates, file `j` at
  /// `coords_[coord_offsets_[j] ..)` in `replicas(j)` order; an empty
  /// range for files the kernel does not scan.
  std::unique_ptr<PackedCoord[]> coords_;
  std::vector<std::size_t> coord_offsets_;
  std::vector<std::unique_ptr<BucketGrid>> buckets_;
};

}  // namespace proxcache
