#include "spatial/replica_index.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

/// One copy of the nearest-scan logic (minimum distance, ties reservoir-
/// sampled in list order). `for_each(visit)` calls `visit(replica, hops)`
/// over the file's replica list; it is instantiated for the lattice kernel
/// and for the reference scans.
template <typename ForEach>
NearestResult nearest_in_list_order(ForEach&& for_each, Hop sentinel,
                                    Rng& rng) {
  NearestResult result;
  Hop best = sentinel;
  ReservoirOne reservoir(rng);
  for_each([&](NodeId v, Hop d) {
    if (d < best) {
      best = d;
      reservoir = ReservoirOne(rng);  // restart ties at the new minimum
      reservoir.offer(v);
    } else if (d == best) {
      reservoir.offer(v);
    }
  });
  result.server = *reservoir.value();
  result.distance = best;
  result.ties = static_cast<std::uint32_t>(reservoir.count());
  return result;
}

/// Reference scan over `list` with the topology's own distance.
template <typename TopologyT>
NearestResult nearest_on(const TopologyT& topology,
                         std::span<const NodeId> list, NodeId u,
                         Hop sentinel, Rng& rng) {
  return nearest_in_list_order(
      [&](auto&& visit) {
        for (const NodeId v : list) visit(v, topology.distance(u, v));
      },
      sentinel, rng);
}

}  // namespace

ReplicaIndex::ReplicaIndex(const Topology& topology,
                           const Placement& placement,
                           std::size_t bucket_threshold)
    : topology_(&topology),
      lattice_(topology.as_lattice()),
      placement_(&placement) {
  PROXCACHE_REQUIRE(topology.size() == placement.num_nodes(),
                    "topology and placement disagree on node count");
  const std::size_t num_files = placement.num_files();
  buckets_.resize(num_files);
  // Bucket grids and packed coordinates are lattice coordinate
  // structures; other topologies answer every query through the
  // topology's own distance.
  if (lattice_ == nullptr) return;

  coord_offsets_.resize(num_files + 1, 0);
  for (FileId j = 0; j < num_files; ++j) {
    coord_offsets_[j + 1] =
        coord_offsets_[j] + (has_coords(j) ? placement.replica_count(j) : 0);
  }
  // Every slot is written below, so skip the value-initializing fill.
  coords_ = std::make_unique_for_overwrite<PackedCoord[]>(
      coord_offsets_[num_files]);
  PackedCoord* out = coords_.get();
  for (FileId j = 0; j < num_files; ++j) {
    if (!has_coords(j)) continue;
    for (const NodeId v : placement.replicas(j)) *out++ = coord_of(v);
  }

  if (bucket_threshold == 0) return;
  for (FileId j = 0; j < num_files; ++j) {
    const auto list = placement.replicas(j);
    if (list.size() >= bucket_threshold) {
      buckets_[j] = std::make_unique<BucketGrid>(
          *lattice_, std::vector<NodeId>(list.begin(), list.end()));
    }
  }
}

NearestResult ReplicaIndex::nearest_by_scan(NodeId u, FileId j,
                                            Rng& rng) const {
  const auto list = placement_->replicas(j);
  if (list.empty()) return NearestResult{};

  const Hop sentinel = topology_->diameter() + 1;
  if (lattice_ != nullptr) {
    return nearest_on(*lattice_, list, u, sentinel, rng);
  }
  return nearest_on(*topology_, list, u, sentinel, rng);
}

NearestResult ReplicaIndex::nearest_by_shells(NodeId u, FileId j,
                                              Rng& rng) const {
  NearestResult result;
  const Hop diameter = topology_->diameter();
  for (Hop d = 0; d <= diameter; ++d) {
    ReservoirOne reservoir(rng);
    for_each_at_distance(*topology_, u, d, [&](NodeId v) {
      if (placement_->caches(v, j)) reservoir.offer(v);
    });
    if (reservoir.count() > 0) {
      result.server = *reservoir.value();
      result.distance = d;
      result.ties = static_cast<std::uint32_t>(reservoir.count());
      return result;
    }
  }
  return result;  // no replica anywhere
}

NearestResult ReplicaIndex::nearest_in_shell_order(NodeId u, FileId j,
                                                   Rng& rng) const {
  // Rank key of a replica at distance `d` in the enumeration order of
  // `for_each_at_distance` (topology/shells.hpp). Torus: (ring dx,
  // x-offset index, y-offset index), the offsets listed as +a before -a.
  // Grid: (dx + d, upper before lower). Distinct replicas at one distance
  // get distinct keys.
  const std::int32_t side = lattice_->side();
  const PackedCoord origin = coord_of(u);
  const std::int32_t ux = origin.x;
  const std::int32_t uy = origin.y;
  const PackedCoord* coords = coords_.get() + coord_offsets_[j];
  const bool torus = lattice_->wrap() == Wrap::Torus;
  const auto key_of = [&](std::size_t i, Hop d) -> std::uint32_t {
    const std::int32_t dx = coords[i].x - ux;
    const std::int32_t dy = coords[i].y - uy;
    if (!torus) {
      return (static_cast<std::uint32_t>(dx) + d) * 2 + (dy < 0 ? 1 : 0);
    }
    const std::int32_t wx = dx < 0 ? dx + side : dx;
    const std::int32_t wy = dy < 0 ? dy + side : dy;
    const std::int32_t ax = std::min(wx, side - wx);
    const std::int32_t ay = std::min(wy, side - wy);
    return static_cast<std::uint32_t>(ax) * 4 + (wx != ax ? 2 : 0) +
           (wy != ay ? 1 : 0);
  };

  // One pass: the minimum distance, how many replicas share it, and the
  // first and last of them in shell order.
  Hop best = std::numeric_limits<Hop>::max();
  std::uint32_t ties = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  NodeId first = kInvalidNode;
  NodeId last = kInvalidNode;
  scan_lattice(u, j, [&](std::size_t i, NodeId v, Hop d) {
    if (d > best) return;
    const std::uint32_t key = key_of(i, d);
    if (d < best) {
      best = d;
      ties = 0;
      lo = hi = key;
      first = last = v;
    } else if (key < lo) {
      lo = key;
      first = v;
    } else if (key > hi) {
      hi = key;
      last = v;
    }
    ++ties;
  });

  // The shell walk offers the ties in its enumeration order; the reservoir
  // keeps the rank its draws select, whatever the ranked items are.
  ReservoirOne reservoir(rng);
  for (std::uint32_t rank = 0; rank < ties; ++rank) reservoir.offer(rank);
  const std::uint32_t rank = *reservoir.value();

  NearestResult result;
  result.distance = best;
  result.ties = ties;
  if (rank == 0 || rank + 1 == ties) {
    result.server = rank == 0 ? first : last;
    return result;
  }
  // An interior rank: binary search over the key range, each step counting
  // the ties at or below the midpoint, then fetch the tie with that key.
  // Nothing is materialized.
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    std::uint32_t at_or_below = 0;
    scan_lattice(u, j, [&](std::size_t i, NodeId, Hop d) {
      if (d == best && key_of(i, d) <= mid) ++at_or_below;
    });
    if (at_or_below > rank) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  scan_lattice(u, j, [&](std::size_t i, NodeId v, Hop d) {
    if (d == best && key_of(i, d) == lo) result.server = v;
  });
  return result;
}

NearestResult ReplicaIndex::nearest(NodeId u, FileId j, Rng& rng) const {
  const std::size_t replicas = placement_->replica_count(j);
  if (replicas == 0) return NearestResult{};
  // The draw contract of the historical dispatch: list scan while
  // |S_j|² <= n (or where shells are not directly enumerable — there every
  // shell is itself O(n)), shell walk above. On a lattice the kernel
  // reproduces both until the shell walk, visiting about n/|S_j| nodes,
  // is the cheaper way to the same draws.
  const std::size_t n = topology_->size();
  if (has_coords(j)) {
    if (replicas * replicas > n) return nearest_in_shell_order(u, j, rng);
    return nearest_in_list_order(
        [&](auto&& visit) {
          scan_lattice(u, j,
                       [&](std::size_t, NodeId v, Hop d) { visit(v, d); });
        },
        std::numeric_limits<Hop>::max(), rng);
  }
  if (replicas * replicas <= n ||
      !topology_->directly_enumerates_shells()) {
    // `nearest_by_scan`'s offers, over the chunked distance stream.
    return nearest_in_list_order(
        [&](auto&& visit) { for_each_replica(u, j, visit); },
        topology_->diameter() + 1, rng);
  }
  return nearest_by_shells(u, j, rng);
}

std::size_t ReplicaIndex::count_replicas_within(NodeId u, FileId j,
                                                Hop r) const {
  std::size_t count = 0;
  for_each_replica_within(u, j, r, [&](NodeId, Hop) { ++count; });
  return count;
}

}  // namespace proxcache
