// Tests for spatial/replica_index: the two reference nearest-replica
// algorithms must agree with each other and with brute force (distance and
// tie count); the lattice kernel's `nearest` must replay the frozen
// reference dispatch draw for draw; the list-order replica stream must
// carry the topology's distances on every topology family, including a
// graph in the sparse oracle regime, whose scans are chunked bulk queries;
// and radius streams must match the distance predicate with and without
// bucket grids.
#include "spatial/replica_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tier/spec.hpp"
#include "tier/tier_set.hpp"
#include "tier/tiered_topology.hpp"
#include "topology/graph_topology.hpp"
#include "topology/registry.hpp"
#include "topology/spec.hpp"

namespace proxcache {
namespace {

struct Fixture {
  Fixture(std::size_t n, std::size_t k, std::size_t m, Wrap wrap,
          std::uint64_t seed, std::size_t bucket_threshold = 512)
      : lattice(Lattice::from_node_count(n, wrap)),
        placement([&] {
          Rng rng(seed);
          return Placement::generate(
              n, Popularity::uniform(k), m,
              PlacementMode::ProportionalWithReplacement, rng);
        }()),
        index(lattice, placement, bucket_threshold) {}

  Lattice lattice;
  Placement placement;
  ReplicaIndex index;
};

struct BruteNearest {
  Hop distance = 0;
  std::uint32_t ties = 0;
  bool found = false;
};

BruteNearest brute_nearest(const Fixture& f, NodeId u, FileId j) {
  BruteNearest result;
  Hop best = f.lattice.diameter() + 1;
  for (const NodeId v : f.placement.replicas(j)) {
    const Hop d = f.lattice.distance(u, v);
    if (d < best) {
      best = d;
      result.ties = 1;
    } else if (d == best) {
      ++result.ties;
    }
  }
  if (result.ties > 0) {
    result.found = true;
    result.distance = best;
  }
  return result;
}

std::string describe_case(const Lattice& lattice, std::size_t cache,
                          NodeId u, FileId j) {
  return lattice.describe() + " M=" + std::to_string(cache) +
         " u=" + std::to_string(u) + " j=" + std::to_string(j);
}

class ReplicaIndexParamTest
    : public ::testing::TestWithParam<std::tuple<Wrap, int>> {};

TEST_P(ReplicaIndexParamTest, BothAlgorithmsMatchBruteForce) {
  const auto [wrap, m] = GetParam();
  Fixture f(49, 12, static_cast<std::size_t>(m), wrap, 77);
  Rng rng(1);
  for (NodeId u = 0; u < f.lattice.size(); u += 5) {
    for (FileId j = 0; j < 12; ++j) {
      const BruteNearest expected = brute_nearest(f, u, j);
      const NearestResult by_scan = f.index.nearest_by_scan(u, j, rng);
      const NearestResult by_shells = f.index.nearest_by_shells(u, j, rng);
      const NearestResult automatic = f.index.nearest(u, j, rng);
      if (!expected.found) {
        EXPECT_EQ(by_scan.server, kInvalidNode);
        EXPECT_EQ(by_shells.server, kInvalidNode);
        EXPECT_EQ(automatic.server, kInvalidNode);
        continue;
      }
      for (const NearestResult& result : {by_scan, by_shells, automatic}) {
        ASSERT_NE(result.server, kInvalidNode);
        EXPECT_EQ(result.distance, expected.distance);
        EXPECT_EQ(result.ties, expected.ties);
        EXPECT_TRUE(f.placement.caches(result.server, j));
        EXPECT_EQ(f.lattice.distance(u, result.server), expected.distance);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WrapAndCache, ReplicaIndexParamTest,
    ::testing::Combine(::testing::Values(Wrap::Torus, Wrap::Grid),
                       ::testing::Values(1, 3, 8)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_M" +
             std::to_string(std::get<1>(info.param));
    });

/// The nearest-replica dispatch as it was before the lattice kernel,
/// frozen: list scan while |S_j|² <= n, expanding-shell walk above
/// (lattices enumerate shells directly).
NearestResult reference_nearest(const ReplicaIndex& index, NodeId u,
                                FileId j, Rng& rng) {
  const std::size_t replicas = index.placement().replica_count(j);
  if (replicas == 0) return NearestResult{};
  return replicas * replicas <= index.topology().size()
             ? index.nearest_by_scan(u, j, rng)
             : index.nearest_by_shells(u, j, rng);
}

class KernelDifferentialTest
    : public ::testing::TestWithParam<std::tuple<Wrap, int>> {};

TEST_P(KernelDifferentialTest, NearestReplaysTheReferenceDispatch) {
  const auto [wrap, side] = GetParam();
  const Lattice lattice(side, wrap);
  const std::size_t n = lattice.size();
  constexpr std::size_t kFiles = 12;
  const std::size_t walk_limit = ReplicaIndex::kShellWalkFactor * n;
  std::size_t scan_files = 0;    // |S_j|² <= n: list-order replay
  std::size_t replay_files = 0;  // up to walk_limit: shell-order replay
  std::size_t walk_files = 0;    // beyond: the shell walk itself
  std::size_t interior_ranks = 0;  // shell-order replays with >= 3 ties
  // Cache sizes 1..8 under Zipf popularity put |S_j| in all three bands
  // of `nearest` (see replica_index.hpp).
  for (const std::size_t cache : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
    Rng placement_rng(0xD1FF + cache);
    const Placement placement = Placement::generate(
        n, Popularity::zipf(kFiles, 1.2), cache,
        PlacementMode::ProportionalWithReplacement, placement_rng);
    const ReplicaIndex index(lattice, placement);
    for (FileId j = 0; j < kFiles; ++j) {
      const std::size_t replicas = placement.replica_count(j);
      if (replicas == 0) continue;
      const std::size_t squared = replicas * replicas;
      ++(squared <= n            ? scan_files
         : squared <= walk_limit ? replay_files
                                 : walk_files);
    }
    Rng kernel_rng(cache);
    Rng reference_rng(cache);
    for (NodeId u = 0; u < n; ++u) {
      for (FileId j = 0; j < kFiles; ++j) {
        const NearestResult kernel = index.nearest(u, j, kernel_rng);
        const NearestResult reference =
            reference_nearest(index, u, j, reference_rng);
        const std::string where = describe_case(lattice, cache, u, j);
        ASSERT_EQ(kernel.server, reference.server) << where;
        ASSERT_EQ(kernel.distance, reference.distance) << where;
        ASSERT_EQ(kernel.ties, reference.ties) << where;
        ASSERT_EQ(kernel_rng.bits(), reference_rng.bits()) << where;
        const std::size_t replicas = placement.replica_count(j);
        const std::size_t squared = replicas * replicas;
        if (squared > n && squared <= walk_limit && kernel.ties >= 3) {
          ++interior_ranks;
        }
      }
    }
  }
  EXPECT_GT(scan_files, 0u);
  if (n >= 4) {
    EXPECT_GT(replay_files + walk_files, 0u);
  }
  if (side >= 7) {
    EXPECT_GT(replay_files, 0u);
    EXPECT_GT(walk_files, 0u);
    EXPECT_GT(interior_ranks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sides, KernelDifferentialTest,
    ::testing::Values(std::make_tuple(Wrap::Torus, 1),
                      std::make_tuple(Wrap::Torus, 2),
                      std::make_tuple(Wrap::Torus, 3),
                      std::make_tuple(Wrap::Torus, 4),
                      std::make_tuple(Wrap::Torus, 5),
                      std::make_tuple(Wrap::Torus, 44),
                      std::make_tuple(Wrap::Torus, 45),
                      std::make_tuple(Wrap::Grid, 1),
                      std::make_tuple(Wrap::Grid, 2),
                      std::make_tuple(Wrap::Grid, 7),
                      std::make_tuple(Wrap::Grid, 45)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_side" +
             std::to_string(std::get<1>(info.param));
    });

void expect_distances_match_topology(const Topology& topology,
                                     const std::string& label) {
  constexpr std::size_t kFiles = 6;
  Rng rng(17);
  const Placement placement = Placement::generate(
      topology.size(), Popularity::zipf(kFiles, 1.0), 3,
      PlacementMode::ProportionalWithReplacement, rng);
  const ReplicaIndex index(topology, placement);
  const auto n = static_cast<NodeId>(topology.size());
  for (NodeId u = 0; u < n; u += 1 + n / 40) {
    for (FileId j = 0; j < kFiles; ++j) {
      const auto list = placement.replicas(j);
      std::size_t i = 0;
      index.for_each_replica(u, j, [&](NodeId v, Hop d) {
        ASSERT_LT(i, list.size()) << label << " u=" << u << " j=" << j;
        EXPECT_EQ(v, list[i]) << label << " u=" << u << " j=" << j;
        EXPECT_EQ(d, topology.distance(u, v))
            << label << " u=" << u << " j=" << j << " replica " << v;
        ++i;
      });
      EXPECT_EQ(i, list.size()) << label << " u=" << u << " j=" << j;
    }
  }
}

TEST(ReplicaIndex, ForEachReplicaVisitsTheListWithTopologyDistances) {
  for (const Wrap wrap : {Wrap::Torus, Wrap::Grid}) {
    const Lattice lattice(13, wrap);
    expect_distances_match_topology(lattice, lattice.describe());
  }
  for (const char* spec : {"ring(n=60)", "rgg(n=300, radius=0.12, seed=5)"}) {
    const auto topology =
        TopologyRegistry::global().make(parse_topology_spec(spec));
    expect_distances_match_topology(*topology, spec);
  }
  const TieredTopology tiered(TierSet::build(
      parse_tier_spec("tiers(front=torus(side=4)x3, back=ring(n=12), "
                      "origin=2)"),
      3));
  expect_distances_match_topology(tiered, tiered.describe());
}

/// rgg(n=600) in the sparse oracle regime (dense threshold lowered), with
/// a ball budget small enough that far replicas get landmark estimates.
std::shared_ptr<const GraphTopology> sparse_rgg() {
  GraphTopology::Options options;
  options.dense_threshold = 64;
  options.distance_ball_budget = 48;
  return make_rgg_topology(600, 0.07, 5, options);
}

TEST(ReplicaIndex, SparseRegimeScansMatchThePerPairReference) {
  const auto topology = sparse_rgg();
  ASSERT_FALSE(topology->oracle().exact());
  expect_distances_match_topology(*topology, "sparse rgg");

  // Zipf over many files: a head file longer than one distance chunk and a
  // tail of files in nearest()'s scan band (|S_j|² <= n).
  constexpr std::size_t kFiles = 80;
  Rng placement_rng(23);
  const Placement placement = Placement::generate(
      topology->size(), Popularity::zipf(kFiles, 1.2), 3,
      PlacementMode::ProportionalWithReplacement, placement_rng);
  const ReplicaIndex index(*topology, placement);
  const auto n = static_cast<NodeId>(topology->size());
  ASSERT_GT(placement.replica_count(0), ReplicaIndex::kDistanceChunk);

  std::size_t scan_band = 0;
  std::size_t landmark_estimates = 0;
  for (FileId j = 0; j < kFiles; ++j) {
    const std::size_t replicas = placement.replica_count(j);
    const bool in_scan_band = replicas > 0 && replicas * replicas <= n;
    scan_band += in_scan_band ? 1 : 0;
    for (NodeId u = 0; u < n; u += 37) {
      const std::string label =
          "u=" + std::to_string(u) + " j=" + std::to_string(j);
      std::size_t i = 0;
      index.for_each_replica(u, j, [&](NodeId v, Hop d) {
        EXPECT_EQ(v, placement.replicas(j)[i]) << label;
        EXPECT_EQ(d, topology->distance(u, v)) << label;
        if (!topology->oracle().certified_distance(u, v)) {
          ++landmark_estimates;
        }
        ++i;
      });
      EXPECT_EQ(i, replicas) << label;

      // Radius streams (ball walk inside the horizon, chunked list scan
      // beyond it) against the per-pair predicate. The ball walk runs its
      // visitor under the oracle's mutex, so the visitor only records.
      for (const Hop r : {0u, 2u, 5u, 9u}) {
        std::vector<std::pair<NodeId, Hop>> streamed;
        index.for_each_replica_within(u, j, r, [&](NodeId v, Hop d) {
          streamed.emplace_back(v, d);
        });
        std::vector<std::pair<NodeId, Hop>> expected;
        for (const NodeId v : placement.replicas(j)) {
          const Hop d = topology->distance(u, v);
          if (d <= r) expected.emplace_back(v, d);
        }
        std::sort(streamed.begin(), streamed.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(streamed, expected) << label << " r=" << r;
      }

      if (!in_scan_band) continue;
      // nearest()'s scan band reads the chunked stream; nearest_by_scan
      // asks pair by pair. Same server, distance, ties and Rng state.
      Rng fast(u * 131 + j);
      Rng reference(u * 131 + j);
      const NearestResult got = index.nearest(u, j, fast);
      const NearestResult want = index.nearest_by_scan(u, j, reference);
      EXPECT_EQ(got.server, want.server) << label;
      EXPECT_EQ(got.distance, want.distance) << label;
      EXPECT_EQ(got.ties, want.ties) << label;
      EXPECT_EQ(fast.bits(), reference.bits()) << label;
    }
  }
  EXPECT_GT(scan_band, 10u) << "the placement must exercise the scan band";
  EXPECT_GT(landmark_estimates, 0u)
      << "the ball budget must leave far replicas to the landmarks";
}

TEST(ReplicaIndex, TieBreakingIsUniformAcrossReplicas) {
  // Symmetric layout: two replicas equidistant from the requester.
  // Build a placement where file 0 sits at distance 2 both left and right.
  Fixture f(25, 4, 2, Wrap::Torus, 123);
  // Find a (u, j) with >= 2 ties; then sample many times.
  Rng scan_rng(5);
  for (NodeId u = 0; u < 25; ++u) {
    for (FileId j = 0; j < 4; ++j) {
      const NearestResult probe = f.index.nearest_by_scan(u, j, scan_rng);
      if (probe.server == kInvalidNode || probe.ties < 2) continue;
      std::map<NodeId, int> histogram;
      Rng rng(9);
      constexpr int kTrials = 4000;
      for (int t = 0; t < kTrials; ++t) {
        histogram[f.index.nearest_by_scan(u, j, rng).server]++;
      }
      EXPECT_EQ(histogram.size(), probe.ties);
      for (const auto& [server, count] : histogram) {
        EXPECT_NEAR(static_cast<double>(count) / kTrials,
                    1.0 / probe.ties, 0.05)
            << "server " << server;
      }
      return;  // one verified case suffices
    }
  }
  GTEST_SKIP() << "no tie found in this placement (unexpected)";
}

TEST(ReplicaIndex, RadiusStreamMatchesPredicateWithAndWithoutBuckets) {
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
    // threshold 1 forces bucket grids everywhere; 0 disables them.
    Fixture f(100, 6, 3, Wrap::Torus, 31, threshold);
    for (NodeId u = 0; u < 100; u += 9) {
      for (FileId j = 0; j < 6; ++j) {
        for (const Hop r : {0u, 1u, 3u, 6u, 10u, 100u}) {
          std::vector<NodeId> streamed;
          f.index.for_each_replica_within(u, j, r, [&](NodeId v, Hop d) {
            EXPECT_EQ(d, f.lattice.distance(u, v));
            EXPECT_LE(d, r);
            streamed.push_back(v);
          });
          std::vector<NodeId> expected;
          for (const NodeId v : f.placement.replicas(j)) {
            if (f.lattice.distance(u, v) <= r) expected.push_back(v);
          }
          std::sort(streamed.begin(), streamed.end());
          std::sort(expected.begin(), expected.end());
          EXPECT_EQ(streamed, expected)
              << "threshold=" << threshold << " u=" << u << " j=" << j
              << " r=" << r;
        }
      }
    }
  }
}

TEST(ReplicaIndex, CountMatchesStream) {
  Fixture f(36, 5, 2, Wrap::Grid, 8);
  for (NodeId u = 0; u < 36; u += 7) {
    for (FileId j = 0; j < 5; ++j) {
      for (const Hop r : {0u, 2u, 5u, 50u}) {
        std::size_t streamed = 0;
        f.index.for_each_replica_within(u, j, r,
                                        [&](NodeId, Hop) { ++streamed; });
        EXPECT_EQ(f.index.count_replicas_within(u, j, r), streamed);
      }
    }
  }
}

TEST(ReplicaIndex, UnboundedRadiusStreamsWholeReplicaList) {
  Fixture f(49, 8, 4, Wrap::Torus, 55);
  for (FileId j = 0; j < 8; ++j) {
    std::size_t streamed = 0;
    f.index.for_each_replica_within(3, j, kUnboundedRadius,
                                    [&](NodeId, Hop) { ++streamed; });
    EXPECT_EQ(streamed, f.placement.replica_count(j));
  }
}

TEST(ReplicaIndex, BucketGridsBuiltOnlyAboveThreshold) {
  Fixture f(400, 4, 3, Wrap::Torus, 2, /*bucket_threshold=*/100);
  for (FileId j = 0; j < 4; ++j) {
    EXPECT_EQ(f.index.has_bucket_grid(j),
              f.placement.replica_count(j) >= 100)
        << "file " << j << " has " << f.placement.replica_count(j);
  }
}

TEST(ReplicaIndex, MismatchedSizesRejected) {
  const Lattice lattice(5, Wrap::Torus);
  Rng rng(1);
  const Placement placement = Placement::generate(
      16, Popularity::uniform(4), 2,
      PlacementMode::ProportionalWithReplacement, rng);
  EXPECT_THROW(ReplicaIndex(lattice, placement), std::invalid_argument);
}

}  // namespace
}  // namespace proxcache
