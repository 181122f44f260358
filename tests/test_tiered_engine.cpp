// The materialized tier hierarchy end to end: TierSet layout and attach
// geometry, TieredTopology's metric against a BFS of its own adjacency,
// per-tier placement composition, the three cross-tier strategies through
// the batch engines (serial and sharded, width-invariant), the per-tier
// metrics slices, and the dynamic engine's tier queues. Complements
// test_tier_spec.cpp (grammar only) and test_tier_degenerate.cpp (the flat
// equivalence); this file is where the *real* hierarchies are proved out.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/simulation.hpp"
#include "event/engine.hpp"
#include "parallel/sharded_runner.hpp"
#include "strategy/spec.hpp"
#include "tier/materialize.hpp"
#include "tier/spec.hpp"
#include "tier/tier_set.hpp"
#include "tier/tiered_topology.hpp"

namespace proxcache {
namespace {

/// A small three-tier hierarchy that still has every structural feature:
/// multiple front clusters sharing one back cluster (so attach spreading
/// matters), a non-trivial back ring, and a two-node origin pool.
constexpr const char* kSmallSpec =
    "tiers(front=torus(side=4)x3, back=ring(n=12), origin=2)";

ExperimentConfig tiered_config(const char* strategy) {
  ExperimentConfig config;
  config.tier_spec = parse_tier_spec(kSmallSpec);
  config.num_files = 60;
  config.cache_size = 3;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 0.8;
  config.num_requests = 600;
  config.strategy_spec = parse_strategy_spec(strategy);
  config.seed = 0x7137;
  return config;
}

TEST(TierSetBuild, LayoutIsDenseFrontFirstAndRoundTrips) {
  const auto set = TierSet::build(parse_tier_spec(kSmallSpec), 3);
  ASSERT_EQ(set->num_tiers(), 3u);
  const auto& levels = set->levels();
  EXPECT_EQ(levels[0].base, 0u);
  EXPECT_EQ(levels[0].nodes, 48u);
  EXPECT_EQ(levels[1].base, 48u);
  EXPECT_EQ(levels[1].nodes, 12u);
  EXPECT_EQ(levels[2].base, 60u);
  EXPECT_EQ(levels[2].nodes, 2u);
  EXPECT_EQ(set->size(), 62u);
  EXPECT_TRUE(set->has_origin());
  EXPECT_TRUE(levels[2].is_origin());
  // Cache capacities: config default on cache tiers, 0 (full catalog) on
  // the origin.
  EXPECT_EQ(levels[0].cache_size, 3u);
  EXPECT_EQ(levels[1].cache_size, 3u);
  EXPECT_EQ(levels[2].cache_size, 0u);
  // locate/global_id are inverse bijections over the whole id space.
  for (NodeId u = 0; u < set->size(); ++u) {
    const TierSet::Location loc = set->locate(u);
    EXPECT_EQ(set->global_id(loc.tier, loc.cluster, loc.local), u);
    EXPECT_LT(loc.cluster, levels[loc.tier].clusters);
    EXPECT_LT(loc.local, levels[loc.tier].cluster_nodes);
  }
}

TEST(TierSetBuild, AttachPointsLandDeeperAndSpreadOverTheHostCluster) {
  const auto set = TierSet::build(parse_tier_spec(kSmallSpec), 3);
  const auto& levels = set->levels();
  for (std::uint32_t t = 0; t + 1 < set->num_tiers(); ++t) {
    std::map<NodeId, std::vector<std::uint32_t>> by_attach;
    for (std::uint32_t k = 0; k < levels[t].clusters; ++k) {
      const NodeId attach = set->attach(t, k);
      const TierSet::Location loc = set->locate(attach);
      EXPECT_EQ(loc.tier, t + 1) << "uplinks go exactly one tier down";
      by_attach[attach].push_back(k);
    }
    // Siblings sharing a host cluster must not pile onto one attach node
    // when the host has room to spread them: three front clusters over the
    // 12-node back ring get three distinct attach points.
    EXPECT_EQ(by_attach.size(),
              std::min<std::size_t>(levels[t].clusters,
                                    levels[t + 1].nodes))
        << "tier " << t;
  }
}

TEST(TieredTopologyMetric, DistanceMatchesBfsOfItsOwnAdjacency) {
  // link=1 so the composed graph is unweighted and plain BFS is the ground
  // truth. Two front tori over a ring and an origin: 9*2 + 8 + 1 nodes.
  const auto set = TierSet::build(
      parse_tier_spec("tiers(front=torus(side=3)x2, back=ring(n=8), "
                      "origin=1)"),
      2);
  const TieredTopology topology(set);
  const auto n = static_cast<NodeId>(topology.size());
  ASSERT_EQ(n, 27u);
  // Adjacency must be symmetric: the downlink scan is the exact inverse of
  // the attach map or routes exist one way only.
  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId u = 0; u < n; ++u) adj[u] = topology.neighbors(u);
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : adj[u]) {
      ASSERT_LT(v, n);
      EXPECT_NE(std::find(adj[v].begin(), adj[v].end(), u), adj[v].end())
          << "edge " << u << "->" << v << " has no reverse";
    }
  }
  Hop max_seen = 0;
  for (NodeId source = 0; source < n; ++source) {
    std::vector<Hop> dist(n, kUnboundedRadius);
    std::deque<NodeId> queue{source};
    dist[source] = 0;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const NodeId v : adj[u]) {
        if (dist[v] == kUnboundedRadius) {
          dist[v] = static_cast<Hop>(dist[u] + 1);
          queue.push_back(v);
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_NE(dist[v], kUnboundedRadius) << "composition is connected";
      EXPECT_EQ(topology.distance(source, v), dist[v])
          << "d(" << topology.node_label(source) << ", "
          << topology.node_label(v) << ")";
      EXPECT_EQ(topology.distance(v, source), dist[v]) << "symmetry";
      max_seen = std::max(max_seen, dist[v]);
    }
  }
  EXPECT_GE(topology.diameter(), max_seen)
      << "diameter() is a certified upper bound";
}

TEST(TieredTopologyMetric, FrontTierOwnsOriginsAndTheAnchor) {
  const auto set = TierSet::build(parse_tier_spec(kSmallSpec), 3);
  const TieredTopology topology(set);
  EXPECT_EQ(topology.origin_universe(), 48u)
      << "requests are born at front-tier nodes only";
  const TierSet::Location anchor = set->locate(topology.central_node());
  EXPECT_EQ(anchor.tier, 0u);
  EXPECT_EQ(anchor.cluster, 0u);
  EXPECT_EQ(topology.describe(), set->spec().to_string());
  EXPECT_EQ(topology.node_label(0).rfind("front#0:", 0), 0u);
}

TEST(TierMaterialize, ComposedPlacementRespectsTierCapacities) {
  const ExperimentConfig config = tiered_config("cross-two-choice");
  const auto topology = materialize_topology(config);
  const TieredTopology* tiered = topology->as_tiered();
  ASSERT_NE(tiered, nullptr);
  const Popularity popularity =
      config.popularity.materialize(config.num_files);
  const Placement placement =
      materialize_placement(config, *topology, popularity, 0);
  ASSERT_EQ(placement.num_nodes(), topology->size());
  EXPECT_EQ(placement.num_files(), config.num_files);
  const auto& levels = tiered->tier_set().levels();
  for (NodeId u = 0; u < placement.num_nodes(); ++u) {
    const TierSet::Location loc = tiered->tier_set().locate(u);
    if (levels[loc.tier].is_origin()) {
      EXPECT_EQ(placement.distinct_count(u), config.num_files)
          << "origin node " << u << " must replicate the full catalog";
    } else {
      EXPECT_LE(placement.distinct_count(u), config.cache_size)
          << "cache node " << u;
      EXPECT_GE(placement.distinct_count(u), 1u) << "cache node " << u;
    }
  }
  // An origin tier means no file can be unroutable.
  EXPECT_EQ(placement.files_with_replicas(), config.num_files);
}

/// Core fields plus the per-tier slices must agree exactly.
void expect_bit_identical(const RunResult& reference, const RunResult& other,
                          const std::string& label) {
  EXPECT_EQ(reference.max_load, other.max_load) << label;
  EXPECT_EQ(reference.comm_cost, other.comm_cost) << label;
  EXPECT_EQ(reference.requests, other.requests) << label;
  EXPECT_EQ(reference.fallbacks, other.fallbacks) << label;
  EXPECT_EQ(reference.dropped, other.dropped) << label;
  ASSERT_EQ(reference.tier_loads.size(), other.tier_loads.size()) << label;
  for (std::size_t t = 0; t < reference.tier_loads.size(); ++t) {
    EXPECT_EQ(reference.tier_loads[t].role, other.tier_loads[t].role)
        << label;
    EXPECT_EQ(reference.tier_loads[t].served, other.tier_loads[t].served)
        << label << " tier " << t;
    EXPECT_EQ(reference.tier_loads[t].max_load,
              other.tier_loads[t].max_load)
        << label << " tier " << t;
    EXPECT_EQ(reference.tier_loads[t].tail_p99,
              other.tier_loads[t].tail_p99)
        << label << " tier " << t;
  }
}

TEST(TieredEngine, CrossTierStrategiesSliceEveryRequestIntoSomeTier) {
  for (const char* name :
       {"cross-two-choice", "front-first", "cross-prox-weighted"}) {
    const ExperimentConfig config = tiered_config(name);
    const SimulationContext context(config);
    const RunResult result = context.run(0);
    ASSERT_EQ(result.tier_loads.size(), 3u) << name;
    EXPECT_EQ(result.tier_loads[0].role, "front") << name;
    EXPECT_EQ(result.tier_loads[1].role, "back") << name;
    EXPECT_EQ(result.tier_loads[2].role, "origin") << name;
    std::uint64_t served = 0;
    for (const TierLoadStats& tier : result.tier_loads) {
      served += tier.served;
      EXPECT_GE(tier.max_load, tier.tail_p99) << name << " " << tier.role;
    }
    EXPECT_EQ(served, result.requests)
        << name << ": tier slices must partition the served requests";
    EXPECT_EQ(result.origin_hits(), result.tier_loads[2].served) << name;
    EXPECT_GE(result.origin_offload(), 0.0) << name;
    EXPECT_LE(result.origin_offload(), 1.0) << name;
    EXPECT_GT(result.requests, 0u) << name;
  }
}

// The sharded engine's determinism contract extends to hierarchies: every
// width must reproduce the width-1 schedule bit-for-bit, per-tier slices
// included (the tier id rides the proposal arena through commit).
TEST(TieredEngine, ShardedWidthsAreBitIdenticalOnHierarchies) {
  for (const char* name : {"cross-two-choice", "front-first"}) {
    ExperimentConfig config = tiered_config(name);
    config.shard_batch = 64;
    const SimulationContext context(config);
    const RunResult reference = ShardedRunner(context, {1, 64}).run(0);
    EXPECT_GT(reference.requests, 0u);
    for (const std::uint32_t threads : {2u, 4u}) {
      expect_bit_identical(
          reference, ShardedRunner(context, {threads, 64}).run(0),
          std::string(name) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(TieredEngine, CrossStrategiesRequireAHierarchy) {
  // Flat config: the registry flags the strategy as tier-routing and
  // validation names the missing piece.
  ExperimentConfig flat;
  flat.num_nodes = 400;
  flat.strategy_spec = parse_strategy_spec("cross-two-choice");
  EXPECT_THROW(SimulationContext{flat}, std::invalid_argument);
  // A degenerate spec is still the flat path, so it must be rejected too.
  ExperimentConfig degenerate = flat;
  degenerate.num_nodes = 2025;
  degenerate.tier_spec = parse_tier_spec("tiers(front=torus(side=20))");
  EXPECT_THROW(SimulationContext{degenerate}, std::invalid_argument);
}

TEST(TieredEngine, ExperimentAggregatesPerTierSummaries) {
  const ExperimentConfig config = tiered_config("cross-two-choice");
  const ExperimentResult result = run_experiment(config, 3);
  ASSERT_EQ(result.tiers.size(), 3u);
  EXPECT_EQ(result.tiers[0].role, "front");
  EXPECT_EQ(result.tiers[2].role, "origin");
  for (const TierSummary& tier : result.tiers) {
    EXPECT_EQ(tier.served.count(), 3u) << tier.role;
    EXPECT_EQ(tier.max_load.count(), 3u) << tier.role;
  }
  EXPECT_EQ(result.origin_offload.count(), 3u);
  EXPECT_GE(result.origin_offload.mean(), 0.0);
  EXPECT_LE(result.origin_offload.mean(), 1.0);
  // Flat runs must not grow the hierarchy metrics.
  ExperimentConfig flat;
  flat.num_nodes = 400;
  flat.num_files = 60;
  flat.cache_size = 3;
  const ExperimentResult flat_result = run_experiment(flat, 2);
  EXPECT_TRUE(flat_result.tiers.empty());
  EXPECT_EQ(flat_result.origin_offload.count(), 0u);
}

TEST(TieredEngine, DynamicEngineSlicesQueuesByTier) {
  DynamicConfig config;
  config.network = tiered_config("cross-two-choice");
  config.horizon = 60.0;
  const DynamicResult result = run_dynamic(config, 0x9D1);
  ASSERT_EQ(result.tier_queues.size(), 3u);
  EXPECT_EQ(result.tier_queues[0].role, "front");
  EXPECT_EQ(result.tier_queues[1].role, "back");
  EXPECT_EQ(result.tier_queues[2].role, "origin");
  std::uint64_t admitted = 0;
  for (const auto& tier : result.tier_queues) admitted += tier.admitted;
  EXPECT_EQ(admitted, result.admitted)
      << "tier queue slices must partition the admitted jobs";
  EXPECT_GT(result.admitted, 0u);
  // The flat path stays tier-silent.
  DynamicConfig flat;
  flat.network.num_nodes = 400;
  flat.horizon = 20.0;
  const DynamicResult flat_result = run_dynamic(flat, 0x9D1);
  EXPECT_TRUE(flat_result.tier_queues.empty());
  EXPECT_EQ(flat_result.origin_fetches, 0u);
}

}  // namespace
}  // namespace proxcache
