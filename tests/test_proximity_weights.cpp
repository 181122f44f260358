// Tests for the distance-decay weights of prox-weighted and
// cross-prox-weighted: the per-alpha table must hand out the very doubles
// `std::pow(1 + d, -alpha)` returns, inside the table and beyond it, and
// cross-prox-weighted's Efraimidis–Spirakis keys must still rank
// candidates once `u^(1/w)` would underflow.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spatial/replica_index.hpp"
#include "strategy/prox_weighted.hpp"
#include "tier/spec.hpp"
#include "tier/strategies.hpp"
#include "tier/tier_set.hpp"
#include "tier/tiered_topology.hpp"
#include "topology/lattice.hpp"

namespace proxcache {
namespace {

constexpr double kAlphas[] = {0.0, 0.5, 1.0, 1.5, 2.5, 64.0};

void expect_weight_is_pow(const ProposedCandidate& candidate, double alpha,
                          const std::string& label) {
  const double expected =
      std::pow(1.0 + static_cast<double>(candidate.hops), -alpha);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(candidate.weight),
            std::bit_cast<std::uint64_t>(expected))
      << label << " alpha=" << alpha << " hops=" << candidate.hops;
}

TEST(ProximityWeights, TableAndOverflowMatchPowBitForBit) {
  for (const double alpha : kAlphas) {
    // Diameter 6: hop counts past it take the std::pow path. The second
    // table hits the entry cap, so its upper range does too.
    for (const Hop diameter : {Hop{6}, Hop{100000}}) {
      const ProximityWeights weights(diameter, alpha);
      for (const Hop d : {0u, 1u, 5u, 6u, 7u, 40u, 4095u, 4096u, 99999u}) {
        const double expected =
            std::pow(1.0 + static_cast<double>(d), -alpha);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(weights(d)),
                  std::bit_cast<std::uint64_t>(expected))
            << "alpha=" << alpha << " diameter=" << diameter << " d=" << d;
      }
    }
  }
}

TEST(ProximityWeights, ProxWeightedArenaWeightsArePow) {
  const Lattice lattice(9, Wrap::Torus);
  Rng placement_rng(3);
  const Placement placement = Placement::generate(
      lattice.size(), Popularity::zipf(10, 1.0), 4,
      PlacementMode::ProportionalWithReplacement, placement_rng);
  const ReplicaIndex index(lattice, placement);
  for (const double alpha : kAlphas) {
    ProxWeightedStrategy strategy(index, ProxWeightedOptions{2, alpha});
    CandidateArena arena;
    Rng rng(1);
    for (NodeId u = 0; u < lattice.size(); u += 4) {
      for (FileId j = 0; j < 10; ++j) {
        if (placement.replica_count(j) == 0) continue;
        Proposal proposal;
        strategy.propose(Request{u, j}, rng, arena, proposal);
        ASSERT_EQ(proposal.count, placement.replica_count(j));
        double total = 0.0;
        for (std::uint32_t i = 0; i < proposal.count; ++i) {
          const ProposedCandidate& candidate = arena[proposal.first + i];
          EXPECT_EQ(candidate.hops, lattice.distance(u, candidate.node));
          expect_weight_is_pow(candidate, alpha, "prox-weighted");
          total += candidate.weight;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(proposal.total_weight),
                  std::bit_cast<std::uint64_t>(total));
      }
    }
  }
}

/// A hierarchy plus a placement where every node caches the one file.
struct Hierarchy {
  explicit Hierarchy(const char* spec)
      : topology(TierSet::build(parse_tier_spec(spec), 1)),
        placement([&] {
          std::vector<Placement> parts;
          Rng rng(11);
          for (const TierLevel& level : topology.tier_set().levels()) {
            parts.push_back(Placement::generate(
                level.nodes, Popularity::uniform(1), 1,
                PlacementMode::ProportionalWithReplacement, rng));
          }
          return Placement::compose(parts);
        }()) {}

  TieredTopology topology;
  Placement placement;
};

TEST(ProximityWeights, CrossProxWeightedArenaWeightsArePow) {
  const Hierarchy hierarchy("tiers(front=torus(side=5)x2, back=ring(n=9))");
  for (const double alpha : kAlphas) {
    // d = number of cache tiers: every tier's pick reaches the arena.
    CrossProxWeightedStrategy strategy(hierarchy.topology,
                                       hierarchy.placement,
                                       CrossProxWeightedOptions{2, alpha});
    CandidateArena arena;
    Rng rng(2);
    for (NodeId u = 0; u < 50; ++u) {
      Proposal proposal;
      strategy.propose(Request{u, 0}, rng, arena, proposal);
      ASSERT_EQ(proposal.count, 2u);
      for (std::uint32_t i = 0; i < proposal.count; ++i) {
        const ProposedCandidate& candidate = arena[proposal.first + i];
        EXPECT_EQ(candidate.hops,
                  hierarchy.topology.distance(u, candidate.node));
        expect_weight_is_pow(candidate, alpha, "cross-prox-weighted");
      }
    }
  }
}

TEST(ProximityWeights, CrossProxWeightedKeepsTheNearerDeepCandidate) {
  // alpha = 64: a candidate one hop away weighs 2^-64, where u^(1/w)
  // underflowed to 0 for every u and every key tied, handing the pick to
  // the shallowest tier whatever the distance. The back tier is a single
  // node one uplink from the front torus's attach point, so requests from
  // there see it at distance 1 while the front pick is often farther.
  const Hierarchy hierarchy("tiers(front=torus(side=5), back=torus(side=1))");
  const NodeId back = 25;
  NodeId attach = kInvalidNode;
  for (NodeId u = 0; u < 25; ++u) {
    if (hierarchy.topology.distance(u, back) == 1) attach = u;
  }
  ASSERT_NE(attach, kInvalidNode);

  CrossProxWeightedStrategy keep_one(hierarchy.topology, hierarchy.placement,
                                     CrossProxWeightedOptions{1, 64.0});
  CrossProxWeightedStrategy keep_all(hierarchy.topology, hierarchy.placement,
                                     CrossProxWeightedOptions{2, 64.0});
  int deep_and_nearer = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    // Same draws on both sides: keep_all shows both tier picks, keep_one
    // the survivor.
    CandidateArena all;
    CandidateArena one;
    Proposal all_proposal;
    Proposal one_proposal;
    Rng all_rng(seed);
    Rng one_rng(seed);
    keep_all.propose(Request{attach, 0}, all_rng, all, all_proposal);
    keep_one.propose(Request{attach, 0}, one_rng, one, one_proposal);
    ASSERT_EQ(all_proposal.count, 2u);
    ASSERT_EQ(one_proposal.count, 1u);
    const ProposedCandidate& front = all[0];
    const ProposedCandidate& deep = all[1];
    ASSERT_EQ(deep.node, back);
    if (deep.hops >= front.hops) continue;
    ++deep_and_nearer;
    EXPECT_EQ(one[0].node, back)
        << "seed " << seed << ": front pick at " << front.hops
        << " hops beat the back tier at " << deep.hops;
  }
  EXPECT_GT(deep_and_nearer, 100);
}

}  // namespace
}  // namespace proxcache
