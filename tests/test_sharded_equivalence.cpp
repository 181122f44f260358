// Differential suite for the sharded split-phase engine
// (parallel/sharded_runner.hpp), mirroring test_streaming_equivalence: for
// every scenario preset × all four strategies × torus/ring/rgg, and for the
// stale/fallback/policy corners, the sharded run must be bit-identical
// across thread counts {2, 4, 8} *and* to the engine's own serial schedule
// (a width-1 ShardedRunner executing the identical propose/commit sequence
// inline). That is the engine's determinism contract: no RunResult field
// may ever depend on thread count, batch size, or scheduling.
//
// Note the contract boundary: the sharded engine is deliberately *not*
// bit-identical to the `threads = 1` serial loop (per-request pinned
// strategy streams vs one sequential stream — see sharded_runner.hpp); the
// serial loop's own goldens live in test_determinism.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/simulation.hpp"
#include "parallel/sharded_runner.hpp"
#include "scenario/registry.hpp"
#include "strategy/registry.hpp"
#include "topology/registry.hpp"

namespace proxcache {
namespace {

/// Every RunResult field must agree exactly; EXPECT_EQ on comm_cost is
/// deliberate (all compared paths divide the same integer totals).
void expect_bit_identical(const RunResult& reference, const RunResult& other,
                          const std::string& label) {
  EXPECT_EQ(reference.max_load, other.max_load) << label;
  EXPECT_EQ(reference.comm_cost, other.comm_cost) << label;
  EXPECT_EQ(reference.requests, other.requests) << label;
  EXPECT_EQ(reference.fallbacks, other.fallbacks) << label;
  EXPECT_EQ(reference.resampled, other.resampled) << label;
  EXPECT_EQ(reference.dropped, other.dropped) << label;
  EXPECT_EQ(reference.load_histogram.total(), other.load_histogram.total())
      << label;
  EXPECT_EQ(reference.load_histogram.counts(), other.load_histogram.counts())
      << label;
  EXPECT_EQ(reference.placement_min_distinct, other.placement_min_distinct)
      << label;
  EXPECT_EQ(reference.files_with_replicas, other.files_with_replicas)
      << label;
}

/// Serial reference vs threads ∈ {2, 4, 8}, and through the
/// SimulationContext dispatch (`config.threads`). Every differential is
/// against the same width-1 reference.
void expect_thread_invariant(const SimulationContext& context,
                             const std::string& label,
                             std::uint64_t runs = 2) {
  const std::size_t batch = context.config().shard_batch;
  for (std::uint64_t run_index = 0; run_index < runs; ++run_index) {
    const std::string run_label = label + " run " + std::to_string(run_index);
    const RunResult reference =
        ShardedRunner(context, {1, batch}).run(run_index);
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      const RunResult sharded =
          ShardedRunner(context, {threads, batch}).run(run_index);
      expect_bit_identical(
          reference, sharded,
          run_label + " threads=" + std::to_string(threads));
    }
    // The config knob routes through the same engine.
    ExperimentConfig config = context.config();
    config.threads = 2;
    expect_bit_identical(reference,
                         SimulationContext(config).run(run_index),
                         run_label + " via config.threads");
  }
}

ExperimentConfig shrunk(ExperimentConfig config) {
  config.num_nodes = 400;
  config.num_files = 80;
  config.cache_size = 6;
  return config;
}

// The headline sweep: every registry preset × all four built-in strategies
// on the paper's torus. Small batch so every run crosses many batch
// boundaries (the seams where an ordering bug would show).
TEST(ShardedEquivalence, EveryPresetTimesEveryStrategyOnTorus) {
  for (const Scenario& scenario : ScenarioRegistry::built_ins().all()) {
    for (const char* name :
         {"nearest", "two-choice", "least-loaded(r=8)",
          "prox-weighted(d=2, alpha=1)"}) {
      ExperimentConfig config = shrunk(scenario.config);
      config.strategy_spec = parse_strategy_spec(name);
      config.shard_batch = 96;
      config.seed = 0x5AD + scenario.config.seed;
      const SimulationContext context(config);
      expect_thread_invariant(context, scenario.name + " / " + name, 1);
    }
  }
}

// Non-lattice topologies: ring (closed form distances) and a random
// geometric graph (BFS distance matrix). One materialized topology shared
// across the strategy axis via the shared-topology context constructor.
TEST(ShardedEquivalence, RingAndRggTopologies) {
  for (const char* topo : {"ring(n=300)", "rgg(n=300, radius=0.12, seed=5)"}) {
    ExperimentConfig base;
    base.topology_spec = parse_topology_spec(topo);
    base.num_files = 70;
    base.cache_size = 4;
    base.popularity.kind = PopularityKind::Zipf;
    base.popularity.gamma = 1.0;
    base.shard_batch = 64;
    base.seed = 0x70B0;
    const std::shared_ptr<const Topology> topology =
        TopologyRegistry::global().make(base.resolved_topology());
    for (const char* name :
         {"nearest", "two-choice(r=6)", "least-loaded(r=6)",
          "prox-weighted(d=3, alpha=0.5)"}) {
      ExperimentConfig config = base;
      config.strategy_spec = parse_strategy_spec(name);
      const SimulationContext context(config, topology);
      expect_thread_invariant(context,
                              std::string(topo) + " / " + name, 1);
    }
  }
}

// Stale snapshots, (1+β) mixing, and Drop fallback in one config: the
// commit thread must drive StaleLoadView refreshes and drop accounting
// exactly as the serial loop regardless of batch boundaries.
TEST(ShardedEquivalence, StaleBetaAndFallbackDropCorner) {
  ExperimentConfig config;
  config.num_nodes = 400;
  config.num_files = 60;
  config.cache_size = 3;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.0;
  config.strategy_spec = parse_strategy_spec(
      "two-choice(r=2, fallback=drop, beta=0.6, stale=7)");
  config.shard_batch = 53;  // coprime to stale period: refreshes straddle
  config.seed = 0x5A1E;
  const SimulationContext context(config);
  const RunResult probe = context.run(0);
  EXPECT_GT(probe.dropped, 0u) << "radius 2 must provoke fallback drops";
  expect_thread_invariant(context, "stale-beta-fallback-drop", 2);
}

// The commit thread drives the stale view choose() reads. Frozen corner:
// with a staleness period >= the trace length the snapshot never refreshes
// before the final assignment, so every choose compares the all-zero
// snapshot while the live loads diverge throughout the run.
TEST(ShardedEquivalence, FrozenStaleView) {
  ExperimentConfig config;
  config.num_nodes = 225;
  config.num_files = 30;
  config.cache_size = 5;
  config.seed = 13;
  config.strategy_spec = parse_strategy_spec("two-choice");
  config.strategy_spec.params["stale"] =
      static_cast<double>(config.effective_requests());
  config.shard_batch = 64;
  expect_thread_invariant(SimulationContext(config), "frozen stale view");
}

// The refreshing corner: period 7 refreshes the snapshot several times
// inside every batch, on a skewed (Zipf 1.5) trace.
TEST(ShardedEquivalence, RefreshingStaleViewInsideBatches) {
  ExperimentConfig config;
  config.num_nodes = 64;
  config.num_files = 20;
  config.cache_size = 4;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.5;
  config.seed = 14;
  config.strategy_spec = parse_strategy_spec("two-choice(stale=7)");
  config.shard_batch = 53;  // coprime to the period: refreshes straddle
  expect_thread_invariant(SimulationContext(config), "stale period 7");
}

// Resample with genuinely uncached files: the scout pre-advance and the
// repair stream live on the producer thread; repairs must not depend on
// engine width.
TEST(ShardedEquivalence, ResampleRepairStreamWithUncachedFiles) {
  ExperimentConfig config;
  config.num_nodes = 100;
  config.num_files = 400;
  config.cache_size = 2;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 1.2;
  config.shard_batch = 32;
  config.seed = 0x9E5A;
  for (const char* name : {"nearest", "least-loaded(r=4)"}) {
    config.strategy_spec = parse_strategy_spec(name);
    const SimulationContext context(config);
    const RunResult probe = context.run(0);
    EXPECT_GT(probe.resampled, 0u)
        << "test setup must force repairs or it proves nothing";
    expect_thread_invariant(context, std::string("uncached-resample / ") +
                                         name,
                            2);
  }
}

// Sanitize-level Drop policy: dropped requests never reach the engine, so
// the admitted ordinals (and with them the pinned streams) must stay dense.
TEST(ShardedEquivalence, DropPolicyWithUncachedFiles) {
  ExperimentConfig config;
  config.num_nodes = 100;
  config.num_files = 300;
  config.cache_size = 2;
  config.missing = MissingFilePolicy::Drop;
  config.shard_batch = 17;
  config.seed = 0xD809;
  const SimulationContext context(config);
  const RunResult probe = context.run(0);
  EXPECT_GT(probe.dropped, 0u);
  expect_thread_invariant(context, "drop-policy", 2);
}

// Batch size is a pure throughput dial: every value — including a
// degenerate batch of 1 — must produce the identical RunResult.
TEST(ShardedEquivalence, BatchSizeInvariance) {
  ExperimentConfig config;
  config.num_nodes = 400;
  config.num_files = 80;
  config.cache_size = 6;
  config.strategy_spec = parse_strategy_spec("two-choice(r=8)");
  config.seed = 0xBA7C;
  const SimulationContext context(config);
  const RunResult reference = ShardedRunner(context, {1, 4096}).run(0);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}, std::size_t{1000}}) {
    expect_bit_identical(reference, ShardedRunner(context, {4, batch}).run(0),
                         "batch=" + std::to_string(batch));
  }
}

// Hotspot stress: a tiny node set under a hotspot trace makes consecutive
// requests compete for the same few candidates, so every choose depends on
// loads the immediately preceding commits just moved. The result must
// still be bit-identical to the width-1 schedule at widths up to 8.
TEST(ShardedEquivalence, HotspotContentionWidthInvariance) {
  ExperimentConfig config;
  config.num_nodes = 64;
  config.num_files = 10;
  config.cache_size = 4;
  config.popularity.kind = PopularityKind::Zipf;
  config.popularity.gamma = 2.5;  // head file takes most of the trace
  config.strategy_spec = parse_strategy_spec("two-choice");
  config.shard_batch = 256;
  config.seed = 0x5F0;
  const SimulationContext context(config);
  expect_thread_invariant(context, "hotspot", 1);
}

// A registry extension that only implements `assign` (no split-phase
// protocol) must still run correctly and deterministically: the engine
// detects `split_phase() == false` and executes it on the commit thread
// under the same per-request stream contract.
TEST(ShardedEquivalence, NonSplitCustomStrategyRunsOnCommitPath) {
  const std::string name = "test-sharded-nonsplit";
  if (StrategyRegistry::global().find(name) == nullptr) {
    class FirstReplica final : public Strategy {
     public:
      explicit FirstReplica(const ReplicaIndex& index) : index_(&index) {}
      Assignment assign(const Request& request, const LoadView&,
                        Rng&) override {
        Assignment a;
        a.server = index_->placement().replicas(request.file)[0];
        a.hops = index_->topology().distance(request.origin, a.server);
        return a;
      }
      [[nodiscard]] std::string name() const override {
        return "first-replica";
      }

     private:
      const ReplicaIndex* index_;
    };
    StrategyRegistry::global().add(
        {name,
         "test-only: always the first replica in the list",
         {},
         [](const StrategySpec&, const ReplicaIndex& index, const Topology&,
            const ExperimentConfig&) -> std::unique_ptr<Strategy> {
           return std::make_unique<FirstReplica>(index);
         }});
  }
  ExperimentConfig config;
  config.num_nodes = 100;
  config.num_files = 40;
  config.cache_size = 4;
  config.strategy_spec = parse_strategy_spec(name);
  config.shard_batch = 16;
  config.seed = 0xC057;
  const SimulationContext context(config);
  const RunResult probe = context.run(0);
  EXPECT_GT(probe.requests, 0u);
  expect_thread_invariant(context, "non-split custom strategy", 2);
}

}  // namespace
}  // namespace proxcache
