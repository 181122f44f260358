#include "core/simulation.hpp"

#include <memory>

#include "core/request.hpp"
#include "core/run_harness.hpp"
#include "parallel/sharded_runner.hpp"
#include "tier/materialize.hpp"
#include "util/contracts.hpp"

namespace proxcache {

namespace {

const ExperimentConfig& validated(const ExperimentConfig& config) {
  config.validate();
  return config;
}

}  // namespace

std::uint64_t RunResult::origin_hits() const {
  for (const TierLoadStats& tier : tier_loads) {
    if (tier.role == "origin") return tier.served;
  }
  return 0;
}

double RunResult::origin_offload() const {
  if (requests == 0) return 1.0;
  return 1.0 - static_cast<double>(origin_hits()) /
                   static_cast<double>(requests);
}

SimulationContext::SimulationContext(const ExperimentConfig& config)
    : config_(validated(config)),
      topology_(materialize_topology(config_)),
      popularity_(config_.popularity.materialize(config_.num_files)) {
  // Synchronize the legacy node-count knob with the materialized topology
  // so placement, trackers and `effective_requests` all agree on `n` even
  // when the spec (not `num_nodes`) decided it.
  config_.num_nodes = topology_->size();
  horizon_ = config_.effective_requests();
}

SimulationContext::SimulationContext(const SimulationContext& base,
                                     StrategySpec strategy)
    : config_(base.config_),
      topology_(base.topology_),
      popularity_(base.popularity_),
      horizon_(base.horizon_) {
  config_.strategy_spec = std::move(strategy);
  config_.validate();
}

SimulationContext::SimulationContext(const ExperimentConfig& config,
                                     std::shared_ptr<const Topology> topology)
    : config_(validated(config)),
      topology_(std::move(topology)),
      popularity_(config_.popularity.materialize(config_.num_files)) {
  PROXCACHE_REQUIRE(topology_ != nullptr, "topology must not be null");
  PROXCACHE_REQUIRE(
      topology_->size() == config_.resolved_nodes(),
      "shared topology disagrees with the config's resolved node count");
  config_.num_nodes = topology_->size();
  horizon_ = config_.effective_requests();
}

RunResult SimulationContext::run(std::uint64_t run_index) const {
  // Engine dispatch: `threads >= 2` hands the run to the sharded
  // split-phase engine (its own deterministic seed contract; see
  // parallel/sharded_runner.hpp). `threads == 1` stays the historical
  // serial loop below, bit-identical to every result ever produced by it.
  if (config_.threads >= 2) {
    return ShardedRunner(*this, {config_.threads, config_.shard_batch})
        .run(run_index);
  }

  RunHarness harness(*this, run_index);
  Request request;
  while (harness.sanitized.try_next(harness.trace_rng, request)) {
    harness.commit(harness.strategy->assign(request, *harness.load_view,
                                            harness.strategy_rng));
  }
  return harness.finalize();
}

RunResult run_simulation(const ExperimentConfig& config,
                         std::uint64_t run_index) {
  return SimulationContext(config).run(run_index);
}

}  // namespace proxcache
