#include "core/config.hpp"

#include <cmath>
#include <sstream>

#include "strategy/registry.hpp"
#include "topology/registry.hpp"
#include "util/contracts.hpp"

namespace proxcache {

namespace {

/// True when the spec names one of the two lattice entries — the only
/// topologies with a `side` the legacy radius checks can compare against.
bool is_lattice_spec(const TopologySpec& spec) {
  return spec.name == "torus" || spec.name == "grid";
}

}  // namespace

TopologySpec ExperimentConfig::resolved_topology() const {
  PROXCACHE_REQUIRE(!tiered(),
                    "a tiered config has no single registry topology; "
                    "materialize it through tier/materialize.hpp");
  if (!tier_spec.empty()) return tier_spec.levels.front().topology;
  return topology_spec.empty() ? topology_spec_from_lattice(num_nodes, wrap)
                               : topology_spec;
}

std::size_t ExperimentConfig::resolved_nodes() const {
  if (!tier_spec.empty()) {
    const TopologyRegistry& registry = TopologyRegistry::global();
    std::size_t total = 0;
    for (const TierLevelSpec& level : tier_spec.levels) {
      total += level.clusters * registry.node_count(level.topology);
    }
    return total;
  }
  if (topology_spec.empty()) return num_nodes;
  return TopologyRegistry::global().node_count(topology_spec);
}

StrategySpec ExperimentConfig::resolved_strategy() const {
  if (!strategy_spec.empty()) return strategy_spec;
  StrategySpec spec;
  spec.name = "two-choice";
  return spec;
}

void ExperimentConfig::validate() const {
  PROXCACHE_REQUIRE(tier_spec.empty() || topology_spec.empty(),
                    "tier_spec and topology_spec are mutually exclusive; "
                    "a tier spec names its inner topologies itself");
  if (topology_spec.empty() && tier_spec.empty()) {
    PROXCACHE_REQUIRE(Lattice::is_perfect_square(num_nodes),
                      "num_nodes must be a perfect square, got " +
                          std::to_string(num_nodes));
  }
  // Per-topology and per-strategy validation is the registries' job:
  // unknown names, unknown parameter keys and out-of-range values all throw
  // from here. The global catalogs are consulted so registered custom
  // entries validate too.
  // with_defaults validates (unknown name/key, ranges, node-count cap)
  // and returns the defaults-filled spec the side check below reads —
  // one registry pass, no drift from the declared defaults.
  TopologySpec topology;
  if (tiered()) {
    // Every inner topology must validate; the composed node count is
    // bounded by TierSet::build. The tier grammar already enforced the
    // structural rules (role order, single deepest cluster, capacities).
    for (const TierLevelSpec& level : tier_spec.levels) {
      (void)TopologyRegistry::global().with_defaults(level.topology);
    }
  } else {
    topology = TopologyRegistry::global().with_defaults(resolved_topology());
  }
  PROXCACHE_REQUIRE(num_files >= 1, "num_files must be >= 1");
  PROXCACHE_REQUIRE(cache_size >= 1, "cache_size must be >= 1");
  PROXCACHE_REQUIRE(threads >= 1 && threads <= 1024,
                    "threads must be in [1, 1024]");
  PROXCACHE_REQUIRE(shard_batch >= 1 && shard_batch <= (1u << 22),
                    "shard_batch must be in [1, 2^22]");
  const StrategySpec strategy = resolved_strategy();
  StrategyRegistry::global().validate(strategy);
  if (StrategyRegistry::global().at(strategy.name).requires_tiers) {
    PROXCACHE_REQUIRE(tiered(),
                      "strategy '" + strategy.name +
                          "' routes across cache tiers; configure a tier "
                          "hierarchy (e.g. front=torus(side=8)x8, "
                          "back=ring(n=64), origin=1)");
  }
  if (popularity.kind == PopularityKind::Zipf) {
    PROXCACHE_REQUIRE(popularity.gamma >= 0.0, "zipf gamma must be >= 0");
  }

  // Demand-disc radii are bounded by the lattice side on lattice
  // topologies (the historical check). Non-lattice topologies have no
  // side; their discs are simply capped at the diameter when collected.
  const bool lattice_backed = is_lattice_spec(topology);
  const auto side = lattice_backed
                        ? static_cast<Hop>(topology.get_or("side", 0.0))
                        : Hop{0};
  if (origins.kind == OriginKind::Hotspot) {
    PROXCACHE_REQUIRE(
        origins.hotspot_fraction >= 0.0 && origins.hotspot_fraction <= 1.0,
        "hotspot_fraction must be in [0, 1]");
    if (lattice_backed) {
      PROXCACHE_REQUIRE(
          origins.hotspot_radius < side,
          "hotspot_radius must be smaller than the lattice side");
    }
  }

  // The batch simulator never reads the arrival rate, but it is validated
  // here with the other trace knobs so a bad dynamic-mode config fails at
  // the same place every other bad config does.
  PROXCACHE_REQUIRE(std::isfinite(trace.arrival_rate) && trace.arrival_rate > 0.0,
                    "arrival rate must be > 0");

  switch (trace.kind) {
    case TraceKind::Static:
      break;
    case TraceKind::FlashCrowd:
      PROXCACHE_REQUIRE(origins.kind == OriginKind::Uniform,
                        "flash-crowd traces define their own origin process; "
                        "use uniform OriginSpec");
      PROXCACHE_REQUIRE(trace.flash_peak >= 0.0 && trace.flash_peak <= 1.0,
                        "flash_peak must be in [0, 1]");
      PROXCACHE_REQUIRE(
          trace.flash_start >= 0.0 && trace.flash_start < trace.flash_end &&
              trace.flash_end <= 1.0,
          "flash window must satisfy 0 <= start < end <= 1");
      if (lattice_backed) {
        PROXCACHE_REQUIRE(
            trace.flash_radius < side,
            "flash_radius must be smaller than the lattice side");
      }
      break;
    case TraceKind::Diurnal:
      PROXCACHE_REQUIRE(popularity.kind == PopularityKind::Zipf,
                        "diurnal traces modulate a Zipf catalog");
      PROXCACHE_REQUIRE(trace.diurnal_amplitude >= 0.0 &&
                            popularity.gamma - trace.diurnal_amplitude >= 0.0,
                        "diurnal_amplitude must be in [0, gamma]");
      PROXCACHE_REQUIRE(trace.diurnal_cycles >= 1,
                        "diurnal_cycles must be >= 1");
      break;
    case TraceKind::Churn:
      PROXCACHE_REQUIRE(trace.churn_offline_fraction >= 0.0 &&
                            trace.churn_offline_fraction < 1.0,
                        "churn_offline_fraction must be in [0, 1)");
      PROXCACHE_REQUIRE(trace.churn_epochs >= 1, "churn_epochs must be >= 1");
      break;
    case TraceKind::TemporalLocality:
      PROXCACHE_REQUIRE(
          trace.locality_prob >= 0.0 && trace.locality_prob <= 1.0,
          "locality_prob must be in [0, 1]");
      PROXCACHE_REQUIRE(trace.locality_depth >= 1,
                        "locality_depth must be >= 1");
      break;
    case TraceKind::Adversarial:
      PROXCACHE_REQUIRE(
          trace.attack_fraction >= 0.0 && trace.attack_fraction <= 1.0,
          "attack_fraction must be in [0, 1]");
      PROXCACHE_REQUIRE(
          trace.attack_top_k >= 1 && trace.attack_top_k <= num_files,
          "attack_top_k must be in [1, num_files]");
      break;
  }
}

std::string ExperimentConfig::describe() const {
  std::ostringstream os;
  os << "n=" << resolved_nodes() << " K=" << num_files << " M=" << cache_size
     << " "
     << (tiered() ? tier_spec.to_string() : resolved_topology().to_string())
     << " "
     << popularity.materialize(num_files).describe() << " ";
  if (trace.kind != TraceKind::Static) {
    os << "trace=" << to_string(trace.kind) << " ";
  }
  os << "strategy=" << resolved_strategy().to_string();
  if (threads > 1) os << " threads=" << threads;
  return os.str();
}

}  // namespace proxcache
