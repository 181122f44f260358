#include "strategy/prox_weighted.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/contracts.hpp"

namespace proxcache {

ProximityWeights::ProximityWeights(Hop diameter, double alpha)
    : alpha_(alpha) {
  constexpr Hop kMaxEntries = 4096;
  table_.resize(std::min(diameter, kMaxEntries - 1) + 1);
  for (Hop d = 0; d < table_.size(); ++d) {
    table_[d] = std::pow(1.0 + static_cast<double>(d), -alpha);
  }
}

ProxWeightedStrategy::ProxWeightedStrategy(const ReplicaIndex& index,
                                           ProxWeightedOptions options)
    : index_(&index),
      options_(options),
      weights_(index.topology().diameter(), options.alpha) {
  PROXCACHE_REQUIRE(options.num_choices >= 1 && options.num_choices <= 8,
                    "num_choices must be in [1, 8]");
  PROXCACHE_REQUIRE(options.alpha >= 0.0, "alpha must be >= 0");
}

std::string ProxWeightedStrategy::name() const {
  std::ostringstream os;
  os << "prox-weighted(d=" << options_.num_choices << ", alpha="
     << options_.alpha << ")";
  return os.str();
}

void ProxWeightedStrategy::propose(const Request& request, Rng& rng,
                                   CandidateArena& arena, Proposal& out) {
  (void)rng;  // weight computation is deterministic; draws happen in choose
  const std::size_t count = index_->placement().replica_count(request.file);
  PROXCACHE_CHECK(count > 0,
                  "uncached file reached the strategy; "
                  "sanitize_trace must run first");

  // Weight every replica by (1 + dist)^-alpha; the +1 keeps a co-located
  // replica (dist 0) at finite weight. The left-to-right summation order
  // matches the historical pass, so `total_weight` is the bit-identical
  // double.
  out.first = static_cast<std::uint32_t>(arena.size());
  double total = 0.0;
  index_->for_each_replica(request.origin, request.file,
                           [&](NodeId v, Hop d) {
                             const double w = weights_(d);
                             arena.push_back({v, d, w});
                             total += w;
                           });
  out.count = static_cast<std::uint32_t>(count);
  out.total_weight = total;
}

Assignment ProxWeightedStrategy::choose(const Request& request,
                                        const Proposal& proposal,
                                        CandidateArena& arena,
                                        const LoadView& loads,
                                        Rng& rng) const {
  (void)request;
  Assignment assignment;
  assignment.fallback = proposal.fallback;

  // Draw up to d distinct candidates by repeated weighted selection,
  // zeroing each winner's weight in the arena window (the window is this
  // request's scratch). O(d·|S_j|), matching the cost of the
  // radius-constrained reservoir pass in Strategy II.
  ProposedCandidate* candidates = arena.data() + proposal.first;
  const std::uint32_t count = proposal.count;
  double total = proposal.total_weight;
  const std::uint32_t want = std::min(options_.num_choices, count);
  NodeId chosen = kInvalidNode;
  Hop chosen_hops = 0;
  Load best = 0;
  std::uint32_t ties = 0;
  for (std::uint32_t pick = 0; pick < want; ++pick) {
    double u = rng.uniform() * total;
    std::uint32_t winner = count;  // last positive weight wins on rounding
    for (std::uint32_t i = 0; i < count; ++i) {
      if (candidates[i].weight <= 0.0) continue;
      winner = i;
      u -= candidates[i].weight;
      if (u < 0.0) break;
    }
    PROXCACHE_CHECK(winner < count, "weighted draw found no candidate");
    total -= candidates[winner].weight;
    candidates[winner].weight = 0.0;

    // Least-loaded among the sampled set, uniform among ties — streamed so
    // no candidate array is needed.
    const NodeId v = candidates[winner].node;
    const Load load = loads.load(v);
    if (pick == 0 || load < best) {
      chosen = v;
      chosen_hops = candidates[winner].hops;
      best = load;
      ties = 1;
    } else if (load == best) {
      ++ties;
      if (rng.below(ties) == 0) {
        chosen = v;
        chosen_hops = candidates[winner].hops;
      }
    }
  }
  assignment.server = chosen;
  assignment.hops = chosen_hops;
  return assignment;
}

}  // namespace proxcache
