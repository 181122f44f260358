#pragma once
/// \file prox_weighted.hpp
/// Distance-weighted d-choice strategy: a soft-proximity variant of
/// Strategy II in the spirit of the storage/communication trade-off
/// policies of Jafari Siavoshani et al. ("Storage, Communication, and Load
/// Balancing Trade-off in Distributed Cache Networks"). Instead of a hard
/// radius cutoff, sample `d` distinct candidates from the *whole* replica
/// set `S_j`, drawing replica `v` with probability proportional to
/// `(1 + dist(u, v))^-alpha`, then serve at the least-loaded sampled
/// candidate (uniform tie break).
///
/// `alpha` dials the communication/balance trade-off continuously:
/// `alpha = 0` recovers unconstrained d-choice (uniform candidates, best
/// balance, highest cost) while large `alpha` concentrates the candidate
/// mass on the nearest replicas (cost approaches Strategy I). Because every
/// cached file has at least one replica after sanitization, this strategy
/// never needs a fallback path.

#include <cmath>
#include <vector>

#include "core/strategy.hpp"
#include "spatial/replica_index.hpp"

namespace proxcache {

/// The sampling weight `(1 + d)^-alpha` per hop count, tabulated once per
/// strategy for `d` up to the topology diameter (at most 4096 entries).
/// The table holds the very doubles `std::pow` returns; hop counts beyond
/// it (a sparse oracle's landmark bound may exceed the diameter) call
/// `std::pow` directly, so every weight is bit-identical to the formula.
class ProximityWeights {
 public:
  ProximityWeights(Hop diameter, double alpha);

  [[nodiscard]] double operator()(Hop d) const {
    if (d < table_.size()) return table_[d];
    return std::pow(1.0 + static_cast<double>(d), -alpha_);
  }

 private:
  double alpha_;
  std::vector<double> table_;
};

/// Options for the distance-weighted sampler (registry key "prox-weighted").
struct ProxWeightedOptions {
  std::uint32_t num_choices = 2;  ///< d: candidates sampled per request
  double alpha = 1.0;             ///< distance-decay exponent, >= 0
};

/// Sample d replicas with probability ∝ (1+dist)^-alpha, serve the
/// least-loaded. Split-phase: `propose` streams every replica's distance
/// through `ReplicaIndex::for_each_replica` (the lattice kernel on
/// lattices) and looks its weight up in the per-alpha table — O(|S_j|),
/// RNG-free, no `std::pow` per replica. `choose` runs the whole d-pick
/// loop, O(d·|S_j|): each pick's weighted draw walks the window, and the
/// candidate draws and tie-break draws interleave per pick, so they must
/// stay together on one stream.
class ProxWeightedStrategy final : public SplitPhaseStrategy {
 public:
  ProxWeightedStrategy(const ReplicaIndex& index, ProxWeightedOptions options);

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override;

  [[nodiscard]] std::string name() const override;

  /// Every weighted pick and load read resolves inside the recorded window.
  [[nodiscard]] bool choose_reads_candidates_only() const override {
    return true;
  }

 private:
  const ReplicaIndex* index_;
  ProxWeightedOptions options_;
  ProximityWeights weights_;
};

}  // namespace proxcache
