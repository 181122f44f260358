#include "tier/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "random/splitmix64.hpp"
#include "util/contracts.hpp"

namespace proxcache {

namespace {

/// Shared load-dependent tail: least-loaded candidate of the proposal
/// window, ties to the fewest hops, then to the earliest candidate (the
/// arenas are filled in tier order, so full ties resolve to the shallowest
/// tier). Deterministic — no RNG.
Assignment choose_least_loaded(const Proposal& proposal,
                               const CandidateArena& arena,
                               const LoadView& loads) {
  if (proposal.decided) return decided_assignment(proposal);
  const ProposedCandidate* candidates = arena.data() + proposal.first;
  Assignment assignment;
  assignment.fallback = proposal.fallback;
  assignment.server = candidates[0].node;
  assignment.hops = candidates[0].hops;
  Load best = loads.load(candidates[0].node);
  for (std::uint32_t i = 1; i < proposal.count; ++i) {
    const Load load = loads.load(candidates[i].node);
    if (load < best ||
        (load == best && candidates[i].hops < assignment.hops)) {
      best = load;
      assignment.server = candidates[i].node;
      assignment.hops = candidates[i].hops;
    }
  }
  return assignment;
}

std::span<const NodeId> slice_by_range(std::span<const NodeId> list,
                                       NodeId lo, NodeId hi) {
  const auto first = std::lower_bound(list.begin(), list.end(), lo);
  const auto last = std::lower_bound(first, list.end(), hi);
  return {list.data() + (first - list.begin()),
          static_cast<std::size_t>(last - first)};
}

}  // namespace

TierScopes::TierScopes(const TieredTopology& topology,
                       const Placement& placement)
    : topology_(&topology), placement_(&placement) {
  PROXCACHE_REQUIRE(placement.num_nodes() == topology.size(),
                    "placement does not cover the tier composition");
}

std::span<const NodeId> TierScopes::tier_replicas(std::uint32_t t,
                                                  FileId file) const {
  const TierLevel& level = tiers().levels()[t];
  return slice_by_range(placement_->replicas(file), level.base,
                        level.base + level.nodes);
}

std::span<const NodeId> TierScopes::cluster_replicas(std::uint32_t t,
                                                     std::uint32_t cluster,
                                                     FileId file) const {
  const TierLevel& level = tiers().levels()[t];
  const NodeId base = level.base + cluster * level.cluster_nodes;
  return slice_by_range(placement_->replicas(file), base,
                        base + level.cluster_nodes);
}

ProposedCandidate TierScopes::nearest_in(
    NodeId from, std::span<const NodeId> slice) const {
  PROXCACHE_CHECK(!slice.empty(), "nearest_in over an empty scope");
  ProposedCandidate best;
  best.node = slice[0];
  best.hops = topology_->distance(from, slice[0]);
  for (std::size_t i = 1; i < slice.size(); ++i) {
    const Hop d = topology_->distance(from, slice[i]);
    if (d < best.hops) {
      best.node = slice[i];
      best.hops = d;
    }
  }
  return best;
}

NodeId TierScopes::hash_pick(FileId file, NodeId origin, std::uint32_t t,
                             std::span<const NodeId> slice) const {
  PROXCACHE_CHECK(!slice.empty(), "hash_pick over an empty scope");
  const std::uint64_t h = rng::mix64(
      rng::mix64(static_cast<std::uint64_t>(file) + 0x9E3779B97F4A7C15ULL) ^
      rng::mix64(static_cast<std::uint64_t>(origin) + 0xBF58476D1CE4E5B9ULL) ^
      rng::mix64(static_cast<std::uint64_t>(t) + 0xD1B54A32D192ED03ULL));
  return slice[h % slice.size()];
}

// ---------------------------------------------------------------------------
// cross-two-choice

void CrossTwoChoiceStrategy::propose(const Request& request, Rng& rng,
                                     CandidateArena& arena, Proposal& out) {
  (void)rng;  // routing is consistent-hashed; no per-request randomness
  const TierSet& set = scopes_.tiers();
  const TieredTopology& topology = scopes_.topology();
  out.first = static_cast<std::uint32_t>(arena.size());
  for (std::uint32_t t = 0; t < set.num_tiers(); ++t) {
    if (set.levels()[t].is_origin()) continue;
    const auto slice = scopes_.tier_replicas(t, request.file);
    if (slice.empty()) continue;
    ProposedCandidate candidate;
    candidate.node =
        scopes_.hash_pick(request.file, request.origin, t, slice);
    candidate.hops = topology.distance(request.origin, candidate.node);
    candidate.tier = t;
    arena.push_back(candidate);
    ++out.count;
  }
  if (out.count > 0) return;

  // No cache tier holds the file: consult the origin (DistCache semantics —
  // the origin never competes with cache candidates, it only backstops).
  for (std::uint32_t t = 0; t < set.num_tiers(); ++t) {
    if (!set.levels()[t].is_origin()) continue;
    const auto slice = scopes_.tier_replicas(t, request.file);
    PROXCACHE_CHECK(!slice.empty(), "origin tier lost a library file");
    out.decided = true;
    out.server = scopes_.hash_pick(request.file, request.origin, t, slice);
    out.hops = topology.distance(request.origin, out.server);
    return;
  }

  // No origin tier either: the sanitizer guarantees some replica exists;
  // serve it wherever it is and record the fallback.
  const auto all = scopes_.placement().replicas(request.file);
  PROXCACHE_CHECK(!all.empty(),
                  "uncached file reached the strategy; "
                  "sanitize_trace must run first");
  const ProposedCandidate nearest = scopes_.nearest_in(request.origin, all);
  out.decided = true;
  out.fallback = true;
  out.server = nearest.node;
  out.hops = nearest.hops;
}

Assignment CrossTwoChoiceStrategy::choose(const Request& request,
                                          const Proposal& proposal,
                                          CandidateArena& arena,
                                          const LoadView& loads,
                                          Rng& rng) const {
  (void)request;
  (void)rng;
  return choose_least_loaded(proposal, arena, loads);
}

// ---------------------------------------------------------------------------
// front-first

void FrontFirstStrategy::propose(const Request& request, Rng& rng,
                                 CandidateArena& arena, Proposal& out) {
  (void)rng;
  (void)arena;  // always decided: the cascade is load-oblivious
  const TierSet& set = scopes_.tiers();
  out.decided = true;

  // The requester's own cluster first — a front-end PoP knows only its own
  // partition — then each deeper tier as a whole.
  const TierSet::Location loc = set.locate(request.origin);
  auto slice = scopes_.cluster_replicas(loc.tier, loc.cluster, request.file);
  if (slice.empty()) {
    for (std::uint32_t t = loc.tier + 1; t < set.num_tiers(); ++t) {
      slice = scopes_.tier_replicas(t, request.file);
      if (!slice.empty()) break;
    }
  }
  if (slice.empty()) {
    // Not below the requester anywhere: sideways to wherever a replica
    // lives (counted as a fallback — the cascade proper failed).
    slice = scopes_.placement().replicas(request.file);
    PROXCACHE_CHECK(!slice.empty(),
                    "uncached file reached the strategy; "
                    "sanitize_trace must run first");
    out.fallback = true;
  }
  const ProposedCandidate hit = scopes_.nearest_in(request.origin, slice);
  out.server = hit.node;
  out.hops = hit.hops;
}

Assignment FrontFirstStrategy::choose(const Request& request,
                                      const Proposal& proposal,
                                      CandidateArena& arena,
                                      const LoadView& loads, Rng& rng) const {
  (void)request;
  (void)arena;
  (void)loads;
  (void)rng;
  return decided_assignment(proposal);
}

// ---------------------------------------------------------------------------
// cross-prox-weighted

std::string CrossProxWeightedStrategy::name() const {
  std::ostringstream os;
  os << "cross-prox-weighted(d=" << options_.num_choices
     << ",alpha=" << options_.alpha << ")";
  return os.str();
}

void CrossProxWeightedStrategy::propose(const Request& request, Rng& rng,
                                        CandidateArena& arena,
                                        Proposal& out) {
  const TierSet& set = scopes_.tiers();
  const TieredTopology& topology = scopes_.topology();
  out.first = static_cast<std::uint32_t>(arena.size());

  // One uniform draw per cache tier that holds the file, then keep the
  // `d` best Efraimidis–Spirakis keys under weight (1+dist)^-alpha. The
  // draw count per request depends only on the placement — never on loads
  // — so the whole block is propose-side.
  struct Pick {
    ProposedCandidate candidate;
    double key = 0.0;
  };
  Pick picks[64];
  std::uint32_t pool = 0;
  for (std::uint32_t t = 0; t < set.num_tiers(); ++t) {
    if (set.levels()[t].is_origin()) continue;
    const auto slice = scopes_.tier_replicas(t, request.file);
    if (slice.empty()) continue;
    Pick pick;
    pick.candidate.node = slice[rng.below(slice.size())];
    pick.candidate.hops = topology.distance(request.origin,
                                            pick.candidate.node);
    pick.candidate.tier = t;
    pick.candidate.weight = weights_(pick.candidate.hops);
    // Efraimidis–Spirakis keeps the largest u^(1/w). Its logarithm
    // log(u)/w orders the same, and stays distinct where u^(1/w)
    // underflows to 0 (tiny weights: large alpha or far candidates).
    pick.key = std::log(rng.uniform()) / pick.candidate.weight;
    if (pool < 64) picks[pool++] = pick;
  }

  if (pool == 0) {
    // Same backstop ladder as cross-two-choice: origin, then anywhere.
    for (std::uint32_t t = 0; t < set.num_tiers(); ++t) {
      if (!set.levels()[t].is_origin()) continue;
      const auto slice = scopes_.tier_replicas(t, request.file);
      PROXCACHE_CHECK(!slice.empty(), "origin tier lost a library file");
      out.decided = true;
      out.server = scopes_.hash_pick(request.file, request.origin, t, slice);
      out.hops = topology.distance(request.origin, out.server);
      return;
    }
    const auto all = scopes_.placement().replicas(request.file);
    PROXCACHE_CHECK(!all.empty(),
                    "uncached file reached the strategy; "
                    "sanitize_trace must run first");
    const ProposedCandidate nearest = scopes_.nearest_in(request.origin, all);
    out.decided = true;
    out.fallback = true;
    out.server = nearest.node;
    out.hops = nearest.hops;
    return;
  }

  const std::uint32_t keep = std::min(options_.num_choices, pool);
  std::partial_sort(picks, picks + keep, picks + pool,
                    [](const Pick& a, const Pick& b) {
                      if (a.key != b.key) return a.key > b.key;
                      return a.candidate.tier < b.candidate.tier;
                    });
  // Survivors re-ordered by tier so full choose-ties resolve shallowest.
  std::sort(picks, picks + keep, [](const Pick& a, const Pick& b) {
    return a.candidate.tier < b.candidate.tier;
  });
  for (std::uint32_t i = 0; i < keep; ++i) {
    arena.push_back(picks[i].candidate);
  }
  out.count = keep;
  for (std::uint32_t i = 0; i < keep; ++i) {
    out.total_weight += picks[i].candidate.weight;
  }
}

Assignment CrossProxWeightedStrategy::choose(const Request& request,
                                             const Proposal& proposal,
                                             CandidateArena& arena,
                                             const LoadView& loads,
                                             Rng& rng) const {
  (void)request;
  (void)rng;
  return choose_least_loaded(proposal, arena, loads);
}

}  // namespace proxcache
