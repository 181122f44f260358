#pragma once
/// \file strategy.hpp
/// The assignment-strategy interface: given the next request and the
/// current loads, pick the serving node (paper §II-B "assignment strategy").
///
/// Two protocols live here:
///
///  * `Strategy::assign` — the historical one-shot call: request + loads +
///    rng in, decision out. Every strategy implements it (custom registry
///    extensions may implement only it).
///
///  * The split-phase pair `propose`/`choose` — the seam the sharded engine
///    (src/parallel/sharded_runner.hpp) parallelizes across. The key
///    observation: for every built-in policy the *expensive* per-request
///    work (candidate discovery via shell walks or reservoir passes,
///    distance and weight computation, fallback-radius expansion) never
///    reads the load vector, while the *cheap* final step (min-load
///    comparison plus tie-break draws) is the only load-dependent part.
///    `propose` performs all load-independent work — including every RNG
///    draw whose count does not depend on loads — and records the candidate
///    set; `choose` consumes live loads and finishes the decision on the
///    same stream. The composition `propose; choose` on one Rng is
///    bit-identical to the historical `assign` (locked by the golden
///    masters in tests/test_determinism.cpp), which is what lets the serial
///    engine run unchanged while the sharded engine runs `propose` on a
///    worker pool and `choose` serially in request order.

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/request.hpp"
#include "random/rng.hpp"
#include "util/contracts.hpp"
#include "util/types.hpp"

namespace proxcache {

/// A single assignment decision.
struct Assignment {
  NodeId server = kInvalidNode;  ///< chosen server; invalid = dropped
  Hop hops = 0;                  ///< requester→server distance (charged to C)
  bool fallback = false;         ///< a fallback path was taken
};

/// The shared ExpandRadius fallback schedule (Strategy II semantics, also
/// used by least-loaded): 0 → 1, then doubling, saturating at the lattice
/// diameter. One definition so the strategies cannot drift apart.
[[nodiscard]] inline Hop next_fallback_radius(Hop radius, Hop diameter) {
  if (radius == 0) return 1;
  return radius >= diameter / 2 ? diameter : static_cast<Hop>(radius * 2);
}

/// One candidate recorded by `propose`: the node plus everything `choose`
/// would otherwise have to recompute (distance; sampling weight for the
/// weighted policies). Kept flat (SoA-of-requests is the arena itself) so a
/// worker's whole scratch is one contiguous, cache-friendly buffer.
struct ProposedCandidate {
  NodeId node = kInvalidNode;
  Hop hops = 0;
  double weight = 0.0;
  /// Hierarchy tier the candidate lives in (tier/strategies.hpp); 0 on
  /// flat topologies. Rides the arena so cross-tier `choose` can apply
  /// depth tie-breaks without re-locating the node.
  std::uint32_t tier = 0;
};

/// Per-shard scratch: `propose` appends candidates here; slices are handed
/// to `choose` by [first, count) windows. One arena per worker lane — never
/// shared across threads.
using CandidateArena = std::vector<ProposedCandidate>;

/// The load-independent half of a decision, produced by `propose`.
///
/// Either the decision is already final (`decided` — nearest-replica, the
/// NearestReplica/Drop fallbacks) and `server`/`hops` hold it, or
/// `arena[first .. first+count)` holds the candidate window that `choose`
/// resolves against live loads.
struct Proposal {
  std::uint32_t first = 0;     ///< arena index of this request's window
  std::uint32_t count = 0;     ///< candidates recorded (0 when decided)
  NodeId server = kInvalidNode;  ///< final server when `decided`
  Hop hops = 0;                  ///< final distance when `decided`
  double total_weight = 0.0;   ///< Σ candidate weights (weighted policies)
  bool decided = false;        ///< load-independent decision already final
  bool fallback = false;       ///< a fallback path was taken
};

/// Sequential request-to-server mapper. Implementations must be
/// deterministic given the Rng stream and may read (never write) the
/// tracker's current loads.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Decide where `request` is served.
  virtual Assignment assign(const Request& request, const LoadView& loads,
                            Rng& rng) = 0;

  /// True when this strategy implements the split-phase protocol below and
  /// the sharded engine may run `propose` off-thread. Strategies that only
  /// implement `assign` (e.g. registry extensions) return false and are
  /// executed on the serial commit path — still correct, just not sped up.
  [[nodiscard]] virtual bool split_phase() const { return false; }

  /// Load-independent half: discover candidates (appending them to
  /// `arena`), run fallback handling, and perform every RNG draw whose
  /// count does not depend on loads. May mutate strategy-local scratch, so
  /// each concurrent caller needs its own instance ("lane").
  virtual void propose(const Request& request, Rng& rng,
                       CandidateArena& arena, Proposal& out) {
    (void)request;
    (void)rng;
    (void)arena;
    (void)out;
    PROXCACHE_CHECK(false, "propose() called on a non-split-phase strategy");
  }

  /// Load-dependent half: finish `proposal` against live `loads`,
  /// continuing on the *same* Rng stream `propose` left off. The sharded
  /// engine calls it only from the commit thread, one request at a time in
  /// request order, while `propose` runs on *other* instances — hence
  /// const: it may not touch strategy-local scratch (the arena window is
  /// its scratch — it may mutate that in place).
  [[nodiscard]] virtual Assignment choose(const Request& request,
                                          const Proposal& proposal,
                                          CandidateArena& arena,
                                          const LoadView& loads,
                                          Rng& rng) const {
    (void)request;
    (void)proposal;
    (void)arena;
    (void)loads;
    (void)rng;
    PROXCACHE_CHECK(false, "choose() called on a non-split-phase strategy");
    return {};
  }

  /// Short identifier for logs/tables, e.g. "nearest" or "two-choice(r=16)".
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Base for strategies implementing the split-phase protocol: `assign` is
/// pinned to the `propose; choose` composition on the caller's stream, so
/// the one-shot and split-phase paths cannot drift apart — the serial
/// engine's golden masters transitively lock the sharded engine's halves.
class SplitPhaseStrategy : public Strategy {
 public:
  [[nodiscard]] bool split_phase() const final { return true; }

  Assignment assign(const Request& request, const LoadView& loads,
                    Rng& rng) final {
    scratch_.clear();
    Proposal proposal;
    propose(request, rng, scratch_, proposal);
    return choose(request, proposal, scratch_, loads, rng);
  }

  void propose(const Request& request, Rng& rng, CandidateArena& arena,
               Proposal& out) override = 0;
  [[nodiscard]] Assignment choose(const Request& request,
                                  const Proposal& proposal,
                                  CandidateArena& arena, const LoadView& loads,
                                  Rng& rng) const override = 0;

 private:
  CandidateArena scratch_;  ///< one-shot path's private arena
};

/// Shared tail of `choose` for proposals `propose` already finalized.
[[nodiscard]] inline Assignment decided_assignment(const Proposal& proposal) {
  Assignment assignment;
  assignment.server = proposal.server;
  assignment.hops = proposal.hops;
  assignment.fallback = proposal.fallback;
  return assignment;
}

}  // namespace proxcache
