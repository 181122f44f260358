#pragma once
/// \file distance_oracle.hpp
/// Scalable hop-distance oracle over a connected CompactGraph — the seam
/// that lets graph-backed topologies reach n = 10⁶–10⁷ nodes.
///
/// Two regimes, selected by `Options::dense_threshold`:
///
///  * **dense / exact** (`n <= dense_threshold`): the historical all-pairs
///    BFS `uint16` matrix. O(n²) memory, O(1) queries, exact everywhere.
///    Every pre-existing golden master runs in this regime bit-identically.
///  * **sparse / scalable** (`n > dense_threshold`): memory proportional to
///    what queries actually visit —
///      - *on-demand truncated BFS rows*: the first query from a source `u`
///        grows a BFS ball around `u`, level by level, only as deep as the
///        query needs. Rows live in an LRU cache bounded by a total
///        node-entry budget, so resident memory tracks the recently-touched
///        balls, not n².
///      - *landmark (pivot) distances*: `num_landmarks` sources chosen by
///        farthest-point sampling each store one full BFS row (k·n uint16).
///        A far-pair query answers with the classic upper bound
///        `min_L d(u,L) + d(L,v)` — never below the true distance.
///
/// Exactness contract in the sparse regime (all history-independent — the
/// answer never depends on what was queried before, on cache eviction, or
/// on thread interleaving):
///
///  * `visit_shell`, `shell_size`, `ball_size`: always exact. The *stored*
///    row never grows past the budget horizon; deeper levels are streamed
///    on the fly from the truncated frontier through the shared mark
///    scratch, so a diameter-deep ball walk costs BFS time but no resident
///    row memory beyond the budget ball.
///  * `distance(u, v)`: exact iff `v` lies inside the *budget ball* B*(u) —
///    the BFS ball truncated before the first level whose predicted size
///    (current ball + the frontier's degree sum, capped at n) exceeds
///    `distance_ball_budget` (a pure function of the graph and the budget,
///    and never more than the budget itself — hub levels are predicted,
///    not materialized). Outside B*(u) the landmark upper bound is
///    returned, even when a deeper cached row happens to know the truth.
///  * `diameter()`: exact whenever the iFUB refinement converges within its
///    BFS budget (flagged by `diameter_is_exact()`); otherwise a safe upper
///    bound (`<= 2x` the true diameter). Never an underestimate — loops of
///    the form `for d <= diameter()` stay complete.
///
/// Bulk queries: `distances(u, vs, out)` answers a whole target list from
/// one source exactly as the per-pair `distance(u, v)` loop would — same
/// values, same `stats()` and `cached_entries()` afterwards — but takes the
/// mutex once, resolves and touches `u`'s row once and binds the marks once
/// per call instead of once per target. Landmark estimates are filled in
/// after the mutex is released. It runs no callback at all, so callers
/// iterate the answers with the mutex free (replica scans hand their
/// visitors the finished chunk).
///
/// Thread safety: all queries are safe from multiple threads. Sparse-mode
/// queries serialize on one internal mutex (the row cache mutates); the
/// dense regime is lock-free. Visitor callbacks run under that mutex and
/// must not re-enter the oracle: a sparse-mode query from inside a
/// visitor throws std::logic_error instead of deadlocking.

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/compact_graph.hpp"
#include "util/function_ref.hpp"
#include "util/types.hpp"

#include <mutex>
#include <optional>
#include <span>

namespace proxcache {

/// Shell/ball visitor (mirrors topology/topology.hpp's NodeVisitor without
/// depending on the topology layer).
using OracleNodeVisitor = FunctionRef<void(NodeId)>;

class DistanceOracle {
 public:
  struct Options {
    /// Node counts up to this build the exact all-pairs matrix; larger
    /// graphs switch to the scalable (truncated BFS + landmark) regime.
    std::size_t dense_threshold = 4096;
    /// Landmarks (full-BFS pivots) kept in the sparse regime.
    std::size_t num_landmarks = 16;
    /// Budget ball size for exact `distance` answers: the BFS from a source
    /// never starts a level whose predicted size (frontier degree sum,
    /// capped at n) would push the ball past this, so |B*(u)| <= budget.
    /// budget >= n keeps every answer exact.
    std::size_t distance_ball_budget = 4096;
    /// Total node entries across all cached rows; least-recently-used rows
    /// are evicted past it (each entry is ~10 bytes).
    std::size_t cache_entry_budget = std::size_t{1} << 20;
    /// Extra eccentricity computations (full BFS each) the exact-diameter
    /// refinement (iFUB) may spend after the initial double sweep before
    /// settling for the certified upper bound.
    std::size_t diameter_bfs_budget = 192;
  };

  /// Query counters (sparse regime; zero in dense mode). Snapshot via
  /// `stats()`.
  struct Stats {
    std::uint64_t rows_built = 0;        ///< BFS rows created
    std::uint64_t rows_evicted = 0;      ///< rows dropped by the LRU budget
    std::uint64_t exact_answers = 0;     ///< distance() hits inside B*(u)
    std::uint64_t landmark_answers = 0;  ///< distance() landmark estimates
  };

  /// Builds the oracle. Throws std::invalid_argument when the graph is
  /// empty, disconnected, or has shortest paths longer than 65534 hops
  /// (the uint16 storage limit; the message names the offending source).
  DistanceOracle(const CompactGraph& graph, Options options);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool exact() const { return dense_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Hop distance: exact in dense mode or inside the budget ball, landmark
  /// upper bound otherwise.
  [[nodiscard]] Hop distance(NodeId u, NodeId v) const;

  /// Bulk `distance`: `out[i] = distance(u, vs[i])` for every `i`, leaving
  /// `stats()` and `cached_entries()` exactly where the per-pair loop would
  /// (`v == u` answers 0 uncounted; an all-`u` or empty list builds no
  /// row). One mutex acquisition per call (file comment). Requires
  /// `out.size() == vs.size()`.
  void distances(NodeId u, std::span<const NodeId> vs,
                 std::span<Hop> out) const;

  /// Exact distance when this oracle can certify it (dense mode, or
  /// `v ∈ B*(u)`); nullopt when only the landmark estimate is available.
  [[nodiscard]] std::optional<Hop> certified_distance(NodeId u,
                                                      NodeId v) const;

  /// The landmark upper bound alone (sparse mode; tests use it to verify
  /// the bound against exact BFS). Requires `!exact()`.
  [[nodiscard]] Hop landmark_upper_bound(NodeId u, NodeId v) const;

  /// Depth of the budget ball B*(u) — the exactness horizon of `distance`
  /// from `u` (dense mode: the diameter). A pure function of the graph and
  /// the budget; radius queries use it to decide between a local ball walk
  /// (exact, <= budget nodes) and a replica-list scan.
  [[nodiscard]] Hop budget_ball_depth(NodeId u) const;

  [[nodiscard]] Hop diameter() const { return diameter_; }
  [[nodiscard]] bool diameter_is_exact() const { return diameter_exact_; }

  /// Exact shell enumeration in increasing node-id order (both regimes).
  void visit_shell(NodeId u, Hop d, OracleNodeVisitor fn) const;

  [[nodiscard]] std::size_t shell_size(NodeId u, Hop d) const;
  [[nodiscard]] std::size_t ball_size(NodeId u, Hop r) const;

  [[nodiscard]] Stats stats() const;

  /// Total node entries resident across all cached rows (sparse regime;
  /// 0 in dense mode). Bounded by `rows × distance_ball_budget` — streamed
  /// shell levels never count — which the memory-model tests assert.
  [[nodiscard]] std::size_t cached_entries() const;

 private:
  /// One on-demand BFS ball. Levels are stored concatenated in `nodes`
  /// with `level_end[d]` marking the end of depth `d`; each level is
  /// sorted by node id (the same enumeration order the dense row scan
  /// produces). The BFS frontier is the last stored level's slice of
  /// `nodes` (`last_level`), so a row holds each ball node once and
  /// `cached_entries()` counts all of it. Membership/depth queries go
  /// through the shared flat mark array (`bind_marks`) — a per-row hash
  /// map would dominate the BFS.
  struct Row {
    std::vector<NodeId> nodes;
    std::vector<std::uint32_t> level_end;
    bool complete = false;  ///< ball == whole graph
    /// Last level of the *budget-truncated* BFS — the exactness horizon of
    /// `distance`. Set once, when a level's predicted successor no longer
    /// fits `distance_ball_budget` (or the graph is exhausted); see
    /// `update_budget_depth`.
    std::uint16_t budget_depth = 0;
    bool budget_depth_known = false;
  };

  [[nodiscard]] Hop dense_distance(NodeId u, NodeId v) const {
    return dense_dist_[static_cast<std::size_t>(u) * n_ + v];
  }

  /// The deepest stored level of `row` — the frontier its BFS grows from.
  [[nodiscard]] static std::span<const NodeId> last_level(const Row& row);

  /// Locks `cache_mutex_` after checking that this thread is not inside
  /// one of this oracle's `visit_shell` visitors (re-entry would deadlock).
  [[nodiscard]] std::lock_guard<std::mutex> lock_cache() const;

  // Sparse-regime internals; all require cache_mutex_ held.
  Row& row_for(NodeId u) const;
  /// The exactness rule behind `distance`, `certified_distance` and
  /// `distances`: the depth of `v != source` in the budget ball B*(source),
  /// growing `row` level by level only until `v` turns up or the budget
  /// depth is known; kUnreached when `v` lies outside B*(source). Requires
  /// the marks bound to `row`.
  std::uint16_t depth_in_budget_ball(Row& row, NodeId source,
                                     NodeId v) const;
  void extend_row(Row& row, NodeId source) const;  ///< one more BFS level
  void update_budget_depth(Row& row) const;
  void ensure_depth(Row& row, NodeId source, Hop d) const;
  void ensure_budget_depth(Row& row, NodeId source) const;
  /// BFS levels past the stored horizon, streamed from `last_level(row)`
  /// through the mark scratch without growing the stored row: calls
  /// `fn(depth, level)` for each level in (stored, target], each sorted by
  /// node id. Invalidates the mark binding on return.
  void stream_beyond(
      const Row& row, NodeId source, Hop target,
      FunctionRef<void(Hop, const std::vector<NodeId>&)> fn) const;
  void bind_marks(const Row& row, NodeId source) const;
  void evict_to_budget() const;
  void touch(NodeId u) const;

  void build_dense(const CompactGraph& graph);
  void build_sparse(const CompactGraph& graph);

  const CompactGraph* graph_ = nullptr;
  std::size_t n_ = 0;
  Options options_;
  bool dense_ = true;
  Hop diameter_ = 0;
  bool diameter_exact_ = true;

  // Dense regime: row-major n × n matrix.
  std::vector<std::uint16_t> dense_dist_;

  // Sparse regime: landmark tables (node-major n × k, so one pair query
  // touches two cache lines) + LRU row cache. Landmark-major during
  // construction; transposed at the end of build_sparse.
  std::vector<NodeId> landmarks_;
  std::vector<std::uint16_t> landmark_dist_;

  mutable std::mutex cache_mutex_;
  mutable std::list<NodeId> lru_;  ///< most recent first
  struct CacheSlot {
    std::unique_ptr<Row> row;
    std::list<NodeId>::iterator lru_pos;
  };
  mutable std::unordered_map<NodeId, CacheSlot> rows_;
  mutable std::size_t cached_entries_ = 0;
  mutable Stats stats_;

  // Shared O(n) depth-mark scratch, bound to one row at a time
  // (`mark_owner_`): O(1) depth lookups and BFS dedupe for the bound row,
  // rebound in O(ball) when a different source is queried. `mark_nodes_`
  // lists the currently marked ids so rebinding clears only the touched
  // entries, never all n.
  mutable std::vector<std::uint16_t> mark_depth_;
  mutable std::vector<NodeId> mark_nodes_;
  mutable NodeId mark_owner_ = kInvalidNode;
};

}  // namespace proxcache
