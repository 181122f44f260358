#include "graph/distance_oracle.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace proxcache {

namespace {

constexpr std::uint16_t kUnreached = std::numeric_limits<std::uint16_t>::max();

/// Largest hop count the uint16 storage can represent.
constexpr Hop kMaxStorableHops = kUnreached - 1;

/// `distances` output placeholder for a target answered by the landmark
/// bound (at most 2 · kMaxStorableHops, so never equal to it).
constexpr Hop kLandmarkPending = kUnboundedRadius;

/// How many targets ahead `distances` prefetches landmark table rows.
constexpr std::size_t kPrefetchAhead = 8;

/// `min_L d(u, L) + d(L, v)` over the k node-major landmark entries of
/// `u` and `v`, clamped to `diameter` — itself an upper bound on every
/// distance, so the clamp keeps the bound valid and keeps every answer
/// within the `diameter()` contract.
Hop landmark_bound(const std::uint16_t* ru, const std::uint16_t* rv,
                   std::size_t k, Hop diameter) {
  Hop best = diameter;
  for (std::size_t i = 0; i < k; ++i) {
    const Hop via = static_cast<Hop>(ru[i]) + static_cast<Hop>(rv[i]);
    best = std::min(best, via);
  }
  return best;
}

/// The oracle whose `visit_shell` visitor is running on this thread, if
/// any. Visitors run under the cache mutex, so a query back into the same
/// oracle would self-deadlock; the locking entry points check this first.
thread_local const DistanceOracle* t_visiting = nullptr;

/// Marks this thread as running `oracle`'s visitor for its lifetime.
class VisitorScope {
 public:
  explicit VisitorScope(const DistanceOracle* oracle) : previous_(t_visiting) {
    t_visiting = oracle;
  }
  ~VisitorScope() { t_visiting = previous_; }
  VisitorScope(const VisitorScope&) = delete;
  VisitorScope& operator=(const VisitorScope&) = delete;

 private:
  const DistanceOracle* previous_;
};

[[noreturn]] void throw_depth_overflow(NodeId source) {
  throw std::invalid_argument(
      "graph shortest paths from vertex " + std::to_string(source) +
      " exceed " + std::to_string(kMaxStorableHops) +
      " hops, more than the uint16 distance storage can hold");
}

[[noreturn]] void throw_disconnected(NodeId source, std::size_t reached,
                                     std::size_t n) {
  throw std::invalid_argument(
      "graph topology requires a connected graph (vertex " +
      std::to_string(source) + " reaches only " + std::to_string(reached) +
      " of " + std::to_string(n) + " vertices)");
}

/// Full BFS from `source` into `dist` (must be n entries, kUnreached-
/// filled by the caller). Depth accumulates in a wide Hop so deep graphs
/// throw std::invalid_argument instead of tripping an internal assertion.
/// Returns {vertices reached, eccentricity of source}.
std::pair<std::size_t, Hop> bfs_full(const CompactGraph& graph, NodeId source,
                                     std::uint16_t* dist,
                                     std::vector<NodeId>& frontier) {
  frontier.clear();
  frontier.push_back(source);
  dist[source] = 0;
  Hop depth = 0;
  std::size_t begin = 0;
  while (begin < frontier.size()) {
    const std::size_t level_end = frontier.size();
    if (depth >= kMaxStorableHops) throw_depth_overflow(source);
    ++depth;
    for (std::size_t i = begin; i < level_end; ++i) {
      for (const std::uint32_t v : graph.neighbors(frontier[i])) {
        if (dist[v] == kUnreached) {
          dist[v] = static_cast<std::uint16_t>(depth);
          frontier.push_back(v);
        }
      }
    }
    begin = level_end;
  }
  return {frontier.size(), depth > 0 ? depth - 1 : 0};
}

/// Eccentricities of a fixed source list, computed by multi-source
/// bit-parallel BFS (MS-BFS; Then et al., "The More the Merrier", PVLDB
/// 2014) over up to 64 consecutive sources per sweep. Each vertex keeps
/// one bit per source of the sweep in each of its `seen`, `frontier` and
/// `next` words, so one pass over the active vertices advances the BFS of
/// every source by a level. A source's eccentricity is the last depth at
/// which its bit reached a new vertex: the same value one `bfs_full` per
/// source returns. The graph must be connected.
class EccentricitySweeps {
 public:
  EccentricitySweeps(const CompactGraph& graph, std::vector<NodeId> sources)
      : graph_(graph),
        sources_(std::move(sources)),
        ecc_(sources_.size(), kNotSwept) {}

  /// Eccentricity of source `i`. The first request for a source not yet
  /// swept runs the sweep over sources [i, i + 64). Throws
  /// std::invalid_argument, naming the source, where `bfs_full` would.
  Hop of(std::size_t i) {
    if (ecc_[i] == kNotSwept) sweep(i);
    if (ecc_[i] == kOverflow) throw_depth_overflow(sources_[i]);
    return ecc_[i];
  }

 private:
  static constexpr std::size_t kWidth = 64;
  static constexpr Hop kNotSwept = std::numeric_limits<Hop>::max();
  static constexpr Hop kOverflow = kNotSwept - 1;

  void sweep(std::size_t first) {
    const std::size_t n = graph_.num_vertices();
    if (words_.empty()) {
      words_.resize(n);
      frontier_.resize(n);
      reached_.resize(n + 1);
    } else {
      for (Words& w : words_) w.seen = 0;
    }
    const std::size_t count = std::min(kWidth, sources_.size() - first);
    active_.clear();
    for (std::size_t b = 0; b < count; ++b) {
      const NodeId s = sources_[first + b];
      words_[s].seen = frontier_[s] = std::uint64_t{1} << b;
      active_.push_back(s);
      ecc_[first + b] = 0;
    }
    // Bits whose BFS still has a frontier. `bfs_full` refuses to expand a
    // frontier at depth kMaxStorableHops; so does the sweep, per source.
    std::uint64_t live = count == kWidth ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << count) - 1;
    Hop depth = 0;
    while (!active_.empty()) {
      if (depth >= kMaxStorableHops) {
        for (; live != 0; live &= live - 1) {
          ecc_[first + std::countr_zero(live)] = kOverflow;
        }
        for (const NodeId v : active_) frontier_[v] = 0;
        return;
      }
      ++depth;
      // Branch-free expansion: every edge writes its target into the next
      // slot of `reached_`, but only a target's first fresh bits advance
      // the count (hence the spare slot at the end).
      std::size_t reached = 0;
      for (const NodeId v : active_) {
        const std::uint64_t bits = frontier_[v];
        for (const std::uint32_t w : graph_.neighbors(v)) {
          Words& target = words_[w];
          const std::uint64_t fresh = bits & ~target.seen;
          reached_[reached] = w;
          reached +=
              static_cast<std::size_t>((target.next == 0) & (fresh != 0));
          target.next |= fresh;
        }
      }
      for (const NodeId v : active_) frontier_[v] = 0;
      active_.assign(reached_.begin(), reached_.begin() + reached);
      live = 0;
      for (const NodeId w : active_) {
        Words& target = words_[w];
        target.seen |= target.next;
        frontier_[w] = target.next;
        live |= target.next;
        target.next = 0;
      }
      for (std::uint64_t bits = live; bits != 0; bits &= bits - 1) {
        ecc_[first + std::countr_zero(bits)] = depth;
      }
    }
  }

  /// A vertex's `seen` and `next` words, side by side so that relaxing an
  /// edge touches one cache line.
  struct Words {
    std::uint64_t seen = 0;
    std::uint64_t next = 0;
  };

  const CompactGraph& graph_;
  std::vector<NodeId> sources_;
  std::vector<Hop> ecc_;
  std::vector<Words> words_;
  std::vector<std::uint64_t> frontier_;
  std::vector<NodeId> active_;   ///< vertices with a nonzero frontier word
  std::vector<NodeId> reached_;  ///< n + 1 slots, see the expansion loop
};

}  // namespace

DistanceOracle::DistanceOracle(const CompactGraph& graph, Options options)
    : graph_(&graph), n_(graph.num_vertices()), options_(options) {
  PROXCACHE_REQUIRE(n_ >= 1, "distance oracle needs >= 1 vertex");
  dense_ = n_ <= options_.dense_threshold;
  if (dense_) {
    build_dense(graph);
  } else {
    build_sparse(graph);
  }
}

void DistanceOracle::build_dense(const CompactGraph& graph) {
  const auto n = static_cast<std::uint32_t>(n_);
  dense_dist_.assign(n_ * n_, kUnreached);
  std::vector<NodeId> frontier;
  frontier.reserve(n_);
  for (std::uint32_t source = 0; source < n; ++source) {
    std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(source) * n_;
    const auto [reached, ecc] = bfs_full(graph, source, row, frontier);
    if (reached != n_) throw_disconnected(source, reached, n_);
    diameter_ = std::max<Hop>(diameter_, ecc);
  }
  diameter_exact_ = true;
}

void DistanceOracle::build_sparse(const CompactGraph& graph) {
  mark_depth_.assign(n_, kUnreached);
  const std::size_t k = std::max<std::size_t>(1, std::min(options_.num_landmarks, n_));
  landmark_dist_.assign(k * n_, kUnreached);
  landmarks_.reserve(k);
  std::vector<NodeId> frontier;
  frontier.reserve(n_);
  std::vector<Hop> eccentricity(k, 0);

  // Farthest-point landmark selection: L0 = vertex 0, then each next
  // landmark is the vertex maximizing the distance to its nearest chosen
  // landmark (first argmax in id order — deterministic). L1 is therefore
  // the classic double-sweep endpoint.
  std::vector<std::uint16_t> min_dist(n_, kUnreached);
  for (std::size_t i = 0; i < k; ++i) {
    NodeId source = 0;
    if (i > 0) {
      std::uint16_t best = 0;
      for (NodeId v = 0; v < n_; ++v) {
        if (min_dist[v] > best && min_dist[v] != kUnreached) {
          best = min_dist[v];
          source = v;
        }
      }
      if (best == 0) {  // fewer distinct vertices than landmarks
        landmark_dist_.resize(i * n_);
        eccentricity.resize(i);
        break;
      }
    }
    landmarks_.push_back(source);
    std::uint16_t* row = landmark_dist_.data() + i * n_;
    const auto [reached, ecc] = bfs_full(graph, source, row, frontier);
    if (reached != n_) throw_disconnected(source, reached, n_);
    eccentricity[i] = ecc;
    for (NodeId v = 0; v < n_; ++v) {
      min_dist[v] = std::min(min_dist[v], row[v]);
    }
  }

  // Diameter bounds from the landmark sweeps: every eccentricity is a
  // lower bound, and 2·ecc(L) is an upper bound for any L. iFUB-style
  // refinement from the most central landmark closes the gap exactly on
  // well-behaved graphs within a bounded number of extra BFS passes.
  Hop lower = 0;
  std::size_t central = 0;
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    lower = std::max(lower, eccentricity[i]);
    if (eccentricity[i] < eccentricity[central]) central = i;
  }
  const std::uint16_t* center_row = landmark_dist_.data() + central * n_;
  const Hop center_ecc = eccentricity[central];

  // Bucket the center row by depth once; iFUB walks levels top-down.
  std::vector<std::vector<NodeId>> levels(center_ecc + 1);
  for (NodeId v = 0; v < n_; ++v) levels[center_row[v]].push_back(v);

  // Every source the budget lets iFUB reach, in fold order: the deepest
  // level first, id order within a level. Their eccentricities come from
  // bit-parallel sweeps of up to 64 sources each, run only when the fold
  // reaches a source not swept yet; values past a stop go unused.
  const std::size_t budget = options_.diameter_bfs_budget;
  std::vector<NodeId> sources;
  for (Hop d = center_ecc; d > 0 && sources.size() < budget; --d) {
    const std::size_t take =
        std::min(levels[d].size(), budget - sources.size());
    sources.insert(sources.end(), levels[d].begin(), levels[d].begin() + take);
  }
  EccentricitySweeps eccentricities(graph, std::move(sources));
  std::size_t folded = 0;
  Hop level = center_ecc;
  bool exact = false;
  while (true) {
    if (2 * level <= lower) {  // nothing below can beat the lower bound
      exact = true;
      break;
    }
    if (level == 0) {
      exact = true;
      break;
    }
    const std::size_t take = std::min(levels[level].size(), budget - folded);
    for (std::size_t i = 0; i < take; ++i) {
      lower = std::max(lower, eccentricities.of(folded++));
    }
    if (take < levels[level].size()) break;  // out of budget
    --level;
  }
  if (exact) {
    diameter_ = lower;
    diameter_exact_ = true;
  } else {
    // Unprocessed vertices all sit within `level` of the center, so any
    // pair among them spans at most 2·level hops.
    diameter_ = std::max(lower, 2 * level);
    diameter_exact_ = diameter_ == lower;
  }

  // Transpose to node-major (n × k): a pair query reads each endpoint's
  // k entries from one cache line instead of striding k rows of length n.
  const std::size_t kept = landmarks_.size();
  std::vector<std::uint16_t> by_node(kept * n_);
  for (std::size_t i = 0; i < kept; ++i) {
    const std::uint16_t* row = landmark_dist_.data() + i * n_;
    for (NodeId v = 0; v < n_; ++v) by_node[v * kept + i] = row[v];
  }
  landmark_dist_ = std::move(by_node);
}

Hop DistanceOracle::landmark_upper_bound(NodeId u, NodeId v) const {
  PROXCACHE_REQUIRE(!dense_, "landmark bounds exist only in sparse mode");
  const std::size_t k = landmarks_.size();
  const std::uint16_t* ru = landmark_dist_.data() + std::size_t{u} * k;
  const std::uint16_t* rv = landmark_dist_.data() + std::size_t{v} * k;
  return landmark_bound(ru, rv, k, diameter_);
}

std::lock_guard<std::mutex> DistanceOracle::lock_cache() const {
  PROXCACHE_CHECK(t_visiting != this,
                  "a visit_shell visitor re-entered its distance oracle; "
                  "visitors run under the oracle's cache mutex and must not "
                  "query the oracle or the topology that owns it");
  return std::lock_guard<std::mutex>(cache_mutex_);
}

std::span<const NodeId> DistanceOracle::last_level(const Row& row) {
  const std::size_t levels = row.level_end.size();
  const std::uint32_t begin = levels < 2 ? 0 : row.level_end[levels - 2];
  return std::span<const NodeId>(row.nodes).subspan(
      begin, row.level_end.back() - begin);
}

DistanceOracle::Row& DistanceOracle::row_for(NodeId u) const {
  auto it = rows_.find(u);
  if (it != rows_.end()) {
    touch(u);
    return *it->second.row;
  }
  // A fresh row for `u` must not inherit marks from an evicted incarnation.
  if (mark_owner_ == u) mark_owner_ = kInvalidNode;
  auto row = std::make_unique<Row>();
  row->nodes.push_back(u);
  row->level_end.push_back(1);
  if (n_ == 1) row->complete = true;
  update_budget_depth(*row);
  lru_.push_front(u);
  CacheSlot slot;
  slot.row = std::move(row);
  slot.lru_pos = lru_.begin();
  Row& result = *slot.row;
  rows_.emplace(u, std::move(slot));
  cached_entries_ += 1;
  ++stats_.rows_built;
  evict_to_budget();
  return result;
}

void DistanceOracle::touch(NodeId u) const {
  auto it = rows_.find(u);
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  it->second.lru_pos = lru_.begin();
}

void DistanceOracle::evict_to_budget() const {
  // Never evict the most recent row — it is the one in use by the caller.
  while (cached_entries_ > options_.cache_entry_budget && lru_.size() > 1) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    auto it = rows_.find(victim);
    cached_entries_ -= it->second.row->nodes.size();
    rows_.erase(it);
    if (mark_owner_ == victim) mark_owner_ = kInvalidNode;
    ++stats_.rows_evicted;
  }
}

void DistanceOracle::bind_marks(const Row& row, NodeId source) const {
  if (mark_owner_ == source) return;
  for (const NodeId v : mark_nodes_) mark_depth_[v] = kUnreached;
  mark_nodes_.clear();
  mark_nodes_.reserve(row.nodes.size());
  for (std::size_t d = 0; d < row.level_end.size(); ++d) {
    const std::uint32_t begin = d == 0 ? 0 : row.level_end[d - 1];
    for (std::uint32_t i = begin; i < row.level_end[d]; ++i) {
      mark_depth_[row.nodes[i]] = static_cast<std::uint16_t>(d);
      mark_nodes_.push_back(row.nodes[i]);
    }
  }
  mark_owner_ = source;
}

void DistanceOracle::extend_row(Row& row, NodeId source) const {
  if (row.complete) return;
  bind_marks(row, source);
  const Hop depth = static_cast<Hop>(row.level_end.size());
  if (depth > kMaxStorableHops) throw_depth_overflow(source);
  std::vector<NodeId> next;
  for (const NodeId u : last_level(row)) {
    for (const std::uint32_t v : graph_->neighbors(u)) {
      if (mark_depth_[v] == kUnreached) {
        mark_depth_[v] = static_cast<std::uint16_t>(depth);
        mark_nodes_.push_back(v);
        next.push_back(v);
      }
    }
  }
  if (next.empty()) {
    row.complete = true;
  } else {
    // Levels are exposed in increasing node-id order — the same order the
    // dense row scan enumerates, so shell enumeration is regime-invariant.
    std::sort(next.begin(), next.end());
    row.nodes.insert(row.nodes.end(), next.begin(), next.end());
    row.level_end.push_back(static_cast<std::uint32_t>(row.nodes.size()));
    cached_entries_ += next.size();
  }
  update_budget_depth(row);
}

void DistanceOracle::update_budget_depth(Row& row) const {
  if (row.budget_depth_known) return;
  // B*(u) ends at the first level whose *predicted* successor cannot fit:
  // the next level's size is bounded by the current level's degree sum
  // (capped at n — degree sums overcount already-visited neighbors), so
  // the ball is truncated *before* any level that could push it past the
  // budget. |B*(u)| <= min(budget, n) always — heavy-tailed graphs never
  // materialize a 10x-overshoot hub level on the distance path — and the
  // horizon stays a pure function of the graph and the budget.
  for (std::size_t d = 0; d < row.level_end.size(); ++d) {
    std::size_t degree_sum = 0;
    const std::uint32_t begin = d == 0 ? 0 : row.level_end[d - 1];
    for (std::uint32_t i = begin; i < row.level_end[d]; ++i) {
      degree_sum += graph_->degree(row.nodes[i]);
    }
    const std::size_t predicted =
        std::min(row.level_end[d] + degree_sum, n_);
    if (predicted > options_.distance_ball_budget) {
      row.budget_depth = static_cast<std::uint16_t>(d);
      row.budget_depth_known = true;
      return;
    }
  }
  if (row.complete) {
    row.budget_depth = static_cast<std::uint16_t>(row.level_end.size() - 1);
    row.budget_depth_known = true;
  }
}

void DistanceOracle::ensure_depth(Row& row, NodeId source, Hop d) const {
  // The stored row never grows past the budget horizon: once the budget
  // depth is known, deeper shell/ball queries stream from the frontier
  // (stream_beyond) instead of materializing levels into the cache.
  while (!row.complete && !row.budget_depth_known &&
         row.level_end.size() <= d) {
    extend_row(row, source);
  }
}

void DistanceOracle::stream_beyond(
    const Row& row, NodeId source, Hop target,
    FunctionRef<void(Hop, const std::vector<NodeId>&)> fn) const {
  if (row.complete) return;
  bind_marks(row, source);
  std::span<const NodeId> frontier = last_level(row);
  std::vector<NodeId> level;
  std::vector<NodeId> next;
  auto depth = static_cast<Hop>(row.level_end.size());
  while (depth <= target) {
    if (depth > kMaxStorableHops) throw_depth_overflow(source);
    next.clear();
    for (const NodeId u : frontier) {
      for (const std::uint32_t v : graph_->neighbors(u)) {
        if (mark_depth_[v] == kUnreached) {
          mark_depth_[v] = static_cast<std::uint16_t>(depth);
          mark_nodes_.push_back(v);
          next.push_back(v);
        }
      }
    }
    if (next.empty()) break;
    // Same increasing-id level order the stored rows and the dense scan
    // expose; BFS level sets do not depend on intra-level order.
    std::sort(next.begin(), next.end());
    fn(depth, next);
    level.swap(next);
    frontier = level;
    ++depth;
  }
  // The marks now carry streamed levels the stored row does not own;
  // force a clean rebind before the next marked query.
  mark_owner_ = kInvalidNode;
}

void DistanceOracle::ensure_budget_depth(Row& row, NodeId source) const {
  while (!row.budget_depth_known) extend_row(row, source);
}

Hop DistanceOracle::budget_ball_depth(NodeId u) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) return diameter_;
  std::lock_guard<std::mutex> lock = lock_cache();
  Row& row = row_for(u);
  ensure_budget_depth(row, u);
  return row.budget_depth;
}

std::uint16_t DistanceOracle::depth_in_budget_ball(Row& row, NodeId source,
                                                   NodeId v) const {
  // Lazy budget-ball growth: stop as soon as `v` turns up. A node found
  // before the budget is met is inside B*(source) by definition, so the
  // answer is identical to the eager build — just without paying for the
  // full budget ball when `v` is close.
  while (true) {
    const std::uint16_t d = mark_depth_[v];
    if (d != kUnreached &&
        (!row.budget_depth_known || d <= row.budget_depth)) {
      return d;
    }
    if (row.budget_depth_known) return kUnreached;
    extend_row(row, source);
  }
}

Hop DistanceOracle::distance(NodeId u, NodeId v) const {
  PROXCACHE_REQUIRE(u < n_ && v < n_, "node id out of range");
  if (dense_) return dense_distance(u, v);
  if (u == v) return 0;
  {
    std::lock_guard<std::mutex> lock = lock_cache();
    Row& row = row_for(u);
    bind_marks(row, u);
    const std::uint16_t d = depth_in_budget_ball(row, u, v);
    if (d != kUnreached) {
      ++stats_.exact_answers;
      return d;
    }
    ++stats_.landmark_answers;
  }
  return landmark_upper_bound(u, v);
}

void DistanceOracle::distances(NodeId u, std::span<const NodeId> vs,
                               std::span<Hop> out) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  PROXCACHE_REQUIRE(out.size() == vs.size(), "one output slot per target");
  for (const NodeId v : vs) PROXCACHE_REQUIRE(v < n_, "node id out of range");
  const std::size_t count = vs.size();
  if (dense_) {
    const std::uint16_t* row = dense_dist_.data() + std::size_t{u} * n_;
    for (std::size_t i = 0; i < count; ++i) out[i] = row[vs[i]];
    return;
  }
  // Under the mutex, in list order so lazy growth and the counters follow
  // the per-pair loop: exact answers from the budget ball; landmark cases
  // are only flagged. The row is resolved at the first `v != u`, where
  // the per-pair loop would first touch it.
  bool pending = false;
  {
    std::lock_guard<std::mutex> lock = lock_cache();
    Row* row = nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId v = vs[i];
      if (v == u) {
        out[i] = 0;
        continue;
      }
      if (row == nullptr) {
        row = &row_for(u);
        bind_marks(*row, u);
      }
      const std::uint16_t d = depth_in_budget_ball(*row, u, v);
      if (d != kUnreached) {
        ++stats_.exact_answers;
        out[i] = d;
      } else {
        ++stats_.landmark_answers;
        out[i] = kLandmarkPending;
        pending = true;
      }
    }
  }
  if (!pending) return;
  // The landmark table is immutable: estimates need no lock. `u`'s entries
  // are read once; later targets' entries are prefetched (k · n · 2 bytes,
  // 32 MB at a million nodes).
  const std::size_t k = landmarks_.size();
  const std::uint16_t* table = landmark_dist_.data();
  const std::uint16_t* ru = table + std::size_t{u} * k;
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kPrefetchAhead < count &&
        out[i + kPrefetchAhead] == kLandmarkPending) {
      __builtin_prefetch(table + std::size_t{vs[i + kPrefetchAhead]} * k);
    }
    if (out[i] == kLandmarkPending) {
      out[i] = landmark_bound(ru, table + std::size_t{vs[i]} * k, k,
                              diameter_);
    }
  }
}

std::optional<Hop> DistanceOracle::certified_distance(NodeId u,
                                                      NodeId v) const {
  PROXCACHE_REQUIRE(u < n_ && v < n_, "node id out of range");
  if (dense_) return dense_distance(u, v);
  if (u == v) return 0;
  std::lock_guard<std::mutex> lock = lock_cache();
  Row& row = row_for(u);
  bind_marks(row, u);
  const std::uint16_t d = depth_in_budget_ball(row, u, v);
  if (d == kUnreached) return std::nullopt;
  return static_cast<Hop>(d);
}

void DistanceOracle::visit_shell(NodeId u, Hop d, OracleNodeVisitor fn) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) {
    if (d > diameter_) return;
    const std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(u) * n_;
    const auto target = static_cast<std::uint16_t>(d);
    for (NodeId v = 0; v < n_; ++v) {
      if (row[v] == target) fn(v);
    }
    return;
  }
  std::lock_guard<std::mutex> lock = lock_cache();
  const VisitorScope scope(this);
  Row& row = row_for(u);
  ensure_depth(row, u, d);
  if (d < row.level_end.size()) {
    const std::uint32_t begin = d == 0 ? 0 : row.level_end[d - 1];
    const std::uint32_t end = row.level_end[d];
    for (std::uint32_t i = begin; i < end; ++i) fn(row.nodes[i]);
    return;
  }
  stream_beyond(row, u, d, [&](Hop depth, const std::vector<NodeId>& level) {
    if (depth == d) {
      for (const NodeId v : level) fn(v);
    }
  });
}

std::size_t DistanceOracle::shell_size(NodeId u, Hop d) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) {
    if (d > diameter_) return 0;
    const std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(u) * n_;
    const auto target = static_cast<std::uint16_t>(d);
    std::size_t count = 0;
    for (NodeId v = 0; v < n_; ++v) {
      if (row[v] == target) ++count;
    }
    return count;
  }
  std::lock_guard<std::mutex> lock = lock_cache();
  Row& row = row_for(u);
  ensure_depth(row, u, d);
  if (d < row.level_end.size()) {
    const std::uint32_t begin = d == 0 ? 0 : row.level_end[d - 1];
    return row.level_end[d] - begin;
  }
  std::size_t count = 0;
  stream_beyond(row, u, d, [&](Hop depth, const std::vector<NodeId>& level) {
    if (depth == d) count = level.size();
  });
  return count;
}

std::size_t DistanceOracle::ball_size(NodeId u, Hop r) const {
  PROXCACHE_REQUIRE(u < n_, "node id out of range");
  if (dense_) {
    const std::uint16_t* row = dense_dist_.data() + static_cast<std::size_t>(u) * n_;
    const Hop cap = std::min<Hop>(r, diameter_);
    std::size_t count = 0;
    for (NodeId v = 0; v < n_; ++v) {
      if (row[v] <= cap) ++count;
    }
    return count;
  }
  std::lock_guard<std::mutex> lock = lock_cache();
  Row& row = row_for(u);
  ensure_depth(row, u, r);
  const std::size_t top = std::min<std::size_t>(r, row.level_end.size() - 1);
  std::size_t count = row.level_end[top];
  if (r >= row.level_end.size()) {
    stream_beyond(row, u, r,
                  [&](Hop depth, const std::vector<NodeId>& level) {
                    (void)depth;
                    count += level.size();
                  });
  }
  return count;
}

std::size_t DistanceOracle::cached_entries() const {
  std::lock_guard<std::mutex> lock = lock_cache();
  return cached_entries_;
}

DistanceOracle::Stats DistanceOracle::stats() const {
  std::lock_guard<std::mutex> lock = lock_cache();
  return stats_;
}

}  // namespace proxcache
