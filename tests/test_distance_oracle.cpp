// Scalable distance layer (graph/distance_oracle.hpp): the sparse regime
// (on-demand truncated BFS + landmark upper bounds) must agree with the
// dense all-pairs matrix wherever it claims exactness, answer
// history-independently (no query order, eviction, or cache effect may
// change a result), keep shells exact and id-sorted in both regimes, and
// reject over-deep graphs with a user-facing error instead of an internal
// assertion. The landmark approximation is checked against exact BFS on
// every registered topology at small n. The bulk `distances` query must
// leave answers, counters and cache occupancy exactly where the per-pair
// loop does, also under concurrent callers.
#include "graph/distance_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "topology/graph_topology.hpp"
#include "topology/hyperbolic.hpp"
#include "topology/registry.hpp"
#include "random/rng.hpp"
#include "spatial/replica_index.hpp"
#include "topology/spec.hpp"

namespace proxcache {
namespace {

/// CSR graph from any topology's distance-1 shells — lets the oracle be
/// exercised on lattices, rings and trees too, not just native graphs.
CompactGraph graph_from(const Topology& topology) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (NodeId u = 0; u < topology.size(); ++u) {
    for (const NodeId v : topology.neighbors(u)) {
      if (v > u) {
        edges.emplace_back(static_cast<std::uint32_t>(u),
                           static_cast<std::uint32_t>(v));
      }
    }
  }
  return CompactGraph::from_edges(
      static_cast<std::uint32_t>(topology.size()), std::move(edges));
}

DistanceOracle::Options sparse_exact_options(std::size_t n) {
  DistanceOracle::Options options;
  options.dense_threshold = 0;        // force the sparse machinery
  options.distance_ball_budget = n;   // ...with full exactness
  return options;
}

TEST(DistanceOracle, SparseAgreesWithDenseEverywhereWithinBudget) {
  const auto rgg = make_rgg_topology(180, 0.14, 21);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle dense(graph, DistanceOracle::Options{});
  ASSERT_TRUE(dense.exact());
  const DistanceOracle sparse(graph, sparse_exact_options(n));
  ASSERT_FALSE(sparse.exact());

  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(sparse.distance(u, v), dense.distance(u, v))
          << "pair (" << u << ", " << v << ")";
      const auto certified = sparse.certified_distance(u, v);
      ASSERT_TRUE(certified.has_value()) << "budget covers the whole graph";
      EXPECT_EQ(*certified, dense.distance(u, v));
    }
  }
  EXPECT_EQ(sparse.diameter(), dense.diameter());
  EXPECT_TRUE(sparse.diameter_is_exact());
  EXPECT_EQ(sparse.stats().landmark_answers, 0u)
      << "budget >= n must never fall back to landmarks";
}

TEST(DistanceOracle, ShellsAreExactAndIdSortedInBothRegimes) {
  const auto rgg = make_rgg_topology(150, 0.16, 4);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle dense(graph, DistanceOracle::Options{});
  // A *small* ball budget: shells must stay exact beyond the distance
  // horizon (they extend the row as deep as the query asks).
  DistanceOracle::Options options = sparse_exact_options(n);
  options.distance_ball_budget = 8;
  const DistanceOracle sparse(graph, options);

  for (const NodeId u : {static_cast<NodeId>(0), static_cast<NodeId>(n / 2),
                         static_cast<NodeId>(n - 1)}) {
    std::size_t ball = 0;
    for (Hop d = 0; d <= dense.diameter() + 1; ++d) {
      std::vector<NodeId> from_dense;
      std::vector<NodeId> from_sparse;
      dense.visit_shell(u, d, [&](NodeId v) { from_dense.push_back(v); });
      sparse.visit_shell(u, d, [&](NodeId v) { from_sparse.push_back(v); });
      EXPECT_EQ(from_sparse, from_dense)
          << "shell d=" << d << " of " << u
          << " must match the dense row scan element-wise";
      EXPECT_TRUE(
          std::is_sorted(from_sparse.begin(), from_sparse.end()))
          << "shells enumerate in increasing node-id order";
      EXPECT_EQ(sparse.shell_size(u, d), from_dense.size());
      ball += from_dense.size();
      EXPECT_EQ(sparse.ball_size(u, d), std::min(ball, n));
    }
  }
}

TEST(DistanceOracle, AnswersAreHistoryIndependent) {
  const auto rgg = make_rgg_topology(200, 0.12, 8);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 24;  // most far pairs go to landmarks
  options.cache_entry_budget = 64;    // constant eviction churn
  const DistanceOracle churned(graph, options);

  // Warm the churned oracle through an adversarial access pattern: deep
  // shell walks (rows grown far beyond the budget ball), then scattered
  // distance queries that evict those rows repeatedly.
  for (NodeId u = 0; u < n; u += 7) {
    (void)churned.ball_size(u, churned.diameter());
  }
  for (NodeId u = 0; u < n; ++u) {
    (void)churned.distance(u, (u * 31 + 5) % n);
  }
  EXPECT_GT(churned.stats().rows_evicted, 0u)
      << "the tiny cache budget must actually churn";

  // Every answer must equal the one a *fresh* oracle gives first thing:
  // exactness is a function of the graph and the budget, never of what
  // was asked before or what the LRU kept.
  const DistanceOracle fresh(graph, options);
  for (NodeId u = 0; u < n; u += 3) {
    for (NodeId v = 0; v < n; v += 5) {
      EXPECT_EQ(churned.distance(u, v), fresh.distance(u, v))
          << "pair (" << u << ", " << v << ")";
      EXPECT_EQ(churned.certified_distance(u, v).has_value(),
                fresh.certified_distance(u, v).has_value())
          << "exactness horizon drifted for (" << u << ", " << v << ")";
    }
  }
}

TEST(DistanceOracle, CertifiedDistancesAreExactAndBoundsNeverUnderestimate) {
  const auto rgg = make_rgg_topology(220, 0.11, 13);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle reference(graph, sparse_exact_options(n));
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 16;
  options.num_landmarks = 8;
  const DistanceOracle oracle(graph, options);

  std::uint64_t approximated = 0;
  for (NodeId u = 0; u < n; u += 2) {
    for (NodeId v = 0; v < n; v += 3) {
      const Hop exact = reference.distance(u, v);
      const Hop answer = oracle.distance(u, v);
      const auto certified = oracle.certified_distance(u, v);
      if (certified.has_value()) {
        EXPECT_EQ(*certified, exact) << "(" << u << ", " << v << ")";
        EXPECT_EQ(answer, exact);
      } else {
        EXPECT_GE(answer, exact)
            << "landmark estimates are upper bounds, never below the truth";
        EXPECT_LE(answer, 2 * oracle.diameter());
        ++approximated;
      }
    }
  }
  EXPECT_GT(approximated, 0u)
      << "a 16-node ball budget must push far pairs to the landmark path";
  EXPECT_GE(oracle.diameter(), reference.diameter())
      << "diameter may be an upper bound but never an underestimate";
}

TEST(DistanceOracle, LandmarkBoundHoldsOnEveryRegisteredTopology) {
  // One small spec per registered topology; the completeness assertion
  // below forces this table to grow with the registry.
  const std::map<std::string, std::string> small_specs = {
      {"torus", "torus(side=6)"},
      {"grid", "grid(side=6)"},
      {"ring", "ring(n=48)"},
      {"tree", "tree(branching=3, depth=3)"},
      {"rgg", "rgg(n=64, radius=0.22, seed=3)"},
      {"hyperbolic", "hyperbolic(n=64, degree=6, alpha=0.8, seed=2)"},
      {"clique", "clique(n=24)"},
  };
  const TopologyRegistry& registry = TopologyRegistry::built_ins();
  for (const TopologyEntry& entry : registry.all()) {
    ASSERT_TRUE(small_specs.count(entry.name))
        << "new topology '" << entry.name
        << "' needs a row in the landmark-bound suite";
  }

  for (const auto& [name, spec] : small_specs) {
    const auto topology = registry.make(parse_topology_spec(spec));
    const CompactGraph graph = graph_from(*topology);
    const std::size_t n = graph.num_vertices();
    const DistanceOracle exact(graph, sparse_exact_options(n));
    DistanceOracle::Options options;
    options.dense_threshold = 0;
    options.distance_ball_budget = 4;  // landmark path for most pairs
    options.num_landmarks = 6;
    const DistanceOracle oracle(graph, options);

    double total_error = 0.0;
    std::size_t pairs = 0;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        const Hop truth = exact.distance(u, v);
        const Hop bound = oracle.landmark_upper_bound(u, v);
        ASSERT_GE(bound, truth) << spec << " (" << u << ", " << v << ")";
        ASSERT_LE(bound, 2 * exact.diameter()) << spec;
        total_error += static_cast<double>(bound - truth) /
                       static_cast<double>(truth);
        ++pairs;
      }
    }
    // Loose locked ceiling: farthest-point landmarks keep the *mean*
    // relative overestimate below one diameter-hop of slack on every
    // catalog topology. Small-diameter expanders (hyperbolic) sit highest
    // — truth 1 vs bound 2 already costs 100% — so the ceiling only
    // catches gross regressions, not model-level looseness.
    EXPECT_LE(total_error / static_cast<double>(pairs), 1.0) << spec;
  }
}

TEST(DistanceOracle, OverDeepGraphsThrowNamingTheSourceVertex) {
  // A path longer than the uint16 distance range: the old dense code
  // tripped an internal assertion; the contract is now a user-facing
  // std::invalid_argument naming the BFS source.
  const std::uint32_t n = 70'000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(n - 1);
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  CompactGraph path = CompactGraph::from_edges(n, std::move(edges));
  try {
    const DistanceOracle oracle(path, DistanceOracle::Options{});
    FAIL() << "a 70k-vertex path exceeds uint16 distances and must throw";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("vertex 0"), std::string::npos)
        << "message must name the offending source: " << message;
    EXPECT_NE(message.find("65534"), std::string::npos)
        << "message must state the storage limit: " << message;
  }
}

TEST(DistanceOracle, DisconnectedGraphsAreRejectedInBothRegimes) {
  CompactGraph split_small = CompactGraph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(DistanceOracle(split_small, DistanceOracle::Options{}),
               std::invalid_argument);
  CompactGraph split_again = CompactGraph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(DistanceOracle(split_again, sparse_exact_options(4)),
               std::invalid_argument);
}

TEST(DistanceOracle, LruEvictionKeepsMemoryBoundedWithoutChangingAnswers) {
  const auto rgg = make_rgg_topology(160, 0.15, 30);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  DistanceOracle::Options options = sparse_exact_options(n);
  options.cache_entry_budget = 2 * n;  // room for ~2 full rows
  const DistanceOracle oracle(graph, options);
  const DistanceOracle reference(graph, sparse_exact_options(n));

  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(oracle.distance(u, (u + n / 2) % n),
              reference.distance(u, (u + n / 2) % n));
  }
  const DistanceOracle::Stats stats = oracle.stats();
  EXPECT_EQ(stats.rows_built, static_cast<std::uint64_t>(n));
  EXPECT_GT(stats.rows_evicted, 0u);
  EXPECT_EQ(stats.landmark_answers, 0u);
}

TEST(DistanceOracle, DeepBallWalksStreamWithoutGrowingResidentRows) {
  const auto rgg = make_rgg_topology(200, 0.12, 13);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  const DistanceOracle dense(graph, DistanceOracle::Options{});
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 16;
  // Roomy for budget-truncated rows but far below what n full BFS rows
  // would need — if a deep walk ever materialized whole rows again, the
  // LRU would fire and the eviction counter below would catch it.
  options.cache_entry_budget = n * 64;
  const DistanceOracle sparse(graph, options);

  // A diameter-deep ball walk from every source stays exact (every node
  // visited exactly once per source across the shells)...
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(sparse.ball_size(u, dense.diameter()), n) << "source " << u;
  }
  for (const NodeId u : {static_cast<NodeId>(0), static_cast<NodeId>(n / 3)}) {
    std::size_t visited = 0;
    for (Hop d = 0; d <= dense.diameter(); ++d) {
      std::vector<NodeId> from_dense;
      std::vector<NodeId> from_sparse;
      dense.visit_shell(u, d, [&](NodeId v) { from_dense.push_back(v); });
      sparse.visit_shell(u, d, [&](NodeId v) { from_sparse.push_back(v); });
      EXPECT_EQ(from_sparse, from_dense) << "shell d=" << d << " of " << u;
      visited += from_sparse.size();
    }
    EXPECT_EQ(visited, n) << "shells of " << u << " must partition the graph";
  }

  // ...while resident memory stays at the budget horizon: streamed levels
  // never enter the cache, so no row exceeds the ball budget and nothing
  // is ever evicted.
  EXPECT_LE(sparse.cached_entries(), n * options.distance_ball_budget);
  EXPECT_EQ(sparse.stats().rows_built, static_cast<std::uint64_t>(n));
  EXPECT_EQ(sparse.stats().rows_evicted, 0u)
      << "deep ball walks must not blow the row cache past its budget";
}

// ---------------------------------------------------------------------------
// Bulk queries: `distances(u, vs)` against a twin oracle asked pair by pair.
// ---------------------------------------------------------------------------

void expect_same_state(const DistanceOracle& batched,
                       const DistanceOracle& twin, const std::string& label) {
  const DistanceOracle::Stats a = batched.stats();
  const DistanceOracle::Stats b = twin.stats();
  EXPECT_EQ(a.rows_built, b.rows_built) << label;
  EXPECT_EQ(a.rows_evicted, b.rows_evicted) << label;
  EXPECT_EQ(a.exact_answers, b.exact_answers) << label;
  EXPECT_EQ(a.landmark_answers, b.landmark_answers) << label;
  EXPECT_EQ(batched.cached_entries(), twin.cached_entries()) << label;
}

/// One list through `batched.distances` and through `twin.distance` pair
/// by pair; answers, counters and cache occupancy must agree afterwards.
void expect_batch_matches_pairs(const DistanceOracle& batched,
                                const DistanceOracle& twin, NodeId u,
                                const std::vector<NodeId>& vs,
                                const std::string& label) {
  std::vector<Hop> out(vs.size(), kUnboundedRadius - 1);
  batched.distances(u, vs, out);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    ASSERT_EQ(out[i], twin.distance(u, vs[i]))
        << label << " u=" << u << " v=" << vs[i] << " at " << i;
  }
  expect_same_state(batched, twin,
                    label + " u=" + std::to_string(u) +
                        " len=" + std::to_string(vs.size()));
}

/// `count` targets drawn uniformly with replacement (so with duplicates),
/// plus the source itself at a few fixed positions.
std::vector<NodeId> target_list(std::size_t n, NodeId u, std::size_t count,
                                Rng& rng) {
  std::vector<NodeId> vs(count);
  for (NodeId& v : vs) v = static_cast<NodeId>(rng.below(n));
  for (const std::size_t at : {std::size_t{0}, count / 2, count - 1}) {
    if (at < count) vs[at] = u;
  }
  return vs;
}

/// The differential schedule on one graph and option set: empty lists,
/// all-source lists, duplicates, lengths straddling the replica scan's
/// chunk, deep shell streams between lists (they force a mark rebind, for
/// the list's source and for others), repeated sources and fresh ones.
void run_batch_differential(const CompactGraph& graph,
                            const DistanceOracle::Options& options,
                            const std::string& label) {
  const DistanceOracle batched(graph, options);
  const DistanceOracle twin(graph, options);
  const std::size_t n = graph.num_vertices();
  const std::size_t chunk = ReplicaIndex::kDistanceChunk;
  Rng rng(99);

  // Empty and source-only lists build no row and count nothing.
  expect_batch_matches_pairs(batched, twin, 3, {}, label + " empty");
  expect_batch_matches_pairs(batched, twin, 3, {3, 3, 3},
                             label + " source only");
  expect_same_state(batched, twin, label + " before any row");
  EXPECT_EQ(batched.stats().rows_built, 0u) << label;

  // Near targets only: the per-pair loop grows a fresh row just deep
  // enough to reach them, so the batch must not grow it any further.
  for (const NodeId u : {NodeId{5}, NodeId{6}}) {
    std::vector<NodeId> near = {u};
    for (const std::uint32_t v : graph.neighbors(u)) near.push_back(v);
    expect_batch_matches_pairs(batched, twin, u, near, label + " neighbors");
  }

  const std::vector<std::size_t> lengths = {1,     2,         chunk - 1,
                                            chunk, chunk + 1, 1000};
  for (std::size_t round = 0; round < 12; ++round) {
    const auto u = static_cast<NodeId>(round % 3 == 0 ? round % 4
                                                      : rng.below(n));
    for (const std::size_t length : lengths) {
      expect_batch_matches_pairs(batched, twin, u,
                                 target_list(n, u, length, rng),
                                 label + " round " + std::to_string(round));
    }
    // A deep shell stream from the same source and from another one: both
    // leave the marks bound to streamed levels the stored rows do not own.
    const Hop deep = batched.diameter();
    const auto other = static_cast<NodeId>(rng.below(n));
    for (const NodeId w : {u, other}) {
      std::size_t a = 0;
      std::size_t b = 0;
      batched.visit_shell(w, deep, [&](NodeId) { ++a; });
      twin.visit_shell(w, deep, [&](NodeId) { ++b; });
      EXPECT_EQ(a, b) << label;
      EXPECT_EQ(batched.ball_size(w, deep), twin.ball_size(w, deep)) << label;
    }
    expect_batch_matches_pairs(batched, twin, u,
                               target_list(n, u, chunk + 1, rng),
                               label + " after shells");
  }
}

TEST(DistanceOracleBatch, SparseRggMatchesThePerPairLoop) {
  const auto rgg = make_rgg_topology(600, 0.07, 5);
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  // Exact near, landmark far; several levels deep, so lazy growth shows.
  options.distance_ball_budget = 160;
  run_batch_differential(rgg->graph(), options, "rgg");

  const DistanceOracle probe(rgg->graph(), options);
  std::vector<Hop> out(300);
  std::vector<NodeId> vs(300);
  for (NodeId v = 0; v < 300; ++v) vs[v] = 2 * v;
  probe.distances(0, vs, out);
  EXPECT_GT(probe.stats().exact_answers, 0u) << "both answer kinds occur";
  EXPECT_GT(probe.stats().landmark_answers, 0u) << "both answer kinds occur";
}

TEST(DistanceOracleBatch, SparseHyperbolicMatchesThePerPairLoop) {
  const auto hyperbolic = make_hyperbolic_topology(700, 6.0, 0.8, 3);
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 40;
  options.num_landmarks = 8;
  run_batch_differential(hyperbolic->graph(), options, "hyperbolic");
}

TEST(DistanceOracleBatch, LruEvictionsMatchThePerPairLoop) {
  const auto rgg = make_rgg_topology(400, 0.09, 12);
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 32;
  options.cache_entry_budget = 40;  // about one row: every new source evicts
  run_batch_differential(rgg->graph(), options, "tiny cache");
  const DistanceOracle churned(rgg->graph(), options);
  Rng rng(5);
  for (NodeId u = 0; u < 20; ++u) {
    std::vector<Hop> out(64);
    churned.distances(u, target_list(400, u, 64, rng), out);
  }
  EXPECT_GT(churned.stats().rows_evicted, 0u) << "the budget must churn";
}

TEST(DistanceOracleBatch, DenseMatrixMatchesThePerPairLoop) {
  const auto rgg = make_rgg_topology(300, 0.1, 9);
  const DistanceOracle dense(rgg->graph(), DistanceOracle::Options{});
  ASSERT_TRUE(dense.exact());
  run_batch_differential(rgg->graph(), DistanceOracle::Options{}, "dense");
  EXPECT_EQ(dense.cached_entries(), 0u);
}

TEST(DistanceOracleBatch, GraphTopologyForwardsToTheOracle) {
  const auto rgg = make_rgg_topology(500, 0.08, 2, [] {
    DistanceOracle::Options options;
    options.dense_threshold = 64;
    options.distance_ball_budget = 40;
    return options;
  }());
  ASSERT_FALSE(rgg->oracle().exact());
  Rng rng(8);
  const std::vector<NodeId> vs = target_list(500, 17, 300, rng);
  std::vector<Hop> out(vs.size());
  const Topology& topology = *rgg;
  topology.distances(17, vs, out);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_EQ(out[i], rgg->distance(17, vs[i])) << "target " << vs[i];
  }
  const auto others = static_cast<std::uint64_t>(
      std::count_if(vs.begin(), vs.end(), [](NodeId v) { return v != 17; }));
  EXPECT_EQ(rgg->oracle().stats().exact_answers +
                rgg->oracle().stats().landmark_answers,
            2 * others)
      << "one count per non-source target per query, batched or not";
  std::vector<Hop> short_out(vs.size() - 1);
  EXPECT_THROW(topology.distances(17, vs, short_out), std::invalid_argument);
  const std::vector<NodeId> out_of_range = {500};
  std::vector<Hop> one(1);
  EXPECT_THROW(topology.distances(17, out_of_range, one),
               std::invalid_argument);
}

TEST(DistanceOracleBatch, ConcurrentBatchedAndPerPairQueriesMatchSerialAnswers) {
  // Four threads share one sparse oracle with a cache small enough that
  // they keep evicting each other's rows; every answer must equal the
  // serial one (answers are history-independent). Run under TSan in CI.
  const auto rgg = make_rgg_topology(800, 0.06, 17);
  const CompactGraph& graph = rgg->graph();
  const std::size_t n = graph.num_vertices();
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 64;
  options.cache_entry_budget = 256;
  const DistanceOracle shared(graph, options);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kListsPerThread = 40;
  struct Query {
    NodeId u;
    std::vector<NodeId> vs;
    std::vector<Hop> expected;
  };
  std::vector<std::vector<Query>> work(kThreads);
  const DistanceOracle serial(graph, options);
  Rng rng(1234);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t q = 0; q < kListsPerThread; ++q) {
      Query query;
      query.u = static_cast<NodeId>(rng.below(n));
      query.vs = target_list(n, query.u, 1 + rng.below(400), rng);
      for (const NodeId v : query.vs) {
        query.expected.push_back(serial.distance(query.u, v));
      }
      work[t].push_back(std::move(query));
    }
  }

  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t q = 0; q < work[t].size(); ++q) {
        const Query& query = work[t][q];
        std::vector<Hop> out(query.vs.size());
        if ((q + t) % 2 == 0) {
          shared.distances(query.u, query.vs, out);
        } else {
          for (std::size_t i = 0; i < query.vs.size(); ++i) {
            out[i] = shared.distance(query.u, query.vs[i]);
          }
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
          if (out[i] != query.expected[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  EXPECT_GT(shared.stats().rows_evicted, 0u) << "the threads must contend";
}

// A visit_shell visitor runs under the sparse oracle's cache mutex, so a
// query back into the same oracle from inside it would self-deadlock. It
// must fail loudly instead, through every locking entry point, and leave
// the oracle usable afterwards.
TEST(DistanceOracle, VisitorReentryThrowsInsteadOfDeadlocking) {
  const auto rgg = make_rgg_topology(200, 0.12, 8);
  DistanceOracle::Options options;
  options.dense_threshold = 0;
  options.distance_ball_budget = 32;
  const DistanceOracle oracle(rgg->graph(), options);
  std::vector<Hop> out(2);
  const std::vector<NodeId> vs = {1, 2};
  const std::vector<std::pair<std::string, std::function<void()>>> reentries =
      {{"distance", [&] { (void)oracle.distance(0, 5); }},
       {"distances", [&] { oracle.distances(0, vs, out); }},
       {"certified_distance", [&] { (void)oracle.certified_distance(0, 5); }},
       {"visit_shell", [&] { oracle.visit_shell(3, 1, [](NodeId) {}); }},
       {"shell_size", [&] { (void)oracle.shell_size(3, 1); }},
       {"ball_size", [&] { (void)oracle.ball_size(3, 1); }},
       {"budget_ball_depth", [&] { (void)oracle.budget_ball_depth(3); }},
       {"stats", [&] { (void)oracle.stats(); }},
       {"cached_entries", [&] { (void)oracle.cached_entries(); }}};
  for (const auto& [name, reenter] : reentries) {
    EXPECT_THROW(oracle.visit_shell(0, 1, [&](NodeId) { reenter(); }),
                 std::logic_error)
        << name;
  }
  // The throw unwound the visitor mark and the lock: the oracle still
  // answers, and a visitor may query a *different* oracle.
  const DistanceOracle other(rgg->graph(), options);
  std::size_t visited = 0;
  oracle.visit_shell(0, 1, [&](NodeId v) {
    EXPECT_EQ(other.distance(0, v), 1u);
    ++visited;
  });
  EXPECT_GT(visited, 0u);
  EXPECT_EQ(oracle.distance(0, 0), 0u);
}

}  // namespace
}  // namespace proxcache
