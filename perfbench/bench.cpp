// perfbench: runs one benchmark workload through the library's public
// entry points and prints one JSON object per line on stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--spans <path>]
//
// Untraced (--trace 0): the single-threaded cells repeat fixed-size calls,
// round-robin, for --seconds and report each call's wall and CPU time and
// simulated outputs, beside the time of a reference kernel run once per
// round to gauge the host's speed; the 4-thread cells run once, for the
// checks. `perfbench/run.py`
// turns the records into the end-to-end metrics and checks the outputs.
// Traced (--trace 1): every cell runs a fixed amount of work with spans
// recorded around the calls into each module, and reports raw per-layer
// counters; the spans go to --spans.
//
// Only public specs and `threads` select a cell. The width-1 batch schedule
// is driven by hand through RunHarness (propose on per-request pinned
// streams, then choose + commit in request order), which is the schedule
// every `threads >= 2` run must reproduce exactly.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_harness.hpp"
#include "core/simulation.hpp"
#include "event/cache_policy.hpp"
#include "event/engine.hpp"
#include "parallel/sharded_runner.hpp"
#include "parallel/thread_pool.hpp"
#include "random/seeding.hpp"
#include "scenario/registry.hpp"
#include "spatial/replica_index.hpp"
#include "strategy/spec.hpp"
#include "tier/materialize.hpp"
#include "tier/registry.hpp"
#include "topology/graph_topology.hpp"
#include "topology/spec.hpp"

namespace {

using namespace proxcache;
using Clock = std::chrono::steady_clock;
/// Raw per-layer counters of one cell, by name (summed by metrics.py).
using Layers = std::map<std::string, double>;

double elapsed(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// CPU seconds used so far by every thread of this process.
double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

/// The cost of one timed call: wall seconds, and the CPU seconds the
/// process spent in it. The timed cells are single-threaded, so on an idle
/// host the two agree; on a shared one the CPU time leaves out the time
/// the process waited for a core, hypervisor steal included.
struct CallTime {
  double wall = 0.0;
  double cpu = 0.0;
};

class CallClock {
 public:
  CallClock() : wall_(Clock::now()), cpu_(process_cpu_seconds()) {}
  [[nodiscard]] CallTime read() const {
    return {elapsed(wall_), process_cpu_seconds() - cpu_};
  }

 private:
  Clock::time_point wall_;
  double cpu_;
};

/// Host-speed reference: a fixed loop of xorshift draws and reads and
/// writes at random over a 2 MiB table, with an unpredictable branch on
/// each. It calls no library code, so no change to the library moves it,
/// and the untraced run calls it once per round between the cells. On a
/// shared host the speed of every cell rises and falls with the neighbours'
/// load, by up to a third between runs minutes apart; this kernel's speed
/// follows those swings more closely than variants of it confined to the
/// L1 or L2 cache or chasing dependent loads. metrics.py divides the cells'
/// rates by it.
class ReferenceKernel {
 public:
  static constexpr std::size_t kTableBits = 18;
  static constexpr std::uint64_t kSteps = std::uint64_t{1} << 21;

  ReferenceKernel() : table_(std::size_t{1} << kTableBits) {
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint64_t& word : table_) word = x = next(x);
  }

  /// Runs kSteps steps; returns a checksum that depends on all of them.
  std::uint64_t run() {
    constexpr std::uint64_t kMask = (std::uint64_t{1} << kTableBits) - 1;
    std::uint64_t x = state_, sum = 0;
    for (std::uint64_t step = 0; step < kSteps; ++step) {
      x = next(x);
      std::uint64_t& word = table_[x & kMask];
      const std::uint64_t value = word;
      word = value & 1 ? value * 3 + 1 : (value >> 1) ^ x;
      sum += value;
    }
    state_ = x;
    return sum;
  }

 private:
  static std::uint64_t next(std::uint64_t x) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x * 0x2545F4914F6CDD1DULL;
  }

  std::vector<std::uint64_t> table_;
  std::uint64_t state_ = 1;
};

// ---------------------------------------------------------------------------
// Minimal JSON object writer (flat keys; values are numbers, strings, bools
// or pre-rendered JSON).
// ---------------------------------------------------------------------------

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

class JsonObject {
 public:
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quoted(key) + ':' + json;
    return *this;
  }
  JsonObject& num(std::string_view key, double value) {
    return raw(key, number(value));
  }
  JsonObject& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, quoted(value));
  }
  JsonObject& flag(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T, typename Render>
std::string json_array(const std::vector<T>& items, Render render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += render(items[i]);
  }
  return out + "]";
}

std::string counts_array(const std::vector<std::uint64_t>& counts) {
  return json_array(counts,
                    [](std::uint64_t c) { return std::to_string(c); });
}

std::string layers_json(const Layers& layers) {
  JsonObject object;
  for (const auto& [key, value] : layers) object.num(key, value);
  return object.text();
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at the end of the traced run.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  std::string cell;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name, std::string cell) {
    Span span;
    span.name = std::move(name);
    span.cell = std::move(cell);
    span.start = elapsed(origin_);
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = elapsed(origin_);
    stack_.pop_back();
    return span.end - span.start;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer; records a span when a tracer is given.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, const std::string& cell)
      : tracer_(tracer), start_(Clock::now()) {
    if (tracer_) id_ = tracer_->open(std::move(name), cell);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (open_) stop();
  }
  double stop() {
    open_ = false;
    return tracer_ ? tracer_->close(id_) : elapsed(start_);
  }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  int id_ = -1;
  bool open_ = true;
};

// ---------------------------------------------------------------------------
// Workloads and cells.
// ---------------------------------------------------------------------------

enum class Mode { W1, W4, MC4, EvLru, EvStatic };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::W1: return "w1";
    case Mode::W4: return "w4";
    case Mode::MC4: return "mc4";
    case Mode::EvLru: return "ev-lru";
    case Mode::EvStatic: return "ev-static";
  }
  return "?";
}

struct CellSpec {
  std::string label;  ///< strategy label in the metric name
  std::string spec;   ///< strategy spec string
  Mode mode = Mode::W1;
  std::size_t requests = 0;  ///< requests per replication (0 = n)
  std::size_t runs = 1;      ///< replications per call (mc4)
  double horizon = 0.0;      ///< simulated time per call (event modes)
  double hop_latency = 0.0;  ///< response time per hop (event modes)

  [[nodiscard]] std::string name() const {
    return label + "." + mode_name(mode);
  }
};

struct Workload {
  std::string name;
  ExperimentConfig config;
  std::vector<CellSpec> cells;
};

/// Replication sizes per strategy label, chosen so one timed call takes
/// roughly 0.03-0.7 s on a 4-core x86 host (w4 calls much shorter than that
/// are dominated by thread start-up jitter). On the two workloads with
/// paper-shape checks `nearest` and `two-choice` share a size, so the
/// checks compare equal request counts.
struct Sizes {
  std::size_t nearest, two_choice, least_loaded, prox_weighted;
  std::size_t mc_requests, mc_runs;
  double event_horizon;
  double hop_latency;
};

/// Every workload runs the same eleven cells, so each one reports the same
/// metrics: the four flat strategies at w1 and w4, and the
/// workload's load-aware `balancer` policy through the Monte-Carlo pool and
/// the event engine.
void add_cells(Workload& workload, const std::string& balancer,
               const std::string& two_choice, const Sizes& sizes) {
  const std::vector<std::pair<std::string, std::string>> flat = {
      {"nearest", "nearest"},
      {"two-choice", two_choice},
      {"least-loaded", "least-loaded(r=8)"},
      {"prox-weighted", "prox-weighted(d=2, alpha=1)"}};
  const std::size_t requests[] = {sizes.nearest, sizes.two_choice,
                                  sizes.least_loaded, sizes.prox_weighted};
  for (std::size_t i = 0; i < flat.size(); ++i) {
    for (const Mode mode : {Mode::W1, Mode::W4}) {
      CellSpec cell;
      cell.label = flat[i].first;
      cell.spec = flat[i].second;
      cell.mode = mode;
      cell.requests = requests[i];
      workload.cells.push_back(cell);
    }
  }
  for (const Mode mode : {Mode::MC4, Mode::EvLru, Mode::EvStatic}) {
    CellSpec cell;
    cell.label = "balancer";
    cell.spec = balancer;
    cell.mode = mode;
    cell.requests = sizes.mc_requests;
    cell.runs = mode == Mode::MC4 ? sizes.mc_runs : 1;
    cell.horizon = sizes.event_horizon;
    cell.hop_latency = sizes.hop_latency;
    workload.cells.push_back(cell);
  }
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload workload;
  workload.name = name;
  const ScenarioRegistry& scenarios = ScenarioRegistry::built_ins();
  if (name == "torus-stream") {
    workload.config = scenarios.at("baseline-uniform").config;
    workload.config.topology_spec = parse_topology_spec("torus(side=45)");
    workload.config.num_files = 500;
    workload.config.cache_size = 10;
    add_cells(workload, "two-choice", "two-choice",
              {1u << 19, 1u << 19, 1u << 17, 1u << 15, 0, 128, 30.0, 0.1});
  } else if (name == "rgg-hotspot") {
    workload.config = scenarios.at("hotspot").config;
    workload.config.topology_spec =
        parse_topology_spec("rgg(n=16384, radius=0.02, seed=1)");
    // Every rgg request costs thousands of oracle queries and run_dynamic
    // rebuilds the graph per call, so the event cells get a short horizon
    // with instantaneous responses: at 0.1 per hop a request ~5 hops out
    // would still be in transit when the horizon ends.
    add_cells(workload, "two-choice(r=8)", "two-choice(r=8)",
              {1u << 10, 1u << 10, 1u << 10, 1u << 9, 256, 8, 0.15, 0.0});
  } else if (name == "cdn-hotspot") {
    workload.config = scenarios.at("hotspot").config;
    workload.config.tier_spec = TierRegistry::built_ins().resolve("cdn");
    workload.config.num_files = 500;
    workload.config.cache_size = 8;
    add_cells(workload, "cross-two-choice", "two-choice",
              {1u << 14, 1u << 17, 1u << 14, 1u << 14, 0, 256, 100.0, 0.1});
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (known: torus-stream, rgg-hotspot, cdn-hotspot)");
  }
  workload.config.seed = seed;
  return workload;
}

// ---------------------------------------------------------------------------
// Result records.
// ---------------------------------------------------------------------------

std::string batch_result_json(const RunResult& result,
                              std::size_t attempted) {
  return JsonObject()
      .str("kind", "batch")
      .count("max_load", result.max_load)
      .num("comm_cost", result.comm_cost)
      .count("served", result.requests)
      .count("dropped", result.dropped)
      .count("attempted", attempted)
      .count("fallbacks", result.fallbacks)
      .raw("histogram", counts_array(result.load_histogram.counts()))
      .text();
}

/// Requests an experiment served: the load-weighted sum of its pooled
/// server-load histogram.
std::uint64_t served_requests(const ExperimentResult& result) {
  std::uint64_t served = 0;
  const std::vector<std::uint64_t>& counts =
      result.pooled_load_histogram.counts();
  for (std::size_t k = 0; k < counts.size(); ++k) served += k * counts[k];
  return served;
}

std::string mc_result_json(const ExperimentResult& result,
                           std::size_t attempted) {
  const std::uint64_t served = served_requests(result);
  const auto dropped = static_cast<std::uint64_t>(
      std::llround(result.drop_rate * static_cast<double>(served)));
  return JsonObject()
      .str("kind", "mc")
      .count("runs", result.runs)
      .num("max_load", result.max_load.max())
      .num("comm_cost", result.comm_cost.max())
      .count("served", served)
      .count("dropped", dropped)
      .count("attempted", attempted)
      .num("origin_offload",
           result.tiers.empty() ? 1.0 : result.origin_offload.mean())
      .raw("histogram", counts_array(result.pooled_load_histogram.counts()))
      .text();
}

std::string event_result_json(const DynamicResult& result, bool static_policy) {
  std::uint64_t window_arrivals = 0;
  for (const WindowMetrics& window : result.windows) {
    window_arrivals += window.arrivals;
  }
  return JsonObject()
      .str("kind", "event")
      .flag("static_policy", static_policy)
      .count("admitted", result.admitted)
      .count("served", result.admitted)
      .count("lost", result.lost)
      .count("dropped", result.dropped)
      .count("attempted", result.admitted + result.lost + result.dropped)
      .count("window_arrivals", window_arrivals)
      .count("events", result.events)
      .count("hits", result.hits)
      .count("misses", result.misses)
      .count("inserts", result.inserts)
      .count("evictions", result.evictions)
      .count("origin_fetches", result.origin_fetches)
      .num("hit_rate", result.hit_rate)
      .num("comm_cost", result.queueing.mean_hops)
      .text();
}

// ---------------------------------------------------------------------------
// The width-1 batch schedule, driven by hand through RunHarness.
// ---------------------------------------------------------------------------

/// Runs replication `run_index` on the sharded engine's width-1 schedule:
/// per batch, fill (trace + sanitize, per-request pinned streams), propose
/// every request, then choose + commit in request order. With `layers` set,
/// each step is timed (and recorded as a span when `tracer` is set); with
/// `keep` set, up to `keep_cap` admitted requests are copied out for probes.
RunResult run_width1(const SimulationContext& context, std::uint64_t run_index,
                     Tracer* tracer, const std::string& cell,
                     Layers* layers, std::vector<Request>* keep,
                     std::size_t keep_cap) {
  const bool timed = layers != nullptr;
  std::unique_ptr<Scope> step;
  const auto begin = [&](const char* name) {
    if (timed) step = std::make_unique<Scope>(tracer, name, cell);
  };
  const auto end = [&](const char* counter) {
    if (timed) (*layers)[counter] += step->stop();
  };

  begin("core.harness_build");
  RunHarness harness(context, run_index);
  end("harness_build_s");

  const std::size_t batch = ShardedRunOptions{}.batch;
  const std::uint64_t prefix = derive_seed_prefix(
      context.config().seed, {run_index, seed_phase::kStrategy});
  std::vector<Request> requests(batch);
  std::vector<Rng> rngs(batch);
  std::vector<Proposal> proposals(batch);
  CandidateArena arena;
  Strategy& strategy = *harness.strategy;
  std::uint64_t ordinal = 0;
  std::uint64_t candidates = 0;
  std::uint64_t decided = 0;
  std::uint64_t fallbacks = 0;
  for (;;) {
    begin("scenario.fill");
    std::size_t count = 0;
    while (count < batch &&
           harness.sanitized.try_next(harness.trace_rng, requests[count])) {
      rngs[count] = Rng(derive_seed_leaf(prefix, ordinal + count));
      ++count;
    }
    end("fill_s");
    if (count == 0) break;
    ordinal += count;
    if (keep) {
      for (std::size_t j = 0; j < count && keep->size() < keep_cap; ++j) {
        keep->push_back(requests[j]);
      }
    }

    begin("strategy.propose");
    arena.clear();
    for (std::size_t j = 0; j < count; ++j) {
      proposals[j] = Proposal{};
      strategy.propose(requests[j], rngs[j], arena, proposals[j]);
    }
    end("propose_s");

    begin("strategy.choose_commit");
    for (std::size_t j = 0; j < count; ++j) {
      const Assignment assignment = strategy.choose(
          requests[j], proposals[j], arena, *harness.load_view, rngs[j]);
      harness.commit(assignment);
      candidates += proposals[j].count;
      decided += proposals[j].decided ? 1 : 0;
      fallbacks += assignment.fallback ? 1 : 0;
    }
    end("choose_commit_s");
  }

  begin("core.finalize");
  RunResult result = harness.finalize();
  end("finalize_s");
  if (timed) {
    const SanitizeStats& sanitize = harness.sanitized.stats();
    (*layers)["requests"] += static_cast<double>(ordinal);
    (*layers)["candidates"] += static_cast<double>(candidates);
    (*layers)["decided"] += static_cast<double>(decided);
    (*layers)["fallbacks"] += static_cast<double>(fallbacks);
    (*layers)["resampled"] += static_cast<double>(sanitize.resampled);
    (*layers)["trace_dropped"] += static_cast<double>(sanitize.dropped);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Probes: single-module calls timed over the cell's own request stream.
// ---------------------------------------------------------------------------

void probe_build(const SimulationContext& context, std::uint64_t run_index,
                 Tracer* tracer, const std::string& cell,
                 Layers& layers) {
  Scope placement_scope(tracer, "catalog.placement_build", cell);
  const Placement placement =
      materialize_placement(context.config(), context.topology(),
                            context.popularity(), run_index);
  layers["placement_build_s"] += placement_scope.stop();
  Scope index_scope(tracer, "spatial.index_build", cell);
  const ReplicaIndex index(context.topology(), placement);
  layers["index_build_s"] += index_scope.stop();
}

void probe_queries(const SimulationContext& context,
                   const std::vector<Request>& requests, Tracer* tracer,
                   const std::string& cell,
                   Layers& layers, std::uint64_t& checksum) {
  const Placement placement = materialize_placement(
      context.config(), context.topology(), context.popularity(), 0);
  const ReplicaIndex index(context.topology(), placement);
  Rng rng(derive_seed(context.config().seed, {0x9B0BE5}));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(requests.size());

  Scope nearest_scope(tracer, "spatial.nearest", cell);
  for (const Request& request : requests) {
    const NearestResult nearest = index.nearest(request.origin, request.file, rng);
    checksum += nearest.distance;
    if (nearest.server != kInvalidNode) {
      pairs.emplace_back(request.origin, nearest.server);
    }
  }
  layers["nearest_s"] += nearest_scope.stop();
  layers["nearest_queries"] += static_cast<double>(requests.size());

  const Topology& topology = context.topology();
  Scope distance_scope(tracer, "topology.distance", cell);
  for (const auto& [origin, server] : pairs) {
    checksum += topology.distance(origin, server);
  }
  layers["distance_s"] += distance_scope.stop();
  layers["distance_queries"] += static_cast<double>(pairs.size());
}

void probe_policy(const std::vector<Request>& requests, std::size_t num_files,
                  Tracer* tracer, const std::string& cell,
                  Layers& layers, std::uint64_t& checksum) {
  const std::unique_ptr<CachePolicy> policy =
      CachePolicyRegistry::global().make(
          parse_cache_policy_spec("lru(capacity=4)"), 4);
  std::vector<char> resident(num_files, 0);
  std::size_t size = 0;
  Scope scope(tracer, "event.policy", cell);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const FileId file = requests[i].file;
    const auto now = static_cast<double>(i);
    if (resident[file]) {
      policy->on_access(file, now);
      continue;
    }
    if (size == policy->capacity()) {
      const FileId victim = policy->victim(now);
      policy->on_evict(victim);
      resident[victim] = 0;
      --size;
      checksum += victim;
    }
    policy->on_insert(file, now);
    resident[file] = 1;
    ++size;
  }
  layers["policy_s"] += scope.stop();
  layers["policy_accesses"] += static_cast<double>(requests.size());
}

const DistanceOracle* oracle_of(const Topology& topology) {
  const auto* graph = dynamic_cast<const GraphTopology*>(&topology);
  return graph ? &graph->oracle() : nullptr;
}

void add_oracle_delta(const DistanceOracle* oracle,
                      const DistanceOracle::Stats& before,
                      Layers& layers) {
  if (oracle == nullptr) return;
  const DistanceOracle::Stats after = oracle->stats();
  layers["rows_built"] +=
      static_cast<double>(after.rows_built - before.rows_built);
  layers["rows_evicted"] +=
      static_cast<double>(after.rows_evicted - before.rows_evicted);
  layers["exact_answers"] +=
      static_cast<double>(after.exact_answers - before.exact_answers);
  layers["landmark_answers"] +=
      static_cast<double>(after.landmark_answers - before.landmark_answers);
}

// ---------------------------------------------------------------------------
// Cell execution.
// ---------------------------------------------------------------------------

struct Bench {
  const Workload* workload = nullptr;
  std::shared_ptr<const Topology> topology;
  double seconds = 0.0;
  bool trace = false;
  Tracer* tracer = nullptr;
  std::uint64_t checksum = 0;  ///< keeps probe results observable
  std::vector<Request> workload_requests;  ///< first traced cell's stream
  std::map<std::string, RunResult> width1_results;  ///< by strategy label
};

constexpr std::size_t kMinTimedReps = 3;
constexpr std::size_t kMaxTimedReps = 1000;
constexpr std::size_t kProbeRequests = std::size_t{1} << 16;
constexpr int kOverheadPairs = 3;

ExperimentConfig cell_config(const Bench& bench, const CellSpec& cell) {
  ExperimentConfig config = bench.workload->config;
  config.strategy_spec = parse_strategy_spec(cell.spec);
  config.num_requests = cell.requests;
  config.threads = cell.mode == Mode::W4 ? 4 : 1;
  return config;
}

DynamicConfig dynamic_config(const Bench& bench, const CellSpec& cell) {
  DynamicConfig config;
  config.network = bench.workload->config;
  config.network.strategy_spec = parse_strategy_spec(cell.spec);
  config.network.trace.arrival_rate = 0.7;
  config.hop_latency = cell.hop_latency;
  config.horizon = cell.horizon;
  if (cell.mode == Mode::EvLru) {
    config.cache_policy = parse_cache_policy_spec("lru(capacity=4)");
  }
  return config;
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

/// One cell's per-config state, built once before any timed call.
class Cell {
 public:
  Cell(const Bench& bench, const CellSpec& spec)
      : spec_(spec),
        name_(spec.name()),
        context_(cell_config(bench, spec), bench.topology),
        dynamic_(dynamic_config(bench, spec)) {
    if (spec.mode == Mode::MC4) pool_ = std::make_unique<ThreadPool>(4);
  }

  [[nodiscard]] const CellSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const SimulationContext& context() const { return context_; }
  [[nodiscard]] std::size_t horizon() const { return context_.horizon(); }
  [[nodiscard]] ThreadPool* pool() const { return pool_.get(); }
  [[nodiscard]] const DynamicConfig& dynamic() const { return dynamic_; }
  [[nodiscard]] std::uint64_t event_seed(std::uint64_t rep) const {
    return derive_seed(context_.config().seed, {rep});
  }

  /// One untraced call of the cell's public entry point, on replication
  /// (or event seed) `rep`. Writes the result record, returns its cost.
  CallTime call(std::uint64_t rep, std::string& record) const {
    const CallClock clock;
    switch (spec_.mode) {
      case Mode::W1:
      case Mode::W4: {
        const RunResult result = context_.run(rep);
        const CallTime time = clock.read();
        record = batch_result_json(result, horizon());
        return time;
      }
      case Mode::MC4: {
        const ExperimentResult result =
            run_experiment(context_, spec_.runs, pool_.get());
        const CallTime time = clock.read();
        record = mc_result_json(result, spec_.runs * horizon());
        return time;
      }
      case Mode::EvLru:
      case Mode::EvStatic: {
        const DynamicResult result = run_dynamic(dynamic_, event_seed(rep));
        const CallTime time = clock.read();
        record = event_result_json(result, spec_.mode == Mode::EvStatic);
        return time;
      }
    }
    return clock.read();
  }

  /// The record's identifying fields.
  [[nodiscard]] JsonObject header() const {
    JsonObject out;
    out.str("type", "cell")
        .str("cell", name_)
        .str("strategy", spec_.label)
        .str("spec", spec_.spec)
        .str("mode", mode_name(spec_.mode))
        .count("nodes", context_.topology().size())
        .count("diameter", context_.topology().diameter())
        .count("requests_per_run", horizon())
        .count("runs_per_call", spec_.runs);
    return out;
  }

 private:
  CellSpec spec_;
  std::string name_;
  SimulationContext context_;
  DynamicConfig dynamic_;
  std::unique_ptr<ThreadPool> pool_;
};

// ---------------------------------------------------------------------------
// Set-up: topology (or oracle), context and the first per-run state.
// ---------------------------------------------------------------------------

/// The set-up trials of one run, written as one record at its end.
struct Setup {
  std::vector<double> trials;  ///< wall seconds of each set-up
  Layers layers;               ///< the traced trial's counters
};

/// One set-up, of the workload's last cell's configuration. Returns the
/// topology built; records the trial in `setup`, with spans when `tracer`.
std::shared_ptr<const Topology> setup_trial(const Bench& bench, Tracer* tracer,
                                            Setup& setup) {
  const ExperimentConfig config =
      cell_config(bench, bench.workload->cells.back());
  Scope total(tracer, "setup", "setup");
  Scope topology_scope(tracer, "topology.build", "setup");
  std::shared_ptr<const Topology> topology = materialize_topology(config);
  const double topology_s = topology_scope.stop();
  Scope context_scope(tracer, "core.context_build", "setup");
  const SimulationContext context(config, topology);
  context_scope.stop();
  Scope harness_scope(tracer, "core.harness_build", "setup");
  const RunHarness harness(context, 0);
  harness_scope.stop();
  setup.trials.push_back(total.stop());
  if (tracer) setup.layers["topology_build_s"] = topology_s;
  return topology;
}

/// The set-ups before the cells exist; the last one's topology is the one
/// every cell shares. The traced run makes two and traces the second (the
/// first warms the heap). The untraced run makes kFirstSetupTrials and then
/// one per round of the timed loop: host speed drifts over seconds, so
/// trials spread over the whole run give a steadier median than a burst.
constexpr std::size_t kFirstSetupTrials = 3;

void first_setups(Bench& bench, Setup& setup) {
  const std::size_t trials = bench.trace ? 2 : kFirstSetupTrials;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    Tracer* tracer = bench.trace && trial == 1 ? bench.tracer : nullptr;
    bench.topology = setup_trial(bench, tracer, setup);
  }
}

std::string setup_json(const Setup& setup, bool trace) {
  JsonObject out;
  out.str("type", "setup").raw(
      "trials", json_array(setup.trials, [](double s) { return number(s); }));
  if (trace) out.raw("layers", layers_json(setup.layers));
  return out.text();
}

/// True for cells whose time the untraced run measures. The 4-thread
/// cells (w4, mc4) are not timed: on a shared 4-core host their wall time
/// follows whatever else holds a core (ten-run spreads of 0.06-0.40 of the
/// median, tracking the host's steal time), too wide for a regression
/// bound. They run once, for the output checks and the width-invariance
/// cross-check; the traced run reports their throughput per layer.
bool timed(Mode mode) { return mode != Mode::W4 && mode != Mode::MC4; }

/// The untraced run: calls every timed cell once per round, round-robin, so
/// a slow phase of the host lands on every cell alike rather than on
/// whichever cell happened to be running. Round 0 is the warm-up (checked,
/// not timed); rounds continue until --seconds have passed. Each round also
/// makes one set-up trial, kept apart from the cells' topology.
std::vector<std::string> run_timed(const Bench& bench,
                                   const std::vector<Cell>& cells,
                                   Setup& setup) {
  std::vector<std::vector<std::string>> reps(cells.size());
  ReferenceKernel kernel;
  std::vector<std::string> kernel_reps;
  std::uint64_t kernel_checksum = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 0;; ++round) {
    setup_trial(bench, nullptr, setup);
    const CallClock kernel_clock;
    kernel_checksum += kernel.run();
    const CallTime kernel_time = kernel_clock.read();
    kernel_reps.push_back(JsonObject()
                              .count("rep", round)
                              .num("seconds", kernel_time.wall)
                              .num("cpu_seconds", kernel_time.cpu)
                              .flag("warmup", round == 0)
                              .text());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (!timed(cells[c].spec().mode)) continue;
      std::string record;
      const CallTime time = cells[c].call(round, record);
      reps[c].push_back(JsonObject()
                            .count("rep", round)
                            .num("seconds", time.wall)
                            .num("cpu_seconds", time.cpu)
                            .flag("warmup", round == 0)
                            .raw("result", record)
                            .text());
    }
    if (round >= kMaxTimedReps ||
        (round >= kMinTimedReps && elapsed(start) >= bench.seconds)) {
      break;
    }
  }
  std::vector<std::string> records;
  records.push_back(
      JsonObject()
          .str("type", "reference")
          .count("steps_per_call", ReferenceKernel::kSteps)
          .count("checksum", kernel_checksum)
          .raw("reps", json_array(kernel_reps,
                                  [](const std::string& s) { return s; }))
          .text());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    JsonObject out = cell.header();
    if (timed(cell.spec().mode)) {
      out.raw("reps",
              json_array(reps[c], [](const std::string& s) { return s; }));
    } else {
      std::string record;
      cell.call(0, record);
      out.count("calls", 1).raw("result", record);
    }
    if (cell.spec().mode == Mode::W4) {
      // Width-invariance cross-check against the hand-driven width-1 run of
      // the same replication.
      const RunResult width1 = run_width1(cell.context(), 0, nullptr,
                                          cell.name(), nullptr, nullptr, 0);
      out.raw("width1", batch_result_json(width1, cell.horizon()));
    }
    records.push_back(out.text());
  }
  return records;
}

/// The traced run of one cell: a fixed amount of work. Traced and untraced
/// calls alternate; the first traced call supplies the counters and spans,
/// and the medians of both give the tracing overhead.
std::string run_traced(Bench& bench, const Cell& cell) {
  const CellSpec& spec = cell.spec();
  const std::string& name = cell.name();
  const SimulationContext& context = cell.context();
  const std::size_t horizon = cell.horizon();
  JsonObject out = cell.header();
  out.count("calls", 2 * kOverheadPairs);
  Layers layers;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::string result_record;
  const DistanceOracle* oracle = oracle_of(context.topology());
  Tracer scratch_tracer(Clock::now());
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool primary = pair == 0;
    Tracer* tracer = primary ? bench.tracer : &scratch_tracer;
    const DistanceOracle::Stats before =
        oracle ? oracle->stats() : DistanceOracle::Stats{};
    Scope cell_scope(tracer, "cell", name);
    switch (spec.mode) {
      case Mode::W1: {
        Layers scratch_layers;
        std::vector<Request> kept;
        const RunResult result =
            run_width1(context, 0, tracer, name,
                       primary ? &layers : &scratch_layers,
                       primary ? &kept : nullptr, kProbeRequests);
        traced.push_back(cell_scope.stop());
        if (!primary) break;
        bench.width1_results[spec.label] = result;
        out.raw("width1", batch_result_json(result, horizon));
        add_oracle_delta(oracle, before, layers);
        probe_build(context, 0, tracer, name, layers);
        probe_queries(context, kept, tracer, name, layers, bench.checksum);
        if (bench.workload_requests.empty()) bench.workload_requests = kept;
        break;
      }
      case Mode::W4: {
        ShardedRunOptions options;
        options.threads = 4;
        ShardStats stats;
        Scope scope(tracer, "parallel.run", name);
        const RunResult result =
            ShardedRunner(context, options).run(0, &stats);
        const double run_s = scope.stop();
        traced.push_back(cell_scope.stop());
        if (!primary) break;
        out.raw("sharded", batch_result_json(result, horizon));
        const auto found = bench.width1_results.find(spec.label);
        if (found != bench.width1_results.end()) {
          out.raw("width1", batch_result_json(found->second, horizon));
        }
        layers["par_run_s"] += run_s;
        layers["par_requests"] += static_cast<double>(stats.requests);
        layers["par_fill_s"] += stats.fill_seconds;
        layers["par_propose_s"] += stats.propose_seconds;
        layers["par_join_s"] += stats.join_seconds;
        layers["par_speculate_s"] += stats.speculate_seconds;
        layers["par_commit_s"] += stats.commit_seconds;
        layers["spec_hits"] += static_cast<double>(stats.spec_hits);
        layers["spec_conflicts"] += static_cast<double>(stats.spec_conflicts);
        double lane_max = 0.0;
        double lane_sum = 0.0;
        for (const double s : stats.lane_seconds) {
          lane_max = std::max(lane_max, s);
          lane_sum += s;
        }
        if (lane_sum > 0.0) {
          layers["lane_imbalance"] =
              lane_max * static_cast<double>(stats.lane_seconds.size()) /
              lane_sum;
          layers["lane_cells"] = 1.0;
        }
        add_oracle_delta(oracle, before, layers);
        break;
      }
      case Mode::MC4: {
        Scope scope(tracer, "core.experiment", name);
        const ExperimentResult result =
            run_experiment(context, spec.runs, cell.pool());
        const double run_s = scope.stop();
        traced.push_back(cell_scope.stop());
        if (!primary) break;
        layers["mc_run_s"] += run_s;
        layers["mc_requests"] +=
            static_cast<double>(served_requests(result));
        add_oracle_delta(oracle, before, layers);
        for (std::uint64_t run = 0; run < spec.runs; ++run) {
          Scope harness_scope(tracer, "core.harness_build", name);
          const RunHarness harness(context, run);
          layers["harness_build_s"] += harness_scope.stop();
          probe_build(context, run, tracer, name, layers);
        }
        break;
      }
      case Mode::EvLru:
      case Mode::EvStatic: {
        Scope scope(tracer, "event.run", name);
        const DynamicResult result =
            run_dynamic(cell.dynamic(), cell.event_seed(0));
        const double run_s = scope.stop();
        traced.push_back(cell_scope.stop());
        if (!primary) break;
        layers["event_run_s"] += run_s;
        layers["events"] += static_cast<double>(result.events);
        layers["admitted"] += static_cast<double>(result.admitted);
        layers["hits"] += static_cast<double>(result.hits);
        layers["misses"] += static_cast<double>(result.misses);
        layers["inserts"] += static_cast<double>(result.inserts);
        layers["evictions"] += static_cast<double>(result.evictions);
        layers["origin_fetches"] +=
            static_cast<double>(result.origin_fetches);
        if (spec.mode == Mode::EvLru) {
          probe_policy(bench.workload_requests,
                       bench.workload->config.num_files, tracer, name, layers,
                       bench.checksum);
        }
        break;
      }
    }

    // The untraced twin runs after the traced call, so the traced call
    // meets the caches the previous cell left (its counters then show the
    // cell's own row builds) and the twin meets warm ones, as later pairs do.
    std::string record;
    if (spec.mode == Mode::W1) {
      // The traced w1 program is the hand-driven width-1 schedule, so its
      // untraced twin is the same schedule without timers.
      const Clock::time_point start = Clock::now();
      const RunResult result =
          run_width1(context, 0, nullptr, name, nullptr, nullptr, 0);
      untraced.push_back(elapsed(start));
      record = batch_result_json(result, horizon);
    } else {
      untraced.push_back(cell.call(0, record).wall);
    }
    if (pair == 0) result_record = record;
  }
  layers["untraced_s"] = median_of(untraced);
  layers["traced_s"] = median_of(traced);
  out.raw("result", result_record).raw("layers", layers_json(layers));
  return out.text();
}

std::string spans_json(const Tracer& tracer, const std::string& workload,
                       std::uint64_t seed) {
  std::string out = "{\"workload\":" + quoted(workload) +
                    ",\"seed\":" + std::to_string(seed) + ",\"spans\":[";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ",\n";
    out += JsonObject()
               .str("name", spans[i].name)
               .str("cell", spans[i].cell)
               .num("start", spans[i].start)
               .num("end", spans[i].end)
               .raw("parent", std::to_string(spans[i].parent))
               .text();
  }
  return out + "]}\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload workload = make_workload(args.workload, args.seed);
#ifdef NDEBUG
    constexpr bool kNdebug = true;
#else
    constexpr bool kNdebug = false;
#endif
    std::cout << JsonObject()
                     .str("type", "host")
                     .count("host_cores", std::thread::hardware_concurrency())
                     .str("compiler", PERFBENCH_COMPILER)
                     .str("build_type", PERFBENCH_BUILD_TYPE)
                     .flag("ndebug", kNdebug)
                     .str("workload", workload.name)
                     .count("seed", args.seed)
                     .flag("trace", args.trace)
                     .text()
              << std::endl;

    Tracer tracer(Clock::now());
    Bench bench;
    bench.workload = &workload;
    bench.trace = args.trace;
    bench.tracer = args.trace ? &tracer : nullptr;
    bench.seconds = args.seconds;
    Setup setup;
    first_setups(bench, setup);
    std::vector<Cell> cells;
    cells.reserve(workload.cells.size());
    for (const CellSpec& spec : workload.cells) cells.emplace_back(bench, spec);
    if (args.trace) {
      for (const Cell& cell : cells) {
        std::cout << run_traced(bench, cell) << std::endl;
      }
    } else {
      for (const std::string& record : run_timed(bench, cells, setup)) {
        std::cout << record << std::endl;
      }
    }
    std::cout << setup_json(setup, args.trace) << std::endl;
    if (args.trace && !args.spans.empty()) {
      std::ofstream file(args.spans);
      file << spans_json(tracer, workload.name, args.seed);
      if (!file) throw std::runtime_error("cannot write " + args.spans);
    }
    std::cout << JsonObject()
                     .str("type", "end")
                     .num("peak_rss_mb", peak_rss_mb())
                     .count("spans", tracer.spans().size())
                     .count("probe_checksum", bench.checksum)
                     .text()
              << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
