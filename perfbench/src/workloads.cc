// The three workloads and the run that measures them. Why each workload
// exists, and which layer metric should move which end-to-end metric on
// which workload, is written down in perfbench/METRICS.md.
#include <algorithm>
#include <cmath>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "layers.h"
#include "ops/executor.h"
#include "ops/plan.h"
#include "ops/reference.h"
#include "ops/table.h"
#include "pipeline/memory_gauge.h"
#include "trace.h"
#include "workload/chain.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using radix::engine::ChunkingPolicy;
using radix::engine::Engine;
using radix::engine::EngineConfig;
using radix::engine::Explanation;
using radix::engine::PreparedPlan;
using radix::engine::PreparedQuery;
using radix::engine::QuerySpec;
using radix::ops::Catalog;
using radix::ops::LogicalPlan;
using radix::project::JoinStrategy;
using radix::project::PhaseBreakdown;
using radix::project::QueryRun;
using radix::project::SideStrategy;
using radix::workload::ChainWorkload;
using radix::workload::JoinWorkload;

constexpr double kMiB = 1024.0 * 1024.0;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One query shape a workload issues.
struct Shape {
  std::string name;
  const JoinWorkload* input = nullptr;  ///< two-sided shape
  QuerySpec spec;
  const LogicalPlan* plan = nullptr;  ///< plan-tree shape (over the catalog)
  bool latency = true;  ///< counts in query_p50_ms and query_tail_ms
  bool cd = false;      ///< counts in cd_p50_ms
  // The reference result, computed untimed by another path.
  bool ref_ok = false;
  uint64_t ref_checksum = 0;
  size_t ref_rows = 0;
};

struct Scenario {
  EngineConfig config;
  /// Injected as EngineConfig::gauge: the streaming pipeline's peak
  /// intermediate bytes (pipeline.peak_intermediate_mb).
  radix::pipeline::MemoryGauge gauge;
  size_t clients = 1;
  int setup_reps = 3;
  int replay_reps = 3;
  int regret_reps = 3;
  std::vector<Shape> shapes;
  /// Shape of the k-th query, cycled; fixed by the seed.
  std::vector<uint8_t> schedule;
  /// The pinned c/d shape the layer rows replay.
  size_t layer_shape = 0;
  /// The shape whose planned form the regret and model-error rows use.
  size_t main_shape = 0;
  std::vector<std::unique_ptr<JoinWorkload>> inputs;
  std::unique_ptr<ChainWorkload> chain;
  LogicalPlan chain_plan;
};

QuerySpec Spec(size_t pi_left, size_t pi_right) {
  QuerySpec spec;
  spec.pi_left = pi_left;
  spec.pi_right = pi_right;
  return spec;
}

/// The paper's c/d plan, pinned: the planner picks u/u at these sizes on
/// the detected geometry, which would leave cluster, gather-in-clustered-
/// order and decluster without work.
QuerySpec PinnedCd(QuerySpec spec) {
  spec.plan_sides = false;
  spec.left = SideStrategy::kClustered;
  spec.right = SideStrategy::kDecluster;
  return spec;
}

const JoinWorkload* AddInput(Scenario* sc, size_t n, size_t attrs,
                             uint64_t seed, size_t varchar_cols) {
  radix::workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = attrs;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.build_nsm = false;
  spec.varchar.num_cols = varchar_cols;
  sc->inputs.push_back(std::make_unique<JoinWorkload>(
      radix::workload::MakeJoinWorkload(spec)));
  return sc->inputs.back().get();
}

Shape TwoSided(std::string name, const JoinWorkload* input, QuerySpec spec,
               bool latency, bool cd) {
  Shape s;
  s.name = std::move(name);
  s.input = input;
  s.spec = spec;
  s.latency = latency;
  s.cd = cd;
  return s;
}

/// N = 2^22 per side, ω = 5, π = 4+4: the data exceeds the last-level
/// cache and the join dominates. One client alternates the planned query
/// and the pinned c/d.
std::unique_ptr<Scenario> MakeProject4m(uint64_t seed) {
  auto sc = std::make_unique<Scenario>();
  sc->config.num_threads = 0;  // all hardware threads
  const JoinWorkload* w = AddInput(sc.get(), size_t{1} << 22, 5, SplitMix(seed), 0);
  sc->shapes.push_back(TwoSided("planned", w, Spec(4, 4), true, false));
  sc->shapes.push_back(TwoSided("cd", w, PinnedCd(Spec(4, 4)), false, true));
  sc->schedule = {0, 1};
  sc->layer_shape = 1;
  sc->main_shape = 0;
  return sc;
}

/// N = 2^24 per side, same shape, pinned c/d, with a 32 MiB streaming
/// budget so the planner streams and picks the chunk size.
std::unique_ptr<Scenario> MakeStream16m(uint64_t seed) {
  auto sc = std::make_unique<Scenario>();
  sc->config.num_threads = 0;
  sc->config.chunking = ChunkingPolicy::kAuto;
  sc->config.streaming_budget_bytes = size_t{32} << 20;
  const JoinWorkload* w = AddInput(sc.get(), size_t{1} << 24, 5, SplitMix(seed), 0);
  sc->shapes.push_back(TwoSided("cd", w, PinnedCd(Spec(4, 4)), true, true));
  sc->schedule = {0};
  sc->layer_shape = 0;
  sc->main_shape = 0;
  sc->replay_reps = 2;
  sc->regret_reps = 1;
  return sc;
}

/// Two clients over one engine of three threads, on inputs that fit the
/// private caches: 65% point, 20% medium, 5% heavy varchar (pinned c/d so
/// the §5 varchar decluster runs), 10% the select -> 2-edge chain ->
/// aggregate plan tree.
std::unique_ptr<Scenario> MakeServeMix(uint64_t seed) {
  auto sc = std::make_unique<Scenario>();
  const size_t point_n = size_t{1} << 14;
  const size_t medium_n = size_t{1} << 16;
  sc->config.num_threads = 3;
  sc->config.point_query_rows_threshold = point_n;
  sc->clients = 2;
  sc->setup_reps = 15;
  sc->replay_reps = 7;
  sc->regret_reps = 15;
  const JoinWorkload* point = AddInput(sc.get(), point_n, 4, SplitMix(seed + 1), 0);
  const JoinWorkload* medium = AddInput(sc.get(), medium_n, 4, SplitMix(seed + 2), 0);
  const JoinWorkload* heavy = AddInput(sc.get(), point_n, 4, SplitMix(seed + 3), 1);
  QuerySpec heavy_spec = PinnedCd(Spec(1, 1));
  heavy_spec.pi_varchar_right = 1;
  sc->shapes.push_back(TwoSided("point", point, Spec(1, 1), true, false));
  sc->shapes.push_back(TwoSided("medium", medium, Spec(2, 2), true, false));
  sc->shapes.push_back(TwoSided("heavy_varchar", heavy, heavy_spec, true, true));

  radix::workload::ChainWorkloadSpec chain_spec;
  chain_spec.cardinalities = {medium_n, medium_n / 2, medium_n};
  chain_spec.num_attrs = 4;
  chain_spec.seed = SplitMix(seed + 4);
  sc->chain = std::make_unique<ChainWorkload>(
      radix::workload::MakeChainWorkload(chain_spec));
  namespace ops = radix::ops;
  ops::Predicate pred;
  pred.col = {0, 1, false};
  pred.op = ops::CmpOp::kLt;
  pred.value = radix::value_t{1} << 30;  // payloads span [0, 2^31): ~half pass
  sc->chain_plan.root = ops::Aggregate(
      ops::Join(ops::Join(ops::Select(ops::Scan(0), pred), ops::Scan(1), 0, 1),
                ops::Scan(2), 1, 2),
      {{2, 1, false}},
      {{ops::AggFn::kSum, {0, 1, false}}, {ops::AggFn::kCount, {}}});
  Shape chain;
  chain.name = "chain";
  chain.plan = &sc->chain_plan;
  sc->shapes.push_back(chain);

  // 13/20 point, 4/20 medium, 1/20 heavy, 2/20 chain.
  static constexpr uint8_t kWeights[20] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                           0, 0, 0, 1, 1, 1, 1, 2, 3, 3};
  sc->schedule.resize(size_t{1} << 16);
  uint64_t state = SplitMix(seed + 5);
  for (uint8_t& s : sc->schedule) {
    state = SplitMix(state);
    s = kWeights[state % 20];
  }
  sc->layer_shape = 2;
  sc->main_shape = 0;
  return sc;
}

struct WorkloadEntry {
  std::string_view name;
  std::unique_ptr<Scenario> (*make)(uint64_t seed);
};
constexpr WorkloadEntry kWorkloads[] = {{"project_4m", MakeProject4m},
                                        {"stream_16m", MakeStream16m},
                                        {"serve_mix", MakeServeMix}};

std::unique_ptr<Scenario> MakeScenario(std::string_view name, uint64_t seed) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (w.name != name) continue;
    std::unique_ptr<Scenario> sc = w.make(seed);
    sc->config.gauge = &sc->gauge;
    return sc;
  }
  return nullptr;
}

/// What set-up builds: the engine and the plan-tree catalog.
struct Session {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Catalog> catalog;
  std::vector<Explanation> explains;  ///< per shape, from its first Prepare
};

/// One client-timed query.
struct Sample {
  uint32_t shape = 0;
  bool ok = false;
  double prepare_ms = 0;
  double execute_ms = 0;
  double latency_ms = 0;  ///< Prepare() + Execute(), as the client sees it
  int64_t end_ns = 0;     ///< when the query returned
  double engine_ms = 0;   ///< QueryRun::seconds or PlanRun::seconds
  PhaseBreakdown phases;
  size_t chunks = 0;
  uint64_t checksum = 0;
  size_t rows = 0;
};

Sample RunOne(const Session& ss, const Shape& sh, uint32_t shape_index,
              SpanRecorder* rec) {
  Sample s;
  s.shape = shape_index;
  radix::Status status = radix::Status::OK();
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  if (sh.plan != nullptr) {
    PreparedPlan prepared;
    {
      ScopedSpan span(rec, kSpanPrepare);
      status = ss.engine->Prepare(*ss.catalog, *sh.plan, &prepared);
    }
    t1 = NowNs();
    radix::ops::PlanRun run;
    if (status.ok()) {
      ScopedSpan span(rec, kSpanExecute);
      status = prepared.Execute(&run);
    }
    s.engine_ms = run.seconds * 1e3;
    s.chunks = run.chunks;
    s.checksum = run.checksum;
    s.rows = run.result_rows;
  } else {
    std::optional<PreparedQuery> prepared;
    {
      ScopedSpan span(rec, kSpanPrepare);
      prepared.emplace(ss.engine->Prepare(*sh.input, sh.spec));
    }
    t1 = NowNs();
    QueryRun run;
    {
      ScopedSpan span(rec, kSpanExecute);
      status = prepared->Execute(&run);
    }
    s.engine_ms = run.seconds * 1e3;
    s.phases = run.phases;
    s.checksum = run.checksum;
    s.rows = run.result_cardinality;
  }
  const int64_t t2 = NowNs();
  s.ok = status.ok();
  s.prepare_ms = NsToMs(t1 - t0);
  s.execute_ms = NsToMs(t2 - t1);
  s.latency_ms = NsToMs(t2 - t0);
  s.end_ns = t2;
  return s;
}

/// Set-up as a client pays it: engine construction, the catalog, the first
/// Prepare() of every shape and one warm-up Execute() of each.
Session Setup(const Scenario& sc, double* seconds, std::vector<double>* miss_ms,
              std::vector<Sample>* warmups) {
  Session ss;
  const int64_t t0 = NowNs();
  ss.engine = std::make_unique<Engine>(sc.config);
  if (sc.chain != nullptr) {
    ss.catalog = std::make_unique<Catalog>(
        radix::ops::CatalogFromChainWorkload(*sc.chain));
  }
  for (size_t i = 0; i < sc.shapes.size(); ++i) {
    const Shape& sh = sc.shapes[i];
    const int64_t p0 = NowNs();
    if (sh.plan != nullptr) {
      PreparedPlan prepared;
      const radix::Status status =
          ss.engine->Prepare(*ss.catalog, *sh.plan, &prepared);
      ss.explains.push_back(status.ok() ? prepared.Explain() : Explanation{});
    } else {
      ss.explains.push_back(ss.engine->Prepare(*sh.input, sh.spec).Explain());
    }
    miss_ms->push_back(NsToMs(NowNs() - p0));
    warmups->push_back(RunOne(ss, sh, static_cast<uint32_t>(i), nullptr));
  }
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return ss;
}

struct Phase {
  std::vector<Sample> samples;
  int64_t start_ns = 0;
  double wall_s = 0;
};

/// The closed loop: each client issues its next query when the previous one
/// returns, until `seconds` have passed. Query k runs shape schedule[k].
Phase Measure(const Scenario& sc, const Session& ss, double seconds,
              bool traced, uint32_t* next_query, std::vector<Span>* spans) {
  std::atomic<uint64_t> next{0};
  std::vector<std::vector<Sample>> per_client(sc.clients);
  std::vector<SpanRecorder> recs(sc.clients, SpanRecorder(traced));
  const uint32_t query_base = *next_query;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < sc.clients; ++c) {
      clients.emplace_back([&, c] {
        SpanRecorder& rec = recs[c];
        while (NowNs() < deadline) {
          const uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
          const uint8_t shape = sc.schedule[k % sc.schedule.size()];
          rec.SetQuery(query_base + static_cast<uint32_t>(k));
          ScopedSpan root(&rec, kSpanQuery);
          per_client[c].push_back(RunOne(ss, sc.shapes[shape], shape, &rec));
        }
      });
    }
  }  // jthreads join here
  Phase phase;
  phase.start_ns = start;
  phase.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (size_t c = 0; c < sc.clients; ++c) {
    phase.samples.insert(phase.samples.end(), per_client[c].begin(),
                         per_client[c].end());
    const auto offset = static_cast<int32_t>(spans->size());
    for (Span s : recs[c].spans()) {
      if (s.parent >= 0) s.parent += offset;
      spans->push_back(s);
    }
  }
  *next_query = query_base + static_cast<uint32_t>(next.load());
  return phase;
}

/// Reference results, untimed, by another path: a serial engine running
/// DSM pre-projection for two-sided shapes, the scalar reference
/// interpreter for the plan tree.
void ComputeReferences(Scenario* sc, const Session& ss) {
  EngineConfig cfg;
  cfg.num_threads = 1;
  cfg.hierarchy = ss.engine->hierarchy();
  Engine serial(cfg);
  for (size_t i = 0; i < sc->shapes.size(); ++i) {
    Shape& sh = sc->shapes[i];
    // Shapes over the same input and projection list share one result.
    bool shared = false;
    for (size_t j = 0; j < i && !shared; ++j) {
      const Shape& o = sc->shapes[j];
      if (o.input != nullptr && o.input == sh.input &&
          o.spec.pi_left == sh.spec.pi_left &&
          o.spec.pi_right == sh.spec.pi_right &&
          o.spec.pi_varchar_left == sh.spec.pi_varchar_left &&
          o.spec.pi_varchar_right == sh.spec.pi_varchar_right) {
        sh.ref_ok = o.ref_ok;
        sh.ref_checksum = o.ref_checksum;
        sh.ref_rows = o.ref_rows;
        shared = true;
      }
    }
    if (shared) continue;
    if (sh.plan != nullptr) {
      radix::ops::PlanRun run;
      sh.ref_ok = radix::ops::ReferenceExecute(*ss.catalog, *sh.plan, &run).ok();
      sh.ref_checksum = run.checksum;
      sh.ref_rows = run.result_rows;
    } else {
      QuerySpec ref = sh.spec;
      ref.strategy = JoinStrategy::kDsmPrePhash;
      QueryRun run;
      sh.ref_ok = serial.Prepare(*sh.input, ref).Execute(&run).ok();
      sh.ref_checksum = run.checksum;
      sh.ref_rows = run.result_cardinality;
    }
  }
}

bool Verified(const Scenario& sc, const Sample& s) {
  const Shape& sh = sc.shapes[s.shape];
  return s.ok && sh.ref_ok && s.checksum == sh.ref_checksum &&
         s.rows == sh.ref_rows;
}

template <typename Pred, typename Field>
std::vector<double> Collect(const std::vector<Sample>& samples, Pred pred,
                            Field field) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (pred(s)) out.push_back(field(s));
  }
  return out;
}

/// The measured phase's end-to-end figures. A phase with many queries is
/// cut into up to ten equal blocks of completion time and every figure is
/// the median over blocks, so a burst of outside load in one block moves
/// none of them; a phase with few queries is one block.
struct EndToEnd {
  double qps = 0;
  double p50_ms = 0;
  double cd_p50_ms = 0;
  Tail tail;  ///< the block whose tail is the median; its percentile and count
  std::vector<double> block_p50_ms;
};

EndToEnd Summarize(const Scenario& sc, const Phase& phase, double seconds) {
  constexpr size_t kSamplesPerBlock = 1000;
  constexpr size_t kMaxBlocks = 10;
  const size_t k = std::clamp<size_t>(phase.samples.size() / kSamplesPerBlock, 1, kMaxBlocks);
  const double block_s = seconds / static_cast<double>(k);
  struct Block {
    size_t verified = 0;
    std::vector<double> query_ms, cd_ms;
  };
  std::vector<Block> blocks(k);
  for (const Sample& s : phase.samples) {
    const double t = static_cast<double>(s.end_ns - phase.start_ns) / 1e9;
    Block& b = blocks[std::min(k - 1, static_cast<size_t>(std::max(0.0, t / block_s)))];
    if (Verified(sc, s)) ++b.verified;
    if (sc.shapes[s.shape].latency) b.query_ms.push_back(s.latency_ms);
    if (sc.shapes[s.shape].cd) b.cd_ms.push_back(s.latency_ms);
  }
  std::vector<double> qps, p50, cd, tail_ms;
  std::vector<Tail> tails;
  for (size_t i = 0; i < k; ++i) {
    // The last block runs on to the end of the queries still in flight at
    // the deadline.
    const double span = i + 1 < k ? block_s : phase.wall_s - block_s * static_cast<double>(k - 1);
    qps.push_back(span > 0 ? static_cast<double>(blocks[i].verified) / span : 0);
    p50.push_back(Median(blocks[i].query_ms));
    cd.push_back(Median(blocks[i].cd_ms));
    tails.push_back(TailOf(blocks[i].query_ms));
    tail_ms.push_back(tails.back().value);
  }
  EndToEnd e;
  e.block_p50_ms = p50;
  e.qps = Median(qps);
  e.p50_ms = Median(p50);
  e.cd_p50_ms = Median(cd);
  const double tail = Median(tail_ms);
  e.tail = *std::min_element(tails.begin(), tails.end(), [&](const Tail& a, const Tail& b) {
    return std::abs(a.value - tail) < std::abs(b.value - tail);
  });
  e.tail.value = tail;
  return e;
}

std::string PlansJson(const Scenario& sc, const Session& ss) {
  std::string out = "{";
  for (size_t i = 0; i < sc.shapes.size(); ++i) {
    const Explanation& ex = ss.explains[i];
    if (i > 0) out += ", ";
    out += JsonString(sc.shapes[i].name) + ": " +
           JsonObject()
               .Str("plan", ex.plan_code)
               .Bool("streaming", ex.streaming)
               .Num("chunk_rows", static_cast<double>(ex.chunk_rows))
               .Num("threads", static_cast<double>(ex.threads))
               .Num("modeled_ms", ex.modeled_seconds * 1e3)
               .str();
  }
  return out + "}";
}

/// The per-layer rows of the traced run. Appends to `result` in the order
/// BENCHMARK.json lists them.
void TracedRows(Scenario* sc, const Session& ss, const Phase& untraced,
                const Phase& traced, const std::vector<double>& miss_ms,
                size_t gauge_peak, uint32_t* next_query,
                std::vector<Span>* spans, RunResult* result) {
  const Engine& eng = *ss.engine;
  const radix::hardware::MemoryHierarchy& hw = eng.hierarchy();
  std::vector<Sample> all = untraced.samples;
  all.insert(all.end(), traced.samples.begin(), traced.samples.end());
  std::vector<std::string> off_path;
  auto count = [&](bool ok) {
    ++result->attempted;
    if (!ok) ++result->failed;
  };

  // engine
  const radix::engine::EngineStats stats = eng.Stats();
  const double lookups =
      static_cast<double>(stats.plan_cache_hits + stats.plan_cache_misses);
  result->Add("engine.prepare_miss_ms", Median(miss_ms), "ms");
  const auto every = [](const Sample&) { return true; };
  result->Add("engine.prepare_hit_ms",
              Median(Collect(all, every, [](const Sample& s) { return s.prepare_ms; })),
              "ms");
  result->Add("engine.plan_cache_hit_ratio",
              lookups > 0 ? static_cast<double>(stats.plan_cache_hits) / lookups : 0,
              "ratio");
  result->Add("engine.execute_overhead_ms",
              Median(Collect(all, every,
                             [](const Sample& s) { return s.execute_ms - s.engine_ms; })),
              "ms");

  // planner: the main shape planned vs each pinned plan, client-timed.
  const Shape& main = sc->shapes[sc->main_shape];
  auto timed = [&](const QuerySpec& spec) {
    Shape probe = main;
    probe.spec = spec;
    std::vector<double> ms;
    for (int r = 0; r < sc->regret_reps; ++r) {
      const Sample s = RunOne(ss, probe, static_cast<uint32_t>(sc->main_shape), nullptr);
      count(Verified(*sc, s));
      ms.push_back(s.latency_ms);
    }
    return Median(ms);
  };
  QuerySpec planned = main.spec;
  planned.plan_sides = true;
  const double planned_ms = timed(planned);
  double best_ms = 0;
  std::string best_code;
  const SideStrategy kU = SideStrategy::kUnsorted;
  const SideStrategy kC = SideStrategy::kClustered;
  const SideStrategy kD = SideStrategy::kDecluster;
  const SideStrategy kS = SideStrategy::kSorted;
  const std::pair<SideStrategy, SideStrategy> pinned[] = {
      {kU, kU}, {kC, kU}, {kC, kD}, {kS, kD}};
  for (const auto& [left, right] : pinned) {
    QuerySpec spec = main.spec;
    spec.plan_sides = false;
    spec.left = left;
    spec.right = right;
    const double ms = timed(spec);
    if (best_code.empty() || ms < best_ms) {
      best_ms = ms;
      best_code = std::string(radix::project::SideStrategyCode(left)) + "/" +
                  radix::project::SideStrategyCode(right);
    }
  }
  result->Add("planner.regret", best_ms > 0 ? planned_ms / best_ms : 0, "ratio");
  result->detail
      .Str("regret_planned_plan", eng.Prepare(*main.input, planned).Explain().plan_code)
      .Str("regret_best_pinned_plan", best_code)
      .Num("regret_reps", sc->regret_reps);

  // costmodel: modeled / measured seconds of the main shape's engine runs.
  const Explanation& main_ex = ss.explains[sc->main_shape];
  const auto is_main = [&](const Sample& s) { return s.shape == sc->main_shape; };
  const double main_ms = Median(Collect(all, is_main, [](const Sample& s) { return s.engine_ms; }));
  const double main_join_ms = Median(
      Collect(all, is_main, [](const Sample& s) { return s.phases.join_seconds * 1e3; }));
  result->Add("costmodel.model_error", main_ms > 0 ? main_ex.modeled_seconds * 1e3 / main_ms : 0,
              "ratio");
  result->Add("costmodel.model_error.join",
              main_join_ms > 0 ? main_ex.join_cost.seconds * 1e3 / main_join_ms : 0, "ratio");
  result->detail.Str("model_error_base",
                     "median QueryRun::seconds (join: phases.join_seconds) of shape " +
                         main.name);

  // phases of the layer shape's engine runs
  const auto is_layer = [&](const Sample& s) { return s.shape == sc->layer_shape; };
  auto phase_ms = [&](auto field) {
    return Median(Collect(all, is_layer, [&](const Sample& s) { return field(s.phases) * 1e3; }));
  };
  result->Add("phase.join_ms", phase_ms([](const PhaseBreakdown& p) { return p.join_seconds; }), "ms");
  result->Add("phase.cluster_ms", phase_ms([](const PhaseBreakdown& p) { return p.cluster_seconds; }), "ms");
  result->Add("phase.projection_ms", phase_ms([](const PhaseBreakdown& p) { return p.projection_seconds; }), "ms");
  result->Add("phase.decluster_ms", phase_ms([](const PhaseBreakdown& p) { return p.decluster_seconds; }), "ms");
  const double pipeline_wall =
      phase_ms([](const PhaseBreakdown& p) { return p.pipeline_wall_seconds; });
  result->Add("phase.pipeline_wall_ms", pipeline_wall, "ms");
  result->Add("phase.unattributed_ms",
              Median(Collect(all, is_layer,
                             [](const Sample& s) { return s.engine_ms - s.phases.total() * 1e3; })),
              "ms");

  // Replays through the layer calls: every two-sided shape, each checked
  // against the reference; the layer shape's spans give the layer rows.
  SpanRecorder rec(true);
  struct LayerTimes {
    std::vector<double> join, cluster, gather, decluster, varchar, coverage;
  } lt;
  ReplayOutcome layer_outcome;
  for (size_t i = 0; i < sc->shapes.size(); ++i) {
    const Shape& sh = sc->shapes[i];
    if (sh.input == nullptr) continue;
    const auto engine_run = std::find_if(
        all.begin(), all.end(), [&](const Sample& s) { return s.shape == i; });
    for (int r = 0; r < sc->replay_reps; ++r) {
      const uint32_t q = (*next_query)++;
      rec.SetQuery(q);
      const ReplayOutcome o =
          ReplayDsmPost(*sh.input, sh.spec, ss.explains[i], hw, eng.pool(), &rec);
      count(engine_run != all.end() && o.checksum == engine_run->checksum &&
            sh.ref_ok && o.checksum == sh.ref_checksum && o.rows == sh.ref_rows);
      if (i != sc->layer_shape) continue;
      layer_outcome = o;
      const QueryProfile profile = ProfileQuery(rec.spans(), q);
      auto ms = [&](const char* name) {
        auto it = profile.self_ns.find(name);
        return it == profile.self_ns.end() ? 0.0 : NsToMs(it->second);
      };
      lt.join.push_back(ms(kSpanJoin));
      lt.cluster.push_back(ms(kSpanCluster));
      lt.gather.push_back(ms(kSpanGather));
      lt.decluster.push_back(ms(kSpanDecluster));
      lt.varchar.push_back(ms(kSpanDeclusterVarchar));
      lt.coverage.push_back(profile.coverage);
    }
  }
  // The plan tree replays through ops::ExecutePlan with the engine's plan.
  std::vector<double> chain_ms;
  std::vector<double> chain_chunks;
  for (size_t i = 0; i < sc->shapes.size(); ++i) {
    const Shape& sh = sc->shapes[i];
    if (sh.plan == nullptr) continue;
    PreparedPlan prepared;
    if (!eng.Prepare(*ss.catalog, *sh.plan, &prepared).ok()) {
      count(false);
      continue;
    }
    radix::ops::ExecOptions opts;
    opts.hw = &hw;
    opts.pool = eng.pool();
    opts.gauge = &sc->gauge;
    for (int r = 0; r < sc->replay_reps; ++r) {
      rec.SetQuery((*next_query)++);
      radix::ops::PlanRun run;
      radix::Status status = radix::Status::OK();
      {
        ScopedSpan q(&rec, kSpanQuery);
        ScopedSpan span(&rec, kSpanOps);
        status = radix::ops::ExecutePlan(*ss.catalog, *sh.plan,
                                         prepared.physical(), opts, &run);
      }
      count(status.ok() && sh.ref_ok && run.checksum == sh.ref_checksum &&
            run.result_rows == sh.ref_rows);
    }
    for (const Sample& s : all) {
      if (s.shape != i) continue;
      chain_ms.push_back(s.engine_ms);
      chain_chunks.push_back(static_cast<double>(s.chunks));
    }
  }

  // join
  const Shape& layer = sc->shapes[sc->layer_shape];
  const JoinWorkload& lw = *layer.input;
  std::vector<double> partition;
  for (int r = 0; r < sc->replay_reps; ++r) {
    rec.SetQuery((*next_query)++);
    partition.push_back(PartitionMs(lw, hw, eng.pool(), &rec));
  }
  const uint32_t join_bits = JoinBits(lw, hw);
  const double join_ms = Median(lt.join);
  result->Add("join.ms", join_ms, "ms");
  result->Add("join.partition_ms", Median(partition), "ms");
  result->Add("join.bits", join_bits, "bits");
  result->Add("join.mrows_per_s",
              join_ms > 0 ? static_cast<double>(lw.dsm_left.cardinality() +
                                                lw.dsm_right.cardinality()) /
                                (join_ms * 1e3)
                          : 0,
              "Mrows/s");
  if (join_bits == 0) off_path.push_back("join.partition_ms");

  // cluster, gather, decluster
  result->Add("cluster.index_ms", Median(lt.cluster), "ms");
  const double gather_ms = Median(lt.gather);
  result->Add("gather.ms", gather_ms, "ms");
  result->Add("gather.gbps", gather_ms > 0 ? layer_outcome.gather_bytes / (gather_ms * 1e6) : 0,
              "GB/s");
  result->Add("decluster.ms", Median(lt.decluster), "ms");
  result->Add("decluster.window_elems", static_cast<double>(layer_outcome.window_elems), "elems");
  result->Add("decluster.varchar_ms", Median(lt.varchar), "ms");
  if (layer.spec.pi_varchar_right == 0) off_path.push_back("decluster.varchar_ms");

  // pipeline
  const double busy = phase_ms(
      [](const PhaseBreakdown& p) { return p.projection_seconds + p.decluster_seconds; });
  const bool streamed = pipeline_wall > 0;
  result->Add("pipeline.wall_ms", pipeline_wall, "ms");
  result->Add("pipeline.busy_ms", streamed ? busy : 0, "ms");
  result->Add("pipeline.overlap", streamed ? busy / pipeline_wall : 0, "ratio");
  result->Add("pipeline.chunk_rows",
              static_cast<double>(ss.explains[sc->layer_shape].chunk_rows), "rows");
  result->Add("pipeline.peak_intermediate_mb", static_cast<double>(gauge_peak) / kMiB, "MiB");
  if (!streamed) {
    for (const char* m :
         {"pipeline.wall_ms", "pipeline.busy_ms", "pipeline.overlap", "pipeline.chunk_rows"}) {
      off_path.push_back(m);
    }
  }
  if (gauge_peak == 0) off_path.push_back("pipeline.peak_intermediate_mb");

  // ops
  result->Add("ops.chain_ms", Median(chain_ms), "ms");
  result->Add("ops.chunks", Median(chain_chunks), "count");
  if (chain_ms.empty()) {
    off_path.push_back("ops.chain_ms");
    off_path.push_back("ops.chunks");
  }

  // common SIMD kernels, single-threaded, on the layer shape's columns
  const KernelRates k = MeasureKernels(lw, hw, 5);
  result->Add("kernel.radix_count.gbps", k.radix_count.gbps, "GB/s");
  result->Add("kernel.radix_count.speedup", k.radix_count.speedup, "ratio");
  result->Add("kernel.gather.gbps", k.gather.gbps, "GB/s");
  result->Add("kernel.gather.speedup", k.gather.speedup, "ratio");
  result->Add("kernel.scatter.gbps", k.scatter.gbps, "GB/s");
  result->Add("kernel.scatter.speedup", k.scatter.speedup, "ratio");
  result->Add("kernel.isa", k.isa, "level");

  // tracing itself
  const auto is_latency = [&](const Sample& s) { return sc->shapes[s.shape].latency; };
  const auto latency = [](const Sample& s) { return s.latency_ms; };
  const double p50_untraced = Median(Collect(untraced.samples, is_latency, latency));
  const double p50_traced = Median(Collect(traced.samples, is_latency, latency));
  result->Add("trace.overhead", p50_untraced > 0 ? p50_traced / p50_untraced : 0, "ratio");
  result->Add("trace.coverage", Median(lt.coverage), "ratio");

  std::string off = "[";
  for (size_t i = 0; i < off_path.size(); ++i) {
    off += (i > 0 ? ", " : "") + JsonString(off_path[i]);
  }
  result->detail.Raw("zero_not_on_path", off + "]");
  for (const Span& s : rec.spans()) spans->push_back(s);
}

}  // namespace

bool IsWorkload(std::string_view name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const WorkloadEntry& w) { return w.name == name; });
}

void RunWorkload(const Args& args, RunResult* result) {
  std::unique_ptr<Scenario> sc = MakeScenario(args.workload, args.seed);

  // Set-up is repeated and reported as a median; the last session serves.
  std::vector<double> setup_s;
  std::vector<double> miss_ms;
  std::vector<Sample> warmups;
  Session ss;
  for (int r = 0; r < sc->setup_reps; ++r) {
    ss = Session{};  // release the previous engine before building the next
    double s = 0;
    ss = Setup(*sc, &s, &miss_ms, &warmups);
    setup_s.push_back(s);
  }

  sc->gauge.ResetPeak();
  uint32_t next_query = 1;
  std::vector<Span> spans;
  Phase untraced;
  Phase traced;
  if (args.trace) {
    untraced = Measure(*sc, ss, args.seconds / 2, false, &next_query, &spans);
    traced = Measure(*sc, ss, args.seconds / 2, true, &next_query, &spans);
  } else {
    untraced = Measure(*sc, ss, args.seconds, false, &next_query, &spans);
  }
  const double peak_rss = PeakRssMb();
  const size_t gauge_peak = sc->gauge.peak_bytes();

  ComputeReferences(sc.get(), ss);
  size_t measured = 0;
  size_t verified = 0;
  for (const std::vector<Sample>* list : {&warmups, &untraced.samples, &traced.samples}) {
    for (const Sample& s : *list) {
      const bool ok = Verified(*sc, s);
      ++result->attempted;
      if (!ok) ++result->failed;
      if (list != &warmups) {
        ++measured;
        if (ok) ++verified;
      }
    }
  }

  result->detail.Str("workload", args.workload)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("traced", args.trace)
      .Raw("host", HostFingerprintJson())
      .Raw("plans", PlansJson(*sc, ss))
      .Num("join_bits", JoinBits(*sc->shapes[sc->layer_shape].input, ss.engine->hierarchy()))
      .Num("clients", static_cast<double>(sc->clients))
      .Num("engine_threads", static_cast<double>(ss.engine->num_threads()))
      .Num("measured_queries", static_cast<double>(measured))
      .Num("failed_frac", measured > 0 ? 1.0 - static_cast<double>(verified) / measured : 0);

  if (args.trace) {
    TracedRows(sc.get(), ss, untraced, traced, miss_ms, gauge_peak, &next_query,
               &spans, result);
    if (!args.spans_out.empty() && !WriteSpansJson(args.spans_out, spans)) {
      result->detail.Str("spans_error", "cannot write " + args.spans_out);
    }
    return;
  }

  const EndToEnd e = Summarize(*sc, untraced, args.seconds);
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("qps", e.qps, "1/s");
  result->Add("query_p50_ms", e.p50_ms, "ms");
  result->Add("query_tail_ms", e.tail.value, "ms");
  result->Add("cd_p50_ms", e.cd_p50_ms, "ms");
  result->Add("peak_rss_mb", peak_rss, "MiB");
  result->shown.push_back(
      {"failed_frac", measured > 0 ? 1.0 - static_cast<double>(verified) / measured : 0,
       "ratio"});
  result->detail
      .Raw("query_tail",
           JsonObject()
               .Num("percentile", e.tail.percentile)
               .Num("samples_per_block", static_cast<double>(e.tail.samples))
               .Num("beyond", static_cast<double>(e.tail.beyond))
               .str())
      .Raw("block_p50_ms", JsonArray(e.block_p50_ms));
  result->detail.Raw("setup_s_runs", JsonArray(setup_s));
}

}  // namespace perfbench
