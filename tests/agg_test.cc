// Streaming group-by/aggregate correctness harness: proves the second
// operator family on the adaptive substrate end to end.
//
//  * WeightedAccum / AggTable unit tests pin the shared weight contract and
//    drive the open-addressing accumulator table differentially against a
//    std::unordered_map reference through growth, clears, and reserves.
//  * The operator differential runs seeded Zipf-keyed streams through the
//    full distributed stage — routers, partitioned workers, skew-driven
//    repartitioning migrations live — across the sim and threaded exchange
//    planes, and requires the merged aggregates to be byte-identical to the
//    single-threaded ReferenceAggregator (weights are 1.0 and values are
//    small integers, so double sums are exact and order-independent).
//  * Egress tests check the kResult row contract: final-only emission
//    delivers one row per group, periodic emission (emit_every) delivers
//    additive deltas, and FoldAggRows over either matches Collect().
//  * The Dataflow suite wires a fully online join -> join -> group-by
//    cascade with live migrations in all three stages and checks the
//    aggregates against a single-threaded two-stage reference; the
//    shedding suite re-runs a join -> group-by pipeline under a fixed
//    admission rate and requires the weighted per-key COUNT estimates to
//    land inside Bernstein confidence bounds while raw merge counts prove
//    results actually dropped.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/agg.h"
#include "src/core/operator.h"
#include "src/core/partition.h"
#include "src/index/agg_table.h"
#include "src/net/message.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

// ---- Shared helpers ---------------------------------------------------------

enum class Plane { kSim, kBatched, kBatchedTiny };

const Plane kAllPlanes[] = {Plane::kSim, Plane::kBatched, Plane::kBatchedTiny};

const char* PlaneName(Plane plane) {
  switch (plane) {
    case Plane::kSim: return "sim";
    case Plane::kBatched: return "batched";
    case Plane::kBatchedTiny: return "batched-tiny";
  }
  return "?";
}

std::unique_ptr<Engine> MakeEngine(Plane plane) {
  switch (plane) {
    case Plane::kSim:
      return std::make_unique<SimEngine>();
    case Plane::kBatched:
      return std::make_unique<ThreadEngine>(ExchangeConfig{});
    case Plane::kBatchedTiny: {
      ExchangeConfig cfg;
      cfg.batch_size = 5;
      cfg.ring_slots = 2;
      cfg.flush_deadline_us = 50;
      return std::make_unique<ThreadEngine>(cfg);
    }
  }
  return nullptr;
}

bool PollUntil(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Zipf-keyed ingress stream with a value deterministically derived from
/// the key (bytes = 8 + 4 * (key % 7)), so SUM/MIN/MAX are non-trivial and
/// every value stays a small exact integer in double.
std::vector<StreamTuple> MakeAggStream(uint64_t n, uint64_t key_domain,
                                       double zipf_z, uint64_t seed) {
  std::vector<StreamTuple> out;
  out.reserve(n);
  Rng rng(seed);
  ZipfSampler zipf(key_domain, zipf_z);
  for (uint64_t i = 0; i < n; ++i) {
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = static_cast<int64_t>(zipf.Sample(rng)) - 1;
    t.bytes = 8 + 4 * static_cast<uint32_t>(t.key % 7);
    out.push_back(t);
  }
  return out;
}

/// The single-threaded truth for a raw ingress stream (weight 1.0, value =
/// accounted bytes — the AggSpec defaults).
std::vector<AggResult> ReferenceResults(
    const std::vector<StreamTuple>& stream) {
  ReferenceAggregator ref;
  for (const StreamTuple& t : stream) {
    ref.Add(t.key, 1.0, static_cast<int64_t>(t.bytes));
  }
  return ref.Results();
}

void ExpectSameAggregates(const std::vector<AggResult>& got,
                          const std::vector<AggResult>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << label << " at " << i;
    EXPECT_TRUE(got[i].acc == want[i].acc)
        << label << " key " << got[i].key << ": got {count=" << got[i].acc.count
        << " sum=" << got[i].acc.sum << " min=" << got[i].acc.min
        << " max=" << got[i].acc.max << " tuples=" << got[i].acc.tuples
        << "} want {count=" << want[i].acc.count << " sum=" << want[i].acc.sum
        << " min=" << want[i].acc.min << " max=" << want[i].acc.max
        << " tuples=" << want[i].acc.tuples << "}";
  }
}

/// One-sided Bernstein deviation bound (same derivation as shed_test.cc):
/// for a sum of independent terms m_i * (Bernoulli(p)/p) with E = `total`
/// and m_i <= m_max, solved for the deviation at failure prob `delta`.
double BernsteinBound(double total, double m_max, double p, double delta) {
  const double var = total * m_max * (1.0 - p) / p;
  const double big_m = m_max / p;
  const double l = std::log(2.0 / delta);
  return std::sqrt(2.0 * var * l) + 2.0 / 3.0 * big_m * l;
}

// ---- WeightedAccum ----------------------------------------------------------

TEST(WeightedAccum, MergeTracksWeightedCountSumAndObservedExtremes) {
  WeightedAccum acc;
  acc.Merge(1.0, 10);
  acc.Merge(4.0, -3);
  acc.Merge(2.0, 7);
  EXPECT_EQ(acc.count, 7.0);
  EXPECT_EQ(acc.sum, 10.0 - 12.0 + 14.0);
  EXPECT_EQ(acc.min, -3);
  EXPECT_EQ(acc.max, 10);
  EXPECT_EQ(acc.tuples, 3u);
  EXPECT_EQ(acc.Avg(), acc.sum / acc.count);
}

TEST(WeightedAccum, AbsorbIsOrderIndependentAndHandlesEmpty) {
  WeightedAccum a, b, empty;
  a.Merge(1.0, 5);
  a.Merge(1.0, 9);
  b.Merge(2.0, -1);
  WeightedAccum ab = a, ba = b;
  ab.Absorb(b);
  ba.Absorb(a);
  EXPECT_TRUE(ab == ba);
  WeightedAccum with_empty = a;
  with_empty.Absorb(empty);
  EXPECT_TRUE(with_empty == a);
  WeightedAccum from_empty = empty;
  from_empty.Absorb(a);
  EXPECT_TRUE(from_empty == a);
  EXPECT_EQ(empty.Avg(), 0.0);
}

// ---- AggTable differential --------------------------------------------------

TEST(AggTable, UpsertFindMatchReferenceThroughGrowth) {
  AggTable table;  // starts unallocated: growth from the lazy empty state
  std::unordered_map<int64_t, WeightedAccum> ref;
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(3000)) - 1500;
    const int64_t value = static_cast<int64_t>(rng.Uniform(64));
    const double weight = rng.NextBool(0.3) ? 2.0 : 1.0;
    table.Upsert(key)->Merge(weight, value);
    ref[key].Merge(weight, value);
  }
  ASSERT_EQ(table.size(), ref.size());
  for (const auto& kv : ref) {
    const WeightedAccum* acc = table.Find(kv.first);
    ASSERT_NE(acc, nullptr) << "key " << kv.first;
    EXPECT_TRUE(*acc == kv.second) << "key " << kv.first;
  }
  EXPECT_EQ(table.Find(999999), nullptr);
  EXPECT_GT(table.MemoryBytes(), 0u);
}

TEST(AggTable, ForEachVisitsEveryCellExactlyOnce) {
  AggTable table;
  for (int64_t k = 0; k < 500; ++k) table.Upsert(k)->Merge(1.0, k);
  std::map<int64_t, int> seen;
  table.ForEach([&seen](const AggTable::Cell& cell) { ++seen[cell.key]; });
  ASSERT_EQ(seen.size(), 500u);
  for (const auto& kv : seen) EXPECT_EQ(kv.second, 1) << "key " << kv.first;
}

TEST(AggTable, ClearResetsAndReserveKeepsContents) {
  AggTable table;
  for (int64_t k = 0; k < 100; ++k) table.Upsert(k)->Merge(1.0, 2 * k);
  table.Reserve(1 << 12);
  ASSERT_EQ(table.size(), 100u);
  for (int64_t k = 0; k < 100; ++k) {
    const WeightedAccum* acc = table.Find(k);
    ASSERT_NE(acc, nullptr);
    EXPECT_EQ(acc->sum, static_cast<double>(2 * k));
  }
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(1), nullptr);
  table.Upsert(7)->Merge(1.0, 7);  // usable again after Clear
  EXPECT_EQ(table.size(), 1u);
}

TEST(AggTable, ReserveAvoidsMidAbsorbGrowth) {
  // The migration rebuild (Clear + Reserve(kept) + re-upsert) must size the
  // table once: n distinct upserts after Reserve(n) never grow it. The n
  // straddle the 7/8 thresholds of 64, 512 and 8192 slots.
  AggTable table;
  for (const size_t n : {56u, 57u, 448u, 449u, 7168u, 7169u}) {
    table.Clear();
    table.Reserve(n);
    const size_t bytes = table.MemoryBytes();
    for (size_t k = 0; k < n; ++k) {
      table.Upsert(static_cast<int64_t>(k * 7919))->Merge(1.0, 1);
    }
    EXPECT_EQ(table.MemoryBytes(), bytes) << "n " << n;
    EXPECT_EQ(table.size(), n);
  }
}

// ---- FoldAggRows ------------------------------------------------------------

Row MakeAggRow(int64_t key, const WeightedAccum& acc) {
  Row row;
  row.Append(Value(key));
  row.Append(Value(acc.count));
  row.Append(Value(acc.sum));
  row.Append(Value(acc.min));
  row.Append(Value(acc.max));
  row.Append(Value(static_cast<int64_t>(acc.tuples)));
  return row;
}

TEST(FoldAggRows, FoldsAdditiveDeltasPerKey) {
  WeightedAccum first, second, other;
  first.Merge(1.0, 4);
  first.Merge(1.0, 10);
  second.Merge(2.0, -2);
  other.Merge(1.0, 3);
  std::vector<Row> rows = {MakeAggRow(5, first), MakeAggRow(2, other),
                           MakeAggRow(5, second)};
  const auto folded = FoldAggRows(rows);
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ(folded[0].key, 2);
  EXPECT_TRUE(folded[0].acc == other);
  EXPECT_EQ(folded[1].key, 5);
  WeightedAccum want = first;
  want.Absorb(second);
  EXPECT_TRUE(folded[1].acc == want);
}

// ---- Control payload: the assignment vector travels out of line -----------

/// Records sends instead of dispatching them.
class CaptureContext : public Context {
 public:
  int self() const override { return 0; }
  void Send(int to, Envelope msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  uint64_t NowMicros() const override { return 0; }
  std::vector<std::pair<int, Envelope>> sent;
};

TEST(AggControl, AssignmentSurvivesBroadcastToRoutersAndWorkers) {
  // The controller router's rebalance ships the whole partition -> worker
  // assignment in the kEpochChange control payload, one copy per router;
  // each router then copies it into a kReshufSignal per worker. Every copy
  // must carry the same vector the controller decided.
  constexpr uint32_t kPartitions = 8;
  constexpr int kWorkerBase = 10;
  AggRouterCore::Config rc;
  rc.num_routers = 2;
  rc.num_workers = 2;
  rc.partitions = kPartitions;
  rc.worker_task_base = kWorkerBase;
  rc.min_total_before_adapt = 16;
  rc.check_every = 16;
  AggRouterCore controller(rc);
  // Load two partitions that both start on worker 0 (initial assignment is
  // partition % 2), so the greedy rebalance has one to move.
  std::vector<int64_t> keys;
  std::vector<uint32_t> parts;
  for (int64_t key = 0; keys.size() < 2; ++key) {
    const uint32_t p =
        PartitionOf(SplitMix64(static_cast<uint64_t>(key)), kPartitions);
    if (p % 2 != 0 || std::count(parts.begin(), parts.end(), p) != 0) {
      continue;
    }
    keys.push_back(key);
    parts.push_back(p);
  }
  CaptureContext ctx;
  for (uint64_t i = 0; i < 32; ++i) {
    Envelope in = MakeInput(Rel::kR, keys[i % 2], 8, i);
    controller.OnMessage(std::move(in), ctx);
  }
  std::vector<Envelope> changes;
  for (auto& [to, env] : ctx.sent) {
    if (env.type == MsgType::kEpochChange) changes.push_back(env);
  }
  ASSERT_EQ(changes.size(), 2u);  // one per router, the controller included
  const std::vector<uint32_t> decided = changes[0].espec->agg_assign;
  ASSERT_EQ(decided.size(), kPartitions);
  EXPECT_NE(decided[parts[0]], decided[parts[1]]);  // a partition moved
  EXPECT_EQ(changes[1].espec->agg_assign, decided);
  EXPECT_EQ(changes[1].espec->epoch, 1u);

  AggRouterCore::Config peer_rc = rc;
  peer_rc.index = 1;
  AggRouterCore peer(peer_rc);
  CaptureContext peer_ctx;
  peer.OnMessage(changes[1], peer_ctx);
  EXPECT_EQ(peer.epoch(), 1u);
  EXPECT_EQ(peer.assignment(), decided);
  size_t signals = 0;
  for (auto& [to, env] : peer_ctx.sent) {
    ASSERT_EQ(env.type, MsgType::kReshufSignal);
    EXPECT_EQ(to, kWorkerBase + static_cast<int>(signals));
    EXPECT_EQ(env.espec->epoch, 1u);
    EXPECT_EQ(env.espec->agg_assign, decided);
    ++signals;
  }
  EXPECT_EQ(signals, 2u);
}

// ---- Distributed differential: AggOperator vs ReferenceAggregator ----------

struct AggRunResult {
  std::vector<AggResult> collected;
  std::vector<AggResult> sunk;  // folded from the sink's kResult rows
  uint64_t migrations = 0;
  uint64_t sink_rows = 0;
};

AggRunResult RunAgg(Plane plane, const std::vector<StreamTuple>& stream,
                    AggConfig cfg) {
  std::unique_ptr<Engine> engine = MakeEngine(plane);
  AggOperator op(*engine, cfg);
  ResultSink::Options so;
  so.collect_pairs = false;
  so.collect_rows = true;
  auto sink_owner = std::make_unique<ResultSink>(so);
  ResultSink* sink = sink_owner.get();
  const int sink_task = engine->AddTask(std::move(sink_owner));
  op.RouteResultsTo({sink_task});
  engine->Start();
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine->WaitQuiescent();
  AggRunResult out;
  out.collected = op.Collect();
  out.sunk = FoldAggRows(sink->rows());
  out.migrations = op.TotalMigrations();
  out.sink_rows = sink->rows().size();
  engine->Shutdown();
  return out;
}

AggConfig AdaptiveConfig() {
  AggConfig cfg;
  cfg.machines = 4;
  cfg.partitions = 64;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 16;
  cfg.check_every = 16;
  return cfg;
}

TEST(AggDifferential, MatchesReferenceWithLiveMigrationsAcrossPlanes) {
  for (uint64_t seed : {41u, 42u}) {
    // Zipf 1.1 over 200 keys: heavily skewed partition loads, so the
    // controller repartitions while the stream is in flight.
    auto stream = MakeAggStream(4000 + 256 * seed, 200, 1.1, seed);
    const auto want = ReferenceResults(stream);
    for (Plane plane : kAllPlanes) {
      const auto run = RunAgg(plane, stream, AdaptiveConfig());
      const std::string label =
          std::string(PlaneName(plane)) + " seed " + std::to_string(seed);
      ExpectSameAggregates(run.collected, want, label + " collected");
      ExpectSameAggregates(run.sunk, want, label + " sunk");
      // Final-only emission: exactly one kResult row per group.
      EXPECT_EQ(run.sink_rows, want.size()) << label;
      EXPECT_GE(run.migrations, 1u) << label;
    }
  }
}

TEST(AggDifferential, FrozenAssignmentMatchesReference) {
  auto stream = MakeAggStream(3000, 64, 0.8, 7);
  const auto want = ReferenceResults(stream);
  AggConfig cfg = AdaptiveConfig();
  cfg.adaptive = false;
  for (Plane plane : {Plane::kSim, Plane::kBatched}) {
    const auto run = RunAgg(plane, stream, cfg);
    ExpectSameAggregates(run.collected, want, PlaneName(plane));
    EXPECT_EQ(run.migrations, 0u) << PlaneName(plane);
  }
}

TEST(AggDifferential, PeriodicEmissionFoldsToFinalTotals) {
  auto stream = MakeAggStream(2500, 96, 1.0, 11);
  const auto want = ReferenceResults(stream);
  AggConfig cfg = AdaptiveConfig();
  cfg.emit_every = 64;  // many partial flushes per worker
  for (Plane plane : {Plane::kSim, Plane::kBatchedTiny}) {
    const auto run = RunAgg(plane, stream, cfg);
    const std::string label = PlaneName(plane);
    // Partials are additive deltas: folding the sink stream reproduces the
    // exact totals, and more rows than groups arrived.
    ExpectSameAggregates(run.sunk, want, label + " folded partials");
    EXPECT_GT(run.sink_rows, want.size()) << label;
  }
}

TEST(AggDifferential, RowColumnsSelectKeyAndValue) {
  // key_col/value_col: group by row column 0, aggregate row column 1;
  // the envelope key is deliberately wrong so only the row path can pass.
  std::vector<StreamTuple> stream;
  ReferenceAggregator ref;
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const int64_t group = static_cast<int64_t>(rng.Uniform(40));
    const int64_t value = static_cast<int64_t>(rng.Uniform(100)) - 50;
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = -1;  // ignored when key_col >= 0
    t.bytes = 16;
    t.has_row = true;
    t.row.Append(Value(group));
    t.row.Append(Value(value));
    stream.push_back(t);
    ref.Add(group, 1.0, value);
  }
  AggConfig cfg = AdaptiveConfig();
  cfg.spec.key_col = 0;
  cfg.spec.value_col = 1;
  for (Plane plane : {Plane::kSim, Plane::kBatched}) {
    const auto run = RunAgg(plane, stream, cfg);
    ExpectSameAggregates(run.collected, ref.Results(), PlaneName(plane));
  }
}

TEST(AggTelemetry, WorkersPublishAggSnapshots) {
  auto stream = MakeAggStream(3000, 128, 1.1, 31);
  SimEngine engine;
  MetricsRegistry registry;
  AggConfig cfg = AdaptiveConfig();
  cfg.registry = &registry;
  AggOperator op(engine, cfg);
  engine.Start();
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  uint64_t agg_cells = 0, in_tuples = 0, groups = 0, finalized = 0;
  bool all_flushed = true;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kAgg) continue;
    ++agg_cells;
    in_tuples += task.agg.in_tuples;
    groups += task.agg.groups;
    finalized += task.agg.migrations_finalized;
    all_flushed = all_flushed && task.agg.flushed;
    EXPECT_GT(task.agg.table_bytes, 0u);
  }
  EXPECT_EQ(agg_cells, 4u);
  EXPECT_EQ(in_tuples, stream.size());
  EXPECT_EQ(groups, op.Collect().size());
  EXPECT_EQ(finalized, op.TotalMigrations());
  EXPECT_GE(finalized, 1u);
  EXPECT_TRUE(all_flushed);
  engine.Shutdown();
}

// ---- Dataflow: fully online join -> join -> group-by cascade ---------------

/// Slim two-stage cascade on a shared key domain. Stage A joins rA copies
/// of R against sA copies of S per key; its egress enters stage B as R
/// (keyed by A's join key); stage B's own S side carries sB tuples per
/// key. Every stage-B result for key k therefore has bytes = 3 * 16 and
/// the exact per-key result count is rA(k) * sA(k) * sB(k).
void RunCascadeGroupBy(Plane plane, uint64_t seed) {
  const int64_t kKeys = 24;
  Rng rng(seed);
  std::vector<uint64_t> r_a(kKeys), s_a(kKeys), s_b(kKeys);
  for (int64_t k = 0; k < kKeys; ++k) {
    // Skewed per-key cardinalities so all three stages see hot keys.
    const uint64_t hot = (k < 4) ? 6 : 1;
    r_a[k] = 1 + rng.Uniform(2 * hot);
    s_a[k] = 1 + rng.Uniform(3 * hot);
    s_b[k] = 1 + rng.Uniform(3 * hot);
  }
  ReferenceAggregator ref;
  for (int64_t k = 0; k < kKeys; ++k) {
    const uint64_t results = r_a[k] * s_a[k] * s_b[k];
    for (uint64_t i = 0; i < results; ++i) ref.Add(k, 1.0, 48);
  }

  std::unique_ptr<Engine> engine = MakeEngine(plane);
  Dataflow flow(*engine);
  OperatorConfig join_cfg;
  join_cfg.spec = MakeEquiJoin(0, 0);
  join_cfg.machines = 4;
  join_cfg.adaptive = true;
  join_cfg.epsilon = 0.25;
  join_cfg.min_total_before_adapt = 16;
  const int a = flow.AddJoin(join_cfg);
  const int b = flow.AddJoin(join_cfg);
  AggConfig agg_cfg = AdaptiveConfig();
  const int g = flow.AddGroupBy(agg_cfg);
  ResultSink::Options so;
  so.collect_pairs = false;
  so.collect_rows = true;
  const int out = flow.AddSink(so);
  flow.Connect(a, b);  // A results enter B as R, keyed by A's join key
  flow.Connect(b, g);  // B results enter the group-by, keyed by B's key
  flow.Connect(g, out);
  engine->Start();

  // Interleave stage-A and stage-B pushes so both joins run online.
  std::vector<StreamTuple> feed_a, feed_b;
  for (int64_t k = 0; k < kKeys; ++k) {
    for (uint64_t i = 0; i < r_a[k]; ++i) {
      StreamTuple t;
      t.rel = Rel::kR;
      t.key = k;
      t.bytes = 16;
      feed_a.push_back(t);
    }
    for (uint64_t i = 0; i < s_a[k]; ++i) {
      StreamTuple t;
      t.rel = Rel::kS;
      t.key = k;
      t.bytes = 16;
      feed_a.push_back(t);
    }
    for (uint64_t i = 0; i < s_b[k]; ++i) {
      StreamTuple t;
      t.rel = Rel::kS;
      t.key = k;
      t.bytes = 16;
      feed_b.push_back(t);
    }
  }
  for (size_t i = feed_a.size(); i > 1; --i) {
    std::swap(feed_a[i - 1], feed_a[rng.Uniform(i)]);
  }
  // B's S side must be resident before A's results probe it, or those
  // results produce nothing; push it first (it is its own relation).
  for (const StreamTuple& t : feed_b) flow.join(b).Push(t);
  for (const StreamTuple& t : feed_a) flow.join(a).Push(t);
  flow.SendEos();
  engine->WaitQuiescent();

  const std::string label =
      std::string(PlaneName(plane)) + " seed " + std::to_string(seed);
  ExpectSameAggregates(flow.groupby(g).Collect(), ref.Results(),
                       label + " collected");
  ExpectSameAggregates(FoldAggRows(flow.sink(out).rows()), ref.Results(),
                       label + " sunk");
  // All three stages adapted while the stream was live.
  ASSERT_NE(flow.join(a).controller(), nullptr);
  ASSERT_NE(flow.join(b).controller(), nullptr);
  EXPECT_GE(flow.join(a).controller()->log().size(), 1u) << label;
  EXPECT_GE(flow.join(b).controller()->log().size(), 1u) << label;
  EXPECT_GE(flow.groupby(g).TotalMigrations(), 1u) << label;
  engine->Shutdown();
}

TEST(DataflowGroupBy, CascadeMatchesReferenceSim) {
  RunCascadeGroupBy(Plane::kSim, 101);
}

TEST(DataflowGroupBy, CascadeMatchesReferenceThreaded) {
  RunCascadeGroupBy(Plane::kBatched, 102);
}

TEST(DataflowGroupBy, CascadeMatchesReferenceThreadedTinyBatches) {
  RunCascadeGroupBy(Plane::kBatchedTiny, 103);
}

// ---- Shedding e2e: unbiased aggregates over a sampled join -----------------

/// Every active joiner cell reports `rate` in its telemetry snapshot.
bool AllJoinersAtRate(const MetricsRegistry& registry, uint32_t rate) {
  size_t joiners = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kJoiner || !task.joiner.active) continue;
    ++joiners;
    if (task.joiner.shed_rate_ppm != rate) return false;
  }
  return joiners > 0;
}

TEST(AggShedding, WeightedGroupCountsWithinConfidenceBounds) {
  // 16 keys x 4 R x 400 S = 25600 exact join results, <= 4 matches per
  // probe — the bounded-match scheme of shed_test.cc, with the HT-weighted
  // per-key totals now folded by the downstream group-by stage instead of
  // the sink.
  const int64_t kKeys = 16;
  const uint64_t kSPerKey = 400;
  const double kP = 0.25;
  const double kExactPerKey = 4.0 * static_cast<double>(kSPerKey);
  const double kKeyBound = BernsteinBound(kExactPerKey, 4.0, kP, 1e-9);
  ASSERT_LT(kKeyBound, kExactPerKey * (1.0 - kP) - 1.0)
      << "bound too loose to detect a missing HT weight";
  const uint32_t kRate = static_cast<uint32_t>(kP * kShedExactPpm);
  for (Plane plane : {Plane::kSim, Plane::kBatched}) {
    for (uint64_t seed : {51u, 52u}) {
      // R side first (4 per key, shuffled), then the S probes.
      std::vector<StreamTuple> stream;
      Rng rng(seed);
      for (int64_t k = 0; k < kKeys; ++k) {
        for (int i = 0; i < 4; ++i) {
          StreamTuple t;
          t.rel = Rel::kR;
          t.key = k;
          t.bytes = 16;
          stream.push_back(t);
        }
      }
      for (size_t i = stream.size(); i > 1; --i) {
        std::swap(stream[i - 1], stream[rng.Uniform(i)]);
      }
      const size_t r_end = stream.size();
      for (int64_t k = 0; k < kKeys; ++k) {
        for (uint64_t i = 0; i < kSPerKey; ++i) {
          StreamTuple t;
          t.rel = Rel::kS;
          t.key = k;
          t.bytes = 16;
          stream.push_back(t);
        }
      }
      for (size_t i = stream.size(); i > r_end + 1; --i) {
        std::swap(stream[i - 1], stream[r_end + rng.Uniform(i - r_end)]);
      }

      std::unique_ptr<Engine> engine = MakeEngine(plane);
      MetricsRegistry registry;
      Dataflow flow(*engine);
      flow.SetTelemetry(&registry, nullptr);
      OperatorConfig cfg;
      cfg.spec = MakeEquiJoin(0, 0);
      cfg.machines = 4;
      cfg.adaptive = false;
      cfg.initial = MidMapping(4);
      cfg.use_initial = true;
      const int join = flow.AddJoin(cfg);
      const int g = flow.AddGroupBy(AdaptiveConfig());
      const int out = flow.AddSink();
      flow.Connect(join, g);
      flow.Connect(g, out);
      engine->Start();
      ASSERT_TRUE(flow.join(join).SetShedRate(kRate));
      if (plane == Plane::kSim) {
        engine->WaitQuiescent();  // sim: drain the control lane first
      } else {
        ASSERT_TRUE(PollUntil(
            [&] { return AllJoinersAtRate(registry, kRate); }, 10000));
      }
      for (const StreamTuple& t : stream) flow.join(join).Push(t);
      flow.SendEos();
      engine->WaitQuiescent();

      const auto groups = flow.groupby(g).Collect();
      const std::string label =
          std::string(PlaneName(plane)) + " seed " + std::to_string(seed);
      uint64_t raw_total = 0;
      std::vector<double> per_key(static_cast<size_t>(kKeys), 0.0);
      for (const AggResult& gr : groups) {
        ASSERT_GE(gr.key, 0) << label;
        ASSERT_LT(gr.key, kKeys) << label;
        per_key[static_cast<size_t>(gr.key)] = gr.acc.count;
        raw_total += gr.acc.tuples;
      }
      // Raw merge counts prove results actually dropped (~p of exact).
      const double exact_total = kExactPerKey * static_cast<double>(kKeys);
      EXPECT_GT(raw_total, 0u) << label;
      EXPECT_LT(static_cast<double>(raw_total), 0.6 * exact_total) << label;
      // Weighted COUNT per group inside the per-key Bernstein bound.
      for (int64_t k = 0; k < kKeys; ++k) {
        EXPECT_NEAR(per_key[static_cast<size_t>(k)], kExactPerKey, kKeyBound)
            << label << " key " << k;
      }
      engine->Shutdown();
    }
  }
}

}  // namespace
}  // namespace ajoin
