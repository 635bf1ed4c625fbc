// Streaming egress + Dataflow composition tests.
//
// 1. Sink-vs-poll equality: with a ResultSink wired via RouteResultsTo, the
//    streamed kResult pairs must equal the quiescent CollectPairs() exactly
//    — across both engines, every exchange plane, live migrations, both
//    join-index implementations, and the SHJ baseline.
// 2. Cascade-vs-materialized equality: a two-stage Dataflow (join feeding
//    join, no materialized intermediate) must produce byte-identical join
//    output to the materialized LocalJoin baseline on EQ5's dimension-side
//    cascade, on both engines, with live migrations in every stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/operator.h"
#include "src/datagen/tpch.h"
#include "src/query/dataflow.h"
#include "src/query/pipeline.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"
#include "src/tuple/serde.h"

namespace ajoin {
namespace {

std::vector<StreamTuple> MakeStream(uint64_t n_r, uint64_t n_s,
                                    int64_t key_domain, uint64_t seed) {
  std::vector<StreamTuple> out;
  Rng rng(seed);
  uint64_t left_r = n_r, left_s = n_s;
  while (left_r + left_s > 0) {
    bool pick_r = left_r > 0 &&
                  (left_s == 0 || rng.Uniform(left_r + left_s) < left_r);
    StreamTuple t;
    t.rel = pick_r ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(key_domain)));
    t.bytes = 16;
    out.push_back(t);
    if (pick_r) {
      --left_r;
    } else {
      --left_s;
    }
  }
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> ReferencePairs(
    const std::vector<StreamTuple>& stream) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (stream[i].rel != Rel::kR) continue;
    for (uint64_t j = 0; j < stream.size(); ++j) {
      if (stream[j].rel == Rel::kS && stream[j].key == stream[i].key) {
        out.emplace_back(i, j);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

enum class Plane { kSim, kPerTuple, kBatched, kBatchedTiny };

const Plane kAllPlanes[] = {Plane::kSim, Plane::kPerTuple, Plane::kBatched,
                            Plane::kBatchedTiny};

const char* PlaneName(Plane plane) {
  switch (plane) {
    case Plane::kSim: return "sim";
    case Plane::kPerTuple: return "per-tuple";
    case Plane::kBatched: return "batched";
    case Plane::kBatchedTiny: return "batched-tiny";
  }
  return "?";
}

std::unique_ptr<Engine> MakeEngine(Plane plane) {
  switch (plane) {
    case Plane::kSim:
      return std::make_unique<SimEngine>();
    case Plane::kPerTuple: {
      ExchangeConfig cfg;
      cfg.batch_size = 1;
      return std::make_unique<ThreadEngine>(cfg);
    }
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

// Runs `stream` through a JoinOperator with a ResultSink wired to every
// joiner, and asserts the streamed pairs equal the polled CollectPairs().
void RunSinkVsPoll(Plane plane, const std::vector<StreamTuple>& stream,
                   const std::vector<std::pair<uint64_t, uint64_t>>& want) {
  std::unique_ptr<Engine> engine = MakeEngine(plane);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 8;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;  // aggressive: migrations concurrent with egress
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;
  JoinOperator op(*engine, cfg);
  // The sink is added after the operator, so every result edge points at a
  // higher task id (the credit-blocking order the exchange plane needs).
  auto sink_owner = std::make_unique<ResultSink>();
  ResultSink* sink = sink_owner.get();
  const int sink_task = engine->AddTask(std::move(sink_owner));
  op.RouteResultsTo({sink_task});
  engine->Start();
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine->WaitQuiescent();
  const auto polled = op.CollectPairs();
  EXPECT_EQ(polled, want) << PlaneName(plane);
  EXPECT_EQ(sink->SortedPairs(), polled) << PlaneName(plane);
  EXPECT_EQ(sink->count(), polled.size());
  ASSERT_NE(op.controller(), nullptr);
  EXPECT_GE(op.controller()->log().size(), 1u) << PlaneName(plane);
  engine->Shutdown();
}

TEST(Egress, SinkMatchesCollectPairsAcrossProtocolMatrix) {
  auto stream = MakeStream(300, 900, 20, 61);
  const auto want = ReferencePairs(stream);
  for (Plane plane : kAllPlanes) {
    RunSinkVsPoll(plane, stream, want);
  }
}

TEST(Egress, ShjSinkMatchesCollectPairs) {
  auto stream = MakeStream(250, 700, 16, 62);
  const auto want = ReferencePairs(stream);
  for (Plane plane : {Plane::kSim, Plane::kBatched, Plane::kBatchedTiny}) {
    std::unique_ptr<Engine> engine = MakeEngine(plane);
    OperatorConfig cfg;
    cfg.spec = MakeEquiJoin(0, 0);
    cfg.machines = 8;
    cfg.collect_pairs = true;
    ShjOperator op(*engine, cfg);
    auto sink_owner = std::make_unique<ResultSink>();
    ResultSink* sink = sink_owner.get();
    const int sink_task = engine->AddTask(std::move(sink_owner));
    op.RouteResultsTo({sink_task});
    engine->Start();
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine->WaitQuiescent();
    const auto polled = op.CollectPairs();
    EXPECT_EQ(polled, want) << PlaneName(plane);
    EXPECT_EQ(sink->SortedPairs(), polled) << PlaneName(plane);
    engine->Shutdown();
  }
}

// Egress round-robined over several sinks: the union of all sinks' pairs
// must still equal CollectPairs() (partitioned delivery loses nothing).
TEST(Egress, MultiSinkUnionMatchesCollectPairs) {
  auto stream = MakeStream(200, 600, 12, 63);
  const auto want = ReferencePairs(stream);
  for (Plane plane : {Plane::kSim, Plane::kBatched}) {
    std::unique_ptr<Engine> engine = MakeEngine(plane);
    OperatorConfig cfg;
    cfg.spec = MakeEquiJoin(0, 0);
    cfg.machines = 8;
    cfg.adaptive = true;
    cfg.epsilon = 0.25;
    cfg.min_total_before_adapt = 16;
    cfg.collect_pairs = true;
    JoinOperator op(*engine, cfg);
    std::vector<ResultSink*> sinks;
    std::vector<int> sink_tasks;
    for (int i = 0; i < 3; ++i) {
      auto sink_owner = std::make_unique<ResultSink>();
      sinks.push_back(sink_owner.get());
      sink_tasks.push_back(engine->AddTask(std::move(sink_owner)));
    }
    op.RouteResultsTo(sink_tasks);
    engine->Start();
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine->WaitQuiescent();
    std::vector<std::pair<uint64_t, uint64_t>> merged;
    for (ResultSink* sink : sinks) {
      const auto part = sink->SortedPairs();
      merged.insert(merged.end(), part.begin(), part.end());
    }
    std::sort(merged.begin(), merged.end());
    EXPECT_EQ(merged, op.CollectPairs()) << PlaneName(plane);
    EXPECT_EQ(op.CollectPairs(), want) << PlaneName(plane);
    engine->Shutdown();
  }
}

// ---------------------------------------------------------------------------
// Dataflow cascade vs materialized baseline (EQ5 dimension side).
// ---------------------------------------------------------------------------

TpchConfig CascadeConfig() {
  TpchConfig cfg;
  cfg.gb = 1.0;
  cfg.lineitem_rows_per_gb = 12000;
  cfg.zipf_z = 0.4;
  cfg.seed = 19;
  return cfg;
}

// Region(one region) |X| Nation, materialized: the tiny seed relation both
// the baseline and the cascade start from.
MaterializedRelation BuildRegionNation(TpchGen& gen) {
  MaterializedRelation region =
      Scan("region", kNumRegions,
           [](uint64_t i) {
             Row row;
             row.Append(Value(static_cast<int64_t>(i)));
             return row;
           },
           [](const Row& row) { return row.Int64(0) == 0; });
  MaterializedRelation nation =
      Scan("nation", kNumNations,
           [&gen](uint64_t i) { return gen.Nation(i); });
  return LocalJoin(region, nation,
                   MakeEquiJoin(/*r_key_col=*/0, NationCols::kRegionKey),
                   "region_nation");
}

// Serialized multiset of a row collection — the byte-identical comparison.
std::vector<std::vector<uint8_t>> SortedRowBytes(
    const std::vector<Row>& rows) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<uint8_t> buf;
    SerializeRow(row, &buf);
    out.push_back(std::move(buf));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The EQ5 dimension cascade: (Region |X| Nation) |X| Supplier feeding
// |X| Lineitem — stage A's egress streams straight into stage B, no
// materialized intermediate — checked byte-for-byte against the fully
// materialized LocalJoin plan on the same inputs.
void RunCascadeVsMaterialized(Plane plane) {
  TpchConfig cfg = CascadeConfig();
  TpchGen gen(cfg);
  MaterializedRelation rn = BuildRegionNation(gen);
  MaterializedRelation supplier =
      Scan("supplier", cfg.NumSuppliers(),
           [&gen](uint64_t i) { return gen.Supplier(i); });
  MaterializedRelation lineitem =
      Scan("lineitem", cfg.NumLineitem(),
           [&gen](uint64_t i) { return gen.Lineitem(i); });

  // Materialized baseline: every intermediate realized before the next join
  // (the Squall pattern). rns rows: [r_regionkey, n_nationkey, n_regionkey,
  // s_suppkey, s_nationkey, s_acctbal]; suppkey at column 3.
  MaterializedRelation rns =
      LocalJoin(rn, supplier,
                MakeEquiJoin(/*r_key_col=*/1, SupplierCols::kNationKey),
                "rns");
  MaterializedRelation expected =
      LocalJoin(rns, lineitem,
                MakeEquiJoin(/*r_key_col=*/3, LineitemCols::kSuppKey),
                "eq5");

  // Streaming cascade: both joins distributed and online, stage A egress
  // wired into stage B's reshufflers, live migrations in both stages.
  std::unique_ptr<Engine> engine = MakeEngine(plane);
  Dataflow flow(*engine);
  OperatorConfig a_cfg;
  a_cfg.spec = MakeEquiJoin(/*r_key_col=*/1, SupplierCols::kNationKey);
  a_cfg.machines = 4;
  a_cfg.adaptive = true;
  a_cfg.epsilon = 0.25;
  a_cfg.min_total_before_adapt = 8;
  a_cfg.keep_rows = true;
  const int a = flow.AddJoin(a_cfg);
  OperatorConfig b_cfg;
  b_cfg.spec = MakeEquiJoin(/*r_key_col=*/3, LineitemCols::kSuppKey);
  b_cfg.machines = 8;
  b_cfg.adaptive = true;
  b_cfg.epsilon = 0.5;
  b_cfg.min_total_before_adapt = 64;
  b_cfg.keep_rows = true;
  const int b = flow.AddJoin(b_cfg);
  ResultSink::Options sink_opts;
  sink_opts.collect_rows = true;
  const int out = flow.AddSink(sink_opts);
  Dataflow::ConnectOptions wire;
  wire.rel = Rel::kR;
  wire.key_col = 3;  // s_suppkey within the stage-A result row
  flow.Connect(a, b, wire);
  flow.Connect(b, out);
  engine->Start();

  for (const Row& row : rn.rows) {
    StreamTuple t;
    t.rel = Rel::kR;
    t.key = row.Int64(1);  // n_nationkey
    t.bytes = 24;
    t.has_row = true;
    t.row = row;
    flow.join(a).Push(t);
  }
  for (const Row& row : supplier.rows) {
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = row.Int64(SupplierCols::kNationKey);
    t.bytes = 24;
    t.has_row = true;
    t.row = row;
    flow.join(a).Push(t);
  }
  for (const Row& row : lineitem.rows) {
    StreamTuple t;
    t.rel = Rel::kS;
    t.key = row.Int64(LineitemCols::kSuppKey);
    t.bytes = 48;
    t.has_row = true;
    t.row = row;
    flow.join(b).Push(t);
  }
  flow.SendEos();
  engine->WaitQuiescent();

  EXPECT_EQ(flow.sink(out).count(), expected.size()) << PlaneName(plane);
  EXPECT_EQ(SortedRowBytes(flow.sink(out).rows()),
            SortedRowBytes(expected.rows))
      << PlaneName(plane);
  // Live migrations happened in both distributed stages.
  ASSERT_NE(flow.join(a).controller(), nullptr);
  ASSERT_NE(flow.join(b).controller(), nullptr);
  EXPECT_GE(flow.join(a).controller()->log().size(), 1u) << PlaneName(plane);
  EXPECT_GE(flow.join(b).controller()->log().size(), 1u) << PlaneName(plane);
  engine->Shutdown();
}

TEST(Dataflow, CascadeMatchesMaterializedLocalJoinSim) {
  RunCascadeVsMaterialized(Plane::kSim);
}

TEST(Dataflow, CascadeMatchesMaterializedLocalJoinThreaded) {
  RunCascadeVsMaterialized(Plane::kBatched);
}

TEST(Dataflow, CascadeMatchesMaterializedLocalJoinThreadedTinyBatches) {
  RunCascadeVsMaterialized(Plane::kBatchedTiny);
}

TEST(Dataflow, CascadeMatchesMaterializedLocalJoinPerTuplePlane) {
  RunCascadeVsMaterialized(Plane::kPerTuple);
}

// A cascade into a pair-collecting sink on slim (row-less) tuples: key_col
// = -1 keeps the upstream join key, so a two-stage chain joins stage B on
// stage A's key without any rows at all.
TEST(Dataflow, SlimCascadeKeepsUpstreamKey) {
  for (Plane plane : {Plane::kSim, Plane::kBatched}) {
    std::unique_ptr<Engine> engine = MakeEngine(plane);
    Dataflow flow(*engine);
    OperatorConfig cfg;
    cfg.spec = MakeEquiJoin(0, 0);
    cfg.machines = 4;
    cfg.adaptive = false;
    cfg.initial = MidMapping(4);
    cfg.use_initial = true;
    const int a = flow.AddJoin(cfg);
    const int b = flow.AddJoin(cfg);
    const int out = flow.AddSink();
    flow.Connect(a, b);  // results enter B as R, keyed by A's join key
    flow.Connect(b, out);
    engine->Start();
    // Stage A: R = {k, k} x S = {k} per key k in [0, 8) -> 2 results per
    // key. Stage B: S side has 3 tuples per key -> 6 results per key.
    for (int64_t k = 0; k < 8; ++k) {
      for (int rep = 0; rep < 2; ++rep) {
        StreamTuple t;
        t.rel = Rel::kR;
        t.key = k;
        t.bytes = 8;
        flow.join(a).Push(t);
      }
      StreamTuple s;
      s.rel = Rel::kS;
      s.key = k;
      s.bytes = 8;
      flow.join(a).Push(s);
      for (int rep = 0; rep < 3; ++rep) {
        StreamTuple t;
        t.rel = Rel::kS;
        t.key = k;
        t.bytes = 8;
        flow.join(b).Push(t);
      }
    }
    flow.SendEos();
    engine->WaitQuiescent();
    EXPECT_EQ(flow.join(a).TotalOutputs(), 16u) << PlaneName(plane);
    EXPECT_EQ(flow.sink(out).count(), 48u) << PlaneName(plane);
    EXPECT_EQ(flow.join(b).TotalOutputs(), 48u) << PlaneName(plane);
    engine->Shutdown();
  }
}

}  // namespace
}  // namespace ajoin
