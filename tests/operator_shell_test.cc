// The ingress/egress shell shared by every operator facade: the same verb
// sequence must behave the same on the join, the SHJ baseline and the
// group-by.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/agg.h"
#include "src/core/operator.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

/// Pushes 10 tuples at ingress batch target 64 (so all of them stay
/// staged), retargets to per-tuple posts, and drains the engine.
void PushTenThenRetarget(Engine& engine, OperatorShell& op) {
  engine.Start();
  op.SetIngressBatch(64);
  for (int i = 0; i < 10; ++i) {
    StreamTuple t;
    t.rel = i % 2 == 0 ? Rel::kR : Rel::kS;
    t.key = i;
    t.bytes = 8;
    op.Push(t);
  }
  op.SetIngressBatch(1);
  engine.WaitQuiescent();
}

/// Input tuples stored across a join facade's joiners (each tuple is
/// stored exactly once on these single-grid layouts).
uint64_t StoredInputs(const Operator& op) {
  uint64_t n = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    n += op.joiner(i).metrics().in_tuples;
  }
  return n;
}

TEST(OperatorShell, RetargetingIngressBatchDeliversStagedInput) {
  OperatorConfig join_cfg;
  join_cfg.spec = MakeEquiJoin(0, 0);
  join_cfg.machines = 1;
  {
    SimEngine engine;
    JoinOperator op(engine, join_cfg);
    PushTenThenRetarget(engine, op);
    EXPECT_EQ(StoredInputs(op), 10u) << "JoinOperator";
  }
  {
    SimEngine engine;
    OperatorConfig cfg = join_cfg;
    cfg.machines = 2;
    ShjOperator op(engine, cfg);
    PushTenThenRetarget(engine, op);
    EXPECT_EQ(StoredInputs(op), 10u) << "ShjOperator";
  }
  {
    SimEngine engine;
    AggConfig cfg;
    cfg.machines = 2;
    cfg.partitions = 4;
    AggOperator op(engine, cfg);
    PushTenThenRetarget(engine, op);
    uint64_t merged = 0;
    for (size_t w = 0; w < op.num_workers(); ++w) {
      merged += op.worker(w).in_tuples();
    }
    EXPECT_EQ(merged, 10u) << "AggOperator";
  }
}

}  // namespace
}  // namespace ajoin
