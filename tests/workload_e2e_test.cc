// End-to-end runs of the paper's actual workloads (small scale, materialized
// rows) through the distributed operator, checked against a single-machine
// LocalJoiner reference: the distributed grid + migrations must not change
// the result set of any query.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "src/core/operator.h"
#include "src/datagen/workloads.h"
#include "src/localjoin/local_join.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

TpchConfig TinyConfig() {
  TpchConfig cfg;
  cfg.gb = 1.0;
  cfg.lineitem_rows_per_gb = 3000;
  cfg.zipf_z = 0.5;
  cfg.seed = 7;
  return cfg;
}

struct E2EParam {
  QueryId query;
  uint32_t machines;
  bool adaptive;
};

// gtest registers each case under a printout of its parameter; without this
// overload that is a byte dump including the struct's uninitialized padding,
// so the ctest name would change from build to build.
void PrintTo(const E2EParam& p, std::ostream* os) {
  *os << QueryName(p.query) << "_J" << p.machines
      << (p.adaptive ? "_dyn" : "_static");
}

class WorkloadE2E : public ::testing::TestWithParam<E2EParam> {};

TEST_P(WorkloadE2E, DistributedMatchesLocalReference) {
  const E2EParam param = GetParam();
  Workload w(param.query, TinyConfig(), /*materialize_rows=*/true);

  // Reference: single-machine pipelined join over the same arrival order.
  LocalJoiner reference(w.spec());
  uint64_t ref_outputs = 0;
  {
    auto source = w.MakeSource(ArrivalPolicy{});
    StreamTuple t;
    while (source->Next(&t)) {
      reference.Insert(t.rel, t.row,
                       [&ref_outputs](const Row&, const Row&) {
                         ++ref_outputs;
                       });
    }
  }

  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = w.spec();
  cfg.machines = param.machines;
  cfg.adaptive = param.adaptive;
  cfg.min_total_before_adapt = 64;
  cfg.keep_rows = true;
  JoinOperator op(engine, cfg);
  engine.Start();
  {
    auto source = w.MakeSource(ArrivalPolicy{});
    StreamTuple t;
    while (source->Next(&t)) {
      op.Push(t);
      engine.WaitQuiescent();
    }
  }
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.TotalOutputs(), ref_outputs);
  if (param.adaptive && param.query == QueryId::kEQ5) {
    // EQ5's 1:many ratio must have pulled the mapping off the square.
    EXPECT_NE(op.controller()->current_mapping(0), MidMapping(param.machines));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, WorkloadE2E,
    ::testing::Values(E2EParam{QueryId::kEQ5, 16, true},
                      E2EParam{QueryId::kEQ7, 16, true},
                      E2EParam{QueryId::kBCI, 8, true},
                      E2EParam{QueryId::kBNCI, 8, true},
                      E2EParam{QueryId::kFluct, 16, true},
                      E2EParam{QueryId::kEQ5, 16, false},
                      E2EParam{QueryId::kBCI, 4, false},
                      E2EParam{QueryId::kFluct, 32, true}),
    [](const ::testing::TestParamInfo<E2EParam>& info) {
      std::string name = QueryName(info.param.query);
      name += "_J" + std::to_string(info.param.machines);
      name += info.param.adaptive ? "_dyn" : "_static";
      return name;
    });

TEST(WorkloadE2E, ShjMatchesReferenceOnEqui) {
  Workload w(QueryId::kFluct, TinyConfig(), /*materialize_rows=*/true);
  LocalJoiner reference(w.spec());
  uint64_t ref_outputs = 0;
  {
    auto source = w.MakeSource(ArrivalPolicy{});
    StreamTuple t;
    while (source->Next(&t)) {
      reference.Insert(t.rel, t.row,
                       [&ref_outputs](const Row&, const Row&) {
                         ++ref_outputs;
                       });
    }
  }
  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = w.spec();
  cfg.machines = 8;
  cfg.keep_rows = true;
  ShjOperator op(engine, cfg);
  engine.Start();
  auto source = w.MakeSource(ArrivalPolicy{});
  StreamTuple t;
  while (source->Next(&t)) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.TotalOutputs(), ref_outputs);
}

TEST(WorkloadE2E, FluctuatingArrivalStillExact) {
  Workload w(QueryId::kFluct, TinyConfig(), /*materialize_rows=*/true);
  ArrivalPolicy policy;
  policy.kind = ArrivalPolicy::Kind::kFluctuating;
  policy.fluct_k = 4.0;

  LocalJoiner reference(w.spec());
  uint64_t ref_outputs = 0;
  {
    auto source = w.MakeSource(policy);
    StreamTuple t;
    while (source->Next(&t)) {
      reference.Insert(t.rel, t.row,
                       [&ref_outputs](const Row&, const Row&) {
                         ++ref_outputs;
                       });
    }
  }
  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = w.spec();
  cfg.machines = 16;
  cfg.adaptive = true;
  cfg.min_total_before_adapt = 64;
  cfg.keep_rows = true;
  JoinOperator op(engine, cfg);
  engine.Start();
  auto source = w.MakeSource(policy);
  StreamTuple t;
  while (source->Next(&t)) {
    op.Push(t);
    engine.WaitQuiescent();
  }
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.TotalOutputs(), ref_outputs);
  EXPECT_GE(op.controller()->log().size(), 1u);
}

}  // namespace
}  // namespace ajoin
