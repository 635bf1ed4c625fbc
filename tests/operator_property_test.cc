// Parameterized property sweep: operator output exactness over the cross
// product of machine counts, epsilon values, skew, and arrival orders —
// every configuration must emit exactly the reference join result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/core/operator.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

// gtest names each case with a byte dump of its parameter, so the padding
// is spelled out and zeroed: implicit padding holds whatever the heap held,
// which made the registered test name differ from run to run.
struct SweepParam {
  uint32_t machines;
  uint32_t pad0;
  double epsilon;
  double skew_to_zero;
  bool r_first;
  uint8_t pad1[7];
  uint64_t seed;
};
static_assert(sizeof(SweepParam) == 40, "no implicit padding");

class OperatorSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OperatorSweep, ExactOutput) {
  const SweepParam p = GetParam();
  Rng rng(p.seed);
  std::vector<StreamTuple> stream;
  uint64_t left_r = 120, left_s = 480;
  while (left_r + left_s > 0) {
    bool pick_r = p.r_first
                      ? left_r > 0
                      : (left_r > 0 &&
                         (left_s == 0 ||
                          rng.Uniform(left_r + left_s) < left_r));
    StreamTuple t;
    t.rel = pick_r ? Rel::kR : Rel::kS;
    t.key = (p.skew_to_zero > 0 && rng.NextBool(p.skew_to_zero))
                ? 0
                : static_cast<int64_t>(rng.Uniform(15));
    t.bytes = 16;
    stream.push_back(t);
    (pick_r ? left_r : left_s)--;
  }

  std::vector<std::pair<uint64_t, uint64_t>> want;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (stream[i].rel != Rel::kR) continue;
    for (uint64_t j = 0; j < stream.size(); ++j) {
      if (stream[j].rel == Rel::kS && stream[j].key == stream[i].key) {
        want.emplace_back(i, j);
      }
    }
  }
  std::sort(want.begin(), want.end());

  SimEngine engine;
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = p.machines;
  cfg.adaptive = true;
  cfg.epsilon = p.epsilon;
  cfg.min_total_before_adapt = 8;
  cfg.collect_pairs = true;
  JoinOperator op(engine, cfg);
  engine.Start();
  for (const StreamTuple& t : stream) {
    op.Push(t);
    engine.WaitQuiescent();
  }
  op.SendEos();
  engine.WaitQuiescent();
  EXPECT_EQ(op.CollectPairs(), want);
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  uint64_t seed = 100;
  for (uint32_t machines : {2u, 4u, 8u, 16u, 32u}) {
    for (double eps : {1.0, 0.25}) {
      for (double skew : {0.0, 0.7}) {
        for (bool r_first : {false, true}) {
          params.push_back(
              SweepParam{machines, 0, eps, skew, r_first, {}, seed++});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OperatorSweep, ::testing::ValuesIn(MakeSweep()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      const SweepParam& p = info.param;
      std::string name = "J" + std::to_string(p.machines);
      name += p.epsilon == 1.0 ? "_eps1" : "_eps025";
      name += p.skew_to_zero > 0 ? "_skew" : "_uniform";
      name += p.r_first ? "_rfirst" : "_mixed";
      return name;
    });

}  // namespace
}  // namespace ajoin
