// ControllerCore tests: Alg. 2 thresholds, the (3+2ε)/(3+ε) competitive
// ratio of Theorem 4.2 (1.25 at ε=1), dummy padding, amortized migration
// cost, and elasticity decisions.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/random.h"
#include "src/core/controller.h"

namespace ajoin {
namespace {

ControllerCore MakeController(ControllerConfig cfg, uint32_t j,
                              uint32_t reshufflers = 1) {
  ControllerCore::GroupInfo info;
  info.initial = MidMapping(j);
  info.share = 1.0;
  return ControllerCore(cfg, reshufflers, {info});
}

void AckAll(ControllerCore& ctrl, uint32_t group, uint32_t machines,
            std::vector<EpochSpec>* out) {
  uint32_t epoch = 0;
  // Current epoch is the last logged record for the group.
  for (const auto& rec : ctrl.log()) {
    if (rec.group == group) epoch = rec.epoch;
  }
  for (uint32_t i = 0; i < machines; ++i) {
    ctrl.OnAck(group, epoch, out);
    if (!out->empty()) break;  // follow-up decision started a new migration
  }
}

TEST(Controller, NoAdaptationWhenDisabled) {
  ControllerConfig cfg;
  cfg.adaptive = false;
  ControllerCore ctrl = MakeController(cfg, 16);
  std::vector<EpochSpec> out;
  for (int i = 0; i < 10000; ++i) ctrl.OnTuple(Rel::kS, 16, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ctrl.current_mapping(0), MidMapping(16));
}

TEST(Controller, MinTuplesGate) {
  ControllerConfig cfg;
  cfg.min_total_before_adapt = 1000;
  ControllerCore ctrl = MakeController(cfg, 16);
  std::vector<EpochSpec> out;
  for (int i = 0; i < 999; ++i) {
    ctrl.OnTuple(Rel::kS, 16, &out);
    ASSERT_TRUE(out.empty()) << "adapted before the gate at tuple " << i;
  }
}

TEST(Controller, ConvergesToLopsidedMapping) {
  ControllerConfig cfg;
  cfg.min_total_before_adapt = 32;
  ControllerCore ctrl = MakeController(cfg, 64);
  std::vector<EpochSpec> out;
  uint64_t migrations = 0;
  for (int i = 0; i < 100000; ++i) {
    // 1:1000 cardinality ratio: optimum is (1, 64).
    Rel rel = (i % 1000 == 0) ? Rel::kR : Rel::kS;
    ctrl.OnTuple(rel, 16, &out);
    if (!out.empty()) {
      for (const EpochSpec& spec : out) {
        EXPECT_FALSE(spec.expansion);
        ++migrations;
      }
      out.clear();
      AckAll(ctrl, 0, 64, &out);
      EXPECT_TRUE(out.empty());
    }
  }
  EXPECT_GE(migrations, 1u);
  EXPECT_EQ(ctrl.current_mapping(0), (Mapping{1, 64}));
}

TEST(Controller, ScaledEstimatesTrackTruth) {
  // With 16 reshufflers the controller sees 1/16 of tuples; feed it the
  // sub-sampled stream and check the scaled estimate.
  ControllerConfig cfg;
  cfg.adaptive = false;
  ControllerCore ctrl = MakeController(cfg, 16, /*reshufflers=*/16);
  std::vector<EpochSpec> out;
  Rng rng(3);
  uint64_t true_r = 0;
  for (int i = 0; i < 160000; ++i) {
    bool is_r = rng.NextBool(0.3);
    true_r += is_r;
    if (rng.Uniform(16) == 0) {  // the controller's 1/16 sample
      ctrl.OnTuple(is_r ? Rel::kR : Rel::kS, 1, &out);
    }
  }
  double est = static_cast<double>(ctrl.r_tuples());
  EXPECT_NEAR(est, static_cast<double>(true_r), true_r * 0.1);
}

// Simulates Alg. 2 against an adversarial arrival schedule and verifies the
// ILF stays within the Theorem 4.2 bound of the optimum at all times
// (+ a small slack for the decision granularity of one tuple).
void CheckCompetitiveRatio(double epsilon, uint64_t seed) {
  const uint32_t j = 64;
  ControllerConfig cfg;
  cfg.epsilon = epsilon;
  cfg.min_total_before_adapt = 256;
  ControllerCore ctrl = MakeController(cfg, j);
  std::vector<EpochSpec> out;
  Rng rng(seed);
  double r = 0, s = 0;
  double bound = (3 + 2 * epsilon) / (3 + epsilon);
  double worst = 0;
  // Phased adversary: drift the arrival mix.
  double p_r = 0.5;
  for (int i = 0; i < 200000; ++i) {
    if (i % 5000 == 0) p_r = rng.NextDouble();
    Rel rel = rng.NextBool(p_r) ? Rel::kR : Rel::kS;
    (rel == Rel::kR ? r : s) += 1;
    ctrl.OnTuple(rel, 1, &out);
    if (!out.empty()) {
      out.clear();
      AckAll(ctrl, 0, j, &out);
      out.clear();
    }
    if (i < 2000) continue;  // warm-up (min gate)
    // Enforce the theorem's ratio precondition via the padding the
    // controller itself applies.
    double rp = std::max(r, s / j), sp = std::max(s, r / j);
    double cur = InputLoadFactor(ctrl.current_mapping(0), rp, sp);
    double opt = OptimalIlf(j, rp, sp);
    worst = std::max(worst, cur / opt);
  }
  EXPECT_LE(worst, bound * 1.02) << "epsilon " << epsilon;
}

TEST(Controller, CompetitiveRatioEps1) { CheckCompetitiveRatio(1.0, 41); }
TEST(Controller, CompetitiveRatioEpsHalf) { CheckCompetitiveRatio(0.5, 42); }
TEST(Controller, CompetitiveRatioEpsQuarter) {
  CheckCompetitiveRatio(0.25, 43);
}

TEST(Controller, AmortizedMigrationCostLinear) {
  // Theorem 4.1(2): total migration traffic is O(total tuples). Model the
  // traffic of each decided migration as the locality-aware cost
  // (2*min(R/n, S/m) per Lemma 4.4, scaled to all machines: 2R*m/J... we
  // use the plan-level bound 2*R/n * J tuples total for one-step row
  // merges) and check the sum stays within a constant of the input size.
  const uint32_t j = 64;
  ControllerConfig cfg;
  cfg.min_total_before_adapt = 64;
  ControllerCore ctrl = MakeController(cfg, j);
  std::vector<EpochSpec> out;
  Rng rng(5);
  double r = 0, s = 0;
  double migration_traffic = 0;  // total tuples moved (all machines)
  for (int i = 0; i < 500000; ++i) {
    Rel rel = rng.NextBool(0.2) ? Rel::kR : Rel::kS;
    (rel == Rel::kR ? r : s) += 1;
    ctrl.OnTuple(rel, 1, &out);
    for (const EpochSpec& spec : out) {
      Mapping to = spec.mapping;
      // Exchanged relation volume: R if n shrank (R rows merge), else S.
      Mapping from = ctrl.log()[ctrl.log().size() - 1].from;
      if (to.n < from.n) {
        migration_traffic += (r / from.n) * (static_cast<double>(from.n) /
                                             to.n) * to.m;  // upper bound
      } else if (to.m < from.m) {
        migration_traffic += (s / from.m) * (static_cast<double>(from.m) /
                                             to.m) * to.n;
      }
    }
    if (!out.empty()) {
      out.clear();
      AckAll(ctrl, 0, j, &out);
      out.clear();
    }
  }
  double total = r + s;
  EXPECT_LE(migration_traffic, 8.0 / cfg.epsilon * total)
      << "migration traffic not amortized-linear";
}

TEST(Controller, ElasticityTriggersExpansion) {
  ControllerConfig cfg;
  cfg.min_total_before_adapt = 16;
  cfg.max_tuples_per_joiner = 1000;
  cfg.max_expansions = 2;
  ControllerCore ctrl = MakeController(cfg, 4);
  std::vector<EpochSpec> out;
  uint64_t expansions = 0;
  for (int i = 0; i < 30000; ++i) {
    ctrl.OnTuple(i % 2 == 0 ? Rel::kR : Rel::kS, 1, &out);
    for (const EpochSpec& spec : out) {
      if (spec.expansion) {
        ++expansions;
        EXPECT_EQ(spec.mapping.J(), 4u * (1u << (2 * expansions)));
      }
    }
    if (!out.empty()) {
      // Every allocated slot acks (dormant trackers included), so the
      // driver acks the full allocation, not just the current grid.
      uint32_t alloc = 4u << (2 * cfg.max_expansions);
      out.clear();
      AckAll(ctrl, 0, alloc, &out);
      out.clear();
    }
  }
  EXPECT_EQ(expansions, 2u);  // capped by max_expansions
}

TEST(Controller, InfeasibleGrowDoesNotCancelLaterShrink) {
  // One expansion level: 4 -> 16 machines. A second grow arriving while the
  // first expansion is being acked has no slots to take; it must be dropped
  // on arrival, not left in the ledger to cancel the shrink behind it.
  ControllerConfig cfg;
  cfg.adaptive = false;
  cfg.max_expansions = 1;
  ControllerCore ctrl = MakeController(cfg, 4);
  std::vector<EpochSpec> out;
  ctrl.RequestScale(+1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].expansion);
  out.clear();
  ctrl.RequestScale(+1, &out);  // infeasible: 16 of 16 slots in use
  EXPECT_EQ(ctrl.pending_scale(), 0);
  ctrl.RequestScale(-1, &out);
  EXPECT_EQ(ctrl.pending_scale(), -1);
  EXPECT_TRUE(out.empty());  // the expansion's acks are still pending
  for (uint32_t i = 0; i < 16; ++i) ctrl.OnAck(0, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].contraction);
  EXPECT_EQ(out[0].mapping.J(), 4u);
  ASSERT_EQ(ctrl.log().size(), 2u);
  EXPECT_TRUE(ctrl.log()[1].contraction);
  EXPECT_EQ(ctrl.pending_scale(), 0);
}

TEST(Controller, BarrierModeDefersToCheckpoint) {
  ControllerConfig cfg;
  cfg.barrier_mode = true;
  cfg.min_total_before_adapt = 16;
  ControllerCore ctrl = MakeController(cfg, 16);
  std::vector<EpochSpec> out;
  for (int i = 0; i < 5000; ++i) {
    ctrl.OnTuple(Rel::kS, 16, &out);
    ASSERT_TRUE(out.empty()) << "barrier mode decided outside a checkpoint";
  }
  ctrl.OnCheckpoint(&out);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(out[0].mapping, (Mapping{1, 16}));
}

}  // namespace
}  // namespace ajoin
