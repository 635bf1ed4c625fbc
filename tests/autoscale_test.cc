// Elastic-scaling correctness harness: proves the runtime add/retire of
// live joiner slots end to end.
//
//  * AutoscalePolicy unit tests drive the pure decision state machine with
//    synthetic telemetry traces (surge, flap, sustained overload) and pin
//    down the exact decision sequences — hysteresis, cooldown, bounds, and
//    the hard hold while a migration is in flight.
//  * AutoscaleController unit tests run the sampling loop against a
//    synthetic MetricsRegistry and a fake operator — no engine — checking
//    live-joiner counting via the `active` tombstone flag, input-rate
//    deltas, and that decisions land as Grow/ShrinkJoiners calls.
//  * The differential suite runs randomized seeded streams through scaling
//    schedules (grow/shrink interleaved with live ILF migrations,
//    back-to-back grow→shrink, multi-step jumps) on the deterministic sim
//    engine and the threaded batched/batched-tiny planes, over both join
//    indexes: output must be byte-identical to the fixed-size reference
//    run — the migration protocol must never lose, duplicate, or reorder a
//    result while the grid is reshaped mid-stream.
//  * Threaded lifecycle/TSan tests exercise dormant slots joining and
//    leaving the grid on the fixed worker pool, under load with continuous
//    telemetry snapshots,
//    and the telemetry tombstone regression (retired slots keep their
//    counters with active=0; scale events reach the trace ring and the
//    JSON export).
//  * The end-to-end loop test closes the circle: a live AutoscaleController
//    on a Dataflow watches real telemetry and scales a running join, and
//    the output is still exact.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/trace_ring.h"
#include "src/core/autoscale.h"
#include "src/core/operator.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

using Decision = AutoscalePolicy::Decision;

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
    const std::vector<StreamTuple>& stream, const JoinSpec& spec) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t i = 0; i < stream.size(); ++i) {
    if (stream[i].rel != Rel::kR) continue;
    for (uint64_t j = 0; j < stream.size(); ++j) {
      if (stream[j].rel != Rel::kS) continue;
      int64_t d = stream[i].key - stream[j].key;
      bool match = spec.kind == JoinSpec::Kind::kEqui
                       ? d == 0
                       : (d >= spec.band_lo && d <= spec.band_hi);
      if (match) out.emplace_back(i, j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
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

// ---- AutoscalePolicy: synthetic-trace decision sequences --------------------

StageSample Sample(uint32_t live, double rate, double stall,
                   bool migrating = false) {
  StageSample s;
  s.live_joiners = live;
  s.input_rate = rate;
  s.stall_ratio = stall;
  s.migrating = migrating;
  return s;
}

AutoscaleConfig PolicyConfig() {
  AutoscaleConfig cfg;
  cfg.min_live = 4;
  cfg.max_live = 64;
  cfg.grow_stall_ratio = 0.2;
  cfg.grow_rate_per_joiner = 100;
  cfg.shrink_rate_per_joiner = 10;
  cfg.surge_ticks = 2;
  cfg.idle_ticks = 3;
  cfg.cooldown_ticks = 4;
  return cfg;
}

TEST(AutoscalePolicy, SurgeGrowsAfterHysteresisAndArmsCooldown) {
  AutoscalePolicy policy(PolicyConfig());
  // A stall-driven surge: the first qualifying tick only starts the streak.
  EXPECT_EQ(policy.OnSample(Sample(4, 50, 0.5)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(4, 50, 0.5)), Decision::kGrow);
  EXPECT_EQ(policy.cooldown(), 4u);
  // Cooldown absorbs the next four ticks even though the surge persists.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(policy.OnSample(Sample(16, 50, 0.5)), Decision::kHold) << i;
  }
  EXPECT_EQ(policy.cooldown(), 0u);
  // Streaks restart from zero after a cooldown.
  EXPECT_EQ(policy.OnSample(Sample(16, 50, 0.5)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(16, 50, 0.5)), Decision::kGrow);
}

TEST(AutoscalePolicy, RateTriggerIsPerLiveJoiner) {
  AutoscalePolicy policy(PolicyConfig());
  // 4 live joiners: the rate threshold is 400/s. 350/s is neutral.
  EXPECT_EQ(policy.OnSample(Sample(4, 350, 0)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(4, 350, 0)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(4, 350, 0)), Decision::kHold);
  // 450/s crosses it; two consecutive ticks grow.
  EXPECT_EQ(policy.OnSample(Sample(4, 450, 0)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(4, 450, 0)), Decision::kGrow);
}

TEST(AutoscalePolicy, FlappingLoadNeverScales) {
  AutoscalePolicy policy(PolicyConfig());
  // Surge / neutral alternation: neither streak ever reaches its threshold.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(policy.OnSample(Sample(4, 50, 0.5)), Decision::kHold) << i;
    EXPECT_EQ(policy.OnSample(Sample(4, 50, 0)), Decision::kHold) << i;
  }
}

TEST(AutoscalePolicy, MigrationHoldsEvenUnderSurge) {
  AutoscalePolicy policy(PolicyConfig());
  EXPECT_EQ(policy.OnSample(Sample(4, 50, 0.5)), Decision::kHold);
  // The second surge tick would grow, but a migration is in flight — and it
  // also resets the streak, so the first post-migration tick starts over.
  EXPECT_EQ(policy.OnSample(Sample(4, 50, 0.5, /*migrating=*/true)),
            Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(4, 50, 0.5)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(4, 50, 0.5)), Decision::kGrow);
}

TEST(AutoscalePolicy, SustainedOverloadGrowsOncePerCooldownWindow) {
  AutoscalePolicy policy(PolicyConfig());
  // Under a continuous surge the exact cadence is: 1 streak tick, grow,
  // 4 cooldown ticks — i.e. one grow every 6 ticks.
  std::vector<Decision> decisions;
  for (int i = 0; i < 18; ++i) {
    decisions.push_back(policy.OnSample(Sample(4, 50, 0.9)));
  }
  std::vector<Decision> want = {
      Decision::kHold, Decision::kGrow, Decision::kHold, Decision::kHold,
      Decision::kHold, Decision::kHold, Decision::kHold, Decision::kGrow,
      Decision::kHold, Decision::kHold, Decision::kHold, Decision::kHold,
      Decision::kHold, Decision::kGrow, Decision::kHold, Decision::kHold,
      Decision::kHold, Decision::kHold};
  EXPECT_EQ(decisions, want);
}

TEST(AutoscalePolicy, IdleShrinksAfterIdleTicksWithinBounds) {
  AutoscalePolicy policy(PolicyConfig());
  // 16 live joiners, rate far below 10/joiner: three idle ticks shrink.
  EXPECT_EQ(policy.OnSample(Sample(16, 1, 0)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(16, 1, 0)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(16, 1, 0)), Decision::kShrink);
  EXPECT_EQ(policy.cooldown(), 4u);
}

TEST(AutoscalePolicy, BoundsRefuseGrowAndShrink) {
  AutoscaleConfig cfg = PolicyConfig();
  cfg.min_live = 4;
  cfg.max_live = 16;
  AutoscalePolicy policy(cfg);
  // 16 live: a 4x grow would exceed max_live — surge never grows.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.OnSample(Sample(16, 5000, 0.9)), Decision::kHold) << i;
  }
  // 4 live: a /4 shrink would drop below min_live — idle never shrinks.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.OnSample(Sample(4, 1, 0)), Decision::kHold) << i;
  }
}

TEST(AutoscalePolicy, StalledIdleRateIsNotIdle) {
  AutoscalePolicy policy(PolicyConfig());
  // Low input rate but heavy credit stalls: the operator is behind, not
  // idle — the stall trigger wins and the policy grows instead.
  EXPECT_EQ(policy.OnSample(Sample(16, 1, 0.9)), Decision::kHold);
  EXPECT_EQ(policy.OnSample(Sample(16, 1, 0.9)), Decision::kGrow);
}

// ---- AutoscaleController: sampling against a synthetic registry -------------

/// Operator stub recording scale requests; everything else is unreachable
/// in these tests.
class FakeElasticOp : public OperatorControl {
 public:
  bool GrowJoiners(uint32_t steps) override {
    grow_calls += steps;
    return accept;
  }
  bool ShrinkJoiners(uint32_t steps) override {
    shrink_calls += steps;
    return accept;
  }

  uint32_t grow_calls = 0;
  uint32_t shrink_calls = 0;
  bool accept = true;
};

TEST(AutoscaleController, SamplesRegistryAndScalesOperator) {
  MetricsRegistry registry;
  std::vector<int> ids = {100, 101, 102, 103, 104, 105, 106, 107};
  std::vector<TaskTelemetry*> cells;
  for (int id : ids) cells.push_back(registry.Register(id, TaskKind::kJoiner));
  JoinerSnapshot m;
  for (size_t i = 0; i < cells.size(); ++i) {
    m.active = i < 4;
    cells[i]->Publish(m);
  }
  m.active = true;

  FakeElasticOp op;
  AutoscaleConfig cfg;
  cfg.min_live = 4;
  cfg.max_live = 64;
  cfg.grow_stall_ratio = 0;      // rate trigger only
  cfg.grow_rate_per_joiner = 10;  // 4 live -> threshold 40/s
  cfg.shrink_rate_per_joiner = 0;
  cfg.surge_ticks = 1;
  cfg.cooldown_ticks = 0;
  AutoscaleController ctl(op, &registry, ids, cfg);

  // First tick is the delta baseline: no rate yet, no action.
  EXPECT_EQ(ctl.TickNow(0), Decision::kHold);
  EXPECT_EQ(op.grow_calls, 0u);

  // 100 tuples in one second on a live cell: 100/s > 40/s -> grow.
  m.in_tuples = 100;
  cells[0]->Publish(m);
  EXPECT_EQ(ctl.TickNow(1000000), Decision::kGrow);
  EXPECT_EQ(op.grow_calls, 1u);
  EXPECT_EQ(ctl.grows(), 1u);
  ASSERT_EQ(ctl.log().size(), 1u);
  EXPECT_TRUE(ctl.log()[0].accepted);
  EXPECT_EQ(ctl.log()[0].sample.live_joiners, 4u);
  EXPECT_NEAR(ctl.log()[0].sample.input_rate, 100.0, 1e-6);

  // A migrating joiner freezes the policy regardless of the rate.
  m.in_tuples = 300;
  m.epoch = 1;
  m.migrating = true;
  cells[0]->Publish(m);
  EXPECT_EQ(ctl.TickNow(2000000), Decision::kHold);
  EXPECT_EQ(op.grow_calls, 1u);

  // Migration over, surge still on: the controller acts again.
  m.in_tuples = 500;
  m.migrating = false;
  cells[0]->Publish(m);
  EXPECT_EQ(ctl.TickNow(3000000), Decision::kGrow);
  EXPECT_EQ(op.grow_calls, 2u);
}

TEST(AutoscaleController, TombstonedCellsDoNotCountAsLive) {
  MetricsRegistry registry;
  std::vector<int> ids = {7, 8, 9, 10, 11};
  std::vector<TaskTelemetry*> cells;
  for (int id : ids) cells.push_back(registry.Register(id, TaskKind::kJoiner));
  JoinerSnapshot live;
  live.stored_tuples = 5;
  live.active = true;
  for (size_t i = 0; i < 4; ++i) cells[i]->Publish(live);
  // A retired slot keeps (large) counters but is tombstoned inactive: it
  // must count toward neither the live grid nor the per-joiner maximum.
  JoinerSnapshot retired;
  retired.in_tuples = 1 << 20;
  retired.stored_tuples = 999999;
  retired.epoch = 3;
  retired.active = false;
  cells[4]->Publish(retired);

  FakeElasticOp op;
  AutoscaleConfig cfg;
  cfg.grow_stall_ratio = 0;
  cfg.grow_rate_per_joiner = 1e-3;  // any nonzero rate surges
  cfg.surge_ticks = 1;
  cfg.cooldown_ticks = 0;
  AutoscaleController ctl(op, &registry, ids, cfg);
  EXPECT_EQ(ctl.TickNow(0), Decision::kHold);
  live.in_tuples = 50;
  cells[0]->Publish(live);
  EXPECT_EQ(ctl.TickNow(1000000), Decision::kGrow);
  ASSERT_EQ(ctl.log().size(), 1u);
  EXPECT_EQ(ctl.log()[0].sample.live_joiners, 4u);
  EXPECT_EQ(ctl.log()[0].sample.per_joiner_stored, 5u);
}

// ---- Differential scaling suite ---------------------------------------------

/// Exchange planes the scaling schedules sweep: the deterministic sim FIFO,
/// the default batched plane, and the tiny-batch/tiny-credit stress config
/// where flushes and credit stalls interleave with the scale migrations.
enum class Plane { kSim, kBatched, kBatchedTiny };

const Plane kScalePlanes[] = {Plane::kSim, Plane::kBatched,
                              Plane::kBatchedTiny};

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

/// One scheduled scale request: before pushing tuple `at`, request `steps`
/// (positive = 4x grow steps, negative = /4 shrink steps).
struct ScaleStep {
  uint64_t at = 0;
  int steps = 0;
};

bool AnyJoinerMigrating(const MetricsRegistry& registry) {
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind == TaskKind::kJoiner && task.joiner.migrating) return true;
  }
  return false;
}

/// Runs `stream` through an elastic 4-machine operator (2 expansion levels
/// of headroom, aggressive adaptivity so ILF relabels race the scaling),
/// firing `schedule` mid-stream. On the sim plane each schedule point
/// drains first, so the scale request deterministically lands mid-stream.
/// On threaded planes, unless `race` is set, each schedule point first
/// waits for grid quiescence (no joiner mid-migration — which also means
/// every previously queued scale step has committed, since queued steps
/// apply at a migration's last ack), so the committed expansion /
/// contraction counts are deterministic while the scale migration itself
/// still races the live input pushed right behind it. With `race`, steps
/// fire with no synchronization at all — racing requests may legally
/// cancel in the controller's pending ledger, so only the output contract
/// is checkable. Returns the sorted output pairs and counts committed
/// expansions/contractions.
std::vector<std::pair<uint64_t, uint64_t>> RunElastic(
    const std::vector<StreamTuple>& stream, const JoinSpec& spec,
    const std::vector<ScaleStep>& schedule, Plane plane,
    uint64_t* expansions, uint64_t* contractions, bool race = false) {
  std::unique_ptr<Engine> engine = MakeEngine(plane);
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;
  cfg.max_expansions = 2;
  cfg.registry = &registry;
  JoinOperator op(*engine, cfg);
  engine->Start();
  size_t next = 0;
  uint64_t issued = 0;  // scale rounds requested so far
  for (uint64_t i = 0; i <= stream.size(); ++i) {
    while (next < schedule.size() && schedule[next].at == i) {
      if (plane == Plane::kSim) {
        engine->WaitQuiescent();
      } else if (!race) {
        // Wait until every previously requested round has committed at the
        // controller AND the grid is quiet. Back-to-back requests would
        // otherwise meet in the controller's pending ledger, where a +1 and
        // a -1 legally cancel to a net no-op (that interleaving is what the
        // race=true test exercises).
        EXPECT_TRUE(PollUntil(
            [&] {
              return op.controller()->scale_commits() >= issued &&
                     !AnyJoinerMigrating(registry);
            },
            /*timeout_ms=*/10000));
      }
      const int steps = schedule[next].steps;
      EXPECT_TRUE(steps > 0
                      ? op.GrowJoiners(static_cast<uint32_t>(steps))
                      : op.ShrinkJoiners(static_cast<uint32_t>(-steps)));
      issued += static_cast<uint64_t>(steps > 0 ? steps : -steps);
      ++next;
    }
    if (i < stream.size()) op.Push(stream[i]);
  }
  op.SendEos();
  engine->WaitQuiescent();
  auto pairs = op.CollectPairs();
  if (expansions != nullptr) *expansions = 0;
  if (contractions != nullptr) *contractions = 0;
  for (const MigrationRecord& rec : op.controller()->log()) {
    if (expansions != nullptr && rec.expansion) ++*expansions;
    if (contractions != nullptr && rec.contraction) ++*contractions;
  }
  engine->Shutdown();
  return pairs;
}

TEST(AutoscaleDifferential, ScaleScheduleMatchesFixedRunAcrossPlanes) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  for (uint64_t seed = 91; seed < 93; ++seed) {
    auto stream = MakeStream(250 + 17 * seed, 700 + 31 * seed, 20, seed);
    auto want = ReferencePairs(stream, spec);
    const uint64_t n = stream.size();
    // Two full grow/shrink cycles interleaved with live ILF relabels.
    std::vector<ScaleStep> schedule = {
        {n / 4, +1}, {n / 2, -1}, {2 * n / 3, +1}, {5 * n / 6, -1}};
    for (Plane plane : kScalePlanes) {
      uint64_t ex = 0, co = 0;
      auto scaled = RunElastic(stream, spec, schedule, plane, &ex, &co);
      uint64_t fex = 0, fco = 0;
      auto fixed = RunElastic(stream, spec, {}, plane, &fex, &fco);
      EXPECT_EQ(scaled, want) << "seed " << seed << " " << PlaneName(plane);
      EXPECT_EQ(fixed, want) << "seed " << seed << " " << PlaneName(plane);
      EXPECT_EQ(scaled, fixed) << "seed " << seed << " " << PlaneName(plane);
      // Every scheduled step committed: 2 expansions, 2 contractions; the
      // fixed run saw none.
      EXPECT_EQ(ex, 2u) << "seed " << seed << " " << PlaneName(plane);
      EXPECT_EQ(co, 2u) << "seed " << seed << " " << PlaneName(plane);
      EXPECT_EQ(fex, 0u);
      EXPECT_EQ(fco, 0u);
    }
  }
}

TEST(AutoscaleDifferential, BackToBackGrowShrinkRace) {
  // A shrink issued immediately behind a grow queues while the expansion
  // migration is still in flight and must apply cleanly at its last ack.
  // On threaded planes the requests fire with no synchronization at all
  // (race=true): depending on the interleaving they may commit as
  // expansion+contraction rounds or cancel in the pending ledger, but the
  // output must be exact either way. The sim plane pins the deterministic
  // interleaving where both pairs commit.
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(300, 900, 24, 95);
  auto want = ReferencePairs(stream, spec);
  const uint64_t n = stream.size();
  std::vector<ScaleStep> schedule = {
      {n / 3, +1}, {n / 3, -1}, {2 * n / 3, +1}, {2 * n / 3, -1}};
  for (Plane plane : kScalePlanes) {
    uint64_t ex = 0, co = 0;
    auto scaled = RunElastic(stream, spec, schedule, plane, &ex, &co,
                             /*race=*/true);
    EXPECT_EQ(scaled, want) << PlaneName(plane);
    if (plane == Plane::kSim) {
      EXPECT_EQ(ex, 2u);
      EXPECT_EQ(co, 2u);
    }
  }
}

TEST(AutoscaleDifferential, MultiStepJumpToMaxAndBack) {
  // GrowJoiners(2) queues two 4x steps (4 -> 16 -> 64, one migration round
  // each); ShrinkJoiners(2) folds all the way back. Exercises the deepest
  // expansion level and chained contractions through dormant slot blocks.
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(280, 840, 20, 97);
  auto want = ReferencePairs(stream, spec);
  const uint64_t n = stream.size();
  std::vector<ScaleStep> schedule = {{n / 4, +2}, {3 * n / 4, -2}};
  for (Plane plane : kScalePlanes) {
    uint64_t ex = 0, co = 0;
    auto scaled = RunElastic(stream, spec, schedule, plane, &ex, &co);
    EXPECT_EQ(scaled, want) << PlaneName(plane);
    EXPECT_EQ(ex, 2u) << PlaneName(plane);
    EXPECT_EQ(co, 2u) << PlaneName(plane);
  }
}

TEST(AutoscaleDifferential, OutOfBoundsRequestsAreRefusedHarmlessly) {
  // Steps beyond the allocated slots (or below the 4-machine minimum grid)
  // are dropped by the controller without disturbing the output.
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(200, 600, 16, 99);
  auto want = ReferencePairs(stream, spec);
  const uint64_t n = stream.size();
  // Shrink at the minimum grid; grow 5 steps where only 2 levels exist.
  std::vector<ScaleStep> schedule = {{n / 5, -1}, {n / 2, +5}, {4 * n / 5, -1}};
  uint64_t ex = 0, co = 0;
  auto scaled = RunElastic(stream, spec, schedule, Plane::kSim, &ex, &co);
  EXPECT_EQ(scaled, want);
  EXPECT_EQ(ex, 2u);  // two levels committed, the rest dropped
  EXPECT_EQ(co, 1u);  // only the post-grow shrink was in bounds
}

// ---- Threaded worker lifecycle ----------------------------------------------

uint32_t CountActive(const MetricsRegistry& registry,
                     const std::vector<int>& joiner_ids) {
  uint32_t active = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kJoiner) continue;
    if (std::find(joiner_ids.begin(), joiner_ids.end(), task.task) ==
        joiner_ids.end()) {
      continue;
    }
    if (task.joiner.active) ++active;
  }
  return active;
}

// CPUs this process may run on; ThreadEngine sizes its pool from the same
// affinity mask.
size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

TEST(AutoscaleThread, DormantSlotsActivateAndRetireWithTheGrid) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(600, 1800, 24, 101);
  auto want = ReferencePairs(stream, spec);
  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.5;
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;
  cfg.max_expansions = 1;  // 16 allocated joiner slots
  cfg.registry = &registry;
  JoinOperator op(engine, cfg);
  engine.Start();
  // Dormant slots are idle tasks: the pool is sized once from the affinity
  // mask (capped at the task count) and never grows or shrinks with the grid.
  const size_t pool = std::min(AffinityCpus(), engine.num_tasks());
  EXPECT_EQ(engine.num_workers(), pool);
  EXPECT_EQ(CountActive(registry, op.joiner_task_ids()), 4u);

  const size_t third = stream.size() / 3;
  for (size_t i = 0; i < third; ++i) op.Push(stream[i]);
  ASSERT_TRUE(op.GrowJoiners(1));
  for (size_t i = third; i < 2 * third; ++i) op.Push(stream[i]);
  // The 12 dormant slots are queued by their first message and join the
  // grid; the expansion migration flips their telemetry to active.
  EXPECT_TRUE(PollUntil(
      [&] { return CountActive(registry, op.joiner_task_ids()) == 16; },
      /*timeout_ms=*/10000));
  EXPECT_EQ(engine.num_workers(), pool);

  ASSERT_TRUE(op.ShrinkJoiners(1));
  for (size_t i = 2 * third; i < stream.size(); ++i) op.Push(stream[i]);
  op.SendEos();
  engine.WaitQuiescent();
  // Retired slots republish as inactive and go idle once their inboxes run
  // dry.
  EXPECT_TRUE(PollUntil(
      [&] { return CountActive(registry, op.joiner_task_ids()) == 4; },
      /*timeout_ms=*/10000));
  EXPECT_EQ(engine.num_workers(), pool);

  EXPECT_EQ(op.CollectPairs(), want);
  engine.Shutdown();
}

// ---- TSan stress: continuous telemetry during elastic scaling ---------------

TEST(AutoscaleThread, ContinuousTelemetryDuringElasticScaling) {
  // Tiny batches + a 2-slot credit window while the grid grows and shrinks
  // under load: a sampler thread and a snapshot-hammering thread race the
  // scale migrations and slots going busy and idle. Cumulative
  // counters must stay monotone across snapshots and the final snapshot
  // must equal the quiescent harvest — including the tombstoned retirees.
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(1200, 3600, 24, 103);
  TraceRing trace(1 << 14);
  ExchangeConfig xc;
  xc.batch_size = 5;
  xc.ring_slots = 2;
  xc.flush_deadline_us = 50;
  xc.trace = &trace;
  ThreadEngine engine(xc);
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 16;
  cfg.max_expansions = 2;
  cfg.registry = &registry;
  cfg.trace = &trace;
  JoinOperator op(engine, cfg);
  engine.Start();

  TelemetrySampler::Options so;
  so.period_us = 500;
  TelemetrySampler sampler(&registry, so);
  sampler.SetEdgeSource([&engine] { return engine.edge_stats(); });
  sampler.SetExchangeSource([&engine] { return engine.exchange_stats(); });
  sampler.SetTraceSource(&trace);
  sampler.Start();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};
  int non_monotonic = 0;  // snapshot-thread local until the join below
  std::thread snapshotter([&] {
    std::unordered_map<int, JoinerSnapshot> prev;
    while (!done.load(std::memory_order_acquire)) {
      for (const TaskSnapshot& task : registry.Snapshot()) {
        if (task.kind != TaskKind::kJoiner) continue;
        // stored_tuples legitimately drops at contraction; the cumulative
        // counters never may.
        auto it = prev.find(task.task);
        if (it != prev.end() &&
            (task.joiner.in_tuples < it->second.in_tuples ||
             task.joiner.output_tuples < it->second.output_tuples ||
             task.joiner.migrations_finalized <
                 it->second.migrations_finalized)) {
          ++non_monotonic;
        }
        prev[task.task] = task.joiner;
      }
      (void)engine.edge_stats();
      (void)trace.Snapshot();
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Grid quiescence before each request (see RunElastic) keeps the
  // committed round counts deterministic; the migrations themselves still
  // race the input pushed right behind them and both observer threads.
  const size_t quarter = stream.size() / 4;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == quarter || i == 2 * quarter || i == 3 * quarter) {
      EXPECT_TRUE(PollUntil([&] { return !AnyJoinerMigrating(registry); },
                            /*timeout_ms=*/10000));
    }
    if (i == quarter) {
      ASSERT_TRUE(op.GrowJoiners(1));
    }
    if (i == 2 * quarter) {
      ASSERT_TRUE(op.ShrinkJoiners(1));
    }
    if (i == 3 * quarter) {
      ASSERT_TRUE(op.GrowJoiners(1));
    }
    op.Push(stream[i]);
  }
  op.SendEos();
  engine.WaitQuiescent();
  done.store(true, std::memory_order_release);
  snapshotter.join();
  sampler.Stop();

  EXPECT_EQ(non_monotonic, 0);
  EXPECT_GE(snapshots_taken.load(), 1u);
  EXPECT_GE(sampler.samples_taken(), 2u);

  uint64_t snap_in = 0, snap_out = 0, snap_stored = 0, snap_migs = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kJoiner) continue;
    snap_in += task.joiner.in_tuples;
    snap_out += task.joiner.output_tuples;
    snap_stored += task.joiner.stored_tuples;
    snap_migs += task.joiner.migrations_finalized;
  }
  uint64_t quiet_in = 0, quiet_out = 0, quiet_stored = 0, quiet_migs = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    const JoinerMetrics& m = op.joiner(i).metrics();
    quiet_in += m.in_tuples;
    quiet_out += m.output_tuples;
    quiet_stored += m.stored_tuples;
    quiet_migs += m.migrations_finalized;
  }
  EXPECT_EQ(snap_in, quiet_in);
  EXPECT_EQ(snap_out, quiet_out);
  EXPECT_EQ(snap_stored, quiet_stored);
  EXPECT_EQ(snap_migs, quiet_migs);

  uint64_t ex = 0, co = 0;
  for (const MigrationRecord& rec : op.controller()->log()) {
    if (rec.expansion) ++ex;
    if (rec.contraction) ++co;
  }
  EXPECT_EQ(ex, 2u);
  EXPECT_EQ(co, 1u);
  engine.Shutdown();
}

// ---- Telemetry tombstones and scale trace events ----------------------------

TEST(AutoscaleTelemetry, RetiredJoinersTombstoneAndTraceScaleEvents) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(700, 2100, 24, 107);
  TraceRing trace(1 << 14);
  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.5;
  cfg.min_total_before_adapt = 16;
  cfg.max_expansions = 1;
  cfg.collect_pairs = true;
  cfg.registry = &registry;
  cfg.trace = &trace;
  JoinOperator op(engine, cfg);
  engine.Start();

  TelemetrySampler sampler(&registry);
  sampler.SetTraceSource(&trace);

  const size_t third = stream.size() / 3;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == third) {
      ASSERT_TRUE(op.GrowJoiners(1));
    }
    if (i == 2 * third) {
      // All 16 slots must be live before the shrink so it has retirees to
      // tombstone.
      EXPECT_TRUE(PollUntil(
          [&] { return CountActive(registry, op.joiner_task_ids()) == 16; },
          /*timeout_ms=*/10000));
    }
    if (i == 2 * third + third / 2) {
      // Shrink only after the full grid absorbed a sixth of the stream:
      // activation can complete arbitrarily close to the 2/3 poll (it does
      // under sanitizer slowdown), and a retiree that never saw a tuple
      // would not exercise the tombstone-with-counters contract below.
      ASSERT_TRUE(op.ShrinkJoiners(1));
    }
    op.Push(stream[i]);
  }
  op.SendEos();
  engine.WaitQuiescent();
  sampler.SampleNow(engine.NowMicros());

  // Tombstone contract: exactly the 4 surviving slots are active; retired
  // slots that received data during the expansion keep their cumulative
  // counters but read active=0 — the export never drops or zeroes them.
  uint32_t active = 0;
  uint32_t tombstoned_with_data = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kJoiner) continue;
    if (task.joiner.active) {
      ++active;
    } else if (task.joiner.in_tuples > 0) {
      ++tombstoned_with_data;
      EXPECT_EQ(task.joiner.stored_tuples, 0u)
          << "retiree " << task.task << " kept stored state";
    }
  }
  EXPECT_EQ(active, 4u);
  EXPECT_GE(tombstoned_with_data, 1u);

  // Both the controller decision and the per-joiner participation flips
  // stamp scale events.
  uint64_t grow_events = 0, shrink_events = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind == TraceEventKind::kScaleGrow) ++grow_events;
    if (ev.kind == TraceEventKind::kScaleShrink) ++shrink_events;
  }
  EXPECT_GE(grow_events, 1u);
  EXPECT_GE(shrink_events, 1u);

  // The JSON export stays schema-valid mid-scale: it must carry the active
  // flag and the scale trace kinds (tools/validate_telemetry.py enforces
  // the full schema in CI).
  const std::string path =
      testing::TempDir() + "/autoscale_telemetry_test.json";
  ASSERT_TRUE(sampler.WriteJson(path, "autoscale_test"));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"active\""), std::string::npos);
  EXPECT_NE(json.find("scale_grow"), std::string::npos);
  EXPECT_NE(json.find("scale_shrink"), std::string::npos);

  EXPECT_EQ(op.CollectPairs(), ReferencePairs(stream, spec));
  engine.Shutdown();
}

// ---- End-to-end: a live controller scales a running dataflow ----------------

TEST(AutoscaleLoop, ControllerScalesLiveDataflowAndOutputStaysExact) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(1500, 4500, 24, 109);
  auto want = ReferencePairs(stream, spec);
  TraceRing trace(1 << 14);
  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  Dataflow df(engine);
  df.SetTelemetry(&registry, &trace);
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.5;
  cfg.min_total_before_adapt = 16;
  cfg.collect_pairs = true;
  cfg.max_expansions = 1;
  const int join = df.AddJoin(cfg);
  const int sink = df.AddSink();
  df.Connect(join, sink);

  AutoscaleConfig ac;
  ac.min_live = 4;
  ac.max_live = 16;
  ac.grow_stall_ratio = 0;       // deterministic triggers: rate only
  ac.grow_rate_per_joiner = 1;   // any sustained input is a surge
  ac.shrink_rate_per_joiner = 1;  // a silent stream is idle
  ac.surge_ticks = 1;
  ac.idle_ticks = 2;
  ac.cooldown_ticks = 1;
  AutoscaleController::Options opts;
  opts.period_us = 1000;
  AutoscaleController& ctl = df.SetAutoscale(join, ac, opts);
  ctl.SetExchangeSource([&engine] { return engine.exchange_stats(); });

  engine.Start();
  df.StartAutoscale();

  // Paced pushes keep the input rate visible across policy ticks; the
  // controller grows 4 -> 16 (then hits max_live). Guaranteed-progress
  // pacing, not timing assertions: the poll only shortcuts the sleep.
  JoinOperator& op = df.join(join);
  for (size_t i = 0; i < stream.size(); ++i) {
    op.Push(stream[i]);
    if (i % 50 == 0 && ctl.grows() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  df.FlushInput();
  EXPECT_TRUE(PollUntil([&] { return ctl.grows() >= 1; }, 15000));
  // The stream has gone silent: the idle trigger shrinks back down.
  EXPECT_TRUE(PollUntil([&] { return ctl.shrinks() >= 1; }, 15000));

  df.StopAutoscale();
  df.SendEos();
  engine.WaitQuiescent();

  EXPECT_GE(ctl.grows(), 1u);
  EXPECT_GE(ctl.shrinks(), 1u);
  EXPECT_FALSE(ctl.log().empty());
  uint64_t ex = 0, co = 0;
  for (const MigrationRecord& rec : op.controller()->log()) {
    if (rec.expansion) ++ex;
    if (rec.contraction) ++co;
  }
  EXPECT_GE(ex, 1u);
  EXPECT_GE(co, 1u);

  // The controller log runs on the trace clock: each accepted grow is
  // stamped at or before the first scale_grow event that follows it, and
  // within a second of it. (A grow the operator drops because its slots are
  // used up has no event of its own; the first grow always has one.)
  const std::vector<TraceEvent> events = trace.Snapshot();
  int grows_matched = 0;
  for (const AutoscaleController::Action& a : ctl.log()) {
    if (!a.accepted || a.decision != AutoscalePolicy::Decision::kGrow) {
      continue;
    }
    const TraceEvent* next = nullptr;
    for (const TraceEvent& ev : events) {
      if (ev.kind == TraceEventKind::kScaleGrow && ev.t_us >= a.t_us &&
          (next == nullptr || ev.t_us < next->t_us)) {
        next = &ev;
      }
    }
    if (next == nullptr) continue;
    ++grows_matched;
    EXPECT_LE(a.t_us, next->t_us);
    EXPECT_LE(next->t_us - a.t_us, 1000000u)
        << "grow at t_us=" << a.t_us << ", scale_grow at " << next->t_us;
  }
  EXPECT_GE(grows_matched, 1);

  // The scaled run is still the exact join — at the operator and at the
  // streaming sink.
  EXPECT_EQ(op.CollectPairs(), want);
  EXPECT_EQ(df.sink(sink).SortedPairs(), want);
  engine.Shutdown();
}

}  // namespace
}  // namespace ajoin
