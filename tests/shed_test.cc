// Overload-shedding correctness harness: proves the adaptive load-shedding
// plane end to end.
//
//  * ShedPolicy unit tests drive the pure admission-rate state machine with
//    synthetic samples (sustained stall, backlog surge, flapping load) and
//    pin down the exact rate sequences — multiplicative backoff, the
//    min-rate floor, hysteresis, cooldown, and symmetric recovery.
//  * ShedController unit tests run the sampling loop against a synthetic
//    MetricsRegistry and a fake operator — no engine — checking trigger
//    signal assembly (stall-ratio deltas, backlog gauge) and that decisions
//    land as SetShedRate calls in the action log.
//  * Propagation tests post a rate through a live JoinOperator and assert
//    it reaches every joiner (telemetry shed_rate_ppm), emits the right
//    trace events (shed_enter/shed_exit), and that duplicate kShed copies
//    fanned through multiple reshufflers are absorbed idempotently.
//  * The statistical suite runs seeded streams with known per-key result
//    cardinalities under a fixed admission rate and asserts the
//    Horvitz-Thompson weighted estimates land inside Bernstein-style
//    confidence bounds — per key and in total — while the raw (unweighted)
//    sampled count sits far below the exact count, so a missing or
//    misplaced weight fails loudly.
//  * The shed-disabled differential proves zero-cost opt-in: with the
//    shedding plane compiled in but the rate exact, output is byte-identical
//    to the reference join across the plane x index matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/trace_ring.h"
#include "src/core/operator.h"
#include "src/core/shed.h"
#include "src/net/message.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

constexpr uint32_t kExact = static_cast<uint32_t>(kShedExactPpm);

bool PollUntil(const std::function<bool()>& pred, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---- ShedPolicy: synthetic-sample rate sequences ----------------------------

StageSample Stall(double ratio, uint64_t backlog = 0) {
  StageSample s;
  s.stall_ratio = ratio;
  s.backlog = backlog;
  return s;
}

ShedConfig PolicyConfig() {
  ShedConfig cfg;
  cfg.enter_stall_ratio = 0.20;
  cfg.exit_stall_ratio = 0.05;
  cfg.overload_ticks = 2;
  cfg.recover_ticks = 3;
  cfg.cooldown_ticks = 2;
  cfg.min_rate_ppm = 125000;  // 1/8
  cfg.shed_factor = 2;
  return cfg;
}

TEST(ShedPolicy, BacksOffAfterHysteresisAndArmsCooldown) {
  ShedPolicy policy(PolicyConfig());
  EXPECT_EQ(policy.rate_ppm(), kExact);
  EXPECT_FALSE(policy.shedding());
  // One stalled tick is not enough (overload_ticks = 2).
  EXPECT_EQ(policy.OnSample(Stall(0.9)), kExact);
  // Second consecutive stalled tick halves the rate and arms the cooldown.
  EXPECT_EQ(policy.OnSample(Stall(0.9)), kExact / 2);
  EXPECT_TRUE(policy.shedding());
  EXPECT_EQ(policy.cooldown(), 2u);
  // Cooldown holds even under continued stall, then the streak rebuilds.
  EXPECT_EQ(policy.OnSample(Stall(0.9)), kExact / 2);
  EXPECT_EQ(policy.OnSample(Stall(0.9)), kExact / 2);
  EXPECT_EQ(policy.cooldown(), 0u);
  EXPECT_EQ(policy.OnSample(Stall(0.9)), kExact / 2);
  EXPECT_EQ(policy.OnSample(Stall(0.9)), kExact / 4);
}

TEST(ShedPolicy, RateNeverDropsBelowFloor) {
  ShedConfig cfg = PolicyConfig();
  cfg.overload_ticks = 1;
  cfg.cooldown_ticks = 0;
  ShedPolicy policy(cfg);
  for (int i = 0; i < 50; ++i) policy.OnSample(Stall(0.9));
  EXPECT_EQ(policy.rate_ppm(), cfg.min_rate_ppm);
}

TEST(ShedPolicy, RecoveryMultipliesBackToExact) {
  ShedConfig cfg = PolicyConfig();
  cfg.overload_ticks = 1;
  cfg.cooldown_ticks = 0;
  cfg.recover_ticks = 2;
  ShedPolicy policy(cfg);
  policy.OnSample(Stall(0.9));
  policy.OnSample(Stall(0.9));
  ASSERT_EQ(policy.rate_ppm(), kExact / 4);
  // Two calm ticks per step: /4 -> /2 -> exact, capped there.
  EXPECT_EQ(policy.OnSample(Stall(0.0)), kExact / 4);
  EXPECT_EQ(policy.OnSample(Stall(0.0)), kExact / 2);
  EXPECT_EQ(policy.OnSample(Stall(0.0)), kExact / 2);
  EXPECT_EQ(policy.OnSample(Stall(0.0)), kExact);
  EXPECT_FALSE(policy.shedding());
  // Fully recovered: calm ticks are a no-op.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(policy.OnSample(Stall(0.0)), kExact);
}

TEST(ShedPolicy, FlappingLoadNeverSheds) {
  ShedPolicy policy(PolicyConfig());
  // Alternating stall/calm never sustains the overload streak.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(policy.OnSample(Stall(i % 2 == 0 ? 0.9 : 0.0)), kExact) << i;
  }
}

TEST(ShedPolicy, BacklogTriggerSheds) {
  ShedConfig cfg = PolicyConfig();
  cfg.enter_stall_ratio = 0;  // backlog trigger only
  cfg.enter_backlog = 1000;
  cfg.exit_backlog = 100;
  cfg.overload_ticks = 2;
  ShedPolicy policy(cfg);
  EXPECT_EQ(policy.OnSample(Stall(0, 5000)), kExact);
  EXPECT_EQ(policy.OnSample(Stall(0, 5000)), kExact / 2);
  // Backlog between exit and enter thresholds is neutral: hold, no recovery.
  policy.OnSample(Stall(0, 500));  // cooldown tick 1
  policy.OnSample(Stall(0, 500));  // cooldown tick 2
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(policy.OnSample(Stall(0, 500)), kExact / 2) << i;
  }
  // Backlog drained: recovery kicks in after recover_ticks.
  policy.OnSample(Stall(0, 0));
  policy.OnSample(Stall(0, 0));
  EXPECT_EQ(policy.OnSample(Stall(0, 0)), kExact);
}

// ---- ShedController: sampling against a synthetic registry ------------------

/// Operator stub recording shed-rate requests; everything else is
/// unreachable in these tests.
class FakeShedOp : public OperatorControl {
 public:
  bool SetShedRate(uint32_t rate_ppm) override {
    rates.push_back(rate_ppm);
    return accept;
  }

  std::vector<uint32_t> rates;
  bool accept = true;
};

TEST(ShedController, StallSignalDrivesSetShedRate) {
  MetricsRegistry registry;
  std::vector<int> ids = {40, 41, 42, 43};
  std::vector<TaskTelemetry*> cells;
  for (int id : ids) cells.push_back(registry.Register(id, TaskKind::kJoiner));
  JoinerSnapshot m;
  m.active = true;
  for (TaskTelemetry* cell : cells) cell->Publish(m);

  FakeShedOp op;
  ShedConfig cfg = PolicyConfig();
  cfg.overload_ticks = 1;
  cfg.cooldown_ticks = 0;
  ShedController ctl(op, &registry, ids, cfg);
  // Synthetic exchange source: stall_ns jumps 900ms per 1s tick.
  uint64_t stall_ns = 0;
  ctl.SetExchangeSource([&stall_ns] {
    ExchangeStatsSnapshot s;
    s.credit_wait_ns = stall_ns;
    return s;
  });

  // First tick is the delta baseline: no ratio yet, no action.
  EXPECT_EQ(ctl.TickNow(0), kExact);
  EXPECT_TRUE(op.rates.empty());

  stall_ns += 900000000;  // 0.9s stalled over a 1s tick
  EXPECT_EQ(ctl.TickNow(1000000), kExact / 2);
  ASSERT_EQ(op.rates.size(), 1u);
  EXPECT_EQ(op.rates[0], kExact / 2);
  EXPECT_EQ(ctl.rate_ppm(), kExact / 2);
  EXPECT_EQ(ctl.rate_changes(), 1u);
  ASSERT_EQ(ctl.log().size(), 1u);
  EXPECT_TRUE(ctl.log()[0].accepted);
  EXPECT_EQ(ctl.log()[0].prev_rate_ppm, kExact);
  EXPECT_GE(ctl.log()[0].sample.stall_ratio, 0.85);
  EXPECT_EQ(ctl.log()[0].sample.live_joiners, 4u);

  // Calm ticks recover; only the rate *changes* are logged.
  const size_t changes = ctl.log().size();
  uint32_t rate = ctl.rate_ppm();
  for (int i = 0; i < 20 && rate != kExact; ++i) {
    rate = ctl.TickNow(2000000 + static_cast<uint64_t>(i) * 1000000);
  }
  EXPECT_EQ(rate, kExact);
  EXPECT_GT(ctl.log().size(), changes);
  for (const ShedController::Action& a : ctl.log()) {
    EXPECT_NE(a.prev_rate_ppm, a.rate_ppm);
  }
}

TEST(ShedController, BacklogSourceDrivesTrigger) {
  MetricsRegistry registry;
  std::vector<int> ids = {7};
  JoinerSnapshot live;
  live.active = true;
  registry.Register(7, TaskKind::kJoiner)->Publish(live);
  FakeShedOp op;
  ShedConfig cfg;
  cfg.enter_stall_ratio = 0;
  cfg.enter_backlog = 100;
  cfg.exit_backlog = 10;
  cfg.overload_ticks = 1;
  cfg.cooldown_ticks = 0;
  ShedController ctl(op, &registry, ids, cfg);
  uint64_t backlog = 0;
  ctl.SetBacklogSource([&backlog] { return backlog; });

  EXPECT_EQ(ctl.TickNow(0), kExact);
  backlog = 500;
  EXPECT_EQ(ctl.TickNow(1000), kExact / 2);
  backlog = 0;
  uint32_t rate = kExact / 2;
  for (int i = 0; i < 20 && rate != kExact; ++i) {
    rate = ctl.TickNow(2000 + static_cast<uint64_t>(i) * 1000);
  }
  EXPECT_EQ(rate, kExact);
  ASSERT_GE(op.rates.size(), 2u);
  EXPECT_EQ(op.rates.front(), kExact / 2);
  EXPECT_EQ(op.rates.back(), kExact);
}

TEST(ShedController, RejectedRequestIsLoggedNotCounted) {
  MetricsRegistry registry;
  std::vector<int> ids = {7};
  JoinerSnapshot live;
  live.active = true;
  registry.Register(7, TaskKind::kJoiner)->Publish(live);
  FakeShedOp op;
  op.accept = false;
  ShedConfig cfg;
  cfg.enter_backlog = 100;
  cfg.overload_ticks = 1;
  cfg.cooldown_ticks = 0;
  ShedController ctl(op, &registry, ids, cfg);
  ctl.SetBacklogSource([] { return uint64_t{500}; });
  ctl.TickNow(0);
  ctl.TickNow(1000);
  ASSERT_FALSE(ctl.log().empty());
  EXPECT_FALSE(ctl.log()[0].accepted);
  EXPECT_EQ(ctl.rate_changes(), 0u);
  // The published rate tracks *accepted* changes only.
  EXPECT_EQ(ctl.rate_ppm(), kExact);
}

// ---- Propagation: kShed reaches every joiner --------------------------------

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

uint64_t CountTraceKind(const TraceRing& trace, TraceEventKind kind) {
  uint64_t n = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

TEST(ShedPropagation, RateReachesEveryJoinerAndTracesTransitions) {
  TraceRing trace(1 << 12);
  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.initial = MidMapping(4);
  cfg.use_initial = true;
  cfg.registry = &registry;
  cfg.trace = &trace;
  JoinOperator op(engine, cfg);
  engine.Start();

  // Rate changes ride the control lane through every reshuffler; duplicate
  // copies land at each joiner and must be absorbed idempotently: exactly
  // one shed_enter per joiner, no rate-change echoes.
  ASSERT_TRUE(op.SetShedRate(kExact / 4));
  EXPECT_TRUE(PollUntil(
      [&] { return AllJoinersAtRate(registry, kExact / 4); }, 10000));
  EXPECT_EQ(CountTraceKind(trace, TraceEventKind::kShedEnter), 4u);
  EXPECT_EQ(CountTraceKind(trace, TraceEventKind::kShedRateChange), 0u);

  // Deepen, then restore: one rate-change and one exit per joiner.
  ASSERT_TRUE(op.SetShedRate(kExact / 8));
  EXPECT_TRUE(PollUntil(
      [&] { return AllJoinersAtRate(registry, kExact / 8); }, 10000));
  EXPECT_EQ(CountTraceKind(trace, TraceEventKind::kShedRateChange), 4u);

  ASSERT_TRUE(op.SetShedRate(kExact));
  EXPECT_TRUE(PollUntil([&] { return AllJoinersAtRate(registry, kExact); },
                        10000));
  EXPECT_EQ(CountTraceKind(trace, TraceEventKind::kShedExit), 4u);
  EXPECT_EQ(CountTraceKind(trace, TraceEventKind::kShedEnter), 4u);

  op.SendEos();
  engine.WaitQuiescent();
  engine.Shutdown();
}

/// Records sends instead of dispatching them.
class CaptureContext : public Context {
 public:
  explicit CaptureContext(int self) : self_(self) {}
  int self() const override { return self_; }
  void Send(int to, Envelope msg) override {
    msg.from = self_;
    sent.emplace_back(to, std::move(msg));
  }
  uint64_t NowMicros() const override { return 0; }
  std::vector<std::pair<int, Envelope>> sent;

 private:
  int self_;
};

TEST(ShedPropagation, StaleCopyFromAnotherReshufflerNeverRevertsRate) {
  // Two rate changes (enter sampling at 1/4, then restore exact) fan out
  // through two reshufflers, so the joiner receives each rate once per
  // reshuffler->joiner edge. Edges are FIFO but unordered with respect to
  // each other: replay every interleaving of the two edges' copy sequences.
  // Once the newer rate has landed, a late copy of the older one must be
  // dropped — it may never put the joiner back into sampling.
  constexpr int kJoinerTask = 100;
  auto reshuffler_config = [](uint32_t index) {
    ReshufflerConfig cfg;
    cfg.index = index;
    cfg.num_reshufflers = 2;
    GroupBlock block;
    block.joiner_task_base = kJoinerTask;
    block.alloc_machines = 1;
    block.initial_layout = GridLayout::Initial(Mapping{1, 1});
    block.cum_prob = 1.0;
    cfg.groups.push_back(block);
    return cfg;
  };
  ReshufflerCore r0(reshuffler_config(0));
  ReshufflerCore r1(reshuffler_config(1));
  CaptureContext ctx0(0), ctx1(1);
  const uint32_t rates[2] = {kExact / 4, kExact};
  for (uint64_t version = 1; version <= 2; ++version) {
    Envelope shed;  // as JoinOperator::SetShedRate posts it
    shed.type = MsgType::kShed;
    shed.key = rates[version - 1];
    shed.seq = version;
    r0.OnMessage(std::move(shed), ctx0);
  }
  // Reshuffler 0 fans each change to its peer, which forwards it on.
  for (auto& [to, env] : ctx0.sent) {
    if (to == 1) r1.OnMessage(env, ctx1);
  }
  std::vector<Envelope> edge[2];
  for (int r = 0; r < 2; ++r) {
    for (auto& [to, env] : (r == 0 ? ctx0 : ctx1).sent) {
      if (to != kJoinerTask) continue;
      ASSERT_EQ(env.type, MsgType::kShed);
      ASSERT_EQ(env.seq, edge[r].size() + 1) << "version not forwarded";
      edge[r].push_back(env);
    }
    ASSERT_EQ(edge[r].size(), 2u);
  }

  // Interleavings of two 2-message FIFO sequences: choose the positions
  // (of 4) that edge 0's copies take.
  int interleavings = 0;
  for (unsigned mask = 0; mask < 16; ++mask) {
    if (__builtin_popcount(mask) != 2) continue;
    ++interleavings;
    TraceRing trace(64);
    JoinerConfig jc;
    jc.spec = MakeEquiJoin(0, 0);
    jc.initial_layout = GridLayout::Initial(Mapping{1, 1});
    jc.num_reshufflers = 2;
    jc.trace = &trace;
    JoinerCore joiner(jc);
    CaptureContext jctx(kJoinerTask);
    size_t next[2] = {0, 0};
    bool newest_applied = false;
    for (int pos = 0; pos < 4; ++pos) {
      const int r = (mask >> pos) & 1u ? 0 : 1;
      const Envelope& copy = edge[r][next[r]++];
      joiner.OnMessage(copy, jctx);
      newest_applied |= copy.seq == 2;
      if (newest_applied) {
        EXPECT_FALSE(joiner.shedding()) << "mask " << mask << " pos " << pos;
        EXPECT_EQ(joiner.shed_rate_ppm(), kExact);
      }
    }
    // At most one enter and one exit: a reverted rate would add a second
    // enter (and a second exit when the newer copy re-applied).
    EXPECT_LE(CountTraceKind(trace, TraceEventKind::kShedEnter), 1u);
    EXPECT_LE(CountTraceKind(trace, TraceEventKind::kShedExit), 1u);
    EXPECT_EQ(CountTraceKind(trace, TraceEventKind::kShedRateChange), 0u);
  }
  EXPECT_EQ(interleavings, 6);
}

TEST(ShedPropagation, SkippedProbesShowUpInTelemetry) {
  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.initial = MidMapping(4);
  cfg.use_initial = true;
  cfg.registry = &registry;
  JoinOperator op(engine, cfg);
  engine.Start();
  ASSERT_TRUE(op.SetShedRate(kExact / 4));
  ASSERT_TRUE(PollUntil(
      [&] { return AllJoinersAtRate(registry, kExact / 4); }, 10000));
  auto stream = MakeStream(2000, 2000, 16, 31);
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  uint64_t skipped = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind == TaskKind::kJoiner) {
      skipped += task.joiner.shed_probes_skipped;
    }
  }
  // At 25% admission over 4000 steady-state probes, thousands skip; even a
  // 10-sigma fluke clears 2000.
  EXPECT_GT(skipped, 2000u);
  engine.Shutdown();
}

// ---- Statistical soundness: Horvitz-Thompson weighted estimates -------------

/// A stream engineered for tight variance bounds: `keys` join keys, each
/// with exactly 4 R-tuples first, then `s_per_key` S-tuples (shuffled
/// within each phase). Pushing all R before any S means every R-probe
/// matches nothing and every S-probe matches at most 4 stored R-tuples —
/// the per-probe match count that drives the Bernstein bound.
std::vector<StreamTuple> MakeBoundedMatchStream(int64_t keys,
                                                uint64_t s_per_key,
                                                uint64_t seed) {
  std::vector<StreamTuple> out;
  Rng rng(seed);
  for (int64_t k = 0; k < keys; ++k) {
    for (int i = 0; i < 4; ++i) {
      StreamTuple t;
      t.rel = Rel::kR;
      t.key = k;
      t.bytes = 16;
      out.push_back(t);
    }
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Uniform(i)]);
  }
  const size_t r_end = out.size();
  for (int64_t k = 0; k < keys; ++k) {
    for (uint64_t i = 0; i < s_per_key; ++i) {
      StreamTuple t;
      t.rel = Rel::kS;
      t.key = k;
      t.bytes = 16;
      out.push_back(t);
    }
  }
  for (size_t i = out.size(); i > r_end + 1; --i) {
    std::swap(out[i - 1], out[r_end + rng.Uniform(i - r_end)]);
  }
  return out;
}

/// One-sided Bernstein deviation bound for a sum of independent terms
/// m_i * (Bernoulli(p)/p) with E = sum(m_i) = `total`, each m_i <= m_max:
/// P(|X - E| > t) <= 2 exp(-t^2 / (2 Var + 2 M t / 3)) with
/// Var <= total * m_max * (1-p)/p and M = m_max / p. Solved for t at
/// failure probability `delta`.
double BernsteinBound(double total, double m_max, double p, double delta) {
  const double var = total * m_max * (1.0 - p) / p;
  const double big_m = m_max / p;
  const double l = std::log(2.0 / delta);
  return std::sqrt(2.0 * var * l) + 2.0 / 3.0 * big_m * l;
}

enum class Plane { kSim, kBatched, kBatchedTiny };

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

const char* PlaneName(Plane plane) {
  switch (plane) {
    case Plane::kSim: return "sim";
    case Plane::kBatched: return "batched";
    case Plane::kBatchedTiny: return "batched-tiny";
  }
  return "?";
}

TEST(ShedStatistics, WeightedPerKeyEstimatesWithinConfidenceBounds) {
  // 16 keys x 4 R x 400 S = 25600 exact results, <= 4 matches per probe.
  const int64_t kKeys = 16;
  const uint64_t kSPerKey = 400;
  const double kP = 0.25;
  const double kExactPerKey = 4.0 * static_cast<double>(kSPerKey);
  // Loose enough that a correct implementation fails with probability
  // ~1e-9 per key; an unweighted count (p * exact) still lands far outside.
  const double kKeyBound = BernsteinBound(kExactPerKey, 4.0, kP, 1e-9);
  ASSERT_LT(kKeyBound, kExactPerKey * (1.0 - kP) - 1.0)
      << "bound too loose to detect a missing HT weight";
  for (Plane plane : {Plane::kSim, Plane::kBatched}) {
    for (uint64_t seed : {11u, 12u}) {
      auto stream = MakeBoundedMatchStream(kKeys, kSPerKey, seed);
      std::unique_ptr<Engine> engine = MakeEngine(plane);
      MetricsRegistry registry;
      Dataflow df(*engine);
      df.SetTelemetry(&registry, nullptr);
      OperatorConfig cfg;
      cfg.spec = MakeEquiJoin(0, 0);
      cfg.machines = 4;
      cfg.adaptive = false;
      cfg.initial = MidMapping(4);
      cfg.use_initial = true;
      cfg.keep_rows = false;
      const int join = df.AddJoin(cfg);
      ResultSink::Options so;
      so.collect_pairs = false;
      so.collect_keyed_weights = true;
      const int sink = df.AddSink(so);
      df.Connect(join, sink);
      engine->Start();
      JoinOperator& op = df.join(join);
      ASSERT_TRUE(op.SetShedRate(static_cast<uint32_t>(kP * kExact)));
      if (plane == Plane::kSim) {
        engine->WaitQuiescent();  // sim: drain the control lane first
      } else {
        ASSERT_TRUE(PollUntil(
            [&] {
              return AllJoinersAtRate(
                  registry, static_cast<uint32_t>(kP * kExact));
            },
            10000));
      }
      // Store every R tuple before any S tuple probes: the stream puts R
      // first, but on the threaded plane a late R tuple could otherwise
      // probe up to kSPerKey stored S tuples and break the <= 4 matches
      // per probe the bounds assume.
      const size_t r_end = static_cast<size_t>(kKeys) * 4;
      for (size_t i = 0; i < r_end; ++i) op.Push(stream[i]);
      op.FlushInput();
      engine->WaitQuiescent();
      for (size_t i = r_end; i < stream.size(); ++i) op.Push(stream[i]);
      op.SendEos();
      engine->WaitQuiescent();

      const ResultSink& s = df.sink(sink);
      const double exact_total =
          kExactPerKey * static_cast<double>(kKeys);
      // Raw count proves results actually dropped (~p of the exact join).
      EXPECT_LT(static_cast<double>(s.count()), 0.6 * exact_total)
          << PlaneName(plane) << " seed " << seed;
      EXPECT_GT(s.count(), 0u) << PlaneName(plane) << " seed " << seed;
      // Weighted total inside its (tighter, aggregated) bound.
      const double total_bound =
          BernsteinBound(exact_total, 4.0, kP, 1e-9);
      EXPECT_NEAR(s.weighted_count(), exact_total, total_bound)
          << PlaneName(plane) << " seed " << seed;
      // Per-key weighted frequencies inside the per-key bound.
      std::vector<double> per_key(static_cast<size_t>(kKeys), 0.0);
      for (const auto& kw : s.keyed_weights()) {
        ASSERT_GE(kw.first, 0);
        ASSERT_LT(kw.first, kKeys);
        per_key[static_cast<size_t>(kw.first)] += kw.second;
      }
      for (int64_t k = 0; k < kKeys; ++k) {
        EXPECT_NEAR(per_key[static_cast<size_t>(k)], kExactPerKey, kKeyBound)
            << PlaneName(plane) << " seed " << seed << " key " << k;
      }
      engine->Shutdown();
    }
  }
}

TEST(ShedStatistics, ExactResultsCarryUnitWeight) {
  // No shedding: every result must arrive with weight exactly 1.0, so the
  // weighted count equals the raw count bit-for-bit.
  auto stream = MakeStream(300, 900, 20, 77);
  SimEngine engine;
  Dataflow df(engine);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 16;
  const int join = df.AddJoin(cfg);
  ResultSink::Options so;
  so.collect_keyed_weights = true;
  const int sink = df.AddSink(so);
  df.Connect(join, sink);
  engine.Start();
  for (const StreamTuple& t : stream) df.join(join).Push(t);
  df.SendEos();
  engine.WaitQuiescent();
  const ResultSink& s = df.sink(sink);
  EXPECT_GT(s.count(), 0u);
  EXPECT_EQ(s.weighted_count(), static_cast<double>(s.count()));
  for (const auto& kw : s.keyed_weights()) EXPECT_EQ(kw.second, 1.0);
  engine.Shutdown();
}

// ---- Shed-disabled differential: byte-identical opt-out ---------------------

TEST(ShedDifferential, DisabledSheddingIsByteIdenticalAcrossPlanes) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(400, 1200, 24, 201);
  auto want = ReferencePairs(stream, spec);
  for (Plane plane : {Plane::kSim, Plane::kBatched, Plane::kBatchedTiny}) {
    std::unique_ptr<Engine> engine = MakeEngine(plane);
    MetricsRegistry registry;
    OperatorConfig cfg;
    cfg.spec = spec;
    cfg.machines = 4;
    cfg.adaptive = true;
    cfg.epsilon = 0.25;
    cfg.min_total_before_adapt = 16;
    cfg.collect_pairs = true;
    cfg.registry = &registry;
    JoinOperator op(*engine, cfg);
    engine->Start();
    // Posting the exact rate is a no-op rate-wise: still byte-identical.
    ASSERT_TRUE(op.SetShedRate(kExact));
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine->WaitQuiescent();
    EXPECT_EQ(op.CollectPairs(), want) << PlaneName(plane);
    uint64_t skipped = 0;
    for (const TaskSnapshot& task : registry.Snapshot()) {
      if (task.kind == TaskKind::kJoiner) {
        skipped += task.joiner.shed_probes_skipped;
      }
    }
    EXPECT_EQ(skipped, 0u) << PlaneName(plane);
    engine->Shutdown();
  }
}

// ---- End-to-end loop: controller sheds a live dataflow ----------------------

TEST(ShedLoop, ControllerShedsAndRecoversLiveDataflow) {
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(1000, 3000, 24, 303);
  TraceRing trace(1 << 12);
  ThreadEngine engine{ExchangeConfig{}};
  MetricsRegistry registry;
  Dataflow df(engine);
  df.SetTelemetry(&registry, &trace);
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.initial = MidMapping(4);
  cfg.use_initial = true;
  const int join = df.AddJoin(cfg);
  const int sink = df.AddSink();
  df.Connect(join, sink);

  ShedConfig sc;
  sc.enter_stall_ratio = 0;  // deterministic trigger: synthetic backlog
  sc.enter_backlog = 100;
  sc.exit_backlog = 10;
  sc.overload_ticks = 1;
  sc.recover_ticks = 1;
  sc.cooldown_ticks = 0;
  ShedController::Options opts;
  opts.period_us = 500;
  ShedController& ctl = df.SetShedding(join, sc, opts);
  std::atomic<uint64_t> backlog{0};
  ctl.SetBacklogSource(
      [&backlog] { return backlog.load(std::memory_order_relaxed); });

  engine.Start();
  df.StartShedding();
  JoinOperator& op = df.join(join);
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) op.Push(stream[i]);
  // Overload: the controller backs the rate off and the joiners follow.
  backlog.store(100000, std::memory_order_relaxed);
  EXPECT_TRUE(PollUntil([&] { return ctl.rate_ppm() < kExact; }, 15000));
  EXPECT_TRUE(PollUntil(
      [&] { return AllJoinersAtRate(registry, ctl.rate_ppm()); }, 15000));
  for (size_t i = half; i < stream.size(); ++i) op.Push(stream[i]);
  // Recovery: backlog drained, the controller restores exactness.
  backlog.store(0, std::memory_order_relaxed);
  EXPECT_TRUE(PollUntil([&] { return ctl.rate_ppm() == kExact; }, 15000));
  df.StopShedding();
  df.SendEos();
  engine.WaitQuiescent();

  EXPECT_GE(ctl.rate_changes(), 2u);
  EXPECT_FALSE(ctl.log().empty());
  EXPECT_GE(CountTraceKind(trace, TraceEventKind::kShedEnter), 4u);
  EXPECT_GE(CountTraceKind(trace, TraceEventKind::kShedExit), 4u);
  // Sampled + exact output is a subset of the reference join, never more.
  auto want = ReferencePairs(stream, spec);
  auto got = df.sink(sink).SortedPairs();
  EXPECT_LE(got.size(), want.size());
  EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(), got.end()));
  engine.Shutdown();
}

}  // namespace
}  // namespace ajoin
