// Elastic autoscaling: closes the loop the paper leaves to the "cloud
// provider" side of section 4.3 — watch the live operator through the
// telemetry plane and add or retire joiner machines at runtime, using the
// migration protocol (Alg. 3) as the mechanism so the stream never pauses.
//
// Split into two pieces so the decision logic is testable without an
// engine:
//
//  * AutoscalePolicy — a pure, deterministic state machine: feed it one
//    StageSample per tick, get back kHold/kGrow/kShrink. Hysteresis
//    (consecutive-tick streaks), cooldown after an action, and a hard hold
//    while a migration is in flight all live here.
//  * AutoscaleController — runs on a PeriodicTicker: each tick a
//    StageObserver builds the sample from MetricsRegistry snapshots
//    (filtered to one operator's joiner tasks) plus an optional
//    exchange-plane stall source, the policy decides, and the controller
//    calls OperatorControl::GrowJoiners / ShrinkJoiners. It keeps a decision
//    log for tests and telemetry.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/exchange/exchange.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

class OperatorControl;  // src/core/operator.h

/// Policy knobs. Rates are per-second; ratios are fractions of wall time.
struct AutoscaleConfig {
  /// Live-joiner bounds the policy respects (grow keeps live*4 <= max_live,
  /// shrink keeps live/4 >= min_live). Align max_live with the operator's
  /// allocated slots (initial J << 2*max_expansions).
  uint32_t min_live = 4;
  uint32_t max_live = 64;
  /// Grow when the exchange plane spent at least this fraction of wall time
  /// stalled for credits (downstream cannot keep up). 0 disables the
  /// stall trigger.
  double grow_stall_ratio = 0.10;
  /// Grow when input tuples/sec exceeds this per live joiner. 0 disables
  /// the rate trigger.
  double grow_rate_per_joiner = 0;
  /// Shrink when input tuples/sec falls below this per live joiner (and
  /// nothing is stalled). 0 disables shrinking.
  double shrink_rate_per_joiner = 0;
  /// Hysteresis: consecutive qualifying ticks before acting.
  uint32_t surge_ticks = 2;
  uint32_t idle_ticks = 5;
  /// Ticks to hold after an action (lets the migration land and the
  /// post-scale rates stabilize before re-evaluating).
  uint32_t cooldown_ticks = 5;
};

/// Deterministic scaling decision engine (no engine, no clock, no threads —
/// drive it with synthetic samples in unit tests).
class AutoscalePolicy {
 public:
  enum class Decision { kHold, kGrow, kShrink };

  /// Policy with the given knobs (see AutoscaleConfig defaults).
  explicit AutoscalePolicy(AutoscaleConfig config) : config_(config) {}

  /// Consumes one tick and returns the decision. Semantics, in order:
  /// a migrating tick resets both streaks and holds; a cooldown tick
  /// decrements the cooldown, resets both streaks, and holds; a surge tick
  /// (stall or rate trigger) extends the surge streak and grows once it
  /// reaches surge_ticks — bounds permitting; an idle tick symmetrically
  /// shrinks after idle_ticks; a neutral tick resets both streaks. Every
  /// action arms the cooldown.
  Decision OnSample(const StageSample& s) {
    if (s.migrating) {
      surge_streak_ = idle_streak_ = 0;
      return Decision::kHold;
    }
    if (cooldown_ > 0) {
      --cooldown_;
      surge_streak_ = idle_streak_ = 0;
      return Decision::kHold;
    }
    const bool stalled = config_.grow_stall_ratio > 0 &&
                         s.stall_ratio >= config_.grow_stall_ratio;
    const bool rate_surge =
        config_.grow_rate_per_joiner > 0 &&
        s.input_rate > config_.grow_rate_per_joiner * s.live_joiners;
    const bool idle =
        !stalled && config_.shrink_rate_per_joiner > 0 &&
        s.input_rate < config_.shrink_rate_per_joiner * s.live_joiners;
    if (stalled || rate_surge) {
      idle_streak_ = 0;
      if (++surge_streak_ >= config_.surge_ticks &&
          s.live_joiners * 4 <= config_.max_live) {
        surge_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        return Decision::kGrow;
      }
      return Decision::kHold;
    }
    if (idle) {
      surge_streak_ = 0;
      if (++idle_streak_ >= config_.idle_ticks &&
          s.live_joiners / 4 >= config_.min_live &&
          s.live_joiners % 4 == 0) {
        idle_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        return Decision::kShrink;
      }
      return Decision::kHold;
    }
    surge_streak_ = idle_streak_ = 0;
    return Decision::kHold;
  }

  /// Remaining cooldown ticks (testing).
  uint32_t cooldown() const { return cooldown_; }

 private:
  AutoscaleConfig config_;
  uint32_t surge_streak_ = 0;
  uint32_t idle_streak_ = 0;
  uint32_t cooldown_ = 0;
};

/// Background controller: samples the telemetry plane at a fixed period,
/// runs AutoscalePolicy, and drives OperatorControl::GrowJoiners/ShrinkJoiners.
class AutoscaleController {
 public:
  struct Options {
    /// Policy tick period for the Start()ed thread.
    uint64_t period_us = 2000;
  };

  /// One policy action (or observed decision) for the log. `t_us` is the
  /// tick time: SteadyNowMicros() on the ticker thread (the trace clock),
  /// or the caller's logical time under TickNow.
  struct Action {
    uint64_t t_us = 0;
    AutoscalePolicy::Decision decision = AutoscalePolicy::Decision::kHold;
    StageSample sample;      // what the policy saw
    bool accepted = false;   // operator took the request
  };

  /// Watches `registry` cells whose task ids are in `joiner_tasks` (the
  /// operator's joiner_task_ids()) and scales `op`. Neither is owned; both
  /// must outlive the controller. Call Start() after the engine starts.
  AutoscaleController(OperatorControl& op, const MetricsRegistry* registry,
                      std::vector<int> joiner_tasks, AutoscaleConfig config,
                      Options options);
  /// Same, with default Options (2 ms tick).
  AutoscaleController(OperatorControl& op, const MetricsRegistry* registry,
                      std::vector<int> joiner_tasks, AutoscaleConfig config);

  AutoscaleController(const AutoscaleController&) = delete;
  AutoscaleController& operator=(const AutoscaleController&) = delete;

  /// Adds plane-wide exchange stats to every sample so the stall-ratio
  /// trigger works (e.g. bind ThreadEngine::exchange_stats). Set before
  /// Start().
  void SetExchangeSource(std::function<ExchangeStatsSnapshot()> source);

  /// Starts the policy thread. No-op if already running.
  void Start();

  /// Stops the policy thread. No-op if not running. Safe to call before
  /// engine shutdown (pending scale requests already posted keep draining).
  void Stop();

  /// Takes one sample, runs the policy, applies the decision, and returns
  /// it. This is what the background thread runs per tick; tests (and sim
  /// drivers) can call it directly with a logical timestamp.
  AutoscalePolicy::Decision TickNow(uint64_t t_us);

  /// Every non-hold decision taken so far, in order.
  std::vector<Action> log() const;
  /// Count of accepted grow actions.
  uint64_t grows() const;
  /// Count of accepted shrink actions.
  uint64_t shrinks() const;

 private:
  OperatorControl& op_;
  StageObserver observer_;
  AutoscalePolicy policy_;

  mutable std::mutex mu_;  // guards log_ / counters
  std::vector<Action> log_;
  uint64_t grows_ = 0;
  uint64_t shrinks_ = 0;

  PeriodicTicker ticker_;  // last member: stopped before the rest goes
};

}  // namespace ajoin
