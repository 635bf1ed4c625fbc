// Overload survival: adaptive load shedding with unbiased sampled output.
// When the input rate outruns what the operator can absorb — and scaling out
// is capped or too slow — the only remaining lever is to do less work per
// tuple. Shedding gates *probes* (never stores or migrations) with a
// Bernoulli admission rate p, and every result emitted under that rate
// carries Horvitz-Thompson weight 1/p, so weighted aggregates over the
// sampled output remain unbiased estimators of the exact join.
//
// Split like the autoscaler (src/core/autoscale.h) so the decision logic is
// testable without an engine:
//
//  * ShedPolicy — a pure, deterministic state machine: feed it one
//    StageSample per tick, get back the admission rate (ppm) the operator
//    should run at. Hysteresis (consecutive-tick streaks), cooldown after a
//    rate change, and multiplicative backoff/recovery all live here.
//  * ShedController — runs on a PeriodicTicker: each tick a StageObserver
//    builds the sample from MetricsRegistry snapshots plus optional
//    exchange-plane and ingress-backlog sources, the policy decides, and
//    the controller calls OperatorControl::SetShedRate on every rate
//    change. It keeps a decision log for tests and telemetry.

#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/exchange/exchange.h"
#include "src/net/message.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

class OperatorControl;  // src/core/operator.h

/// Policy knobs. Ratios are fractions of wall time; rates are ppm.
struct ShedConfig {
  /// Begin (or deepen) shedding when the exchange plane spent at least this
  /// fraction of the tick credit-stalled. 0 disables the stall trigger.
  double enter_stall_ratio = 0.20;
  /// Recovery requires the stall ratio at or below this.
  double exit_stall_ratio = 0.05;
  /// Begin (or deepen) shedding when the ingress backlog gauge reaches this
  /// many envelopes. 0 disables the backlog trigger.
  uint64_t enter_backlog = 0;
  /// Recovery requires the backlog at or below this.
  uint64_t exit_backlog = 0;
  /// Hysteresis: consecutive qualifying ticks before acting.
  uint32_t overload_ticks = 2;
  uint32_t recover_ticks = 4;
  /// Ticks to hold after a rate change (lets the new rate propagate through
  /// the reshufflers and the signals stabilize before re-evaluating).
  uint32_t cooldown_ticks = 2;
  /// Admission-rate floor: each shed step divides the rate by shed_factor,
  /// never below this (the Horvitz-Thompson weight stays bounded).
  uint32_t min_rate_ppm = 62500;  // 1/16
  /// Multiplicative step for backoff (rate /= factor) and recovery
  /// (rate *= factor). Must be >= 2.
  uint32_t shed_factor = 2;
};

/// Deterministic admission-rate state machine (no engine, no clock, no
/// threads — drive it with synthetic samples in unit tests).
class ShedPolicy {
 public:
  explicit ShedPolicy(ShedConfig config) : config_(config) {
    if (config_.shed_factor < 2) config_.shed_factor = 2;
    if (config_.min_rate_ppm == 0) config_.min_rate_ppm = 1;
  }

  /// Consumes one tick and returns the admission rate (ppm) the operator
  /// should run at after it — kShedExactPpm when exact. Semantics, in
  /// order: a cooldown tick decrements the cooldown, resets both streaks,
  /// and holds; an overloaded tick (stall or backlog trigger) extends the
  /// overload streak and divides the rate by shed_factor (down to
  /// min_rate_ppm) once it reaches overload_ticks; a recovered tick (below
  /// both exit thresholds while shedding) symmetrically multiplies the rate
  /// back after recover_ticks; a neutral tick resets both streaks. Every
  /// rate change arms the cooldown.
  uint32_t OnSample(const StageSample& s) {
    if (cooldown_ > 0) {
      --cooldown_;
      overload_streak_ = recover_streak_ = 0;
      return rate_ppm_;
    }
    const bool stalled = config_.enter_stall_ratio > 0 &&
                         s.stall_ratio >= config_.enter_stall_ratio;
    const bool backlogged =
        config_.enter_backlog > 0 && s.backlog >= config_.enter_backlog;
    const bool calm =
        s.stall_ratio <= config_.exit_stall_ratio &&
        (config_.enter_backlog == 0 || s.backlog <= config_.exit_backlog);
    if (stalled || backlogged) {
      recover_streak_ = 0;
      if (++overload_streak_ >= config_.overload_ticks &&
          rate_ppm_ > config_.min_rate_ppm) {
        overload_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        const uint32_t next = rate_ppm_ / config_.shed_factor;
        rate_ppm_ = next < config_.min_rate_ppm ? config_.min_rate_ppm : next;
      }
      return rate_ppm_;
    }
    if (calm && shedding()) {
      overload_streak_ = 0;
      if (++recover_streak_ >= config_.recover_ticks) {
        recover_streak_ = 0;
        cooldown_ = config_.cooldown_ticks;
        const uint64_t next =
            static_cast<uint64_t>(rate_ppm_) * config_.shed_factor;
        rate_ppm_ = next >= static_cast<uint64_t>(kShedExactPpm)
                        ? static_cast<uint32_t>(kShedExactPpm)
                        : static_cast<uint32_t>(next);
      }
      return rate_ppm_;
    }
    overload_streak_ = recover_streak_ = 0;
    return rate_ppm_;
  }

  /// Current admission rate in ppm (kShedExactPpm = exact).
  uint32_t rate_ppm() const { return rate_ppm_; }
  /// True while the policy holds a sampled (non-exact) rate.
  bool shedding() const {
    return rate_ppm_ < static_cast<uint32_t>(kShedExactPpm);
  }
  /// Remaining cooldown ticks (testing).
  uint32_t cooldown() const { return cooldown_; }

 private:
  ShedConfig config_;
  uint32_t rate_ppm_ = static_cast<uint32_t>(kShedExactPpm);
  uint32_t overload_streak_ = 0;
  uint32_t recover_streak_ = 0;
  uint32_t cooldown_ = 0;
};

/// Background controller: samples the telemetry plane at a fixed period,
/// runs ShedPolicy, and drives OperatorControl::SetShedRate on every rate
/// change.
class ShedController {
 public:
  struct Options {
    /// Policy tick period for the Start()ed thread.
    uint64_t period_us = 2000;
  };

  /// One applied rate change for the log. `t_us` is the tick time:
  /// SteadyNowMicros() on the ticker thread (the trace clock), or the
  /// caller's logical time under TickNow.
  struct Action {
    uint64_t t_us = 0;
    uint32_t prev_rate_ppm = 0;
    uint32_t rate_ppm = 0;
    StageSample sample;     // what the policy saw
    bool accepted = false;  // operator took the request
  };

  /// Watches `registry` cells whose task ids are in `joiner_tasks` (the
  /// operator's joiner_task_ids()) and sheds `op`. Neither is owned; both
  /// must outlive the controller. Call Start() after the engine starts.
  ShedController(OperatorControl& op, const MetricsRegistry* registry,
                 std::vector<int> joiner_tasks, ShedConfig config,
                 Options options);
  /// Same, with default Options (2 ms tick).
  ShedController(OperatorControl& op, const MetricsRegistry* registry,
                 std::vector<int> joiner_tasks, ShedConfig config);

  ShedController(const ShedController&) = delete;
  ShedController& operator=(const ShedController&) = delete;

  /// Adds plane-wide exchange stats to every sample so the stall-ratio
  /// trigger works (e.g. bind ThreadEngine::exchange_stats). Set before
  /// Start().
  void SetExchangeSource(std::function<ExchangeStatsSnapshot()> source);

  /// Adds an instantaneous ingress-backlog gauge to every sample so the
  /// backlog trigger works (e.g. bind the driver's IngressPort::stats
  /// backlog, or pushed-minus-consumed accounting). Set before Start().
  void SetBacklogSource(std::function<uint64_t()> source);

  /// Starts the policy thread. No-op if already running.
  void Start();

  /// Stops the policy thread. No-op if not running. The last posted rate
  /// stays in effect; post SetShedRate(kShedExactPpm) to restore exactness.
  void Stop();

  /// Takes one sample, runs the policy, applies any rate change, and
  /// returns the policy's current rate. This is what the background thread
  /// runs per tick; tests (and sim drivers) can call it directly with a
  /// logical timestamp.
  uint32_t TickNow(uint64_t t_us);

  /// The rate the policy currently holds (ppm).
  uint32_t rate_ppm() const;
  /// Every applied rate change so far, in order.
  std::vector<Action> log() const;
  /// Count of accepted rate changes.
  uint64_t rate_changes() const;

 private:
  OperatorControl& op_;
  StageObserver observer_;
  ShedPolicy policy_;

  mutable std::mutex mu_;  // guards log_ / counters / published rate
  std::vector<Action> log_;
  uint64_t rate_changes_ = 0;
  uint32_t published_rate_ppm_ = static_cast<uint32_t>(kShedExactPpm);

  PeriodicTicker ticker_;  // last member: stopped before the rest goes
};

}  // namespace ajoin
