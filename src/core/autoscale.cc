#include "src/core/autoscale.h"

#include <algorithm>
#include <chrono>

#include "src/common/status.h"
#include "src/core/operator.h"

namespace ajoin {

AutoscaleController::AutoscaleController(OperatorControl& op,
                                         const MetricsRegistry* registry,
                                         std::vector<int> joiner_tasks,
                                         AutoscaleConfig config,
                                         Options options)
    : op_(op),
      registry_(registry),
      joiner_tasks_(joiner_tasks.begin(), joiner_tasks.end()),
      policy_(config),
      options_(options) {
  AJOIN_CHECK_MSG(registry_ != nullptr, "autoscale: registry required");
  AJOIN_CHECK_MSG(!joiner_tasks_.empty(),
                  "autoscale: no joiner tasks to watch");
}

AutoscaleController::AutoscaleController(OperatorControl& op,
                                         const MetricsRegistry* registry,
                                         std::vector<int> joiner_tasks,
                                         AutoscaleConfig config)
    : AutoscaleController(op, registry, std::move(joiner_tasks), config,
                          Options()) {}

AutoscaleController::~AutoscaleController() { Stop(); }

void AutoscaleController::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  exchange_source_ = std::move(source);
}

AutoscaleSample AutoscaleController::BuildSample(uint64_t t_us) {
  AutoscaleSample s;
  s.t_us = t_us;
  uint64_t in_tuples = 0;
  for (const TaskSnapshot& task : registry_->Snapshot()) {
    if (task.kind != TaskKind::kJoiner ||
        joiner_tasks_.count(task.task) == 0) {
      continue;
    }
    const JoinerSnapshot& j = task.joiner;
    in_tuples += j.in_tuples;
    if (j.migrating) s.migrating = true;
    if (j.active) {
      ++s.live_joiners;
      s.per_joiner_stored = std::max(s.per_joiner_stored, j.stored_tuples);
    }
  }
  uint64_t stall_ns = last_stall_ns_;
  if (exchange_source_) stall_ns = exchange_source_().credit_wait_ns;
  if (have_last_ && t_us > last_t_us_) {
    const double dt_s = static_cast<double>(t_us - last_t_us_) / 1e6;
    s.input_rate = static_cast<double>(in_tuples - last_in_tuples_) / dt_s;
    // Plane-wide stall time normalized by wall time; can exceed 1 when
    // several producers stall concurrently, which still reads as "severely
    // backpressured" to the policy.
    s.stall_ratio = static_cast<double>(stall_ns - last_stall_ns_) /
                    (static_cast<double>(t_us - last_t_us_) * 1e3);
  }
  last_t_us_ = t_us;
  last_in_tuples_ = in_tuples;
  last_stall_ns_ = stall_ns;
  have_last_ = true;
  return s;
}

AutoscalePolicy::Decision AutoscaleController::TickNow(uint64_t t_us) {
  const AutoscaleSample sample = BuildSample(t_us);
  const AutoscalePolicy::Decision decision = policy_.OnSample(sample);
  if (decision == AutoscalePolicy::Decision::kHold) return decision;
  const bool accepted = decision == AutoscalePolicy::Decision::kGrow
                            ? op_.GrowJoiners(1)
                            : op_.ShrinkJoiners(1);
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(Action{t_us, decision, sample, accepted});
  if (accepted) {
    if (decision == AutoscalePolicy::Decision::kGrow) {
      ++grows_;
    } else {
      ++shrinks_;
    }
  }
  return decision;
}

void AutoscaleController::Loop() {
  const auto epoch = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    // ajoin-lint: timed-park — controller cadence; bounded by period_us.
    stop_cv_.wait_for(lock, std::chrono::microseconds(options_.period_us));
    if (stop_) break;
    lock.unlock();
    const uint64_t t_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
    TickNow(t_us);
    lock.lock();
  }
}

void AutoscaleController::Start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void AutoscaleController::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
  }
  stop_cv_.notify_all();
  thread_.join();
}

std::vector<AutoscaleController::Action> AutoscaleController::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

uint64_t AutoscaleController::grows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grows_;
}

uint64_t AutoscaleController::shrinks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shrinks_;
}

}  // namespace ajoin
