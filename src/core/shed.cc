#include "src/core/shed.h"

#include <algorithm>
#include <chrono>

#include "src/common/status.h"
#include "src/core/operator.h"

namespace ajoin {

ShedController::ShedController(OperatorControl& op,
                               const MetricsRegistry* registry,
                               std::vector<int> joiner_tasks,
                               ShedConfig config, Options options)
    : op_(op),
      registry_(registry),
      joiner_tasks_(joiner_tasks.begin(), joiner_tasks.end()),
      policy_(config),
      options_(options) {
  AJOIN_CHECK_MSG(registry_ != nullptr, "shed: registry required");
  AJOIN_CHECK_MSG(!joiner_tasks_.empty(), "shed: no joiner tasks to watch");
}

ShedController::ShedController(OperatorControl& op,
                               const MetricsRegistry* registry,
                               std::vector<int> joiner_tasks,
                               ShedConfig config)
    : ShedController(op, registry, std::move(joiner_tasks), config,
                     Options()) {}

ShedController::~ShedController() { Stop(); }

void ShedController::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  exchange_source_ = std::move(source);
}

void ShedController::SetBacklogSource(std::function<uint64_t()> source) {
  backlog_source_ = std::move(source);
}

ShedSample ShedController::BuildSample(uint64_t t_us) {
  ShedSample s;
  s.t_us = t_us;
  uint64_t in_tuples = 0;
  for (const TaskSnapshot& task : registry_->Snapshot()) {
    if (task.kind != TaskKind::kJoiner ||
        joiner_tasks_.count(task.task) == 0) {
      continue;
    }
    const JoinerSnapshot& j = task.joiner;
    in_tuples += j.in_tuples;
    if (j.active) ++s.live_joiners;
  }
  if (backlog_source_) s.backlog = backlog_source_();
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

uint32_t ShedController::TickNow(uint64_t t_us) {
  const ShedSample sample = BuildSample(t_us);
  const uint32_t prev = policy_.rate_ppm();
  const uint32_t rate = policy_.OnSample(sample);
  if (rate == prev) return rate;
  const bool accepted = op_.SetShedRate(rate);
  std::lock_guard<std::mutex> lock(mu_);
  log_.push_back(Action{t_us, prev, rate, sample, accepted});
  if (accepted) {
    ++rate_changes_;
    published_rate_ppm_ = rate;
  }
  return rate;
}

void ShedController::Loop() {
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

void ShedController::Start() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ShedController::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
  }
  stop_cv_.notify_all();
  thread_.join();
}

uint32_t ShedController::rate_ppm() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_rate_ppm_;
}

std::vector<ShedController::Action> ShedController::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

uint64_t ShedController::rate_changes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rate_changes_;
}

}  // namespace ajoin
