#include "src/core/shed.h"

#include "src/common/status.h"
#include "src/core/operator.h"

namespace ajoin {

ShedController::ShedController(OperatorControl& op,
                               const MetricsRegistry* registry,
                               std::vector<int> joiner_tasks,
                               ShedConfig config, Options options)
    : op_(op),
      observer_(registry, joiner_tasks),
      policy_(config),
      ticker_(options.period_us, [this](uint64_t t_us) { TickNow(t_us); }) {
  AJOIN_CHECK_MSG(registry != nullptr, "shed: registry required");
  AJOIN_CHECK_MSG(!joiner_tasks.empty(), "shed: no joiner tasks to watch");
}

ShedController::ShedController(OperatorControl& op,
                               const MetricsRegistry* registry,
                               std::vector<int> joiner_tasks,
                               ShedConfig config)
    : ShedController(op, registry, std::move(joiner_tasks), config,
                     Options()) {}

void ShedController::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  observer_.SetExchangeSource(std::move(source));
}

void ShedController::SetBacklogSource(std::function<uint64_t()> source) {
  observer_.SetBacklogSource(std::move(source));
}

uint32_t ShedController::TickNow(uint64_t t_us) {
  const StageSample sample = observer_.Sample(t_us);
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

void ShedController::Start() { ticker_.Start(); }

void ShedController::Stop() { ticker_.Stop(); }

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
