#include "src/core/autoscale.h"

#include "src/common/status.h"
#include "src/core/operator.h"

namespace ajoin {

AutoscaleController::AutoscaleController(OperatorControl& op,
                                         const MetricsRegistry* registry,
                                         std::vector<int> joiner_tasks,
                                         AutoscaleConfig config,
                                         Options options)
    : op_(op),
      observer_(registry, joiner_tasks),
      policy_(config),
      ticker_(options.period_us, [this](uint64_t t_us) { TickNow(t_us); }) {
  AJOIN_CHECK_MSG(registry != nullptr, "autoscale: registry required");
  AJOIN_CHECK_MSG(!joiner_tasks.empty(),
                  "autoscale: no joiner tasks to watch");
}

AutoscaleController::AutoscaleController(OperatorControl& op,
                                         const MetricsRegistry* registry,
                                         std::vector<int> joiner_tasks,
                                         AutoscaleConfig config)
    : AutoscaleController(op, registry, std::move(joiner_tasks), config,
                          Options()) {}

void AutoscaleController::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  observer_.SetExchangeSource(std::move(source));
}

AutoscalePolicy::Decision AutoscaleController::TickNow(uint64_t t_us) {
  const StageSample sample = observer_.Sample(t_us);
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

void AutoscaleController::Start() { ticker_.Start(); }

void AutoscaleController::Stop() { ticker_.Stop(); }

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
