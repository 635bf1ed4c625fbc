#include "src/query/dataflow.h"

#include <algorithm>
#include <string>

#include "src/common/status.h"

namespace ajoin {

void ResultSink::OnMessage(Envelope msg, Context& ctx) {
  (void)ctx;
  if (msg.type == MsgType::kEos) return;
  AJOIN_CHECK_MSG(msg.type == MsgType::kResult,
                  "ResultSink: unexpected message type");
  weighted_.Merge(msg.weight, static_cast<int64_t>(msg.bytes));
  total_bytes_ += msg.bytes;
  if (options_.collect_pairs) pairs_.emplace_back(msg.seq, msg.tag);
  if (options_.collect_keyed_weights) {
    keyed_weights_.emplace_back(msg.key, msg.weight);
  }
  if (options_.collect_rows) {
    AJOIN_CHECK_MSG(msg.has_row, "collect_rows sink fed row-less results");
    rows_.push_back(std::move(msg.row));
  }
}

std::vector<std::pair<uint64_t, uint64_t>> ResultSink::SortedPairs() const {
  std::vector<std::pair<uint64_t, uint64_t>> out = pairs_;
  std::sort(out.begin(), out.end());
  return out;
}

int Dataflow::AddJoin(const OperatorConfig& config) {
  Stage stage;
  OperatorConfig cfg = config;
  if (cfg.registry == nullptr) cfg.registry = registry_;
  if (cfg.trace == nullptr) cfg.trace = trace_;
  auto op = std::make_unique<JoinOperator>(engine_, cfg);
  stage.join = op.get();
  stage.op = std::move(op);
  stage.registry = cfg.registry;
  stages_.push_back(std::move(stage));
  return static_cast<int>(stages_.size()) - 1;
}

int Dataflow::AddGroupBy(const AggConfig& config) {
  Stage stage;
  AggConfig cfg = config;
  if (cfg.registry == nullptr) cfg.registry = registry_;
  if (cfg.trace == nullptr) cfg.trace = trace_;
  auto op = std::make_unique<AggOperator>(engine_, cfg);
  stage.agg = op.get();
  stage.op = std::move(op);
  stage.registry = cfg.registry;
  stages_.push_back(std::move(stage));
  return static_cast<int>(stages_.size()) - 1;
}

int Dataflow::AddSink(ResultSink::Options options) {
  Stage stage;
  auto sink = std::make_unique<ResultSink>(options);
  stage.sink = sink.get();
  stage.sink_task = engine_.AddTask(std::move(sink));
  stages_.push_back(std::move(stage));
  return static_cast<int>(stages_.size()) - 1;
}

void Dataflow::Connect(int from, int to, ConnectOptions options) {
  AJOIN_CHECK_MSG(from >= 0 && from < static_cast<int>(stages_.size()) &&
                      to >= 0 && to < static_cast<int>(stages_.size()),
                  "Connect: unknown stage");
  AJOIN_CHECK_MSG(from < to,
                  "Connect: stages must be wired in creation order (result "
                  "edges point at higher task ids)");
  Stage& src = stages_[static_cast<size_t>(from)];
  Stage& dst = stages_[static_cast<size_t>(to)];
  AJOIN_CHECK_MSG(src.op != nullptr,
                  "Connect: source must be a join or group-by stage");
  AJOIN_CHECK_MSG(!src.connected_out, "Connect: stage egress already wired");
  src.connected_out = true;
  if (dst.sink != nullptr) {
    src.op->RouteResultsTo({dst.sink_task});
    return;
  }
  // A group-by's egress is its final (or periodic) aggregate batches: they
  // terminate at a sink, never re-enter another operator stage.
  AJOIN_CHECK_MSG(src.agg == nullptr,
                  "Connect: group-by egress must terminate at a sink");
  // One inbound result edge per operator stage: an entry task cannot tell
  // result envelopes from different upstream stages apart, so a second edge
  // would silently overwrite the first edge's restamping. (Sinks take any
  // number of inbound edges.)
  AJOIN_CHECK_MSG(!dst.connected_in,
                  "Connect: stage already has an inbound result edge");
  dst.connected_in = true;
  src.op->RouteResultsTo(dst.op->entry_ids());
  dst.op->AcceptResultsAs(options.rel, options.key_col);
  // Every upstream emitter forwards one kEos when it drains; each
  // downstream entry task must wait for its wired share before it treats
  // its input as drained.
  dst.op->AddResultFeeders(src.op->emitter_ids().size());
}

const Dataflow::Stage& Dataflow::StageAt(int handle, const char* what) const {
  AJOIN_CHECK_MSG(handle >= 0 && handle < static_cast<int>(stages_.size()),
                  (std::string(what) + ": unknown stage").c_str());
  return stages_[static_cast<size_t>(handle)];
}

Dataflow::Stage& Dataflow::ControllableJoin(int handle, const char* what) {
  // StageAt is const only so the const accessors can share it; stages_
  // itself is ours to mutate.
  Stage& stage = const_cast<Stage&>(StageAt(handle, what));
  AJOIN_CHECK_MSG(stage.join != nullptr,
                  (std::string(what) + ": not a join stage").c_str());
  AJOIN_CHECK_MSG(stage.registry != nullptr,
                  (std::string(what) +
                   ": stage has no telemetry registry (call SetTelemetry "
                   "before AddJoin)")
                      .c_str());
  return stage;
}

JoinOperator& Dataflow::join(int handle) {
  const Stage& stage = StageAt(handle, "join()");
  AJOIN_CHECK_MSG(stage.join != nullptr, "join(): not a join stage");
  return *stage.join;
}

AggOperator& Dataflow::groupby(int handle) {
  const Stage& stage = StageAt(handle, "groupby()");
  AJOIN_CHECK_MSG(stage.agg != nullptr, "groupby(): not a group-by stage");
  return *stage.agg;
}

const ResultSink& Dataflow::sink(int handle) const {
  const Stage& stage = StageAt(handle, "sink()");
  AJOIN_CHECK_MSG(stage.sink != nullptr, "sink(): not a sink stage");
  return *stage.sink;
}

AutoscaleController& Dataflow::SetAutoscale(
    int handle, AutoscaleConfig config, AutoscaleController::Options options) {
  Stage& stage = ControllableJoin(handle, "SetAutoscale");
  AJOIN_CHECK_MSG(stage.autoscale == nullptr,
                  "SetAutoscale: stage already has a controller");
  stage.autoscale = std::make_unique<AutoscaleController>(
      *stage.join, stage.registry, stage.join->joiner_task_ids(), config,
      options);
  return *stage.autoscale;
}

void Dataflow::StartAutoscale() {
  for (Stage& stage : stages_) {
    if (stage.autoscale != nullptr) stage.autoscale->Start();
  }
}

void Dataflow::StopAutoscale() {
  for (Stage& stage : stages_) {
    if (stage.autoscale != nullptr) stage.autoscale->Stop();
  }
}

AutoscaleController& Dataflow::autoscale(int handle) {
  const Stage& stage = StageAt(handle, "autoscale()");
  AJOIN_CHECK_MSG(stage.autoscale != nullptr,
                  "autoscale(): stage has no controller");
  return *stage.autoscale;
}

ShedController& Dataflow::SetShedding(int handle, ShedConfig config,
                                      ShedController::Options options) {
  Stage& stage = ControllableJoin(handle, "SetShedding");
  AJOIN_CHECK_MSG(stage.shed == nullptr,
                  "SetShedding: stage already has a shed controller");
  stage.shed = std::make_unique<ShedController>(
      *stage.join, stage.registry, stage.join->joiner_task_ids(), config,
      options);
  return *stage.shed;
}

void Dataflow::StartShedding() {
  for (Stage& stage : stages_) {
    if (stage.shed != nullptr) stage.shed->Start();
  }
}

void Dataflow::StopShedding() {
  for (Stage& stage : stages_) {
    if (stage.shed != nullptr) stage.shed->Stop();
  }
}

ShedController& Dataflow::shedding(int handle) {
  const Stage& stage = StageAt(handle, "shedding()");
  AJOIN_CHECK_MSG(stage.shed != nullptr,
                  "shedding(): stage has no shed controller");
  return *stage.shed;
}

void Dataflow::FlushInput() {
  for (Stage& stage : stages_) {
    if (stage.op != nullptr) stage.op->FlushInput();
  }
}

void Dataflow::SendEos() {
  for (Stage& stage : stages_) {
    if (stage.op != nullptr) stage.op->SendEos();
  }
}

}  // namespace ajoin
