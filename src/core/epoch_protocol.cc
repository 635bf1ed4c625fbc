#include "src/core/epoch_protocol.h"

#include <utility>

#include "src/common/status.h"
#include "src/common/trace_ring.h"

namespace ajoin {

void EpochProtocol::OnSignal(const EpochSpec& spec, Context& ctx) {
  AJOIN_CHECK_MSG(spec.epoch == epoch_ + 1, "signal for wrong epoch");
  if (signals_ == 0) {
    migrating_ = true;
    if (config_.trace != nullptr) {
      config_.trace->Record(TraceEventKind::kMigrationBegin, ctx.self(),
                            ctx.NowMicros(), epoch_ + 1, config_.trace_tag);
    }
    expected_ = mover_->BeginMigration(spec, ctx);
    AJOIN_CHECK_MSG(migends_ <= expected_, "surplus kMigEnd");
  }
  ++signals_;
  AJOIN_CHECK_MSG(signals_ <= config_.num_signals, "surplus kReshufSignal");
  if (signals_ == config_.num_signals) mover_->OnLastSignal(ctx);
  MaybeFinalize(ctx);
}

void EpochProtocol::OnMigEnd(Context& ctx) {
  // A marker may outrun this slot's first signal (the sender's last signal
  // can precede ours); it is counted now and checked once begin arms the
  // expected count.
  ++migends_;
  if (!migrating_) return;
  AJOIN_CHECK_MSG(migends_ <= expected_, "surplus kMigEnd");
  MaybeFinalize(ctx);
}

void EpochProtocol::SendMigEnd(int peer, Context& ctx) const {
  Envelope end;
  end.type = MsgType::kMigEnd;
  end.group = config_.group;
  end.epoch = epoch_ + 1;
  ctx.Send(peer, std::move(end));
}

void EpochProtocol::Restart() {
  AJOIN_CHECK_MSG(!migrating_, "restart during a migration");
  epoch_ = 0;
}

void EpochProtocol::MaybeFinalize(Context& ctx) {
  if (!migrating_ || signals_ < config_.num_signals || migends_ < expected_) {
    return;
  }
  mover_->FinalizeMigration(ctx);
  ++epoch_;
  migrating_ = false;
  signals_ = 0;
  migends_ = 0;
  expected_ = 0;
  if (config_.trace != nullptr) {
    config_.trace->Record(TraceEventKind::kMigrationFinalize, ctx.self(),
                          ctx.NowMicros(), epoch_, config_.trace_tag);
  }
  Envelope ack;
  ack.type = MsgType::kMigAck;
  ack.group = config_.group;
  EpochSpec& done = ack.espec.emplace();
  done.group = config_.group;
  done.epoch = epoch_;
  ctx.Send(config_.controller_task, std::move(ack));
}

}  // namespace ajoin
