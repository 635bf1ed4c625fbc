#include "src/core/reshuffler.h"

#include "src/common/status.h"
#include "src/common/trace_ring.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

ReshufflerCore::ReshufflerCore(ReshufflerConfig config)
    : config_(std::move(config)) {
  AJOIN_CHECK(!config_.groups.empty());
  for (const GroupBlock& block : config_.groups) {
    GroupRoute route;
    route.block = block;
    route.layout = block.initial_layout;
    route.run_base = run_dest_task_.size();
    RebuildRouteCache(route);
    for (uint32_t p = 0; p < block.alloc_machines; ++p) {
      run_dest_task_.push_back(block.joiner_task_base + static_cast<int>(p));
    }
    groups_.push_back(std::move(route));
  }
  runs_.resize(run_dest_task_.size());
  if (config_.is_controller) {
    controller_ = std::make_unique<ControllerCore>(
        config_.controller, config_.num_reshufflers,
        config_.controller_groups);
  }
  if (config_.collect_stats) {
    StreamStats::Options options = config_.stats_options;
    options.scale = config_.num_reshufflers;
    stats_ = std::make_unique<StreamStats>(options);
  }
}

void ReshufflerCore::AcceptResults(Rel rel, int key_col) {
  // One result-ingress configuration per reshuffler: kResult envelopes
  // carry no source-stage id, so a second caller would silently repurpose
  // the first edge's restamping.
  AJOIN_CHECK_MSG(!accept_results_, "AcceptResults configured twice");
  accept_results_ = true;
  result_rel_ = rel;
  result_key_col_ = key_col;
}

void ReshufflerCore::RestampResult(Envelope& msg) {
  AJOIN_CHECK_MSG(accept_results_,
                  "kResult at a reshuffler without AcceptResults");
  msg.type = MsgType::kInput;
  msg.rel = result_rel_;
  if (result_key_col_ >= 0) {
    AJOIN_CHECK_MSG(msg.has_row, "result key column without a result row");
    msg.key = msg.row.Int64(static_cast<size_t>(result_key_col_));
  }
  msg.seq = kResultSeqBase + config_.index +
            static_cast<uint64_t>(config_.num_reshufflers) *
                metrics_.results_restamped++;
  msg.epoch = 0;
  msg.store = true;
}

void ReshufflerCore::OnBatch(TupleBatch batch, Context& ctx) {
  if (batch.empty()) return;
  if (IsControlMsg(batch.items.front().type)) {
    AJOIN_CHECK_MSG(batch.size() == 1,
                    "reshuffler: control inside a data batch");
    HandleControl(batch.items.front(), ctx);
  } else {
    RouteBatch(batch, ctx);
  }
  // Publish live telemetry once per dispatch (counters above stay plain).
  if (config_.telemetry != nullptr) {
    config_.telemetry->Publish(metrics_);
  }
}

void ReshufflerCore::HandleControl(const Envelope& msg, Context& ctx) {
  switch (msg.type) {
    case MsgType::kEpochChange:
      HandleEpochChange(msg, ctx);
      break;
    case MsgType::kMigAck: {
      AJOIN_CHECK_MSG(controller_ != nullptr, "ack at non-controller");
      std::vector<EpochSpec> decisions;
      controller_->OnAck(msg.espec->group, msg.espec->epoch, &decisions);
      Broadcast(decisions, ctx);
      break;
    }
    case MsgType::kCheckpoint: {
      AJOIN_CHECK_MSG(controller_ != nullptr, "checkpoint at non-controller");
      std::vector<EpochSpec> decisions;
      controller_->OnCheckpoint(&decisions);
      Broadcast(decisions, ctx);
      break;
    }
    case MsgType::kScale: {
      // Elastic scale request (operator facade / autoscaler): signed step
      // count in msg.key. The controller applies one step per migration
      // round; requests arriving mid-migration queue until the last ack.
      AJOIN_CHECK_MSG(controller_ != nullptr, "scale request at non-controller");
      std::vector<EpochSpec> decisions;
      controller_->RequestScale(msg.key, &decisions);
      Broadcast(decisions, ctx);
      break;
    }
    case MsgType::kEos: {
      // Gate on the expected count (driver + cascade feeders wired via
      // AddEosFeeders), then forward exactly one kEos per allocated joiner:
      // each joiner's eos_seen thus counts drained *reshufflers*, never a
      // partial upstream.
      ++eos_seen_;
      AJOIN_CHECK_MSG(eos_seen_ <= eos_expected_,
                      "more kEos than expected at reshuffler");
      if (eos_seen_ < eos_expected_) break;
      for (const GroupRoute& g : groups_) {
        for (uint32_t p = 0; p < g.block.alloc_machines; ++p) {
          Envelope eos;
          eos.type = MsgType::kEos;
          ctx.Send(g.block.joiner_task_base + static_cast<int>(p),
                   std::move(eos));
        }
      }
      break;
    }
    case MsgType::kShed: {
      // Admission-rate change (operator facade / shed controller). The
      // operator posts to reshuffler 0 only; it fans one copy to every peer,
      // and every reshuffler then forwards to every allocated joiner — so
      // the rate change trails, on each reshuffler->joiner edge, all data
      // that reshuffler routed under the previous rate. The copies carry
      // the operator's version stamp (seq), so a joiner applies each rate
      // once and drops a late copy of an older rate. No migration state is
      // involved, so no controller, barrier, or ack round is needed.
      if (config_.index == 0) {
        for (uint32_t r = 1; r < config_.num_reshufflers; ++r) {
          Envelope shed;
          shed.type = MsgType::kShed;
          shed.key = msg.key;
          shed.seq = msg.seq;
          ctx.Send(config_.reshuffler_task_base + static_cast<int>(r),
                   std::move(shed));
        }
      }
      for (const GroupRoute& g : groups_) {
        for (uint32_t p = 0; p < g.block.alloc_machines; ++p) {
          Envelope shed;
          shed.type = MsgType::kShed;
          shed.key = msg.key;
          shed.seq = msg.seq;
          ctx.Send(g.block.joiner_task_base + static_cast<int>(p),
                   std::move(shed));
        }
      }
      break;
    }
    default:
      AJOIN_CHECK_MSG(false, "reshuffler: unexpected message type");
  }
}

void ReshufflerCore::RebuildRouteCache(GroupRoute& g) {
  const Mapping& map = g.layout.mapping();
  g.r_targets.assign(map.n, {});
  for (uint32_t i = 0; i < map.n; ++i) g.r_targets[i] = g.layout.RowMachines(i);
  g.s_targets.assign(map.m, {});
  for (uint32_t j = 0; j < map.m; ++j) g.s_targets[j] = g.layout.ColMachines(j);
}

void ReshufflerCore::RouteBatch(TupleBatch& batch, Context& ctx) {
  for (Envelope& msg : batch.items) {
    // Upstream-stage egress enters like fresh input: restamped, then routed
    // (controller duty included, so adaptivity runs on the cascaded stream
    // too).
    if (msg.type == MsgType::kResult) {
      RestampResult(msg);
    } else {
      AJOIN_CHECK_MSG(msg.type == MsgType::kInput,
                      "reshuffler: unexpected message type");
    }
    const uint64_t tag = TagForSeq(msg.seq, msg.rel);
    metrics_.routed_tuples++;
    if (stats_ != nullptr) stats_->Observe(msg.rel, msg.key, msg.bytes);
    // Controller duty first (Alg. 1 line 6), then route with the mapping
    // the reshuffler currently knows. Decisions only take effect when the
    // kEpochChange loops back through this reshuffler's own inbox — after
    // this batch — so the mapping is constant batch-wide and
    // signal-before-new-epoch ordering holds.
    if (controller_ != nullptr) {
      std::vector<EpochSpec> decisions;
      controller_->OnTuple(msg.rel, msg.bytes, &decisions);
      Broadcast(decisions, ctx);
    }
    const uint32_t storage_group = StorageGroupOf(tag);
    const size_t last_g = groups_.size() - 1;
    for (uint32_t g = 0; g < groups_.size(); ++g) {
      GroupRoute& route = groups_[g];
      const uint32_t part = route.layout.PartitionFor(msg.rel, tag);
      const std::vector<uint32_t>& targets =
          msg.rel == Rel::kR ? route.r_targets[part] : route.s_targets[part];
      const bool store = g == storage_group;
      for (size_t t = 0; t < targets.size(); ++t) {
        const size_t slot = route.run_base + targets[t];
        TupleBatch& run = runs_[slot];
        if (run.empty()) {
          touched_runs_.push_back(slot);
          // The backing vector leaves with SendBatch each batch, so reserve
          // up front (a run never exceeds the input batch) instead of paying
          // doubling reallocations on every batch.
          run.items.reserve(batch.items.size());
        }
        // The replica lands in its run directly, then is patched in place.
        if (g == last_g && t + 1 == targets.size()) {
          run.items.push_back(std::move(msg));  // final replica: steal it
        } else {
          run.items.push_back(msg);
        }
        Envelope& data = run.items.back();
        data.type = MsgType::kData;
        data.tag = tag;
        data.epoch = route.epoch;
        data.group = g;
        data.store = store;
        metrics_.sent_msgs++;
        metrics_.sent_bytes += data.bytes;
      }
    }
  }
  // Ship each destination's run as a unit. Per-edge order is batch order
  // (appends above); and every run leaves before this call returns, so a
  // later epoch-change signal on the same edge still trails all data routed
  // under the old mapping.
  for (const size_t slot : touched_runs_) {
    ctx.SendBatch(run_dest_task_[slot], std::move(runs_[slot]));
    runs_[slot].Clear();
  }
  touched_runs_.clear();
}

uint32_t ReshufflerCore::StorageGroupOf(uint64_t tag) const {
  if (groups_.size() == 1) return 0;
  // Independent hash of the tag (the tag's top bits pick the partition, so
  // re-mix to decorrelate).
  double u = static_cast<double>(SplitMix64(tag ^ 0x7fb5d329728ea185ULL)) /
             18446744073709551616.0;
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    if (u < groups_[g].block.cum_prob) return g;
  }
  return static_cast<uint32_t>(groups_.size()) - 1;
}

void ReshufflerCore::Broadcast(const std::vector<EpochSpec>& specs,
                               Context& ctx) {
  for (const EpochSpec& spec : specs) {
    for (uint32_t r = 0; r < config_.num_reshufflers; ++r) {
      Envelope change;
      change.type = MsgType::kEpochChange;
      change.espec = spec;
      ctx.Send(config_.reshuffler_task_base + static_cast<int>(r),
               std::move(change));
    }
  }
}

void ReshufflerCore::HandleEpochChange(const Envelope& msg, Context& ctx) {
  const EpochSpec& spec = *msg.espec;
  GroupRoute& g = groups_[spec.group];
  AJOIN_CHECK_MSG(spec.epoch == g.epoch + 1, "epoch change out of order");
  g.layout = spec.expansion     ? g.layout.Expand()
             : spec.contraction ? g.layout.Contract(spec.mapping)
                                : g.layout.Relabel(spec.mapping);
  AJOIN_CHECK(g.layout.mapping() == spec.mapping);
  AJOIN_CHECK_MSG(g.layout.J() <= g.block.alloc_machines,
                  "expansion beyond allocated machine block");
  g.epoch = spec.epoch;
  RebuildRouteCache(g);
  metrics_.epoch_changes++;
  if (config_.trace != nullptr) {
    config_.trace->Record(TraceEventKind::kEpochChange, ctx.self(),
                          ctx.NowMicros(), spec.epoch, spec.group);
    // Scale transitions get their own trace kind (one event per operator:
    // the controller reshuffler stamps it; peers stay quiet so exported
    // traces count grow/shrink decisions, not fan-out).
    if (config_.is_controller && (spec.expansion || spec.contraction)) {
      config_.trace->Record(spec.expansion ? TraceEventKind::kScaleGrow
                                           : TraceEventKind::kScaleShrink,
                            ctx.self(), ctx.NowMicros(), spec.epoch,
                            g.layout.J());
    }
  }
  // Signal every allocated machine of the group (including not-yet-active
  // expansion slots, which track the layout) before any new-epoch tuple.
  for (uint32_t p = 0; p < g.block.alloc_machines; ++p) {
    Envelope signal;
    signal.type = MsgType::kReshufSignal;
    signal.espec = spec;
    ctx.Send(g.block.joiner_task_base + static_cast<int>(p),
             std::move(signal));
  }
}

}  // namespace ajoin
