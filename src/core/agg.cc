#include "src/core/agg.h"

#include <algorithm>
#include <map>

#include "src/common/status.h"
#include "src/common/trace_ring.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

namespace {

// Accounted bytes of one shipped/emitted accumulator: 5 payload words.
constexpr uint32_t kAccumBytes = 40;
// Result/migration envelopes staged per SendBatch run (same sizing as the
// joiner's egress runs: large enough to amortize, small enough to bound the
// staging buffer).
constexpr size_t kRunMax = 128;

// Appends the 5 accumulator columns [count, sum, min, max, tuples].
void AppendAccum(const WeightedAccum& acc, Row* row) {
  row->Append(Value(acc.count));
  row->Append(Value(acc.sum));
  row->Append(Value(acc.min));
  row->Append(Value(acc.max));
  row->Append(Value(static_cast<int64_t>(acc.tuples)));
}

WeightedAccum AccumFromRow(const Row& row, size_t base) {
  WeightedAccum acc;
  acc.count = row.Double(base + 0);
  acc.sum = row.Double(base + 1);
  acc.min = row.Int64(base + 2);
  acc.max = row.Int64(base + 3);
  acc.tuples = static_cast<uint64_t>(row.Int64(base + 4));
  return acc;
}

}  // namespace

std::vector<AggResult> FoldAggRows(const std::vector<Row>& rows) {
  std::map<int64_t, WeightedAccum> groups;
  for (const Row& row : rows) {
    AJOIN_CHECK(row.num_values() == 6);  // [key, count, sum, min, max, tuples]
    groups[row.Int64(0)].Absorb(AccumFromRow(row, 1));
  }
  std::vector<AggResult> out;
  out.reserve(groups.size());
  for (const auto& kv : groups) out.push_back({kv.first, kv.second});
  return out;
}

// ---------------------------------------------------------------------------
// AggRouterCore
// ---------------------------------------------------------------------------

AggRouterCore::AggRouterCore(Config config) : config_(std::move(config)) {
  AJOIN_CHECK(config_.num_routers >= 1 && config_.num_workers >= 1);
  AJOIN_CHECK(config_.partitions >= 1 &&
              (config_.partitions & (config_.partitions - 1)) == 0);
  assign_.resize(config_.partitions);
  for (uint32_t p = 0; p < config_.partitions; ++p) {
    assign_[p] = p % config_.num_workers;
  }
  if (config_.index == 0) part_loads_.assign(config_.partitions, 0);
}

void AggRouterCore::OnBatch(TupleBatch batch, Context& ctx) {
  if (batch.empty()) return;
  if (IsControlMsg(batch.items.front().type)) {
    AJOIN_CHECK(batch.size() == 1 && "control inside a data batch");
    HandleControl(batch.items.front(), ctx);
  } else {
    for (Envelope& msg : batch.items) Route(msg, ctx);
  }
  Publish();
}

void AggRouterCore::HandleControl(const Envelope& msg, Context& ctx) {
  switch (msg.type) {
    case MsgType::kEpochChange:
      HandleEpochChange(msg, ctx);
      break;
    case MsgType::kEos:
      HandleEos(ctx);
      break;
    case MsgType::kEosNote:
      AJOIN_CHECK(config_.index == 0);
      ++notes_seen_;
      AJOIN_CHECK(notes_seen_ <= config_.num_routers);
      MaybeFlush(ctx);
      break;
    case MsgType::kMigAck:
      AJOIN_CHECK(config_.index == 0);
      AJOIN_CHECK(acks_pending_ > 0);
      --acks_pending_;
      if (acks_pending_ == 0) MaybeFlush(ctx);
      break;
    case MsgType::kFlush:
      // Controller -> this router: forward to every worker, so each worker
      // sees exactly num_routers flush markers, each ordered after all the
      // data this router routed to it.
      for (uint32_t w = 0; w < config_.num_workers; ++w) {
        Envelope flush;
        flush.type = MsgType::kFlush;
        ctx.Send(config_.worker_task_base + static_cast<int>(w),
                 std::move(flush));
      }
      break;
    default:
      AJOIN_CHECK(false && "unexpected message type at agg router");
  }
}

void AggRouterCore::Route(Envelope& msg, Context& ctx) {
  if (msg.type == MsgType::kResult) {
    ++metrics_.results_restamped;
  } else {
    AJOIN_CHECK(msg.type == MsgType::kInput &&
                "unexpected message type at agg router");
  }
  int64_t key = msg.key;
  if (config_.key_col >= 0) {
    AJOIN_CHECK(msg.has_row);
    key = msg.row.Int64(static_cast<size_t>(config_.key_col));
  }
  const uint64_t hash = SplitMix64(static_cast<uint64_t>(key));
  const uint32_t partition = PartitionOf(hash, config_.partitions);
  const uint32_t worker = assign_[partition];
  msg.type = MsgType::kData;
  msg.key = key;
  msg.tag = hash;
  msg.epoch = epoch_;
  msg.group = partition;
  ++metrics_.routed_tuples;
  ++metrics_.sent_msgs;
  metrics_.sent_bytes += msg.bytes;
  ctx.Send(config_.worker_task_base + static_cast<int>(worker),
           std::move(msg));
  if (config_.index == 0) NoteRouted(partition, ctx);
}

void AggRouterCore::HandleEpochChange(const Envelope& msg, Context& ctx) {
  AJOIN_CHECK(msg.espec->epoch == epoch_ + 1);
  AJOIN_CHECK(msg.espec->agg_assign.size() == config_.partitions);
  assign_ = msg.espec->agg_assign;
  epoch_ = msg.espec->epoch;
  ++metrics_.epoch_changes;
  if (config_.trace != nullptr) {
    config_.trace->Record(TraceEventKind::kEpochChange, ctx.self(),
                          ctx.NowMicros(), epoch_, 0);
  }
  // Signal every worker BEFORE routing any tuple under the new assignment:
  // per-edge FIFO then guarantees a worker has seen this router's signal by
  // the time any new-epoch tuple from it arrives (same ordering discipline
  // as the join reshuffler).
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    Envelope sig;
    sig.type = MsgType::kReshufSignal;
    sig.espec = msg.espec;
    ctx.Send(config_.worker_task_base + static_cast<int>(w), std::move(sig));
  }
}

void AggRouterCore::HandleEos(Context& ctx) {
  ++eos_seen_;
  AJOIN_CHECK(eos_seen_ <= eos_expected_);
  if (eos_seen_ == eos_expected_ && !note_sent_) {
    note_sent_ = true;
    Envelope note;
    note.type = MsgType::kEosNote;
    ctx.Send(config_.router_task_base, std::move(note));
  }
}

void AggRouterCore::NoteRouted(uint32_t partition, Context& ctx) {
  part_loads_[partition] += 1;
  ++total_routed_;
  ++since_check_;
  if (!config_.adaptive || acks_pending_ > 0 || flush_sent_) return;
  if (since_check_ < config_.check_every) return;
  if (total_routed_ < config_.min_total_before_adapt) return;
  MaybeRebalance(ctx);
}

void AggRouterCore::MaybeRebalance(Context& ctx) {
  since_check_ = 0;
  const uint32_t workers = config_.num_workers;
  if (workers <= 1) return;
  std::vector<uint64_t> worker_load(workers, 0);
  for (uint32_t p = 0; p < config_.partitions; ++p) {
    worker_load[assign_[p]] += part_loads_[p];
  }
  const double ceiling = (static_cast<double>(total_routed_) / workers) *
                         (1.0 + config_.epsilon);
  std::vector<uint32_t> next = assign_;
  bool moved = false;
  // Greedy: repeatedly move the heaviest partition off the most loaded
  // worker onto the least loaded one, while the imbalance exceeds epsilon
  // and a move still strictly improves the pair. Bounded by the partition
  // count.
  for (uint32_t iter = 0; iter < config_.partitions; ++iter) {
    uint32_t heavy = 0, light = 0;
    for (uint32_t w = 1; w < workers; ++w) {
      if (worker_load[w] > worker_load[heavy]) heavy = w;
      if (worker_load[w] < worker_load[light]) light = w;
    }
    if (static_cast<double>(worker_load[heavy]) <= ceiling) break;
    int best = -1;
    uint64_t best_load = 0;
    for (uint32_t p = 0; p < config_.partitions; ++p) {
      if (next[p] != heavy) continue;
      const uint64_t pl = part_loads_[p];
      if (pl > best_load && worker_load[light] + pl < worker_load[heavy]) {
        best = static_cast<int>(p);
        best_load = pl;
      }
    }
    if (best < 0) break;  // heavy worker is one indivisible hot partition
    next[static_cast<size_t>(best)] = light;
    worker_load[heavy] -= best_load;
    worker_load[light] += best_load;
    moved = true;
  }
  if (!moved) return;
  ++rebalances_;
  acks_pending_ = config_.num_workers;  // universal ack: every worker
  part_loads_.assign(config_.partitions, 0);
  total_routed_ = 0;
  for (uint32_t r = 0; r < config_.num_routers; ++r) {
    Envelope change;
    change.type = MsgType::kEpochChange;
    EpochSpec& spec = change.espec.emplace();
    spec.epoch = epoch_ + 1;
    spec.agg_assign = next;
    // Includes this router itself: the change loops through our own inbox,
    // serializing behind anything already queued (join-controller idiom).
    ctx.Send(config_.router_task_base + static_cast<int>(r),
             std::move(change));
  }
}

void AggRouterCore::MaybeFlush(Context& ctx) {
  if (flush_sent_) return;
  if (notes_seen_ < config_.num_routers || acks_pending_ > 0) return;
  flush_sent_ = true;
  for (uint32_t r = 0; r < config_.num_routers; ++r) {
    Envelope flush;
    flush.type = MsgType::kFlush;
    ctx.Send(config_.router_task_base + static_cast<int>(r),
             std::move(flush));
  }
}

void AggRouterCore::Publish() {
  if (config_.telemetry == nullptr) return;
  config_.telemetry->Publish(metrics_);
}

// ---------------------------------------------------------------------------
// AggWorkerCore
// ---------------------------------------------------------------------------

AggWorkerCore::AggWorkerCore(Config config)
    : config_(std::move(config)),
      protocol_({config_.num_routers, config_.controller_task, /*group=*/0,
                 config_.index, config_.trace},
                this) {
  AJOIN_CHECK(config_.num_workers >= 1 && config_.num_routers >= 1);
  assign_.resize(config_.partitions);
  for (uint32_t p = 0; p < config_.partitions; ++p) {
    assign_[p] = p % config_.num_workers;
  }
}

void AggWorkerCore::OnBatch(TupleBatch batch, Context& ctx) {
  if (batch.empty()) return;
  if (IsControlMsg(batch.items.front().type)) {
    AJOIN_CHECK(batch.size() == 1 && "control inside a data batch");
    HandleControl(batch.items.front(), ctx);
  } else {
    for (const Envelope& msg : batch.items) {
      if (msg.type == MsgType::kData) {
        MergeTuple(msg, ctx);
      } else {
        AJOIN_CHECK(msg.type == MsgType::kMigrate &&
                    "unexpected message type at agg worker");
        HandleMigrate(msg);
      }
    }
  }
  Publish();
}

void AggWorkerCore::HandleControl(const Envelope& msg, Context& ctx) {
  switch (msg.type) {
    case MsgType::kMigEnd:
      protocol_.OnMigEnd(ctx);
      break;
    case MsgType::kReshufSignal:
      protocol_.OnSignal(*msg.espec, ctx);
      break;
    case MsgType::kFlush:
      ++flushes_seen_;
      AJOIN_CHECK(flushes_seen_ <= config_.num_routers);
      if (flushes_seen_ == config_.num_routers) Finish(ctx);
      break;
    default:
      AJOIN_CHECK(false && "unexpected message type at agg worker");
  }
}

void AggWorkerCore::MergeTuple(const Envelope& msg, Context& ctx) {
  // Steady state sees only current-epoch tuples. During a repartition (some
  // routers switched, some not) both epochs interleave; commutativity makes
  // the merge scope-free — no Δ/Δ' bookkeeping, unlike the joiner.
  if (migrating()) {
    AJOIN_CHECK(msg.epoch == epoch() || msg.epoch == epoch() + 1);
  } else {
    AJOIN_CHECK(msg.epoch == epoch());
  }
  int64_t value = static_cast<int64_t>(msg.bytes);
  if (config_.value_col >= 0) {
    AJOIN_CHECK(msg.has_row);
    value = msg.row.Int64(static_cast<size_t>(config_.value_col));
  }
  table_.Upsert(msg.key)->Merge(msg.weight, value);
  ++stats_.in_tuples;
  stats_.in_bytes += msg.bytes;
  ++merged_since_emit_;
  if (config_.emit_every > 0 && config_.result_sink >= 0 && !migrating() &&
      merged_since_emit_ >= config_.emit_every) {
    merged_since_emit_ = 0;
    EmitTable(ctx);
    table_.Clear();  // emitted partials are additive deltas
  }
}

void AggWorkerCore::HandleMigrate(const Envelope& msg) {
  // Migrated cells merge unconditionally — even "early" µ that outran this
  // worker's own signals (the sender's last signal can precede ours).
  AJOIN_CHECK(msg.has_row);
  table_.UpsertCell(msg.key, msg.tag)->acc.Absorb(AccumFromRow(msg.row, 0));
  ++stats_.mig_in_cells;
}

uint32_t AggWorkerCore::BeginMigration(const EpochSpec& spec, Context& ctx) {
  (void)ctx;
  AJOIN_CHECK(spec.agg_assign.size() == config_.partitions);
  new_assign_ = spec.agg_assign;
  // One kMigEnd expected from each distinct old owner of a partition newly
  // assigned here — derived deterministically from (assign, new_assign),
  // exactly like the joiner's ExpectedSenders.
  const uint32_t self = config_.index;
  std::vector<uint8_t> sender(config_.num_workers, 0);
  uint32_t expected = 0;
  for (uint32_t p = 0; p < config_.partitions; ++p) {
    if (new_assign_[p] == self && assign_[p] != self &&
        sender[assign_[p]] == 0) {
      sender[assign_[p]] = 1;
      ++expected;
    }
  }
  return expected;
}

void AggWorkerCore::OnLastSignal(Context& ctx) {
  // Every router has switched, so (per-edge FIFO) no old-epoch tuple for an
  // outgoing partition can still reach us: the partition's state is final
  // here and safe to ship in one shot. This is the commutativity payoff —
  // the joiner must migrate eagerly and scope probes (Δ/Δ'/µ); the
  // aggregate defers all movement to this single point.
  const uint32_t self = config_.index;
  std::vector<int> target_of(config_.partitions, -1);
  bool any_out = false;
  for (uint32_t p = 0; p < config_.partitions; ++p) {
    if (assign_[p] == self && new_assign_[p] != self) {
      target_of[p] = static_cast<int>(new_assign_[p]);
      any_out = true;
    }
  }
  if (any_out) {
    std::vector<AggTable::Cell> kept;
    kept.reserve(table_.size());
    std::map<int, TupleBatch> runs;
    table_.ForEach([&](const AggTable::Cell& cell) {
      const int target =
          target_of[PartitionOf(cell.hash, config_.partitions)];
      if (target < 0) {
        kept.push_back(cell);
        return;
      }
      TupleBatch& run = runs[target];
      Envelope& mu = run.items.emplace_back();
      mu.type = MsgType::kMigrate;
      mu.key = cell.key;
      mu.tag = cell.hash;
      mu.epoch = epoch() + 1;
      mu.bytes = kAccumBytes;
      mu.has_row = true;
      mu.row.Reserve(5);
      AppendAccum(cell.acc, &mu.row);
      ++stats_.mig_out_cells;
      if (run.size() >= kRunMax) {
        ctx.SendBatch(config_.worker_task_base + target, std::move(run));
        run.Clear();
      }
    });
    for (auto& kv : runs) {
      if (kv.second.empty()) continue;
      ctx.SendBatch(config_.worker_task_base + kv.first,
                    std::move(kv.second));
    }
    // Drop shipped partitions by rebuilding with the kept cells (the
    // joiner's FinalizeMigration idiom).
    table_.Clear();
    table_.Reserve(kept.size());
    for (const AggTable::Cell& cell : kept) {
      table_.UpsertCell(cell.key, cell.hash)->acc = cell.acc;
    }
  }
  // One kMigEnd per distinct target worker that gains a partition from us —
  // the receiver counts markers, not cells, so an empty partition still
  // gets its marker.
  std::vector<uint8_t> marked(config_.num_workers, 0);
  for (uint32_t p = 0; p < config_.partitions; ++p) {
    if (target_of[p] < 0 || marked[static_cast<size_t>(target_of[p])] != 0) {
      continue;
    }
    marked[static_cast<size_t>(target_of[p])] = 1;
    protocol_.SendMigEnd(config_.worker_task_base + target_of[p], ctx);
  }
}

void AggWorkerCore::FinalizeMigration(Context& ctx) {
  (void)ctx;
  // The protocol then acks the epoch from every worker (even untouched
  // ones), so the controller's next decision — and the final flush — wait
  // for the whole stage to reach lockstep.
  assign_ = new_assign_;
  ++stats_.migrations_finalized;
}

void AggWorkerCore::Finish(Context& ctx) {
  // The controller only flushes when every router has drained and every
  // migration has acked, so a mid-repartition flush is a protocol bug.
  AJOIN_CHECK(!migrating());
  AJOIN_CHECK(!stats_.flushed);
  EmitTable(ctx);
  if (config_.result_sink >= 0) {
    Envelope eos;
    eos.type = MsgType::kEos;
    ctx.Send(config_.result_sink, std::move(eos));
  }
  stats_.flushed = true;
}

void AggWorkerCore::EmitTable(Context& ctx) {
  if (config_.result_sink < 0) return;
  table_.ForEach(
      [&](const AggTable::Cell& cell) { StageResult(cell, ctx); });
  FlushEgress(ctx);
}

void AggWorkerCore::StageResult(const AggTable::Cell& cell, Context& ctx) {
  // Built in place in the staged run (the joiner's egress idiom).
  if (egress_.empty()) egress_.items.reserve(kRunMax);
  Envelope& out = egress_.items.emplace_back();
  out.type = MsgType::kResult;
  out.key = cell.key;
  out.seq = cell.hash;  // stable identity (see message.h agg contract)
  out.tag = PartitionOf(cell.hash, config_.partitions);
  out.bytes = kAccumBytes;
  out.weight = 1.0;  // weights were consumed into the accumulator
  out.has_row = true;
  out.row.Reserve(6);  // [key, count, sum, min, max, tuples]
  out.row.Append(Value(cell.key));
  AppendAccum(cell.acc, &out.row);
  ++stats_.emitted_results;
  if (egress_.size() >= kRunMax) FlushEgress(ctx);
}

void AggWorkerCore::FlushEgress(Context& ctx) {
  if (egress_.empty()) return;
  ctx.SendBatch(config_.result_sink, std::move(egress_));
  egress_.Clear();
}

void AggWorkerCore::Publish() {
  if (config_.telemetry == nullptr) return;
  stats_.groups = table_.size();
  stats_.table_bytes = table_.MemoryBytes();
  stats_.epoch = epoch();
  stats_.migrating = migrating();
  config_.telemetry->Publish(stats_);
}

// ---------------------------------------------------------------------------
// AggOperator facade
// ---------------------------------------------------------------------------

AggOperator::AggOperator(Engine& engine, AggConfig config)
    : OperatorShell(engine), config_(std::move(config)) {
  AJOIN_CHECK(config_.machines >= 1);
  AJOIN_CHECK(config_.partitions >= 1 &&
              (config_.partitions & (config_.partitions - 1)) == 0);
  const uint32_t num_routers =
      config_.routers != 0 ? config_.routers : config_.machines;
  const int task_base = static_cast<int>(engine_.num_tasks());
  const int worker_base = task_base + static_cast<int>(num_routers);
  for (uint32_t r = 0; r < num_routers; ++r) {
    AggRouterCore::Config rc;
    rc.index = r;
    rc.num_routers = num_routers;
    rc.num_workers = config_.machines;
    rc.partitions = config_.partitions;
    rc.router_task_base = task_base;
    rc.worker_task_base = worker_base;
    rc.key_col = config_.spec.key_col;
    rc.adaptive = config_.adaptive;
    rc.epsilon = config_.epsilon;
    rc.min_total_before_adapt = config_.min_total_before_adapt;
    rc.check_every = config_.check_every;
    rc.trace = config_.trace;
    const int id = task_base + static_cast<int>(r);
    if (config_.registry != nullptr) {
      rc.telemetry = config_.registry->Register(id, TaskKind::kReshuffler);
    }
    const int got = engine_.AddTask(std::make_unique<AggRouterCore>(rc));
    AJOIN_CHECK(got == id);
    entry_ids_.push_back(id);
  }
  for (uint32_t w = 0; w < config_.machines; ++w) {
    AggWorkerCore::Config wc;
    wc.index = w;
    wc.num_workers = config_.machines;
    wc.num_routers = num_routers;
    wc.partitions = config_.partitions;
    wc.controller_task = task_base;
    wc.worker_task_base = worker_base;
    wc.value_col = config_.spec.value_col;
    wc.emit_every = config_.emit_every;
    wc.trace = config_.trace;
    const int id = worker_base + static_cast<int>(w);
    if (config_.registry != nullptr) {
      wc.telemetry = config_.registry->Register(id, TaskKind::kAgg);
    }
    const int got = engine_.AddTask(std::make_unique<AggWorkerCore>(wc));
    AJOIN_CHECK(got == id);
    emitter_ids_.push_back(id);
  }
}

void AggOperator::WireEmitter(size_t slot, int sink) {
  static_cast<AggWorkerCore*>(engine_.task(emitter_ids_[slot]))
      ->set_result_sink(sink);
}

void AggOperator::WireFeeders(size_t entry, uint32_t n) {
  static_cast<AggRouterCore*>(engine_.task(entry_ids_[entry]))
      ->AddEosFeeders(n);
}

const AggWorkerCore& AggOperator::worker(size_t i) const {
  return *static_cast<const AggWorkerCore*>(engine_.task(emitter_ids_[i]));
}

const AggRouterCore& AggOperator::router(size_t i) const {
  return *static_cast<const AggRouterCore*>(engine_.task(entry_ids_[i]));
}

std::vector<AggResult> AggOperator::Collect() const {
  std::map<int64_t, WeightedAccum> groups;
  for (size_t w = 0; w < emitter_ids_.size(); ++w) {
    worker(w).table().ForEach([&](const AggTable::Cell& cell) {
      groups[cell.key].Absorb(cell.acc);
    });
  }
  std::vector<AggResult> out;
  out.reserve(groups.size());
  for (const auto& kv : groups) out.push_back({kv.first, kv.second});
  return out;
}

uint64_t AggOperator::TotalMigrations() const {
  uint64_t total = 0;
  for (size_t w = 0; w < emitter_ids_.size(); ++w) {
    total += worker(w).migrations_finalized();
  }
  return total;
}

uint32_t AggOperator::epoch() const { return router(0).epoch(); }

}  // namespace ajoin
