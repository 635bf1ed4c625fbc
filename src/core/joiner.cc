#include "src/core/joiner.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/trace_ring.h"
#include "src/runtime/metrics_registry.h"
#include "src/tuple/serde.h"

namespace ajoin {

JoinerCore::JoinerCore(JoinerConfig config)
    : config_(std::move(config)),
      layout_(config_.initial_layout),
      protocol_({config_.num_reshufflers, config_.controller_task,
                 config_.group, config_.group, config_.trace},
                this),
      index_{JoinIndex(JoinIndex::KindFor(config_.spec.kind)),
             JoinIndex(JoinIndex::KindFor(config_.spec.kind))} {
  // Deterministic per-slot shed sampler: the same slot always draws the
  // same admission sequence, so sampled runs reproduce given the same
  // per-edge message order.
  shed_rng_.Seed(SplitMix64(
      (static_cast<uint64_t>(config_.group) << 32) | config_.machine_index));
  // Seed the telemetry cell before the first dispatch so samplers see the
  // correct participation flag for slots that have not received a message
  // yet (dormant expansion slots in particular).
  PublishMetrics();
}

void JoinerCore::PublishMetrics() {
  metrics_.latency_count = latency_us_.count();
  metrics_.latency_sum_us = latency_us_.sum();
  metrics_.shed_rate_ppm = shed_rate_ppm_;
  metrics_.epoch = epoch();
  metrics_.migrating = migrating();
  metrics_.active = participating();
  if (config_.telemetry != nullptr) config_.telemetry->Publish(metrics_);
}

void JoinerCore::OnBatch(TupleBatch batch, Context& ctx) {
  if (batch.empty()) return;
  if (IsControlMsg(batch.items.front().type)) {
    AJOIN_CHECK_MSG(batch.size() == 1, "joiner: control inside a data batch");
    HandleControl(batch.items.front(), ctx);
  } else {
    HandleData(batch, ctx);
  }
  // Ship the results this dispatch produced before the Context goes away.
  if (!egress_.empty()) FlushEgress(ctx);
  // Publish live telemetry once per dispatch: counters stay plain stores
  // above; the cell write is the only synchronized step.
  PublishMetrics();
}

void JoinerCore::HandleControl(const Envelope& msg, Context& ctx) {
  switch (msg.type) {
    case MsgType::kMigEnd:
      protocol_.OnMigEnd(ctx);
      MaybeForwardEos(ctx);
      break;
    case MsgType::kReshufSignal:
      AJOIN_CHECK(msg.espec->group == config_.group);
      protocol_.OnSignal(*msg.espec, ctx);
      MaybeForwardEos(ctx);
      break;
    case MsgType::kEos:
      ++eos_seen_;
      MaybeForwardEos(ctx);
      break;
    case MsgType::kShed:
      HandleShed(msg, ctx);
      break;
    default:
      AJOIN_CHECK_MSG(false, "joiner: unexpected message type");
  }
}

// ---------------------------------------------------------------------------
// Probe scopes
// ---------------------------------------------------------------------------

bool JoinerCore::EntryInScope(const StoredEntry& entry, Rel entry_rel,
                              Scope scope) const {
  switch (scope) {
    case Scope::kAll:
      // Steady state. Early-arriving migrated tuples (origin MIG before our
      // first signal) must be excluded: their pairs with old-epoch tuples are
      // produced at the machines owning them under the old mapping.
      return entry.origin == kOriginData;
    case Scope::kOldData:
      return entry.origin == kOriginData && entry.epoch <= epoch();
    case Scope::kNewOwned:
      return plan_->Keeps(config_.machine_index, entry_rel, entry.tag);
    case Scope::kDeltaPrime:
      return entry.epoch == epoch() + 1 && entry.origin == kOriginData;
  }
  return false;
}

void JoinerCore::Probe(const Envelope& msg, Scope scope, Context& ctx) {
  const Rel opp = Opposite(msg.rel);
  const auto opp_i = static_cast<size_t>(opp);
  int64_t lo = 0, hi = 0;
  config_.spec.ProbeRange(msg.rel, msg.key, &lo, &hi);
  const auto& entries = entries_[opp_i];
  index_[opp_i].ForEachCandidate(lo, hi, [&](uint64_t id) {
    const StoredEntry& entry = entries[id];
    metrics_.probe_candidates++;
    if (!EntryInScope(entry, opp, scope)) return;
    bool match;
    if (msg.has_row && entry.has_row) {
      match = (msg.rel == Rel::kR) ? config_.spec.Matches(msg.row, entry.row)
                                   : config_.spec.Matches(entry.row, msg.row);
    } else {
      // Slim mode: index candidates already satisfy the key predicate for
      // equi/band; theta requires rows.
      AJOIN_CHECK_MSG(config_.spec.kind != JoinSpec::Kind::kTheta,
                      "theta joins require materialized rows");
      match = true;
    }
    if (match) Emit(msg, entry, msg.rel, ctx);
  });
}

void JoinerCore::Emit(const Envelope& msg, const StoredEntry& matched,
                      Rel msg_rel, Context& ctx) {
  ++output_count_;
  metrics_.output_tuples++;
  if (config_.collect_pairs) {
    if (msg_rel == Rel::kR) {
      pairs_.emplace_back(msg.seq, matched.seq);
    } else {
      pairs_.emplace_back(matched.seq, msg.seq);
    }
  }
  if (config_.result_sink >= 0) StageResult(msg, matched, msg_rel, ctx);
  if (config_.latency_every != 0 && msg.ingest_us != 0 &&
      output_count_ % config_.latency_every == 0) {
    uint64_t now = ctx.NowMicros();
    if (now > msg.ingest_us) {
      latency_us_.Record(static_cast<double>(now - msg.ingest_us));
    }
  }
}

// Staged runs are cut at the wire's default batch size; a dispatch that
// produces more results than this ships several batches (per-edge FIFO
// either way).
static constexpr size_t kEgressRunMax = 128;

void JoinerCore::StageResult(const Envelope& msg, const StoredEntry& matched,
                             Rel msg_rel, Context& ctx) {
  // kResult field use is documented at the MsgType declaration: the pair's
  // identity travels as (seq, tag) = (r_seq, s_seq) and the payload as the
  // concatenated row, so a sink can reproduce CollectPairs() exactly and a
  // downstream stage sees the same row LocalJoin would materialize. The
  // result is built in place in the staged run; a run leaves with its
  // buffer, so a fresh run reserves its full size once.
  if (egress_.empty()) egress_.items.reserve(kEgressRunMax);
  Envelope& res = egress_.items.emplace_back();
  res.type = MsgType::kResult;
  res.rel = msg_rel;
  res.key = msg.key;
  if (msg_rel == Rel::kR) {
    res.seq = msg.seq;
    res.tag = matched.seq;
  } else {
    res.seq = matched.seq;
    res.tag = msg.seq;
  }
  res.bytes = msg.bytes + matched.bytes;
  res.group = config_.group;
  res.ingest_us = msg.ingest_us;
  res.weight = emit_weight_;  // 1.0 exact; 1/p under shed-mode probes
  if (msg.has_row && matched.has_row) {
    const Row& r_row = msg_rel == Rel::kR ? msg.row : matched.row;
    const Row& s_row = msg_rel == Rel::kR ? matched.row : msg.row;
    res.has_row = true;
    res.row.Reserve(r_row.num_values() + s_row.num_values());
    res.row.AppendAll(r_row);
    res.row.AppendAll(s_row);
  }
  if (egress_.size() >= kEgressRunMax) FlushEgress(ctx);
}

void JoinerCore::FlushEgress(Context& ctx) {
  ctx.SendBatch(config_.result_sink, std::move(egress_));
  egress_.Clear();
}

void JoinerCore::Store(const Envelope& msg, uint8_t origin, uint32_t epoch) {
  const auto rel_i = static_cast<size_t>(msg.rel);
  StoredEntry entry;
  entry.key = msg.key;
  entry.tag = msg.tag;
  entry.seq = msg.seq;
  entry.bytes = msg.bytes;
  entry.epoch = epoch;
  entry.origin = origin;
  if (msg.has_row && config_.keep_rows) {
    entry.has_row = true;
    entry.row = msg.row;
  }
  int64_t index_key =
      (config_.spec.kind == JoinSpec::Kind::kTheta) ? 0 : msg.key;
  entries_[rel_i].push_back(std::move(entry));
  index_[rel_i].Add(index_key, entries_[rel_i].size() - 1);
  NoteStored(&metrics_, msg.bytes);
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

void JoinerCore::HandleData(const TupleBatch& batch, Context& ctx) {
  // A migration begins and ends only on control messages, so migrating()
  // holds for the whole batch.
  const size_t n = batch.items.size();
  size_t i = 0;
  while (i < n) {
    const Envelope& head = batch.items[i];
    size_t j = i + 1;
    while (j < n && batch.items[j].type == head.type &&
           batch.items[j].rel == head.rel) {
      ++j;
    }
    AJOIN_CHECK_MSG(head.type == MsgType::kData ||
                        head.type == MsgType::kMigrate,
                    "joiner: unexpected message type");
    if (head.type == MsgType::kMigrate) {
      for (size_t k = i; k < j; ++k) HandleMigrate(batch.items[k], ctx);
    } else if (migrating()) {
      for (size_t k = i; k < j; ++k) HandleMigratingData(batch.items[k], ctx);
    } else {
      ProbeThenStore(batch, i, j, ctx);
    }
    i = j;
  }
}

void JoinerCore::ProbeThenStore(const TupleBatch& batch, size_t begin,
                                size_t end, Context& ctx) {
  // Probes first: the run's tuples all belong to one relation and probe the
  // opposite relation's index, so the run's own (deferred) stores can never
  // be probe candidates for it. Cross-group probe-only tuples (!store) are
  // probed and never stored.
  //
  // Shedding gates the probe only: the tuple is still stored exactly, so
  // join state (and any future migration of it) is unaffected. Each join
  // pair is produced at exactly one probe site, so Bernoulli(p) admission
  // here with weight 1/p at emission is an unbiased Horvitz-Thompson
  // sample of the exact output.
  emit_weight_ = shed_weight_;  // 1.0 when exact
  for (size_t k = begin; k < end; ++k) {
    const Envelope& msg = batch.items[k];
    if (msg.store) {
      AJOIN_CHECK_MSG(msg.epoch == epoch(),
                      "new-epoch tuple before its reshuffler signal");
      metrics_.in_tuples++;
      metrics_.in_bytes += msg.bytes;
    }
    if (AdmitProbe()) Probe(msg, Scope::kAll, ctx);
  }
  emit_weight_ = 1.0;
  // Then the run's inserts, grouped so the index stays hot in cache.
  for (size_t k = begin; k < end; ++k) {
    const Envelope& msg = batch.items[k];
    if (msg.store) Store(msg, kOriginData, epoch());
  }
}

void JoinerCore::HandleMigratingData(const Envelope& msg, Context& ctx) {
  // Cross-group probes never overlap a migration: grouped operators run
  // with barrier migrations (DESIGN.md section 5).
  AJOIN_CHECK_MSG(msg.store, "probe during migration (barrier violated)");
  metrics_.in_tuples++;
  metrics_.in_bytes += msg.bytes;
  if (msg.epoch == epoch()) {
    // Δ tuple (Alg. 3, HandleTuple1 lines 15-20).
    Probe(msg, Scope::kOldData, ctx);
    bool keep = plan_->Keeps(config_.machine_index, msg.rel, msg.tag);
    if (keep) Probe(msg, Scope::kDeltaPrime, ctx);
    Store(msg, kOriginData, epoch());
    ForwardPerDirectives(msg, ctx);
  } else if (msg.epoch == epoch() + 1) {
    // Δ' tuple (lines 12-14 / 24-26).
    Probe(msg, Scope::kNewOwned, ctx);
    Store(msg, kOriginData, epoch() + 1);
  } else {
    AJOIN_CHECK_MSG(false, "tuple more than one epoch away");
  }
}

void JoinerCore::HandleMigrate(const Envelope& msg, Context& ctx) {
  metrics_.mig_in_tuples++;
  metrics_.mig_in_bytes += msg.bytes;
  // µ tuple: join with Δ' only (lines 10-11 / 22-23). Δ' entries carry the
  // pending epoch E+1, whether or not the migration has locally started.
  Probe(msg, Scope::kDeltaPrime, ctx);
  Store(msg, kOriginMig, msg.epoch);
}

// ---------------------------------------------------------------------------
// Migration: EpochProtocol::StateMover hooks
// ---------------------------------------------------------------------------

uint32_t JoinerCore::BeginMigration(const EpochSpec& spec, Context& ctx) {
  to_layout_ = spec.expansion     ? layout_.Expand()
               : spec.contraction ? layout_.Contract(spec.mapping)
                                  : layout_.Relabel(spec.mapping);
  AJOIN_CHECK(to_layout_.mapping() == spec.mapping);
  plan_ = std::make_unique<MigrationPlan>(layout_, to_layout_, spec.expansion);
  // "Send tau for migration" (line 3). Every machine of the *old* grid with
  // directives sends — under a contraction that includes the retirees, whose
  // entire state moves to the survivors. (The function is a no-op for
  // machines outside the from grid.)
  SendOldStateForMigration(ctx);
  // Participation is defined by the *target* layout: expansion children are
  // not in the old grid but receive state and wait for their senders'
  // MigEnds; machines beyond the target grid (dormant slots, and survivors'
  // retiring peers under a contraction) wait for signals only — a retiring
  // machine still executes its send directives and MigEnd markers, then
  // finalizes by dropping everything.
  if (config_.machine_index >= to_layout_.J()) return 0;
  return static_cast<uint32_t>(
      plan_->ExpectedSenders(config_.machine_index).size());
}

void JoinerCore::OnLastSignal(Context& ctx) {
  // No further Δ can arrive (FIFO per reshuffler channel): flush MigEnd
  // markers to every migration target. (Machines without directives —
  // expansion children, pure-discard peers — have no targets.)
  if (config_.machine_index >= plan_->NumMachines()) return;
  for (uint32_t target : plan_->TargetsOf(config_.machine_index)) {
    protocol_.SendMigEnd(config_.joiner_task_base + static_cast<int>(target),
                         ctx);
  }
}

void JoinerCore::SendOldStateForMigration(Context& ctx) {
  if (config_.machine_index >= plan_->from().J()) return;  // new machine
  const auto& directives = plan_->SendsOf(config_.machine_index);
  if (directives.empty()) return;
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    Rel rel = static_cast<Rel>(rel_i);
    uint32_t parts =
        rel == Rel::kR ? to_layout_.mapping().n : to_layout_.mapping().m;
    for (const StoredEntry& entry : entries_[static_cast<size_t>(rel_i)]) {
      if (entry.origin != kOriginData) continue;  // early µ is not our state
      uint32_t part = PartitionOf(entry.tag, parts);
      for (const SendDirective& d : directives) {
        if (d.rel != rel || d.part != part) continue;
        Envelope mig;
        mig.type = MsgType::kMigrate;
        mig.rel = rel;
        mig.key = entry.key;
        mig.tag = entry.tag;
        mig.seq = entry.seq;
        mig.bytes = entry.bytes;
        mig.epoch = epoch();
        mig.group = config_.group;
        if (entry.has_row) {
          mig.has_row = true;
          mig.row = entry.row;
        }
        metrics_.mig_out_tuples++;
        metrics_.mig_out_bytes += entry.bytes;
        ctx.Send(config_.joiner_task_base + static_cast<int>(d.target),
                 std::move(mig));
      }
    }
  }
}

void JoinerCore::ForwardPerDirectives(const Envelope& msg, Context& ctx) {
  // Δ tuple: forward to migration targets whose partition filter matches
  // (Alg. 3 lines 19-20).
  const auto& directives = plan_->SendsOf(config_.machine_index);
  if (directives.empty()) return;
  uint32_t parts =
      msg.rel == Rel::kR ? to_layout_.mapping().n : to_layout_.mapping().m;
  uint32_t part = PartitionOf(msg.tag, parts);
  for (const SendDirective& d : directives) {
    if (d.rel != msg.rel || d.part != part) continue;
    SendMigrateTuple(msg, d.target, ctx);
  }
}

void JoinerCore::SendMigrateTuple(const Envelope& src, uint32_t target_machine,
                                  Context& ctx) {
  Envelope mig = src;
  mig.type = MsgType::kMigrate;
  mig.epoch = epoch();
  metrics_.mig_out_tuples++;
  metrics_.mig_out_bytes += src.bytes;
  ctx.Send(config_.joiner_task_base + static_cast<int>(target_machine),
           std::move(mig));
}

void JoinerCore::FinalizeMigration(Context& ctx) {
  // tau <- Keep(tau ∪ Δ) ∪ µ ∪ Δ' (Alg. 3 line 29): physically drop Discard
  // entries, reset labels, rebuild indexes.
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    Rel rel = static_cast<Rel>(rel_i);
    auto& entries = entries_[static_cast<size_t>(rel_i)];
    std::vector<StoredEntry> kept;
    kept.reserve(entries.size());
    uint64_t dropped = 0, dropped_bytes = 0;
    for (StoredEntry& entry : entries) {
      if (config_.machine_index < to_layout_.J() &&
          to_layout_.Owns(config_.machine_index, rel, entry.tag)) {
        entry.origin = kOriginData;
        kept.push_back(std::move(entry));
      } else {
        ++dropped;
        dropped_bytes += entry.bytes;
      }
    }
    entries = std::move(kept);
    NoteDropped(&metrics_, dropped, dropped_bytes);
    auto& index = index_[static_cast<size_t>(rel_i)];
    index.Clear();
    // The absorbed partition's size is known here: pre-size the index so
    // the rebuild does not rehash/grow mid-migration.
    index.Reserve(entries.size());
    for (uint64_t id = 0; id < entries.size(); ++id) {
      int64_t index_key =
          (config_.spec.kind == JoinSpec::Kind::kTheta) ? 0 : entries[id].key;
      index.Add(index_key, id);
    }
  }
  const bool was_participating = participating();
  layout_ = to_layout_;
  plan_.reset();
  metrics_.migrations_finalized++;
  // Slot lifecycle events: this joiner joined (expansion child) or left
  // (contraction retiree) the active grid at this epoch boundary. (The
  // protocol then acks from every slot — dormant trackers and retirees
  // included — see ControllerCore::DecideGroup.)
  if (config_.trace != nullptr && participating() != was_participating) {
    config_.trace->Record(participating() ? TraceEventKind::kScaleGrow
                                          : TraceEventKind::kScaleShrink,
                          ctx.self(), ctx.NowMicros(), epoch() + 1,
                          config_.machine_index);
  }
}

void JoinerCore::MaybeForwardEos(Context& ctx) {
  // Forward one kEos downstream when this slot is finished (every
  // reshuffler drained, no migration in flight), so a cascade tail — a
  // downstream stage's expected-EOS gate — can detect drainage. Safe even
  // though a migration might still be *decided* after our last EOS: such a
  // migration has an empty Δ' everywhere (a reshuffler that switched before
  // its EOS would have delivered its signal first on the same FIFO edge),
  // so it can emit no results. A migration in flight right now defers the
  // forward to the signal or marker that finalizes it.
  if (eos_forwarded_ || config_.result_sink < 0 || !finished()) return;
  eos_forwarded_ = true;
  if (!egress_.empty()) FlushEgress(ctx);
  Envelope eos;
  eos.type = MsgType::kEos;
  ctx.Send(config_.result_sink, std::move(eos));
}

// ---------------------------------------------------------------------------
// Load shedding (overload survival)
// ---------------------------------------------------------------------------

bool JoinerCore::AdmitProbe() {
  if (shed_rate_ppm_ >= kShedExactPpm) return true;
  // Integer-exact Bernoulli(rate/1e6) draw from the per-slot deterministic
  // stream; a skipped probe is counted but its tuple is stored normally.
  if (shed_rng_.Uniform(static_cast<uint64_t>(kShedExactPpm)) <
      shed_rate_ppm_) {
    return true;
  }
  metrics_.shed_probes_skipped++;
  return false;
}

void JoinerCore::HandleShed(const Envelope& msg, Context& ctx) {
  // Admission-rate change. Every reshuffler forwards the controller's kShed
  // to every allocated joiner so the new rate serializes behind each data
  // edge, which means each rate arrives num_reshufflers times, in no fixed
  // order across edges. The operator's version stamp (seq) orders them:
  // apply only a version newer than the last applied, so a late copy of an
  // older rate can never switch the joiner back. Act (and trace) only on an
  // actual change. Clamped to [1, kShedExactPpm]: probability zero would
  // make the Horvitz-Thompson weight infinite.
  if (msg.seq <= shed_version_) return;
  shed_version_ = msg.seq;
  const uint32_t rate = static_cast<uint32_t>(
      std::min<int64_t>(std::max<int64_t>(msg.key, 1), kShedExactPpm));
  if (rate == shed_rate_ppm_) return;
  const uint32_t prev = shed_rate_ppm_;
  shed_rate_ppm_ = rate;
  shed_weight_ = static_cast<double>(kShedExactPpm) / rate;
  if (config_.trace != nullptr) {
    const TraceEventKind kind =
        prev >= kShedExactPpm    ? TraceEventKind::kShedEnter
        : rate >= kShedExactPpm  ? TraceEventKind::kShedExit
                                 : TraceEventKind::kShedRateChange;
    config_.trace->Record(kind, ctx.self(), ctx.NowMicros(), rate, prev);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / restore (fault-tolerance hooks, paper section 4.3.3)
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kSnapshotMagic = 0x414a534eu;  // "AJSN"
constexpr uint16_t kSnapshotVersion = 1;
// Smallest serialized entry: key, tag, seq, bytes, epoch, has_row flag.
constexpr size_t kMinEntryBytes = 8 + 8 + 8 + 4 + 4 + 1;

}  // namespace

Status JoinerCore::SnapshotState(std::vector<uint8_t>* out) const {
  if (migrating()) {
    return Status::FailedPrecondition("cannot snapshot during a migration");
  }
  PutRaw(kSnapshotMagic, out);
  PutRaw(kSnapshotVersion, out);
  PutRaw(epoch(), out);
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    const auto& entries = entries_[static_cast<size_t>(rel_i)];
    PutRaw<uint64_t>(entries.size(), out);
    for (const StoredEntry& entry : entries) {
      PutRaw(entry.key, out);
      PutRaw(entry.tag, out);
      PutRaw(entry.seq, out);
      PutRaw(entry.bytes, out);
      PutRaw(entry.epoch, out);
      PutRaw<uint8_t>(entry.has_row ? 1 : 0, out);
      if (entry.has_row) SerializeRow(entry.row, out);
    }
  }
  return Status::OK();
}

Status JoinerCore::RestoreState(const std::vector<uint8_t>& buf) {
  if (migrating()) {
    return Status::FailedPrecondition("cannot restore during a migration");
  }
  size_t offset = 0;
  uint32_t magic;
  uint16_t version;
  uint32_t epoch;
  if (!GetRaw(buf, &offset, &magic) || magic != kSnapshotMagic) {
    return Status::InvalidArgument("bad snapshot magic");
  }
  if (!GetRaw(buf, &offset, &version) || version != kSnapshotVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  if (!GetRaw(buf, &offset, &epoch)) {
    return Status::InvalidArgument("truncated snapshot header");
  }
  std::vector<StoredEntry> restored[2];
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    uint64_t count;
    if (!GetRaw(buf, &offset, &count)) {
      return Status::InvalidArgument("truncated entry count");
    }
    // Bound the count by the bytes left before reserving, so a hostile
    // count fails here instead of throwing out of the allocator.
    if (count > (buf.size() - offset) / kMinEntryBytes) {
      return Status::InvalidArgument("entry count exceeds snapshot size");
    }
    restored[rel_i].reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      StoredEntry entry;
      uint8_t has_row;
      if (!GetRaw(buf, &offset, &entry.key) ||
          !GetRaw(buf, &offset, &entry.tag) ||
          !GetRaw(buf, &offset, &entry.seq) ||
          !GetRaw(buf, &offset, &entry.bytes) ||
          !GetRaw(buf, &offset, &entry.epoch) ||
          !GetRaw(buf, &offset, &has_row)) {
        return Status::InvalidArgument("truncated snapshot entry");
      }
      if (has_row != 0) {
        auto row = DeserializeRow(buf, &offset);
        if (!row.ok()) return row.status();
        entry.has_row = true;
        entry.row = row.take();
      }
      restored[rel_i].push_back(std::move(entry));
    }
  }
  // Commit: replace state, rebuild indexes, reset storage accounting. The
  // recovered operator restarts its epoch numbering at 0 (reshufflers and
  // controller are fresh), so entry epochs are normalized.
  (void)epoch;
  metrics_.stored_tuples = 0;
  metrics_.stored_bytes = 0;
  for (int rel_i = 0; rel_i < 2; ++rel_i) {
    auto& entries = entries_[static_cast<size_t>(rel_i)];
    entries = std::move(restored[rel_i]);
    auto& index = index_[static_cast<size_t>(rel_i)];
    index.Clear();
    index.Reserve(entries.size());
    for (uint64_t id = 0; id < entries.size(); ++id) {
      entries[id].epoch = 0;
      entries[id].origin = kOriginData;
      int64_t key =
          (config_.spec.kind == JoinSpec::Kind::kTheta) ? 0 : entries[id].key;
      index.Add(key, id);
      NoteStored(&metrics_, entries[id].bytes);
    }
  }
  protocol_.Restart();
  return Status::OK();
}

}  // namespace ajoin
