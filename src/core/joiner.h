// JoinerCore: the joiner task, implementing the paper's Algorithm 3
// (Joiner-Epoch Algorithm) — non-blocking, eventually consistent state
// migration with correct and complete output.
//
// Tuple sets are realized as entry metadata rather than separate containers:
// every stored entry carries (tag, epoch, origin); probe scopes during a
// migration from epoch E to E+1 become metadata filters (DESIGN.md section 5):
//   tau ∪ Δ           = { origin == DATA, epoch <= E }
//   Keep(tau∪Δ) ∪ µ ∪ Δ' = { entry's partition under the target mapping
//                            matches this machine's new coordinates }
//   Δ'                = { epoch == E+1 }
// FinalizeMigration physically drops Discard entries, rebuilds indexes, and
// resets origins, collapsing everything back to a single tau.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/epoch_protocol.h"
#include "src/core/migration.h"
#include "src/core/partition.h"
#include "src/localjoin/join_index.h"
#include "src/localjoin/predicate.h"
#include "src/net/message.h"
#include "src/runtime/metrics.h"
#include "src/runtime/task.h"

namespace ajoin {

class TaskTelemetry;  // src/runtime/metrics_registry.h
class TraceRing;      // src/common/trace_ring.h

struct JoinerConfig {
  JoinSpec spec;
  uint32_t group = 0;
  uint32_t machine_index = 0;     // index within the group's machine block
  GridLayout initial_layout;
  uint32_t num_reshufflers = 1;
  int controller_task = -1;       // task id for MigAck
  int joiner_task_base = 0;       // engine task id of the group's machine 0
  bool collect_pairs = false;     // record (r_seq, s_seq) result ids
  bool keep_rows = true;          // store row payloads when provided
  uint64_t latency_every = 0;     // record latency for every k-th output (0=off)
  /// Streaming egress: engine task id that receives this joiner's results
  /// as kResult batches (a ResultSink or a downstream stage's reshuffler).
  /// -1 (default) keeps results local (polling via collect_pairs /
  /// output_count only). Result edges must point at a *higher* task id so
  /// the exchange plane's credit-blocking order stays acyclic.
  int result_sink = -1;
  /// Live telemetry cell (src/runtime/metrics_registry.h): when set, the
  /// joiner publishes its metrics + epoch/migration state after every
  /// dispatch. Not owned; must outlive the task.
  TaskTelemetry* telemetry = nullptr;
  /// Event trace: when set, migration begin/finalize are recorded. Not
  /// owned; must outlive the task.
  TraceRing* trace = nullptr;
};

/// The joiner slot: the Alg. 3 state movement (Δ/Δ'/µ scoping, the
/// MigrationPlan, the state rebuild) plugged into the shared EpochProtocol.
class JoinerCore : public Task, private EpochProtocol::StateMover {
 public:
  explicit JoinerCore(JoinerConfig config);

  /// The joiner's one dispatch (task.h invariants): a control singleton
  /// goes to the control switch; a data batch goes to the data path, which
  /// splits it into maximal runs of one type and relation. A steady-state
  /// kData run is probed first, tuple by tuple through Probe, and then
  /// stored as a group (tuples of one relation never match each other, so
  /// deferring a run's stores behind its probes is output-equivalent to
  /// per-tuple probe-then-store and keeps each index's insert path hot).
  /// While a migration is active, and for µ (kMigrate) tuples, the run is
  /// handled per envelope with Alg. 3's Δ/Δ'/µ scoping. The epilogue ships
  /// the staged results and publishes telemetry once per dispatch.
  void OnBatch(TupleBatch batch, Context& ctx) override;

  /// Re-points streaming egress at engine task `sink` (see
  /// JoinerConfig::result_sink). Wiring-time only: call before the engine
  /// starts dispatching (Dataflow::Connect uses it to wire stages built
  /// after this joiner).
  void set_result_sink(int sink) { config_.result_sink = sink; }

  const JoinerMetrics& metrics() const { return metrics_; }
  uint64_t output_count() const { return output_count_; }
  const std::vector<std::pair<uint64_t, uint64_t>>& pairs() const {
    return pairs_;
  }
  uint32_t epoch() const { return protocol_.epoch(); }
  bool migrating() const { return protocol_.migrating(); }
  /// Current probe admission rate in parts-per-million (kShedExactPpm =
  /// exact probing, i.e. shedding off).
  uint32_t shed_rate_ppm() const { return shed_rate_ppm_; }
  /// True while probe-side sampling is active.
  bool shedding() const { return shed_rate_ppm_ < kShedExactPpm; }
  const GridLayout& layout() const { return layout_; }
  uint64_t stored_count(Rel rel) const {
    return entries_[static_cast<size_t>(rel)].size();
  }
  /// True once Eos arrived from every reshuffler and no migration is active.
  bool finished() const {
    return eos_seen_ >= config_.num_reshufflers && !migrating();
  }

  /// Serializes the consolidated join state (both relations + epoch) for
  /// checkpointing (paper section 4.3.3: the consumer side of the FTOpt
  /// protocol fulfills its responsibility by checkpointing to stable
  /// storage). Only valid between migrations.
  Status SnapshotState(std::vector<uint8_t>* out) const;

  /// Replaces local state with a snapshot; rebuilds indexes. Only valid on
  /// an idle joiner (recovery happens before replay resumes).
  Status RestoreState(const std::vector<uint8_t>& buf);

 private:
  static constexpr uint8_t kOriginData = 0;
  static constexpr uint8_t kOriginMig = 1;

  struct StoredEntry {
    int64_t key = 0;
    uint64_t tag = 0;
    uint64_t seq = 0;
    uint32_t bytes = 0;
    uint32_t epoch = 0;
    uint8_t origin = kOriginData;
    bool has_row = false;
    Row row;
  };
  static_assert(sizeof(StoredEntry) <= 48,
                "stored entries are the joiner's state; keep Row one pointer");

  // Probe scopes (see header comment).
  enum class Scope {
    kAll,        // steady state: every DATA entry
    kOldData,    // tau ∪ Δ: origin DATA, epoch <= old epoch
    kNewOwned,   // Keep(tau∪Δ) ∪ µ ∪ Δ': partition matches new coords
    kDeltaPrime, // Δ': epoch == new epoch
  };

  // Stamps the protocol state and latency totals into metrics_ and
  // publishes it to the telemetry cell, if one is wired.
  void PublishMetrics();
  void HandleControl(const Envelope& msg, Context& ctx);
  void HandleData(const TupleBatch& batch, Context& ctx);
  // Steady-state probe-then-store of one same-relation kData run.
  void ProbeThenStore(const TupleBatch& batch, size_t begin, size_t end,
                      Context& ctx);
  // A Δ or Δ' tuple while a migration is active (Alg. 3 HandleTuple).
  void HandleMigratingData(const Envelope& msg, Context& ctx);
  void HandleMigrate(const Envelope& msg, Context& ctx);
  /// Forwards one kEos to the result sink once this slot is finished, so a
  /// downstream stage's expected-EOS gate can detect upstream drainage.
  void MaybeForwardEos(Context& ctx);
  void HandleShed(const Envelope& msg, Context& ctx);
  // Bernoulli probe admission under shedding (always true when exact);
  // a skipped probe bumps metrics_.shed_probes_skipped.
  bool AdmitProbe();

  // EpochProtocol::StateMover hooks.
  uint32_t BeginMigration(const EpochSpec& spec, Context& ctx) override;
  void OnLastSignal(Context& ctx) override;
  void FinalizeMigration(Context& ctx) override;
  void SendOldStateForMigration(Context& ctx);
  void ForwardPerDirectives(const Envelope& msg, Context& ctx);

  bool EntryInScope(const StoredEntry& entry, Rel entry_rel, Scope scope) const;
  // Probes the opposite relation's index with `msg` and emits every
  // in-scope candidate that satisfies the predicate.
  void Probe(const Envelope& msg, Scope scope, Context& ctx);
  void Emit(const Envelope& msg, const StoredEntry& matched, Rel msg_rel,
            Context& ctx);
  // Egress plane: stages one kResult envelope (result_sink >= 0), and ships
  // the staged run as one Context::SendBatch when it fills or the current
  // dispatch ends (OnBatch epilogue) — results never outlive the Context
  // that produced them.
  void StageResult(const Envelope& msg, const StoredEntry& matched,
                   Rel msg_rel, Context& ctx);
  void FlushEgress(Context& ctx);
  void Store(const Envelope& msg, uint8_t origin, uint32_t epoch);
  void SendMigrateTuple(const Envelope& src, uint32_t target_machine,
                        Context& ctx);

  bool participating() const {
    return config_.machine_index < layout_.J();
  }

  JoinerConfig config_;
  GridLayout layout_;
  EpochProtocol protocol_;

  // State: entries + index per relation (index ids are entry positions).
  std::vector<StoredEntry> entries_[2];
  JoinIndex index_[2];

  // Migration state (epoch E -> E+1 while protocol_.migrating()).
  std::unique_ptr<MigrationPlan> plan_;
  GridLayout to_layout_;

  // Load shedding (overload survival): only steady-state probes are gated —
  // stores and every migration-scoped probe (Δ/Δ'/µ) stay exact, so Alg. 3
  // state movement is untouched. Emitted results carry Horvitz-Thompson
  // weight 1/p (= shed_weight_) so weighted aggregates stay unbiased.
  uint32_t shed_rate_ppm_ = static_cast<uint32_t>(kShedExactPpm);
  uint64_t shed_version_ = 0; // version (kShed seq) of the last applied rate
  double shed_weight_ = 1.0;  // 1 / admission probability
  double emit_weight_ = 1.0;  // weight StageResult stamps on staged results
  Rng shed_rng_;              // deterministic per-slot admission sampler

  uint32_t eos_seen_ = 0;
  bool eos_forwarded_ = false;  // downstream kEos sent (once per slot)
  uint64_t output_count_ = 0;
  TupleBatch egress_;     // staged kResult run (one dispatch)
  std::vector<std::pair<uint64_t, uint64_t>> pairs_;
  JoinerMetrics metrics_;
  Histogram latency_us_;  // emitted results' latency (micros)
};

}  // namespace ajoin
