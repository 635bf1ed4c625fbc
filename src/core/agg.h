// AggOperator: streaming partitioned group-by/aggregate — the second
// operator family on the adaptive substrate. The stage reuses the engine's
// reshuffler plane shape (router tasks spray keyed tuples to worker tasks),
// an open-addressing accumulator table per worker (src/index/agg_table.h),
// the join's per-slot epoch protocol (src/core/epoch_protocol.h) for
// adaptive repartitioning under observed key skew, and the OperatorShell
// ingress/egress verbs (src/core/operator.h).
//
// Where the join operator partitions by a uniform tag over an (n,m) grid,
// a keyed single-stream aggregate is partitioned *content-sensitively*:
// partition = top bits of SplitMix64(group key), and an epoch-versioned
// partition -> worker assignment vector (EpochSpec::agg_assign) maps the
// `partitions` (power-of-two, >> workers) accumulator partitions onto
// workers. The controller duty rides on router 0: it tracks per-partition
// routed load, and when the max worker load exceeds (1 + epsilon) x average
// it greedily reassigns heavy partitions and broadcasts a kEpochChange —
// the same decision shape as the paper's reshuffler controller, adapted to
// assignment vectors.
//
// Migration is radically simpler than the join's Δ/Δ'/µ scoping because
// aggregation is commutative and associative: a worker defers *all* state
// movement to the moment the last of the R kReshufSignal markers arrives
// (per-edge FIFO then guarantees no old-epoch tuple for an outgoing
// partition can still be in flight to it), ships each outgoing partition's
// cells as kMigrate envelopes, marks per-target kMigEnd, and merges
// everything it receives — data, early µ, late µ — unconditionally into its
// table. The shared EpochProtocol's universal kMigAck barrier (every worker
// acks every epoch) keeps the controller's decisions serialized exactly
// like the join controller's.
//
// Stream termination is a controller barrier: each router counts the EOS it
// expects (driver + upstream cascade feeders, see AddResultFeeders), then
// notes drainage to router 0 (kEosNote); when all routers have noted and no
// migration is in flight, router 0 broadcasts kFlush; each router forwards
// it to every worker; a worker that has seen kFlush from all R routers
// emits its final aggregates as kResult batches and sends kEos downstream.
// Per-edge FIFO makes the flush follow every routed tuple and every
// migrated cell (see the ordering argument in ARCHITECTURE.md
// "Aggregation").
//
// Results consume Envelope::weight: COUNT accumulates Σ weight and SUM
// accumulates Σ weight x value, so aggregates over a shedding upstream
// join remain unbiased Horvitz-Thompson estimators (src/core/weighted.h).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/epoch_protocol.h"
#include "src/core/operator.h"
#include "src/core/partition.h"
#include "src/core/weighted.h"
#include "src/datagen/workloads.h"
#include "src/index/agg_table.h"
#include "src/net/message.h"
#include "src/runtime/metrics.h"
#include "src/runtime/task.h"

namespace ajoin {

class MetricsRegistry;  // src/runtime/metrics_registry.h
class TaskTelemetry;    // src/runtime/metrics_registry.h
class TraceRing;        // src/common/trace_ring.h

/// What to aggregate: the group key and the value column.
struct AggSpec {
  /// Row column holding the group key; -1 (default) groups by the envelope
  /// key (the upstream join key on a cascade edge, StreamTuple::key on raw
  /// ingress).
  int key_col = -1;
  /// Row column holding the aggregated value; -1 (default) aggregates the
  /// envelope's accounted `bytes`, so slim (row-less) streams work out of
  /// the box.
  int value_col = -1;
};

struct AggConfig {
  AggSpec spec;
  /// Aggregate workers (each owns a share of the accumulator partitions).
  uint32_t machines = 8;
  /// Router tasks spraying keyed input; 0 (default) allocates one per
  /// worker.
  uint32_t routers = 0;
  /// Accumulator partitions (power of two, should be >> machines so the
  /// controller has reassignment granularity).
  uint32_t partitions = 256;
  /// false freezes the initial round-robin partition assignment.
  bool adaptive = true;
  /// Rebalance when the max worker load exceeds (1 + epsilon) x average.
  double epsilon = 0.25;
  /// Observed tuples before the controller may rebalance.
  uint64_t min_total_before_adapt = 64;
  /// Controller checks balance every this many routed tuples.
  uint64_t check_every = 64;
  /// Emit-and-reset partial aggregates every this many merged tuples per
  /// worker (0 = final-only emission). Partials are additive deltas — the
  /// consumer folds them (FoldAggRows), and totals match final-only runs.
  uint64_t emit_every = 0;
  /// Live telemetry: routers register as "reshuffler" cells, workers as
  /// "agg" cells. Not owned; must outlive the operator's tasks.
  MetricsRegistry* registry = nullptr;
  /// Event trace (epoch changes, migration begin/finalize). Not owned.
  TraceRing* trace = nullptr;
};

/// One final aggregate (facade introspection and reference baseline).
struct AggResult {
  int64_t key = 0;
  WeightedAccum acc;
};

/// Single-threaded reference aggregation: the differential baseline the
/// distributed stage is tested against (and the bench's scaling baseline).
class ReferenceAggregator {
 public:
  /// Folds one (key, weight, value) observation.
  void Add(int64_t key, double weight, int64_t value) {
    groups_[key].Merge(weight, value);
  }

  /// All aggregates, sorted by key.
  std::vector<AggResult> Results() const {
    std::vector<AggResult> out;
    out.reserve(groups_.size());
    for (const auto& kv : groups_) out.push_back({kv.first, kv.second});
    return out;
  }

  /// Distinct group keys folded so far.
  size_t size() const { return groups_.size(); }

 private:
  std::map<int64_t, WeightedAccum> groups_;
};

/// Folds collected agg kResult rows ([key, count, sum, min, max, tuples])
/// into per-key totals, sorted by key. Final-only runs have one row per
/// key; runs with periodic emission have several additive deltas per key.
std::vector<AggResult> FoldAggRows(const std::vector<Row>& rows);

/// Router task of the aggregation stage: extracts the group key, routes by
/// the epoch's partition assignment, and (on router 0) runs the controller
/// duty — skew-driven reassignment decisions plus the EOS flush barrier.
class AggRouterCore : public Task {
 public:
  struct Config {
    uint32_t index = 0;          // this router's index in [0, num_routers)
    uint32_t num_routers = 1;
    uint32_t num_workers = 1;
    uint32_t partitions = 1;
    int router_task_base = 0;    // engine id of router 0 (the controller)
    int worker_task_base = 0;    // engine id of worker 0
    int key_col = -1;            // AggSpec::key_col
    bool adaptive = true;        // controller duty enabled (router 0 only)
    double epsilon = 0.25;
    uint64_t min_total_before_adapt = 64;
    uint64_t check_every = 64;
    TaskTelemetry* telemetry = nullptr;
    TraceRing* trace = nullptr;
  };

  explicit AggRouterCore(Config config);

  /// The router's one dispatch (task.h invariants). A control singleton —
  /// epoch change, EOS, EOS note, ack, flush — goes to the control switch,
  /// where router 0 also runs the controller duty's flush barrier. A data
  /// batch restamps each kInput/kResult envelope as kData with the group
  /// key, hash tag, current epoch, and owning partition, then forwards it
  /// to the partition's assigned worker.
  void OnBatch(TupleBatch batch, Context& ctx) override;

  /// Wiring-time (Dataflow::Connect): this router will receive `n` more
  /// kEos markers before its share of the stage input is drained (one per
  /// upstream joiner slot whose egress is wired here, on top of the
  /// driver's). The EOS note to the controller waits for all of them.
  void AddEosFeeders(uint32_t n) { eos_expected_ += n; }

  /// Current assignment epoch.
  uint32_t epoch() const { return epoch_; }
  /// Current partition -> worker assignment.
  const std::vector<uint32_t>& assignment() const { return assign_; }
  /// Routing counters (engine must be quiescent).
  const ReshufflerMetrics& metrics() const { return metrics_; }
  /// Upstream kResult envelopes re-ingested as stage input.
  uint64_t results_restamped() const { return metrics_.results_restamped; }
  /// Controller only: epoch changes decided so far.
  uint64_t rebalances() const { return rebalances_; }

 private:
  void HandleControl(const Envelope& msg, Context& ctx);
  void Route(Envelope& msg, Context& ctx);
  void HandleEpochChange(const Envelope& msg, Context& ctx);
  void HandleEos(Context& ctx);
  // Controller duty (router 0).
  void NoteRouted(uint32_t partition, Context& ctx);
  void MaybeRebalance(Context& ctx);
  void MaybeFlush(Context& ctx);
  void Publish();

  Config config_;
  std::vector<uint32_t> assign_;  // partition -> worker, current epoch
  uint32_t epoch_ = 0;
  uint32_t eos_expected_ = 1;  // driver EOS + wired cascade feeders
  uint32_t eos_seen_ = 0;
  bool note_sent_ = false;
  ReshufflerMetrics metrics_;
  // Controller state (meaningful on router 0 only).
  std::vector<uint64_t> part_loads_;  // routed tuples per partition
  uint64_t total_routed_ = 0;         // since the last reset
  uint64_t since_check_ = 0;
  uint32_t acks_pending_ = 0;         // workers yet to ack the live epoch
  uint32_t notes_seen_ = 0;           // routers that reported drained input
  bool flush_sent_ = false;
  uint64_t rebalances_ = 0;
};

/// Worker task of the aggregation stage: owns the accumulator partitions
/// its epoch's assignment maps here, merges routed tuples and migrated
/// cells (commutatively, so no Δ/Δ' scoping is needed), ships outgoing
/// partitions when the last epoch-change signal arrives (its hooks into the
/// shared EpochProtocol), and emits final aggregates on the flush barrier.
class AggWorkerCore : public Task, private EpochProtocol::StateMover {
 public:
  struct Config {
    uint32_t index = 0;         // this worker's index in [0, num_workers)
    uint32_t num_workers = 1;
    uint32_t num_routers = 1;
    uint32_t partitions = 1;
    int controller_task = 0;    // router 0's engine id (kMigAck target)
    int worker_task_base = 0;   // engine id of worker 0 (kMigrate peers)
    int value_col = -1;         // AggSpec::value_col
    uint64_t emit_every = 0;    // AggConfig::emit_every
    /// Engine task id receiving final (and partial) aggregates as kResult
    /// batches, then kEos; -1 keeps results local (introspection only).
    int result_sink = -1;
    TaskTelemetry* telemetry = nullptr;
    TraceRing* trace = nullptr;
  };

  explicit AggWorkerCore(Config config);

  /// The worker's one dispatch (task.h invariants). A control singleton —
  /// reassignment signal (ship owned cells to the new owner), kMigEnd, the
  /// EOS flush — goes to the control switch. A data batch merges each kData
  /// envelope's (weight, value) into the owned accumulator cell for its
  /// key, creating the cell on first touch, and absorbs each migrated
  /// (kMigrate) cell.
  void OnBatch(TupleBatch batch, Context& ctx) override;

  /// Streaming egress wiring (AggOperator::RouteResultsTo).
  void set_result_sink(int task_id) { config_.result_sink = task_id; }

  /// The accumulator table (engine must be quiescent).
  const AggTable& table() const { return table_; }
  /// Assignment epoch this worker is in.
  uint32_t epoch() const { return protocol_.epoch(); }
  /// Mid-repartition right now?
  bool migrating() const { return protocol_.migrating(); }
  /// Final aggregates emitted (the stage's flush barrier completed)?
  bool flushed() const { return stats_.flushed; }
  /// Repartitions finalized by this worker.
  uint64_t migrations_finalized() const { return stats_.migrations_finalized; }
  /// Accumulator cells shipped to / absorbed from peers.
  uint64_t mig_out_cells() const { return stats_.mig_out_cells; }
  uint64_t mig_in_cells() const { return stats_.mig_in_cells; }
  /// Data tuples merged (excludes migrated cells).
  uint64_t in_tuples() const { return stats_.in_tuples; }
  /// kResult aggregates emitted downstream.
  uint64_t emitted_results() const { return stats_.emitted_results; }

 private:
  void HandleControl(const Envelope& msg, Context& ctx);
  void MergeTuple(const Envelope& msg, Context& ctx);
  void HandleMigrate(const Envelope& msg);
  // EpochProtocol::StateMover hooks: begin records the target assignment
  // and arms the marker count, the last signal ships outgoing partitions
  // and marks each target with kMigEnd, finalize swaps the assignment.
  uint32_t BeginMigration(const EpochSpec& spec, Context& ctx) override;
  void OnLastSignal(Context& ctx) override;
  void FinalizeMigration(Context& ctx) override;
  /// All R kFlush markers arrived: emit final aggregates + kEos downstream.
  void Finish(Context& ctx);
  /// Emit-and-reset the current table as additive kResult deltas.
  void EmitTable(Context& ctx);
  void StageResult(const AggTable::Cell& cell, Context& ctx);
  void FlushEgress(Context& ctx);
  void Publish();

  Config config_;
  EpochProtocol protocol_;
  AggTable table_;
  std::vector<uint32_t> assign_;      // partition -> worker, current epoch
  std::vector<uint32_t> new_assign_;  // target assignment while migrating
  uint32_t flushes_seen_ = 0;
  TupleBatch egress_;
  uint64_t merged_since_emit_ = 0;
  // The worker's telemetry record: counters and the flush flag are kept
  // here; the gauges and protocol state are filled in by Publish().
  AggSnapshot stats_;
};

/// Facade assembling the aggregation stage on an Engine: R router tasks
/// (the shell's entry tasks) followed by W worker tasks (its emitters; ids
/// ascend, so upstream egress and downstream sinks satisfy the exchange
/// plane's id-ordered credit blocking). Drive it like a join operator
/// through the OperatorShell verbs: Push / FlushInput / SendEos, results
/// stream to RouteResultsTo sinks (final aggregates, then kEos) or are
/// collected quiescently via Collect(). Raw input groups by the tuple key
/// unless spec.key_col overrides, and aggregates bytes unless
/// spec.value_col overrides.
class AggOperator : public OperatorShell {
 public:
  AggOperator(Engine& engine, AggConfig config);

  /// Engine task ids of this stage's routers — the ingress targets an
  /// upstream stage wires its egress to.
  const std::vector<int>& router_ids() const { return entry_ids_; }
  /// Engine task ids of this stage's workers.
  const std::vector<int>& worker_ids() const { return emitter_ids_; }
  /// Routers assembled.
  uint32_t num_routers() const {
    return static_cast<uint32_t>(entry_ids_.size());
  }
  /// Workers assembled.
  uint32_t num_workers() const { return config_.machines; }

  /// Worker core `i` (engine must be quiescent).
  const AggWorkerCore& worker(size_t i) const;
  /// Router core `i` (engine must be quiescent).
  const AggRouterCore& router(size_t i) const;

  /// Merged aggregates across all workers, sorted by key (engine must be
  /// quiescent; group keys are uniquely owned, so this is concatenation).
  std::vector<AggResult> Collect() const;
  /// Sum of per-worker finalized repartitions.
  uint64_t TotalMigrations() const;
  /// The stage's current assignment epoch (router 0's).
  uint32_t epoch() const;

  /// The configuration the stage was assembled with.
  const AggConfig& config() const { return config_; }

 private:
  void WireEmitter(size_t slot, int sink) override;
  void WireFeeders(size_t entry, uint32_t n) override;

  AggConfig config_;
};

}  // namespace ajoin
