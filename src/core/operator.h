// Operator assemblies on an Engine (simulator or threads). Every facade —
// the adaptive Dynamic join operator (plus its Static configurations), the
// content-sensitive parallel SHJ baseline, and the group-by AggOperator
// (src/core/agg.h) — is an OperatorShell: entry tasks (reshufflers or
// routers) that take input, emitter tasks (joiners or workers) that produce
// results, and one implementation of the ingress and egress verbs on top.
// The two join facades further share the Operator base, so drivers
// (RunWorkload), benches, and Dataflow compose against one join facade.
//
// Task id layout (relative to the operator's task base — the engine's
// num_tasks() at construction, so several operators stack on one engine):
// entry tasks occupy [base, base + R); the emitters occupy a contiguous
// block after that (for the join, one block per group, sized for potential
// elastic expansion).

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/bitutil.h"
#include "src/core/controller.h"
#include "src/core/joiner.h"
#include "src/core/mapping.h"
#include "src/core/reshuffler.h"
#include "src/datagen/workloads.h"
#include "src/localjoin/predicate.h"
#include "src/runtime/task.h"

namespace ajoin {

class MetricsRegistry;  // src/runtime/metrics_registry.h
class TraceRing;        // src/common/trace_ring.h

struct OperatorConfig {
  JoinSpec spec;
  /// Total machines J. Non-powers-of-two are decomposed into binary groups
  /// (section 4.2.2) and require barrier_migrations + a deterministic engine.
  uint32_t machines = 16;
  /// Initial mapping for a single (power-of-two) group; defaults to the
  /// square StaticMid mapping. Multi-group operators use per-group squares.
  Mapping initial;
  bool use_initial = false;
  /// false = static operator (StaticMid / StaticOpt depending on `initial`).
  bool adaptive = true;
  double epsilon = 1.0;
  uint64_t min_total_before_adapt = 64;
  /// Defer migration decisions to explicit Checkpoint() calls.
  bool barrier_migrations = false;
  /// Elasticity (Theorem 4.3): allocate room for this many 4x expansions.
  uint32_t max_expansions = 0;
  uint64_t max_tuples_per_joiner = 0;
  /// Result collection for correctness tests.
  bool collect_pairs = false;
  bool keep_rows = true;
  uint64_t latency_every = 0;
  /// Extended per-reshuffler statistics (heavy hitters / histograms).
  bool collect_stats = false;
  StreamStats::Options stats_options;
  /// Live telemetry (src/runtime/metrics_registry.h): when set, every
  /// reshuffler and joiner task registers a snapshot cell and publishes its
  /// metrics after each dispatch, observable mid-stream from any thread.
  /// Not owned; must outlive the operator's tasks.
  MetricsRegistry* registry = nullptr;
  /// Event trace for epoch changes and migration begin/finalize (the
  /// exchange plane records credit stalls separately via
  /// ExchangeConfig::trace). Not owned; must outlive the operator's tasks.
  TraceRing* trace = nullptr;
};

/// The OperatorShell's input-side staging: buffers input envelopes per
/// destination task and ships size-targeted IngressPort::PostBatch runs; a
/// target of 1 posts per envelope. The caller owns the port (and flushes
/// staged runs before retargeting or sending control).
class IngressStager {
 public:
  /// Sets the batch target and the destination task-id block
  /// [dest_base, dest_base + num_destinations). Anything staged under the
  /// old target must be flushed first (see FlushStaged).
  void SetTarget(uint32_t target, int dest_base, size_t num_destinations) {
    target_ = target == 0 ? 1 : target;
    dest_base_ = dest_base;
    if (target_ > 1) staged_.resize(num_destinations);
  }

  /// Current batch target (1 = per-envelope posts).
  uint32_t target() const { return target_; }

  /// Stages one kInput envelope for `tuple` (sequence number `seq`)
  /// towards destination task `dest`, built in place in that destination's
  /// run, and posts the run through `port` once it reaches the batch
  /// target. The ingest stamp is read from `engine`'s clock once per run,
  /// when the run opens: it becomes the run's first_buffered_us and the
  /// ingest_us of every tuple staged into it, so a tuple's stamp is never
  /// later than its Push. A target of 1 posts the envelope alone, stamped
  /// with its own clock read.
  void StageInput(IngressPort& port, const Engine& engine, int dest,
                  const StreamTuple& tuple, uint64_t seq);

  /// Ships every staged run (any size) through `port`.
  void FlushStaged(IngressPort& port) {
    for (size_t i = 0; i < staged_.size(); ++i) {
      if (staged_[i].empty()) continue;
      port.PostBatch(dest_base_ + static_cast<int>(i), std::move(staged_[i]));
      staged_[i].Clear();
    }
  }

 private:
  uint32_t target_ = 1;
  int dest_base_ = 0;
  std::vector<TupleBatch> staged_;  // indexed by dest task id - dest_base_
};

/// Runtime control verbs a policy thread issues against a live operator
/// (AutoscaleController, ShedController). The defaults report that the
/// operator cannot act; the adaptive JoinOperator overrides them.
class OperatorControl {
 public:
  virtual ~OperatorControl() = default;

  /// Elastic runtime scaling: requests `steps` 4x expansions of the live
  /// joiner grid, applied by the operator's controller one migration round
  /// at a time with no stream pause (Theorem 4.3's split). Returns false if
  /// this operator cannot scale (no elastic slot headroom, or the algorithm
  /// fundamentally cannot repartition). Thread-safe against the Push
  /// producer; safe to call from a policy thread while the stream runs.
  virtual bool GrowJoiners(uint32_t steps) {
    (void)steps;
    return false;
  }

  /// Elastic runtime scaling: requests `steps` /4 contractions of the live
  /// joiner grid (survivors absorb the retirees' state mid-stream; no
  /// old-state re-probing is needed because every old partition pair was
  /// already co-located). Same contract and default as GrowJoiners.
  virtual bool ShrinkJoiners(uint32_t steps) {
    (void)steps;
    return false;
  }

  /// Overload survival: requests a probe-admission rate change, broadcast to
  /// every allocated joiner as a kShed control message. `rate_ppm` is the
  /// admitted probe fraction in parts-per-million (kShedExactPpm or more
  /// restores exact probing); shed-mode joiners Bernoulli-sample steady-state
  /// probes at that rate and stamp emitted results with Horvitz-Thompson
  /// weight 1/p. Stores and migrations stay exact. Thread-safe against the
  /// Push producer; safe to call from a policy thread while the stream runs.
  /// Returns false when the operator has no shedding path.
  virtual bool SetShedRate(uint32_t rate_ppm) {
    (void)rate_ppm;
    return false;
  }
};

/// The ingress/egress shell every operator facade is built on. A facade
/// assembles its tasks on the engine and records them here: the entry
/// tasks (reshufflers or routers) that input is sprayed over, and the
/// emitter tasks (joiners or workers) whose results leave the operator.
/// The shell owns the ingress port, the IngressStager and the sequence
/// counter, and implements the ingress verbs (Push, SetIngressBatch,
/// FlushInput, SendEos) and the cascade wiring verbs (RouteResultsTo,
/// AddResultFeeders) once for every family. Input flows in through Push
/// (single producer); results leave either by quiescent polling or, once
/// RouteResultsTo wired a streaming egress, as kResult batches pushed to
/// sink tasks while the stream is still running.
class OperatorShell {
 public:
  virtual ~OperatorShell();

  /// Feeds one input tuple: stamps the next sequence number and stages it
  /// towards the entry task ReshufflerFor picks (paper: incoming tuples are
  /// randomly routed to reshufflers), through the ingress port — opened
  /// lazily on first use. With an ingress batch target > 1 the tuple ships
  /// in a PostBatch once its entry task's run reaches the target, and its
  /// ingest stamp is the engine clock read when that run opened (see
  /// IngressStager::StageInput); a target of 1 reads the clock per tuple.
  /// The caller drives engine quiescence (see RunWorkload).
  /// Single-producer, like the port under it.
  void Push(const StreamTuple& tuple);

  /// Sets the ingress batch target: input envelopes staged per entry task
  /// before they ship as one PostBatch. 1 (default) posts per tuple —
  /// required for deterministic per-tuple runs; threaded runs use
  /// size-targeted batches (see RunOptions::ingress_batch). Flushes input
  /// staged under the old target first, so nothing is stranded.
  void SetIngressBatch(uint32_t target);

  /// Ships every staged input batch (any size) and flushes the port, so a
  /// quiescent engine has seen every pushed tuple. SendEos (and the join's
  /// Checkpoint) call it implicitly; drivers call it before WaitQuiescent.
  void FlushInput();

  /// Signals end-of-stream on every entry task's ingress edge (after
  /// flushing staged input, so EOS cannot overtake it). With cascade
  /// feeders wired, the operator drains once the upstream EOS arrive too.
  void SendEos();

  /// Streaming egress: routes every emitter's results as kResult batches
  /// (followed by kEos once it drains) to `sinks`, round-robin by emitter
  /// slot (one sink streams everything; a downstream stage passes its
  /// entry ids). Every sink id must be higher than this operator's task
  /// ids — the exchange plane's deadlock-freedom ordering — which Dataflow
  /// guarantees by wiring stages in creation order. Call after
  /// construction, before the engine starts dispatching.
  void RouteResultsTo(const std::vector<int>& sinks);

  /// Marks this operator as a cascade stage fed by `upstream_slots`
  /// emitters: distributes the expected kEos markers across this
  /// operator's entry tasks exactly as RouteResultsTo's round-robin
  /// distributes the egress edges (slot i feeds entry task i % R), so each
  /// entry task holds its end-of-stream until every wired feeder has
  /// drained. Wiring-time only (Dataflow::Connect).
  void AddResultFeeders(size_t upstream_slots);

  /// Cascade wiring (Dataflow::Connect): upstream kResult envelopes enter
  /// as relation `rel` inputs keyed by result-row column `key_col` (-1
  /// keeps the upstream key). Families that key results by their own spec
  /// (the group-by's AggSpec::key_col) ignore it.
  virtual void AcceptResultsAs(Rel rel, int key_col) {
    (void)rel;
    (void)key_col;
  }

  /// The deterministic entry-task spray Push applies to sequence number
  /// `seq`. Public so external multi-port drivers that assign their own
  /// sequence numbers route exactly like a single Push-driven run.
  static int ReshufflerFor(uint64_t seq, uint32_t num_reshufflers);

  /// Engine task ids of the entry tasks (reshufflers or routers) — the
  /// ingress targets an upstream stage wires its egress to.
  const std::vector<int>& entry_ids() const { return entry_ids_; }
  /// Engine task ids of the emitter tasks (joiners or workers), including
  /// dormant elastic slots.
  const std::vector<int>& emitter_ids() const { return emitter_ids_; }
  /// Tuples pushed so far (the next sequence number Push will stamp).
  uint64_t pushed_total() const { return seq_; }
  /// Sets the next input sequence number (recovery replay watermark).
  void SetNextSeq(uint64_t seq) { seq_ = seq; }

 protected:
  explicit OperatorShell(Engine& engine) : engine_(engine) {}

  /// Points emitter `slot` at engine task `sink` (RouteResultsTo).
  virtual void WireEmitter(size_t slot, int sink) = 0;
  /// Entry task `entry` will receive `n` more upstream kEos markers
  /// (AddResultFeeders). The default rejects: the operator takes no
  /// upstream results.
  virtual void WireFeeders(size_t entry, uint32_t n);

  /// The driver's ingress port, opened lazily (threaded engines require
  /// Start first). Single-producer: the Push driver's thread only.
  IngressPort& Port();

  Engine& engine_;
  std::vector<int> entry_ids_;    // filled by the facade's assembly
  std::vector<int> emitter_ids_;  // filled by the facade's assembly

 private:
  uint64_t seq_ = 0;
  std::unique_ptr<IngressPort> port_;
  IngressStager stager_;
};

/// Common base of the two join facades: JoinOperator (the paper's adaptive
/// operator) and ShjOperator (the content-sensitive baseline), whose
/// emitters are JoinerCore slots. Harnesses — RunWorkload, benches, tests,
/// Dataflow — drive either through this one type.
class Operator : public OperatorShell, public OperatorControl {
 public:
  /// Posts a barrier-mode migration checkpoint (no-op on non-adaptive
  /// operators). Flushes staged input first.
  virtual void Checkpoint() {}

  /// The adaptivity controller, or null for non-adaptive operators.
  virtual const ControllerCore* controller() const { return nullptr; }

  /// Joiner core at slot `i` (engine must be quiescent).
  const JoinerCore& joiner(size_t i) const;
  /// Allocated joiner slots (includes not-yet-active expansion slots).
  size_t num_joiner_slots() const { return emitter_ids_.size(); }
  /// Engine task ids of every allocated joiner slot (live or dormant) — the
  /// filter an AutoscaleController applies to registry snapshots.
  const std::vector<int>& joiner_task_ids() const { return emitter_ids_; }

  /// Sum of joiner output counts. Engine must be quiescent.
  uint64_t TotalOutputs() const;
  /// All collected (r_seq, s_seq) pairs, sorted (collect_pairs mode).
  std::vector<std::pair<uint64_t, uint64_t>> CollectPairs() const;
  /// Max per-joiner received input bytes — the measured ILF.
  uint64_t MaxInBytes() const;
  /// Total bytes currently stored across the cluster.
  uint64_t TotalStoredBytes() const;

  /// The configuration the operator was assembled with.
  const OperatorConfig& config() const { return config_; }

 protected:
  Operator(Engine& engine, OperatorConfig config)
      : OperatorShell(engine), config_(std::move(config)) {}

  /// Builds the JoinerConfig of joiner slot `machine_index` in a group
  /// block starting at engine id `joiner_task_base` (registering its
  /// telemetry cell), with this operator's spec and collection options.
  JoinerConfig MakeJoinerConfig(uint32_t group, uint32_t machine_index,
                                int joiner_task_base) const;

  void WireEmitter(size_t slot, int sink) override;

  OperatorConfig config_;
};

/// The paper's dataflow theta-join operator (Dynamic / StaticMid /
/// StaticOpt depending on configuration).
class JoinOperator : public Operator {
 public:
  JoinOperator(Engine& engine, OperatorConfig config);

  /// Posts a barrier-mode migration checkpoint to the controller (after
  /// flushing staged input, so the checkpoint cannot overtake it).
  void Checkpoint() override;

  /// Queues `steps` 4x grow steps with the controller (kScale request via a
  /// dedicated ingress lane, so it never races the Push producer's port).
  /// Requires a single power-of-two group with max_expansions > 0 slot
  /// headroom; steps beyond the allocated slots are dropped by the
  /// controller. Returns false when the operator cannot scale at all.
  bool GrowJoiners(uint32_t steps) override;

  /// Queues `steps` /4 shrink steps (same path and requirements as
  /// GrowJoiners; the controller refuses to shrink below 4 machines).
  bool ShrinkJoiners(uint32_t steps) override;

  /// Posts a kShed admission-rate change through the dedicated control lane
  /// (see OperatorControl::SetShedRate). Unlike scaling, shedding needs no
  /// slot headroom or single-group layout, so every JoinOperator supports
  /// it.
  bool SetShedRate(uint32_t rate_ppm) override;

  /// Marks this operator as a cascade stage: every reshuffler accepts
  /// kResult envelopes from an upstream stage's egress as relation `rel`
  /// inputs, keyed by result-row column `key_col` (-1 keeps the upstream
  /// join key). Wiring-time only (Dataflow::Connect).
  void AcceptResultsAs(Rel rel, int key_col) override;

  /// Number of reshufflers (== machines J).
  uint32_t num_reshufflers() const {
    return static_cast<uint32_t>(entry_ids_.size());
  }
  /// Engine task ids of this operator's reshufflers — the ingress targets a
  /// Dataflow upstream stage wires its egress to.
  const std::vector<int>& reshuffler_ids() const { return entry_ids_; }

  /// Mutable access for recovery (RestoreState); engine must be quiescent.
  JoinerCore* mutable_joiner(size_t i);
  /// Reshuffler core at index `i` (engine must be quiescent).
  const ReshufflerCore& reshuffler(size_t i) const;
  /// The controller (hosted on reshuffler 0).
  const ControllerCore* controller() const override;

  /// True when J decomposed into several binary groups (section 4.2.2).
  bool multi_group() const { return group_count_ > 1; }

 private:
  void WireFeeders(size_t entry, uint32_t n) override;
  /// Posts one envelope on the control lane (see scale_mu_).
  bool PostControl(Envelope env);
  /// Shared body of Grow/ShrinkJoiners: posts one signed kScale request.
  bool PostScale(int64_t steps);

  uint32_t group_count_ = 0;
  // Scale and shed requests ride their own single-producer lane: the
  // shell's port belongs to the Push driver thread, while
  // Grow/ShrinkJoiners and SetShedRate may be called from a policy thread.
  // scale_mu_ serializes concurrent control callers.
  std::mutex scale_mu_;
  std::unique_ptr<IngressPort> scale_port_;  // guarded by scale_mu_
  // Version stamped on each kShed (guarded by scale_mu_): joiners receive
  // one copy per reshuffler in no fixed cross-edge order and apply only a
  // version newer than the last one they applied.
  uint64_t shed_version_ = 0;
};

/// Content-sensitive parallel symmetric hash join (the Shj baseline of
/// section 5): hash-partitions both inputs on the join key — no replication,
/// no adaptivity, equi-joins only, collapses under key skew. One router
/// task is its single entry task. Its GrowJoiners/ShrinkJoiners keep the
/// "cannot" default: content-sensitive partitioning pins each key to one
/// machine for the whole run, so stored state cannot be repartitioned
/// mid-stream — the paper's argument for the (n,m)-mapping operator.
class ShjOperator : public Operator {
 public:
  ShjOperator(Engine& engine, OperatorConfig config);

 private:
  class ShjRouter;
};

}  // namespace ajoin
