// Operator assemblies: the adaptive Dynamic operator (plus its Static
// configurations) and the content-sensitive parallel SHJ baseline, wired
// onto an Engine (simulator or threads). Both implement the abstract
// Operator interface, so drivers (RunWorkload), benches, and Dataflow
// compose against one facade.
//
// Task id layout (relative to the operator's task base — the engine's
// num_tasks() at construction, so several operators stack on one engine):
// reshufflers occupy [base, base + R); each group's joiners occupy a
// contiguous block after that (sized for potential elastic expansion).

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

/// Input-side staging shared by the operator facades: buffers input
/// envelopes per destination task and ships size-targeted
/// IngressPort::PostBatch runs; a target of 1 posts per envelope. The
/// caller owns the port (and flushes staged runs before retargeting or
/// sending control).
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

  /// Stages one kInput envelope for `tuple` (sequence number `seq`, ingest
  /// stamp `ingest_us`) towards destination task `dest`, built in place in
  /// that destination's run, and posts the run through `port` once it
  /// reaches the batch target. A target of 1 posts the envelope alone.
  void StageInput(IngressPort& port, int dest, const StreamTuple& tuple,
                  uint64_t seq, uint64_t ingest_us);

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

/// Abstract facade over a distributed join operator assembled on an Engine.
/// JoinOperator (the paper's adaptive operator) and ShjOperator (the
/// content-sensitive baseline) implement it, so harnesses — RunWorkload,
/// benches, tests, Dataflow — drive either through one type instead of a
/// template per facade. Input flows in through Push (single producer);
/// results leave either by quiescent polling (TotalOutputs / CollectPairs)
/// or, once RouteResultsTo wired a streaming egress, as kResult batches
/// pushed to sink tasks while the stream is still running.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Feeds one input tuple through the operator's ingress port (staged per
  /// the ingress batch target). Single-producer; the caller drives engine
  /// quiescence (see RunWorkload).
  virtual void Push(const StreamTuple& tuple) = 0;

  /// Sets the ingress batch target: input envelopes staged per destination
  /// before they ship as one IngressPort::PostBatch. 1 posts per tuple
  /// (required for deterministic per-tuple runs).
  virtual void SetIngressBatch(uint32_t target) = 0;

  /// Ships every staged input batch (any size) and flushes the port, so a
  /// quiescent engine has seen every pushed tuple.
  virtual void FlushInput() = 0;

  /// Posts a barrier-mode migration checkpoint (no-op on non-adaptive
  /// operators). Flushes staged input first.
  virtual void Checkpoint() = 0;

  /// Signals end-of-stream on every ingress edge (flushes staged input
  /// first, so EOS cannot overtake it).
  virtual void SendEos() = 0;

  /// Streaming egress: routes every joiner's results as kResult batches to
  /// `sinks`, round-robin by joiner slot (one sink streams everything; a
  /// downstream stage passes its reshuffler ids). Every sink id must be
  /// higher than this operator's task ids — the exchange plane's
  /// deadlock-freedom ordering — which Dataflow guarantees by wiring
  /// stages in creation order. Call after construction, before the engine
  /// starts dispatching.
  virtual void RouteResultsTo(const std::vector<int>& sinks) = 0;

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

  /// Joiner introspection (engine must be quiescent): per-slot cores, the
  /// number of allocated slots, and the input-sequence counter.
  virtual const JoinerCore& joiner(size_t i) const = 0;
  /// Allocated joiner slots (includes not-yet-active expansion slots).
  virtual size_t num_joiner_slots() const = 0;
  /// Tuples pushed so far (the next driver-stamped sequence number).
  virtual uint64_t pushed_total() const = 0;
  /// The adaptivity controller, or null for non-adaptive operators.
  virtual const ControllerCore* controller() const = 0;

  /// Sum of joiner output counts. Engine must be quiescent.
  virtual uint64_t TotalOutputs() const = 0;
  /// All collected (r_seq, s_seq) pairs, sorted (collect_pairs mode).
  virtual std::vector<std::pair<uint64_t, uint64_t>> CollectPairs() const = 0;
  /// Max per-joiner received input bytes — the measured ILF.
  virtual uint64_t MaxInBytes() const = 0;
  /// Total bytes currently stored across the cluster.
  virtual uint64_t TotalStoredBytes() const = 0;
};

/// The paper's dataflow theta-join operator (Dynamic / StaticMid /
/// StaticOpt depending on configuration).
class JoinOperator : public Operator {
 public:
  JoinOperator(Engine& engine, OperatorConfig config);

  /// Feeds one input tuple (stamps the global sequence number) through the
  /// operator's ingress port, opened lazily on first use. With an ingress
  /// batch target > 1 the tuple is staged per reshuffler and shipped as a
  /// PostBatch once the target is reached. The caller drives engine
  /// quiescence (see RunWorkload). Single-producer, like the port under it.
  void Push(const StreamTuple& tuple) override;

  /// Sets the ingress batch target: input envelopes staged per reshuffler
  /// before they ship as one PostBatch. 1 (default) posts per tuple —
  /// required for deterministic per-tuple runs; threaded runs use
  /// size-targeted batches (see RunOptions::ingress_batch).
  void SetIngressBatch(uint32_t target) override;

  /// Ships every staged input batch (any size) and flushes the port, so a
  /// quiescent engine has seen every pushed tuple. Checkpoint/SendEos call
  /// it implicitly; drivers call it before WaitQuiescent.
  void FlushInput() override;

  /// Posts a barrier-mode migration checkpoint to the controller (after
  /// flushing staged input, so the checkpoint cannot overtake it).
  void Checkpoint() override;

  /// Signals end-of-stream to all reshufflers (after flushing staged
  /// input, so EOS cannot overtake it on any ingress edge).
  void SendEos() override;

  /// Routes every joiner's results to `sinks`, round-robin by joiner slot
  /// (see Operator::RouteResultsTo for the id-ordering contract). Call
  /// before the engine starts dispatching.
  void RouteResultsTo(const std::vector<int>& sinks) override;

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
  /// (see Operator::SetShedRate). Unlike scaling, shedding needs no slot
  /// headroom or single-group layout, so every JoinOperator supports it.
  bool SetShedRate(uint32_t rate_ppm) override;

  /// Marks this operator as a cascade stage: every reshuffler accepts
  /// kResult envelopes from an upstream stage's egress as relation `rel`
  /// inputs, keyed by result-row column `key_col` (-1 keeps the upstream
  /// join key). Wiring-time only (Dataflow::Connect).
  void AcceptResultsAs(Rel rel, int key_col);

  /// Marks this operator as a cascade stage fed by `upstream_slots` joiner
  /// egresses: distributes the expected kEos markers across this operator's
  /// reshufflers exactly as RouteResultsTo's round-robin distributes the
  /// egress edges (slot i feeds reshuffler i % R), so each reshuffler holds
  /// its downstream EOS fan-out until every wired feeder has drained.
  /// Wiring-time only (Dataflow::Connect).
  void AddResultFeeders(size_t upstream_slots);

  /// The deterministic reshuffler spray Push applies to sequence number
  /// `seq` (paper: incoming tuples are randomly routed to reshufflers).
  /// Public so external multi-port drivers that assign their own sequence
  /// numbers route exactly like a single Push-driven run.
  static int ReshufflerFor(uint64_t seq, uint32_t num_reshufflers);

  /// Number of reshufflers (== machines J).
  uint32_t num_reshufflers() const { return num_reshufflers_; }
  /// Allocated joiner slots (all groups, including expansion headroom).
  size_t num_joiner_slots() const override { return joiner_ids_.size(); }
  /// Tuples pushed so far (the next sequence number Push will stamp).
  uint64_t pushed_total() const override { return seq_; }
  /// Engine task ids of this operator's reshufflers — the ingress targets a
  /// Dataflow upstream stage wires its egress to.
  const std::vector<int>& reshuffler_ids() const { return reshuffler_ids_; }
  /// Engine task ids of every allocated joiner slot (live or dormant) — the
  /// filter an AutoscaleController applies to registry snapshots.
  const std::vector<int>& joiner_task_ids() const { return joiner_ids_; }

  /// Joiner core at slot `i` (engine must be quiescent).
  const JoinerCore& joiner(size_t i) const override;
  /// Mutable access for recovery (RestoreState); engine must be quiescent.
  JoinerCore* mutable_joiner(size_t i);
  /// Reshuffler core at index `i` (engine must be quiescent).
  const ReshufflerCore& reshuffler(size_t i) const;
  /// The controller (hosted on reshuffler 0).
  const ControllerCore* controller() const override;

  /// Sets the next input sequence number (recovery replay watermark).
  void SetNextSeq(uint64_t seq) { seq_ = seq; }

  /// Sum of joiner output counts. Engine must be quiescent.
  uint64_t TotalOutputs() const override;
  /// All collected (r_seq, s_seq) pairs, sorted (collect_pairs mode).
  std::vector<std::pair<uint64_t, uint64_t>> CollectPairs() const override;
  /// Max per-joiner received input bytes — the measured ILF.
  uint64_t MaxInBytes() const override;
  /// Total bytes currently stored across the cluster.
  uint64_t TotalStoredBytes() const override;

  /// The configuration the operator was assembled with.
  const OperatorConfig& config() const { return config_; }
  /// True when J decomposed into several binary groups (section 4.2.2).
  bool multi_group() const { return group_count_ > 1; }

 private:
  /// Lazily opens the ingress port (threaded engines require Start first).
  IngressPort& Port();
  /// Shared body of Grow/ShrinkJoiners: posts one signed kScale request.
  bool PostScale(int64_t steps);

  Engine& engine_;
  OperatorConfig config_;
  int task_base_ = 0;  // engine id of reshuffler 0 (num_tasks() at ctor)
  uint32_t num_reshufflers_ = 0;
  uint32_t group_count_ = 0;
  std::vector<int> reshuffler_ids_;
  std::vector<int> joiner_ids_;  // all groups, block-contiguous
  uint64_t seq_ = 0;
  uint64_t next_reshuffler_ = 0;
  std::unique_ptr<IngressPort> port_;
  IngressStager stager_;
  // Scale requests ride their own single-producer lane: Port() belongs to
  // the Push driver thread, while Grow/ShrinkJoiners may be called from a
  // policy thread. scale_mu_ serializes concurrent scale callers.
  std::mutex scale_mu_;
  std::unique_ptr<IngressPort> scale_port_;  // guarded by scale_mu_
  // Version stamped on each kShed (guarded by scale_mu_): joiners receive
  // one copy per reshuffler in no fixed cross-edge order and apply only a
  // version newer than the last one they applied.
  uint64_t shed_version_ = 0;
};

/// Content-sensitive parallel symmetric hash join (the Shj baseline of
/// section 5): hash-partitions both inputs on the join key — no replication,
/// no adaptivity, equi-joins only, collapses under key skew.
class ShjOperator : public Operator {
 public:
  ShjOperator(Engine& engine, OperatorConfig config);

  /// Feeds one input tuple through the operator's ingress port (staged per
  /// the ingress batch target, like JoinOperator::Push).
  void Push(const StreamTuple& tuple) override;
  /// Input batch target before a PostBatch ships to the router (1 = post
  /// per tuple).
  void SetIngressBatch(uint32_t target) override;
  /// Ships the staged input batch and flushes the port.
  void FlushInput() override;
  /// No adaptivity: checkpoints are a no-op.
  void Checkpoint() override {}
  /// Signals end-of-stream to the router (flushes staged input first).
  void SendEos() override;
  /// Routes every joiner's results to `sinks`, round-robin by joiner slot
  /// (see Operator::RouteResultsTo). Call before the engine starts.
  void RouteResultsTo(const std::vector<int>& sinks) override;

  /// Always false: SHJ's content-sensitive partitioning pins each key to
  /// one machine for the whole run, so stored state cannot be repartitioned
  /// mid-stream — the paper's argument for the (n,m)-mapping operator.
  bool GrowJoiners(uint32_t steps) override {
    (void)steps;
    return false;
  }
  /// Always false (see GrowJoiners).
  bool ShrinkJoiners(uint32_t steps) override {
    (void)steps;
    return false;
  }

  /// Joiner introspection (see Operator); engine must be quiescent.
  const JoinerCore& joiner(size_t i) const override;
  /// Allocated joiner slots.
  size_t num_joiner_slots() const override { return joiner_ids_.size(); }
  /// Tuples pushed so far.
  uint64_t pushed_total() const override { return seq_; }
  /// Always null: the SHJ baseline has no controller.
  const ControllerCore* controller() const override { return nullptr; }

  /// Sum of joiner output counts (quiescent engine).
  uint64_t TotalOutputs() const override;
  /// All collected (r_seq, s_seq) pairs, sorted (collect_pairs mode).
  std::vector<std::pair<uint64_t, uint64_t>> CollectPairs() const override;
  /// Max per-joiner received input bytes.
  uint64_t MaxInBytes() const override;
  /// Total bytes currently stored across the cluster.
  uint64_t TotalStoredBytes() const override;

 private:
  class ShjRouter;

  /// Lazily opens the ingress port (threaded engines require Start first).
  IngressPort& Port();

  Engine& engine_;
  OperatorConfig config_;
  int router_id_ = 0;
  std::vector<int> joiner_ids_;
  uint64_t seq_ = 0;
  std::unique_ptr<IngressPort> port_;
  IngressStager stager_;
};

}  // namespace ajoin
