// Dataflow: composable multi-stage streaming topologies over the adaptive
// join operator — the egress-side counterpart of the ingress-port redesign.
// Where src/query/pipeline.h materializes every intermediate before the
// distributed stage (the Squall pattern the paper evaluates), a Dataflow
// wires stage A's joiner egress directly into stage B's reshufflers as
// internal engine edges: a two-join cascade runs fully online, with live
// migrations active in every stage and no intermediate relation ever
// materialized.
//
// Wiring model: stages are created in topological order (AddJoin / AddSink
// allocate strictly increasing task-id blocks on the engine), and
// Connect(a, b) points a's joiners at b — round-robin over b's reshufflers
// for a join stage, or at the sink task itself. Result edges therefore
// always point at higher task ids, so the exchange plane's id-ordered
// credit blocking (deadlock freedom) applies to cascades unchanged.
// Egress rides MsgType::kResult batches (epoch-agnostic; see
// src/net/message.h for the field contract); a receiving reshuffler
// restamps each result as fresh input in a private sequence band
// (ReshufflerCore::AcceptResults), so tags stay uniform and adaptivity runs
// on the cascaded stream too.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/agg.h"
#include "src/core/autoscale.h"
#include "src/core/operator.h"
#include "src/core/shed.h"
#include "src/core/weighted.h"
#include "src/runtime/task.h"

namespace ajoin {

/// Terminal consumer of a streaming egress edge: an engine task that
/// records every kResult envelope it receives. Results arrive while the
/// stream is still running (no quiescent polling); read the accessors only
/// when the engine is quiescent.
class ResultSink : public Task {
 public:
  struct Options {
    /// Record (r_seq, s_seq) result identities (SortedPairs).
    bool collect_pairs = true;
    /// Record result rows (rows) — requires upstream joiners to keep rows.
    bool collect_rows = false;
    /// Record per-result (join key, Horvitz-Thompson weight) samples so
    /// weighted per-key frequency estimates can be checked against the
    /// exact join (shed-mode statistical tests).
    bool collect_keyed_weights = false;
  };

  /// Constructs a sink recording pair identities only.
  ResultSink() : ResultSink(Options()) {}
  /// Constructs a sink; `options` picks what is recorded per result.
  explicit ResultSink(Options options) : options_(options) {}

  /// Counts the result and records pair/row per the options. Accepts only
  /// kResult (and ignores kEos, so a sink can sit on any egress edge).
  void OnMessage(Envelope msg, Context& ctx) override;

  /// Results received so far (quiescent engine).
  uint64_t count() const { return weighted_.tuples; }
  /// Sum of received Horvitz-Thompson weights: an unbiased estimator of the
  /// exact output cardinality whether or not upstream joiners were shedding
  /// (every exact result contributes 1.0).
  double weighted_count() const { return weighted_.count; }
  /// The full weighted accumulator over received results (the same
  /// WeightedAccum the aggregation operator folds per group, here merged
  /// over everything with the result byte size as the value).
  const WeightedAccum& weighted() const { return weighted_; }
  /// Sum of received result byte sizes (r bytes + s bytes per result).
  uint64_t total_bytes() const { return total_bytes_; }
  /// All received (r_seq, s_seq) identities, sorted — directly comparable
  /// to Operator::CollectPairs().
  std::vector<std::pair<uint64_t, uint64_t>> SortedPairs() const;
  /// Received result rows (collect_rows mode), in arrival order.
  const std::vector<Row>& rows() const { return rows_; }
  /// Received (join key, weight) samples (collect_keyed_weights mode), in
  /// arrival order.
  const std::vector<std::pair<int64_t, double>>& keyed_weights() const {
    return keyed_weights_;
  }

 private:
  Options options_;
  WeightedAccum weighted_;  // count/weights over every received result
  uint64_t total_bytes_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> pairs_;
  std::vector<Row> rows_;
  std::vector<std::pair<int64_t, double>> keyed_weights_;
};

/// Builder/owner of a multi-stage streaming topology on one engine.
/// Create stages in topological order, Connect them, Start() the engine,
/// then push inputs through the stage facades (`join(stage).Push(...)`).
class Dataflow {
 public:
  /// How a join-to-join connection re-interprets upstream results as
  /// downstream input.
  struct ConnectOptions {
    /// Relation the upstream results enter the downstream stage as.
    Rel rel = Rel::kR;
    /// Result-row column holding the downstream join key; -1 keeps the
    /// upstream join key (no row required).
    int key_col = -1;
  };

  /// Builds an empty dataflow on `engine` (which must not have started).
  explicit Dataflow(Engine& engine) : engine_(engine) {}

  /// Telemetry for the whole dataflow: every join stage added *after* this
  /// call registers its tasks with `registry` and traces protocol events
  /// into `trace` (either may be null; a config that already carries its
  /// own pointers wins). Call before AddJoin; both must outlive the
  /// engine's run.
  void SetTelemetry(MetricsRegistry* registry, TraceRing* trace) {
    registry_ = registry;
    trace_ = trace;
  }

  /// Adds an adaptive join stage (a full JoinOperator assembly on the
  /// engine); returns its stage handle.
  int AddJoin(const OperatorConfig& config);

  /// Adds an adaptive streaming group-by/aggregate stage (a full
  /// AggOperator assembly: routers + partitioned accumulator workers on the
  /// same migration substrate); returns its stage handle. Feed it either
  /// directly (`groupby(h).Push(...)`) or by Connect-ing an upstream join's
  /// egress into it; its own egress Connects to a sink.
  int AddGroupBy(const AggConfig& config);

  /// Adds a terminal ResultSink stage (pairs only); returns its handle.
  int AddSink() { return AddSink(ResultSink::Options()); }
  /// Adds a terminal ResultSink stage; returns its stage handle.
  int AddSink(ResultSink::Options options);

  /// Wires stage `from`'s egress into stage `to` with default options
  /// (results enter as relation R, keyed by the upstream join key).
  /// Note the fan-in shape: each upstream joiner feeds one fixed
  /// downstream reshuffler (round-robin by slot), so a small stage feeding
  /// a large one drives at most num-upstream-joiner reshufflers; per-result
  /// spraying is future headroom (see ROADMAP).
  void Connect(int from, int to) { Connect(from, to, ConnectOptions()); }
  /// Wires stage `from`'s egress into stage `to`: round-robin over `to`'s
  /// entry tasks when `to` is an operator stage (a join treats each result
  /// as a fresh `options.rel` input keyed by `options.key_col`; a group-by
  /// keys it by its AggSpec), or directly at the sink task. `from` must be
  /// an operator stage created before `to` (task-id order — the
  /// deadlock-freedom contract), and a group-by's egress must end at a
  /// sink. An egress can be connected once per upstream stage, and an
  /// operator stage accepts at most one inbound result edge (result
  /// envelopes carry no source-stage id, so per-edge restamp options
  /// cannot coexist); sinks accept any number.
  void Connect(int from, int to, ConnectOptions options);

  /// The join facade of stage `handle` (must be an AddJoin stage).
  JoinOperator& join(int handle);
  /// The group-by facade of stage `handle` (must be an AddGroupBy stage).
  AggOperator& groupby(int handle);
  /// The sink of stage `handle` (must be an AddSink stage; engine must be
  /// quiescent).
  const ResultSink& sink(int handle) const;

  /// Attaches an elastic-scaling controller to join stage `handle` (see
  /// src/core/autoscale.h): it watches the stage's joiners through the
  /// telemetry registry (SetTelemetry first, or a config-supplied registry)
  /// and grows/shrinks the live grid at runtime. Call after AddJoin and
  /// before StartAutoscale; returns the controller so callers can bind an
  /// exchange-stats source for the stall trigger.
  AutoscaleController& SetAutoscale(
      int handle, AutoscaleConfig config,
      AutoscaleController::Options options = {});

  /// Starts every attached autoscale controller's policy thread. Call after
  /// Engine::Start().
  void StartAutoscale();

  /// Stops every attached autoscale controller. Call before tearing down
  /// the engine; idempotent.
  void StopAutoscale();

  /// The controller attached to stage `handle` (must exist).
  AutoscaleController& autoscale(int handle);

  /// Attaches an overload-shedding controller to join stage `handle` (see
  /// src/core/shed.h): it watches the stage's joiners through the telemetry
  /// registry and adapts the probe-admission rate at runtime. Call after
  /// AddJoin and before StartShedding; returns the controller so callers
  /// can bind exchange-stats / ingress-backlog sources for the triggers.
  ShedController& SetShedding(int handle, ShedConfig config,
                              ShedController::Options options = {});

  /// Starts every attached shed controller's policy thread. Call after
  /// Engine::Start().
  void StartShedding();

  /// Stops every attached shed controller. Call before tearing down the
  /// engine; idempotent. The last posted rate stays in effect.
  void StopShedding();

  /// The shed controller attached to stage `handle` (must exist).
  ShedController& shedding(int handle);

  /// Flushes staged input on every operator stage (call before
  /// WaitQuiescent).
  void FlushInput();

  /// Signals end-of-stream to every operator stage, in topological
  /// (creation) order.
  void SendEos();

  /// Number of stages created so far.
  size_t num_stages() const { return stages_.size(); }

 private:
  struct Stage {
    std::unique_ptr<OperatorShell> op;  // join or group-by; null for sinks
    JoinOperator* join = nullptr;       // typed view of op (join stages)
    AggOperator* agg = nullptr;         // typed view of op (group-by stages)
    ResultSink* sink = nullptr;         // owned by the engine
    int sink_task = -1;
    MetricsRegistry* registry = nullptr;  // effective registry for the stage
    std::unique_ptr<AutoscaleController> autoscale;
    std::unique_ptr<ShedController> shed;
    bool connected_out = false;
    bool connected_in = false;  // operator stages: at most one result edge
  };

  /// The stage behind `handle`; dies with "<what>: unknown stage" if out of
  /// range.
  const Stage& StageAt(int handle, const char* what) const;
  /// StageAt, further requiring a join stage with a telemetry registry (the
  /// preconditions of SetAutoscale / SetShedding).
  Stage& ControllableJoin(int handle, const char* what);

  Engine& engine_;
  MetricsRegistry* registry_ = nullptr;  // stamped into AddJoin configs
  TraceRing* trace_ = nullptr;
  std::vector<Stage> stages_;
};

}  // namespace ajoin
