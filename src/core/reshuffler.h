// ReshufflerCore: the routing task (paper section 3.2).
//
// Each machine runs one reshuffler. On an input tuple the reshuffler assigns
// a uniform partition tag, picks the storage group (probability proportional
// to group size, section 4.2.2), and replicates the tuple to the m (or n)
// joiners of its row (column) in every group — store-and-join in the storage
// group, probe-only elsewhere. Reshuffler 0 additionally carries the
// controller duty; on an epoch change every reshuffler signals all joiners
// of the group *before* routing any tuple under the new mapping, which is the
// ordering invariant Algorithm 3 relies on.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/controller.h"
#include "src/core/partition.h"
#include "src/core/stats.h"
#include "src/net/message.h"
#include "src/runtime/metrics.h"
#include "src/runtime/task.h"

namespace ajoin {

class TaskTelemetry;  // src/runtime/metrics_registry.h
class TraceRing;      // src/common/trace_ring.h

/// Base of the restamped-result sequence band (see
/// ReshufflerCore::AcceptResults): far above any driver-stamped sequence
/// number, so a stage fed by both an upstream cascade and a direct driver
/// stream never sees colliding seqs (tags, and collect_pairs identities,
/// stay unique).
constexpr uint64_t kResultSeqBase = uint64_t{1} << 62;

struct GroupBlock {
  int joiner_task_base = 0;     // engine task id of the group's machine 0
  uint32_t alloc_machines = 0;  // allocated block size (>= J_g, for expansion)
  GridLayout initial_layout;
  /// Cumulative storage-probability boundary in [0,1]; a tuple with
  /// normalized hash u stores in the first group with u < cum_prob.
  double cum_prob = 1.0;
};

struct ReshufflerConfig {
  uint32_t index = 0;  // 0 = controller
  uint32_t num_reshufflers = 1;
  std::vector<GroupBlock> groups;
  int controller_task = 0;  // task id of reshuffler 0
  /// Engine task id of the operator's reshuffler 0. Reshuffler r lives at
  /// reshuffler_task_base + r; non-zero when the operator is not the first
  /// on its engine (Dataflow stages).
  int reshuffler_task_base = 0;
  /// Set on reshuffler 0 only.
  bool is_controller = false;
  ControllerConfig controller;
  std::vector<ControllerCore::GroupInfo> controller_groups;
  /// Optional extended statistics (section 4.1: heavy-hitter sketches and
  /// key histograms on the reshuffler's 1/J sample, scaled to global
  /// estimates).
  bool collect_stats = false;
  StreamStats::Options stats_options;
  /// Live telemetry cell (src/runtime/metrics_registry.h): when set, the
  /// reshuffler publishes its metrics after every dispatch. Not owned; must
  /// outlive the task.
  TaskTelemetry* telemetry = nullptr;
  /// Event trace: when set, epoch changes are recorded. Not owned; must
  /// outlive the task.
  TraceRing* trace = nullptr;
};

class ReshufflerCore : public Task {
 public:
  explicit ReshufflerCore(ReshufflerConfig config);

  /// Accepts kResult envelopes from an upstream stage's joiner egress as
  /// stage input: each result is restamped as relation `rel` with a fresh
  /// sequence number from this reshuffler's private band (so tags stay
  /// uniform and restamped seqs never collide across reshufflers or with
  /// driver-stamped input), keyed by result-row column `key_col` (-1 keeps
  /// the upstream join key), then routed exactly like kInput. Wiring-time
  /// only: call before the engine starts dispatching.
  void AcceptResults(Rel rel, int key_col);

  /// Wiring-time (Dataflow::Connect): this reshuffler will receive `n` more
  /// kEos markers beyond the driver's before its share of the stage input
  /// is drained — one per upstream joiner slot whose egress is wired here.
  /// The reshuffler collects kEos until every expected marker has arrived
  /// and only then forwards one kEos to each allocated joiner, so a cascade
  /// stage cannot see end-of-stream while upstream results are still being
  /// produced.
  void AddEosFeeders(uint32_t n) { eos_expected_ += n; }

  /// The reshuffler's one dispatch (task.h invariants): a control
  /// singleton goes to the control switch; a data batch — kInput, or
  /// upstream kResult restamped in place — is routed in one pass: hash
  /// every key, group the resulting data envelopes by destination joiner
  /// into per-destination runs (using the per-partition target table
  /// cached per epoch instead of a per-tuple layout lookup), and emit each
  /// run via Context::SendBatch as a pre-formed batch. Routing never
  /// changes mid-batch: epoch changes loop back through this reshuffler's
  /// own inbox. Telemetry is published once per dispatch.
  void OnBatch(TupleBatch batch, Context& ctx) override;

  const ReshufflerMetrics& metrics() const { return metrics_; }
  /// Controller introspection (reshuffler 0 only).
  const ControllerCore* controller() const { return controller_.get(); }
  /// Extended statistics (null unless collect_stats).
  const StreamStats* stats() const { return stats_.get(); }
  const GridLayout& layout(uint32_t group) const {
    return groups_[group].layout;
  }
  uint32_t epoch(uint32_t group) const { return groups_[group].epoch; }

 private:
  struct GroupRoute {
    GroupBlock block;
    GridLayout layout;
    uint32_t epoch = 0;
    /// Replication targets per partition under the current layout: row
    /// machines for each R partition, column machines for each S partition.
    /// Rebuilt on epoch change; lets batch routing amortize the routing
    /// table to one lookup per (rel, partition) instead of one
    /// vector-allocating layout query per tuple.
    std::vector<std::vector<uint32_t>> r_targets;  // mapping().n entries
    std::vector<std::vector<uint32_t>> s_targets;  // mapping().m entries
    /// First index of this group's machines in the flattened runs_ scratch.
    size_t run_base = 0;
  };

  void HandleControl(const Envelope& msg, Context& ctx);
  /// Routes a data batch: kInput, or upstream kResult restamped in place.
  void RouteBatch(TupleBatch& batch, Context& ctx);
  void RestampResult(Envelope& msg);
  void HandleEpochChange(const Envelope& msg, Context& ctx);
  void Broadcast(const std::vector<EpochSpec>& specs, Context& ctx);
  uint32_t StorageGroupOf(uint64_t tag) const;
  static void RebuildRouteCache(GroupRoute& g);

  ReshufflerConfig config_;
  std::vector<GroupRoute> groups_;
  std::unique_ptr<ControllerCore> controller_;
  std::unique_ptr<StreamStats> stats_;
  ReshufflerMetrics metrics_;

  // Result-ingress state (AcceptResults): restamped seqs are
  // kResultSeqBase + index + num_reshufflers * counter — a private band per
  // reshuffler, disjoint from driver-stamped seqs.
  bool accept_results_ = false;
  Rel result_rel_ = Rel::kR;
  int result_key_col_ = -1;

  // EOS gating: forward one kEos per allocated joiner only after every
  // expected marker (driver + wired cascade feeders) has arrived.
  uint32_t eos_expected_ = 1;
  uint32_t eos_seen_ = 0;

  // Batch-routing scratch, reused across batches: one output run per
  // allocated joiner slot (flattened across group blocks) plus the engine
  // task id each slot maps to and the list of slots touched by the current
  // batch.
  std::vector<TupleBatch> runs_;
  std::vector<int> run_dest_task_;
  std::vector<size_t> touched_runs_;
};

}  // namespace ajoin
