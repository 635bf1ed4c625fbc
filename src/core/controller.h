// ControllerCore: Algorithms 1 and 2 of the paper.
//
// One reshuffler (task 0) carries the controller duty. It maintains global
// cardinality estimates by scaling its local sample counts by the number of
// reshufflers (decentralized statistics, Alg. 1), checks the migration
// thresholds |ΔR| >= ε|R| or |ΔS| >= ε|S| (Alg. 2, Theorem 4.2), picks the
// ILF-minimizing (n,m)-mapping per group — with dummy-tuple padding when the
// cardinality ratio exceeds J (section 4.2.2) — and orchestrates migrations:
// it may start a new migration for a group only after all of that group's
// joiners have acked the previous one.
//
// Cardinalities are tracked in unit tuples (bytes), implementing the
// relative-tuple-size generalization of section 4.2.2.

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/core/mapping.h"
#include "src/localjoin/predicate.h"
#include "src/net/message.h"

namespace ajoin {

struct ControllerConfig {
  bool adaptive = true;
  /// Threshold parameter ε in (0, 1]; ε=1 recovers Theorem 4.1.
  double epsilon = 1.0;
  /// No adaptation until this many (scaled) tuples have arrived.
  uint64_t min_total_before_adapt = 64;
  /// Defer decisions to explicit checkpoints (grouped/simulated operators).
  bool barrier_mode = false;
  /// Elasticity: expand a group 1->4 when expected per-joiner tuples exceed
  /// max_tuples_per_joiner / 2. 0 disables.
  uint64_t max_tuples_per_joiner = 0;
  uint32_t max_expansions = 0;
};

/// One mapping change decided by the controller (also the bench log record).
struct MigrationRecord {
  uint32_t group = 0;
  uint32_t epoch = 0;
  Mapping from;
  Mapping to;
  bool expansion = false;
  bool contraction = false;
  uint64_t at_scaled_tuples = 0;  // estimated global tuple count at decision
};

class ControllerCore {
 public:
  struct GroupInfo {
    Mapping initial;
    /// This group's share of stored tuples (J_g / J at decomposition time).
    double share = 1.0;
  };

  ControllerCore(ControllerConfig config, uint32_t num_reshufflers,
                 std::vector<GroupInfo> groups);

  /// Alg. 1: scaled increment on every tuple the controller-reshuffler
  /// routes. In immediate mode, appends any decided epoch changes to *out.
  void OnTuple(Rel rel, uint32_t bytes, std::vector<EpochSpec>* out);

  /// Barrier-mode checkpoint: evaluate thresholds now.
  void OnCheckpoint(std::vector<EpochSpec>* out);

  /// Joiner ack for (group, epoch); may emit a follow-up decision for that
  /// group if the data moved on during the migration.
  void OnAck(uint32_t group, uint32_t epoch, std::vector<EpochSpec>* out);

  /// Elastic scale request (kScale): `steps` > 0 queues that many 4x grow
  /// steps, < 0 queues |steps| /4 shrink steps. One step is committed per
  /// migration round; a step is applied immediately if the group is not
  /// migrating, otherwise when the in-flight migration's last ack lands —
  /// so explicit scaling serializes behind (and takes priority over) ILF
  /// relabel decisions. The queue is clamped at request time to the steps
  /// the allocation allows from the current grid: growth up to the
  /// allocated slot budget (initial J << 2*max_expansions), shrinking down
  /// to 4 machines. A step beyond those bounds is dropped on arrival, so it
  /// never cancels a later request of the opposite sign. Requires a single
  /// group.
  void RequestScale(int64_t steps, std::vector<EpochSpec>* out);

  /// Scale steps requested but not yet committed (signed; testing/policy).
  int64_t pending_scale() const { return groups_[0].pending_scale; }

  bool AnyMigrating() const;
  bool Migrating(uint32_t group) const { return groups_[group].acks_pending > 0; }

  /// Scaled global estimates (unit tuples = bytes).
  double r_units() const { return r_units_ + dr_units_; }
  double s_units() const { return s_units_ + ds_units_; }
  /// Scaled global tuple-count estimates.
  uint64_t r_tuples() const { return r_tuples_ + dr_tuples_; }
  uint64_t s_tuples() const { return s_tuples_ + ds_tuples_; }

  Mapping current_mapping(uint32_t group) const {
    return groups_[group].mapping;
  }
  const std::vector<MigrationRecord>& log() const { return log_; }

  /// Committed scale rounds (expansions + contractions) so far. Atomic so a
  /// thread outside the engine (tests, an autoscaler) can poll commit
  /// progress while the controller's reshuffler is live; everything else on
  /// this class is single-threaded reshuffler state.
  uint64_t scale_commits() const {
    return scale_commits_.load(std::memory_order_acquire);
  }

 private:
  struct GroupState {
    Mapping mapping;
    double share = 1.0;
    uint32_t epoch = 0;
    uint32_t acks_pending = 0;
    uint32_t acks_expected = 0;
    uint32_t cur_machines = 0;  // J_g after expansions/contractions
    uint32_t max_machines = 0;  // allocated slots: initial J << 2*max_exp
    int64_t pending_scale = 0;  // queued explicit scale steps (signed)
  };

  /// Evaluates thresholds; if crossed, folds Δ into totals and (for every
  /// non-migrating group) emits a mapping change / expansion when warranted.
  void MaybeDecide(std::vector<EpochSpec>* out, bool force_checkpoint);
  /// Optimal mapping for group g under current totals with dummy padding.
  Mapping OptimalFor(const GroupState& g) const;
  /// ILF-minimizing valid fold of g's mapping onto J/4 machines (the
  /// contraction target must satisfy n' <= n, m' <= m).
  Mapping ContractFor(const GroupState& g) const;
  void DecideGroup(uint32_t gi, std::vector<EpochSpec>* out);

  ControllerConfig config_;
  uint32_t num_reshufflers_;
  std::vector<GroupState> groups_;

  // Totals and deltas, scaled by num_reshufflers (Alg. 1): both in unit
  // tuples (bytes) for the mapping objective and in tuple counts for
  // elasticity checks.
  double r_units_ = 0, s_units_ = 0, dr_units_ = 0, ds_units_ = 0;
  uint64_t r_tuples_ = 0, s_tuples_ = 0, dr_tuples_ = 0, ds_tuples_ = 0;

  std::vector<MigrationRecord> log_;
  std::atomic<uint64_t> scale_commits_{0};
};

}  // namespace ajoin
