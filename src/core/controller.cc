#include "src/core/controller.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/status.h"

namespace ajoin {

ControllerCore::ControllerCore(ControllerConfig config,
                               uint32_t num_reshufflers,
                               std::vector<GroupInfo> groups)
    : config_(config), num_reshufflers_(num_reshufflers) {
  AJOIN_CHECK(!groups.empty());
  AJOIN_CHECK(config_.epsilon > 0.0 && config_.epsilon <= 1.0);
  for (const GroupInfo& info : groups) {
    GroupState g;
    g.mapping = info.initial;
    g.share = info.share;
    g.cur_machines = info.initial.J();
    g.max_machines = info.initial.J() << (2 * config_.max_expansions);
    groups_.push_back(g);
  }
}

void ControllerCore::OnTuple(Rel rel, uint32_t bytes,
                             std::vector<EpochSpec>* out) {
  // Alg. 1 lines 2-5: scaled increments. The controller sees ~1/J of the
  // randomly shuffled input, so each sample counts num_reshufflers_ times.
  if (rel == Rel::kR) {
    dr_units_ += static_cast<double>(bytes) * num_reshufflers_;
    dr_tuples_ += num_reshufflers_;
  } else {
    ds_units_ += static_cast<double>(bytes) * num_reshufflers_;
    ds_tuples_ += num_reshufflers_;
  }
  if (!config_.adaptive || config_.barrier_mode) return;
  MaybeDecide(out, /*force_checkpoint=*/false);
}

void ControllerCore::OnCheckpoint(std::vector<EpochSpec>* out) {
  if (!config_.adaptive) return;
  MaybeDecide(out, /*force_checkpoint=*/false);
}

void ControllerCore::MaybeDecide(std::vector<EpochSpec>* out,
                                 bool force_checkpoint) {
  if (r_tuples_ + s_tuples_ + dr_tuples_ + ds_tuples_ <
      config_.min_total_before_adapt) {
    return;
  }
  // Alg. 2 line 2: |ΔR| >= ε|R| or |ΔS| >= ε|S| (unit-tuple accounting).
  bool crossed = force_checkpoint ||
                 dr_units_ >= config_.epsilon * r_units_ ||
                 ds_units_ >= config_.epsilon * s_units_;
  if (!crossed) return;
  // Fold the deltas into the totals (Alg. 2 lines 5-6).
  r_units_ += dr_units_;
  s_units_ += ds_units_;
  r_tuples_ += dr_tuples_;
  s_tuples_ += ds_tuples_;
  dr_units_ = ds_units_ = 0;
  dr_tuples_ = ds_tuples_ = 0;
  for (uint32_t gi = 0; gi < groups_.size(); ++gi) {
    if (groups_[gi].acks_pending == 0) DecideGroup(gi, out);
  }
}

Mapping ControllerCore::OptimalFor(const GroupState& g) const {
  // Dummy-tuple padding (section 4.2.2): keep the cardinality ratio within
  // J_g by padding the smaller relation, so an optimal grid mapping exists.
  double j = static_cast<double>(g.cur_machines);
  double r = std::max(r_units_, 1.0);
  double s = std::max(s_units_, 1.0);
  r = std::max(r, s / j);
  s = std::max(s, r / j);
  return OptimalMapping(g.cur_machines, r, s);
}

Mapping ControllerCore::ContractFor(const GroupState& g) const {
  // Valid contraction folds drop two grid bits total (J -> J/4) without
  // growing either dim, so every new partition is a union of old ones. Pick
  // the ILF-minimizing fold under the current (padded) totals; a follow-up
  // relabel can reach the unconstrained optimum once the shrink lands.
  const uint32_t jprime = g.cur_machines / 4;
  double r = std::max(r_units_, 1.0);
  double s = std::max(s_units_, 1.0);
  r = std::max(r, s / jprime);
  s = std::max(s, r / jprime);
  Mapping best;
  double best_ilf = 0;
  bool have_best = false;
  const Mapping candidates[3] = {Mapping{g.mapping.n / 4, g.mapping.m},
                                 Mapping{g.mapping.n / 2, g.mapping.m / 2},
                                 Mapping{g.mapping.n, g.mapping.m / 4}};
  for (const Mapping& c : candidates) {
    if (c.n < 1 || c.m < 1) continue;
    double ilf = r / c.n + s / c.m;
    if (!have_best || ilf < best_ilf) {
      best = c;
      best_ilf = ilf;
      have_best = true;
    }
  }
  AJOIN_CHECK_MSG(have_best && best.J() == jprime, "no valid contraction fold");
  return best;
}

void ControllerCore::DecideGroup(uint32_t gi, std::vector<EpochSpec>* out) {
  GroupState& g = groups_[gi];
  Mapping opt;
  bool expand = false;
  bool contract = false;
  // Explicit scale steps (RequestScale) take priority over ILF relabels;
  // one step per migration round, the rest re-enter via OnAck.
  // RequestScale keeps the ledger within the steps the allocation allows.
  if (g.pending_scale > 0) {
    AJOIN_CHECK(g.cur_machines * 4 <= g.max_machines);
    expand = true;
    opt = Mapping{g.mapping.n * 2, g.mapping.m * 2};
    --g.pending_scale;
  } else if (g.pending_scale < 0) {
    AJOIN_CHECK(g.cur_machines >= 16);
    contract = true;
    opt = ContractFor(g);
    ++g.pending_scale;
  }
  if (!expand && !contract) {
    // Non-adaptive runs never emit ILF relabels.
    if (!config_.adaptive) return;
    opt = OptimalFor(g);
    if (opt == g.mapping) {
      // Mapping already optimal; consider elastic expansion (Theorem 4.3):
      // expand when the expected per-joiner tuple count exceeds M/2.
      if (config_.max_tuples_per_joiner == 0 ||
          g.cur_machines * 4 > g.max_machines) {
        return;
      }
      double per_joiner =
          g.share * (static_cast<double>(r_tuples_) / g.mapping.n +
                     static_cast<double>(s_tuples_) / g.mapping.m);
      if (per_joiner <=
          static_cast<double>(config_.max_tuples_per_joiner) / 2) {
        return;
      }
      expand = true;
      opt = Mapping{g.mapping.n * 2, g.mapping.m * 2};
    }
  }
  EpochSpec spec;
  spec.group = gi;
  spec.epoch = g.epoch + 1;
  spec.mapping = opt;
  spec.expansion = expand;
  spec.contraction = contract;
  out->push_back(spec);

  MigrationRecord rec;
  rec.group = gi;
  rec.epoch = spec.epoch;
  rec.from = g.mapping;
  rec.to = opt;
  rec.expansion = expand;
  rec.contraction = contract;
  rec.at_scaled_tuples = r_tuples_ + s_tuples_;
  log_.push_back(rec);

  g.epoch = spec.epoch;
  if (expand || contract) {
    scale_commits_.fetch_add(1, std::memory_order_release);
  }
  if (expand) g.cur_machines *= 4;
  if (contract) g.cur_machines /= 4;
  g.mapping = opt;
  // Every allocated slot acks, not just the target grid: dormant slots and
  // contraction retirees track the layout too, and the barrier must keep
  // them in epoch lockstep — a slot outside the barrier could straggle an
  // epoch behind while faster reshuffler channels already carry the next
  // epoch's signals (and a straggling retiree still owes probe results for
  // in-flight old-epoch tuples).
  g.acks_expected = g.max_machines;
  g.acks_pending = g.max_machines;
  AJOIN_LOG_INFO("controller: group %u epoch %u -> %s%s%s", gi, spec.epoch,
                 opt.ToString().c_str(), expand ? " (expansion)" : "",
                 contract ? " (contraction)" : "");
}

void ControllerCore::RequestScale(int64_t steps, std::vector<EpochSpec>* out) {
  AJOIN_CHECK_MSG(groups_.size() == 1,
                  "elastic scaling requires a single power-of-two group");
  GroupState& g = groups_[0];
  // Clamp the ledger to the steps still feasible from the current grid
  // (cur_machines already counts every committed step), so a request the
  // allocation cannot take is dropped now and never nets against a later
  // one of the opposite sign.
  int64_t grows = 0, shrinks = 0;
  for (uint64_t j = uint64_t{g.cur_machines} * 4; j <= g.max_machines; j *= 4) {
    ++grows;
  }
  for (uint32_t j = g.cur_machines; j >= 16; j /= 4) ++shrinks;
  g.pending_scale = std::clamp(g.pending_scale + steps, -shrinks, grows);
  if (g.pending_scale != 0 && g.acks_pending == 0) DecideGroup(0, out);
}

void ControllerCore::OnAck(uint32_t group, uint32_t epoch,
                           std::vector<EpochSpec>* out) {
  GroupState& g = groups_[group];
  AJOIN_CHECK_MSG(epoch == g.epoch, "ack for unexpected epoch");
  AJOIN_CHECK(g.acks_pending > 0);
  --g.acks_pending;
  if (g.acks_pending == 0) {
    if (g.pending_scale != 0) {
      // Queued explicit scale steps apply as soon as the group is quiet,
      // independent of the adaptive/barrier policy.
      DecideGroup(group, out);
    } else if (config_.adaptive && !config_.barrier_mode) {
      // The data distribution may have shifted during the migration; correct
      // immediately rather than waiting for the next threshold crossing.
      DecideGroup(group, out);
    }
  }
}

bool ControllerCore::AnyMigrating() const {
  for (const GroupState& g : groups_) {
    if (g.acks_pending > 0) return true;
  }
  return false;
}

}  // namespace ajoin
