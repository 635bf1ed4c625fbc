#include "src/core/operator.h"

#include <algorithm>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/runtime/metrics_registry.h"

namespace ajoin {

void IngressStager::StageInput(IngressPort& port, const Engine& engine,
                               int dest, const StreamTuple& tuple,
                               uint64_t seq) {
  auto fill = [&](Envelope& env, uint64_t ingest_us) {
    env.type = MsgType::kInput;
    env.rel = tuple.rel;
    env.key = tuple.key;
    env.bytes = tuple.bytes;
    env.seq = seq;
    env.ingest_us = ingest_us;
    if (tuple.has_row) {
      env.has_row = true;
      env.row = tuple.row;
    }
  };
  if (target_ <= 1) {
    Envelope env;
    fill(env, engine.NowMicros());
    port.Post(dest, std::move(env));
    return;
  }
  TupleBatch& run = staged_[static_cast<size_t>(dest - dest_base_)];
  // Opening a run is the one clock read for all of it: every tuple staged
  // into the run shares the stamp. A posted run leaves with its buffer, so
  // each new run also reserves its full target once instead of growing by
  // doubling.
  if (run.empty()) {
    run.items.reserve(target_);
    run.first_buffered_us = engine.NowMicros();
  }
  fill(run.items.emplace_back(), run.first_buffered_us);
  if (run.size() >= target_) {
    port.PostBatch(dest, std::move(run));
    run.Clear();
  }
}

// ---------------------------------------------------------------------------
// OperatorShell
// ---------------------------------------------------------------------------

OperatorShell::~OperatorShell() = default;

IngressPort& OperatorShell::Port() {
  if (port_ == nullptr) port_ = engine_.OpenIngress(entry_ids_[0]);
  return *port_;
}

int OperatorShell::ReshufflerFor(uint64_t seq, uint32_t num_reshufflers) {
  return static_cast<int>(SplitMix64(seq ^ 0xc2b2ae3d27d4eb4fULL) %
                          num_reshufflers);
}

void OperatorShell::Push(const StreamTuple& tuple) {
  const uint64_t seq = seq_++;
  const int r =
      ReshufflerFor(seq, static_cast<uint32_t>(entry_ids_.size()));
  stager_.StageInput(Port(), engine_, entry_ids_[static_cast<size_t>(r)],
                     tuple, seq);
}

void OperatorShell::SetIngressBatch(uint32_t target) {
  FlushInput();  // staged under the old target must not be stranded
  stager_.SetTarget(target, entry_ids_.front(), entry_ids_.size());
}

void OperatorShell::FlushInput() {
  if (port_ == nullptr) return;  // nothing ever pushed
  stager_.FlushStaged(*port_);
  port_->Flush();
}

void OperatorShell::SendEos() {
  FlushInput();
  for (int id : entry_ids_) {
    Envelope env;
    env.type = MsgType::kEos;
    Port().Post(id, std::move(env));
  }
}

void OperatorShell::RouteResultsTo(const std::vector<int>& sinks) {
  AJOIN_CHECK_MSG(!sinks.empty(), "RouteResultsTo: no sinks");
  for (size_t i = 0; i < emitter_ids_.size(); ++i) {
    const int sink = sinks[i % sinks.size()];
    // A result edge must point at a higher task id, or the exchange plane's
    // credit-blocking wait-for graph could cycle.
    AJOIN_CHECK_MSG(sink > emitter_ids_[i],
                    "result sink must be a higher task id (deadlock-freedom "
                    "ordering)");
    WireEmitter(i, sink);
  }
}

void OperatorShell::AddResultFeeders(size_t upstream_slots) {
  // Mirror RouteResultsTo's round-robin: upstream emitter slot i streams its
  // egress (and thus its kEos) to sink i % num_sinks, i.e. entry task i % R
  // when this operator's entry_ids() are the sinks.
  const size_t n = entry_ids_.size();
  std::vector<uint32_t> feeders(n, 0);
  for (size_t i = 0; i < upstream_slots; ++i) ++feeders[i % n];
  for (size_t r = 0; r < n; ++r) {
    if (feeders[r] != 0) WireFeeders(r, feeders[r]);
  }
}

void OperatorShell::WireFeeders(size_t entry, uint32_t n) {
  (void)entry;
  (void)n;
  AJOIN_CHECK_MSG(false, "operator accepts no upstream results");
}

// ---------------------------------------------------------------------------
// Operator: the join facades' common base
// ---------------------------------------------------------------------------

JoinerConfig Operator::MakeJoinerConfig(uint32_t group,
                                        uint32_t machine_index,
                                        int joiner_task_base) const {
  JoinerConfig jc;
  jc.spec = config_.spec;
  jc.group = group;
  jc.machine_index = machine_index;
  jc.joiner_task_base = joiner_task_base;
  jc.collect_pairs = config_.collect_pairs;
  jc.keep_rows = config_.keep_rows;
  jc.latency_every = config_.latency_every;
  jc.trace = config_.trace;
  if (config_.registry != nullptr) {
    jc.telemetry = config_.registry->Register(
        joiner_task_base + static_cast<int>(machine_index), TaskKind::kJoiner);
  }
  return jc;
}

void Operator::WireEmitter(size_t slot, int sink) {
  static_cast<JoinerCore*>(engine_.task(emitter_ids_[slot]))
      ->set_result_sink(sink);
}

const JoinerCore& Operator::joiner(size_t i) const {
  return *static_cast<const JoinerCore*>(engine_.task(emitter_ids_[i]));
}

uint64_t Operator::TotalOutputs() const {
  uint64_t total = 0;
  for (size_t i = 0; i < emitter_ids_.size(); ++i) {
    total += joiner(i).output_count();
  }
  return total;
}

std::vector<std::pair<uint64_t, uint64_t>> Operator::CollectPairs() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (size_t i = 0; i < emitter_ids_.size(); ++i) {
    const auto& pairs = joiner(i).pairs();
    out.insert(out.end(), pairs.begin(), pairs.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t Operator::MaxInBytes() const {
  uint64_t mx = 0;
  for (size_t i = 0; i < emitter_ids_.size(); ++i) {
    mx = std::max(mx, joiner(i).metrics().in_bytes);
  }
  return mx;
}

uint64_t Operator::TotalStoredBytes() const {
  uint64_t total = 0;
  for (size_t i = 0; i < emitter_ids_.size(); ++i) {
    total += joiner(i).metrics().stored_bytes;
  }
  return total;
}

// ---------------------------------------------------------------------------
// JoinOperator
// ---------------------------------------------------------------------------

JoinOperator::JoinOperator(Engine& engine, OperatorConfig config)
    : Operator(engine, std::move(config)) {
  const int task_base = static_cast<int>(engine_.num_tasks());
  std::vector<uint64_t> group_sizes = BinaryDecompose(config_.machines);
  group_count_ = static_cast<uint32_t>(group_sizes.size());
  AJOIN_CHECK_MSG(group_count_ == 1 || config_.barrier_migrations,
                  "multi-group operators require barrier migrations");
  AJOIN_CHECK_MSG(group_count_ == 1 || config_.max_expansions == 0,
                  "elasticity requires a single power-of-two group");
  const uint32_t num_reshufflers = config_.machines;

  // Build per-group blocks. Joiner ids are assigned after reshufflers, all
  // relative to this operator's task base (so stacked operators — Dataflow
  // stages — get disjoint, strictly increasing id blocks).
  std::vector<GroupBlock> blocks;
  std::vector<ControllerCore::GroupInfo> cinfos;
  double cum = 0.0;
  int next_base = task_base + static_cast<int>(num_reshufflers);
  for (uint64_t jg : group_sizes) {
    GroupBlock block;
    block.joiner_task_base = next_base;
    block.alloc_machines =
        static_cast<uint32_t>(jg) << (2 * config_.max_expansions);
    Mapping init = (group_count_ == 1 && config_.use_initial)
                       ? config_.initial
                       : MidMapping(static_cast<uint32_t>(jg));
    AJOIN_CHECK(init.J() == jg);
    block.initial_layout = GridLayout::Initial(init);
    cum += static_cast<double>(jg) / config_.machines;
    block.cum_prob = cum;
    blocks.push_back(block);
    next_base += static_cast<int>(block.alloc_machines);

    ControllerCore::GroupInfo info;
    info.initial = init;
    info.share = static_cast<double>(jg) / config_.machines;
    cinfos.push_back(info);
  }

  ControllerConfig ctrl;
  ctrl.adaptive = config_.adaptive;
  ctrl.epsilon = config_.epsilon;
  ctrl.min_total_before_adapt = config_.min_total_before_adapt;
  ctrl.barrier_mode = config_.barrier_migrations;
  ctrl.max_tuples_per_joiner = config_.max_tuples_per_joiner;
  ctrl.max_expansions = config_.max_expansions;

  for (uint32_t r = 0; r < num_reshufflers; ++r) {
    ReshufflerConfig rc;
    rc.index = r;
    rc.num_reshufflers = num_reshufflers;
    rc.groups = blocks;
    rc.controller_task = task_base;
    rc.reshuffler_task_base = task_base;
    rc.is_controller = (r == 0);
    rc.controller = ctrl;
    rc.controller_groups = cinfos;
    rc.collect_stats = config_.collect_stats;
    rc.stats_options = config_.stats_options;
    rc.trace = config_.trace;
    if (config_.registry != nullptr) {
      rc.telemetry = config_.registry->Register(
          task_base + static_cast<int>(r), TaskKind::kReshuffler);
    }
    int id = engine_.AddTask(std::make_unique<ReshufflerCore>(std::move(rc)));
    AJOIN_CHECK(id == task_base + static_cast<int>(r));
    entry_ids_.push_back(id);
  }
  for (uint32_t g = 0; g < group_count_; ++g) {
    const GroupBlock& block = blocks[g];
    for (uint32_t p = 0; p < block.alloc_machines; ++p) {
      JoinerConfig jc = MakeJoinerConfig(g, p, block.joiner_task_base);
      jc.initial_layout = block.initial_layout;
      jc.num_reshufflers = num_reshufflers;
      jc.controller_task = task_base;
      int id = engine_.AddTask(std::make_unique<JoinerCore>(std::move(jc)));
      AJOIN_CHECK(id == block.joiner_task_base + static_cast<int>(p));
      emitter_ids_.push_back(id);
    }
  }
}

bool JoinOperator::PostControl(Envelope env) {
  std::lock_guard<std::mutex> lock(scale_mu_);
  if (scale_port_ == nullptr) {
    scale_port_ = engine_.OpenIngress(entry_ids_[0]);
  }
  // Versions are stamped under the lock, so they ascend in post order.
  if (env.type == MsgType::kShed) env.seq = ++shed_version_;
  return scale_port_->Post(entry_ids_[0], std::move(env));
}

bool JoinOperator::PostScale(int64_t steps) {
  if (steps == 0) return true;
  // Elastic scaling needs a single power-of-two group (the controller
  // relabels/folds one grid) and allocated slot headroom to grow into.
  if (group_count_ != 1 || config_.max_expansions == 0) return false;
  Envelope env;
  env.type = MsgType::kScale;
  env.key = steps;
  return PostControl(std::move(env));
}

bool JoinOperator::GrowJoiners(uint32_t steps) {
  return PostScale(static_cast<int64_t>(steps));
}

bool JoinOperator::ShrinkJoiners(uint32_t steps) {
  return PostScale(-static_cast<int64_t>(steps));
}

bool JoinOperator::SetShedRate(uint32_t rate_ppm) {
  // Rides the same dedicated control lane as scale requests; the version
  // stamp is taken under the lane's lock.
  Envelope env;
  env.type = MsgType::kShed;
  env.key = static_cast<int64_t>(rate_ppm);
  return PostControl(std::move(env));
}

void JoinOperator::AcceptResultsAs(Rel rel, int key_col) {
  for (int id : entry_ids_) {
    static_cast<ReshufflerCore*>(engine_.task(id))->AcceptResults(rel,
                                                                  key_col);
  }
}

void JoinOperator::WireFeeders(size_t entry, uint32_t n) {
  static_cast<ReshufflerCore*>(engine_.task(entry_ids_[entry]))
      ->AddEosFeeders(n);
}

void JoinOperator::Checkpoint() {
  FlushInput();
  Envelope env;
  env.type = MsgType::kCheckpoint;
  Port().Post(entry_ids_[0], std::move(env));
}

JoinerCore* JoinOperator::mutable_joiner(size_t i) {
  return static_cast<JoinerCore*>(engine_.task(emitter_ids_[i]));
}

const ReshufflerCore& JoinOperator::reshuffler(size_t i) const {
  return *static_cast<const ReshufflerCore*>(engine_.task(entry_ids_[i]));
}

const ControllerCore* JoinOperator::controller() const {
  return reshuffler(0).controller();
}

// ---------------------------------------------------------------------------
// SHJ baseline
// ---------------------------------------------------------------------------

class ShjOperator::ShjRouter : public Task {
 public:
  ShjRouter(int joiner_base, uint32_t machines)
      : joiner_base_(joiner_base), machines_(machines) {}

  void OnMessage(Envelope msg, Context& ctx) override {
    if (msg.type == MsgType::kEos) {
      for (uint32_t p = 0; p < machines_; ++p) {
        Envelope eos;
        eos.type = MsgType::kEos;
        ctx.Send(joiner_base_ + static_cast<int>(p), std::move(eos));
      }
      return;
    }
    AJOIN_CHECK(msg.type == MsgType::kInput);
    // Content-sensitive partitioning: both relations hashed on the join key
    // to a single machine. Skewed keys concentrate on few machines.
    uint32_t target =
        SplitMix64(static_cast<uint64_t>(msg.key)) % machines_;
    msg.type = MsgType::kData;
    msg.tag = TagForSeq(msg.seq, msg.rel);
    msg.epoch = 0;
    msg.group = 0;
    msg.store = true;
    ctx.Send(joiner_base_ + static_cast<int>(target), std::move(msg));
  }

 private:
  int joiner_base_;
  uint32_t machines_;
};

ShjOperator::ShjOperator(Engine& engine, OperatorConfig config)
    : Operator(engine, std::move(config)) {
  AJOIN_CHECK_MSG(config_.spec.kind == JoinSpec::Kind::kEqui,
                  "SHJ supports equi-joins only");
  const int base = static_cast<int>(engine_.num_tasks());
  const int router_id = engine_.AddTask(
      std::make_unique<ShjRouter>(/*joiner_base=*/base + 1, config_.machines));
  AJOIN_CHECK(router_id == base);
  entry_ids_.push_back(router_id);
  for (uint32_t p = 0; p < config_.machines; ++p) {
    JoinerConfig jc = MakeJoinerConfig(/*group=*/0, p, base + 1);
    jc.initial_layout = GridLayout::Initial(Mapping{1, config_.machines});
    jc.num_reshufflers = 1;  // the router
    jc.controller_task = -1;
    emitter_ids_.push_back(
        engine_.AddTask(std::make_unique<JoinerCore>(std::move(jc))));
  }
}

}  // namespace ajoin
