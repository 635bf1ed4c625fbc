#include "live.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "src/common/trace_ring.h"
#include "src/core/operator.h"
#include "src/datagen/tpch.h"
#include "src/query/dataflow.h"
#include "src/runtime/thread_engine.h"
#include "stats.h"

namespace perfbench {

uint32_t ElapsedUs(uint64_t later, uint64_t earlier) {
  if (later <= earlier) return 0;
  return static_cast<uint32_t>(std::min<uint64_t>(
      later - earlier, std::numeric_limits<uint32_t>::max()));
}

namespace {

using ajoin::Envelope;
using ajoin::MsgType;
using ajoin::Rel;

/// The benchmark's result sink: one engine task that stamps each arriving
/// batch once, tallies results for the reference check, and keeps latency
/// samples. Its state is read only after WaitQuiescent.
class BenchSink : public ajoin::Task {
 public:
  BenchSink(bool agg_mode, const DueTable* due, uint64_t num_inputs,
            size_t key_range, uint64_t expected, bool traced, uint16_t track)
      : agg_mode_(agg_mode),
        due_(due),
        num_inputs_(num_inputs),
        traced_(traced),
        spans_(track, traced) {
    if (!agg_mode_) got_.assign(key_range, 0);
    lat_us_.reserve(expected);
    if (traced_ && !agg_mode_) {
      op_lat_us_.reserve(expected);
      wait_us_.reserve(expected);
    }
  }

  /// Parent span of the sink's batch spans (set before the first Push).
  void set_parent(uint64_t span) { parent_ = span; }

  void OnMessage(Envelope msg, ajoin::Context& ctx) override {
    (void)ctx;
    const uint64_t now = NowNs();
    if (Take(msg, now / 1000)) {
      ++batches_;
      last_result_ns_ = now;
    }
  }

  void OnBatch(ajoin::TupleBatch batch, ajoin::Context& ctx) override {
    (void)ctx;
    const uint64_t start = NowNs();
    const uint64_t arrival_us = start / 1000;
    bool any = false;
    for (Envelope& msg : batch.items) any |= Take(msg, arrival_us);
    if (any) {
      ++batches_;
      last_result_ns_ = start;
    }
    if (spans_.enabled()) spans_.Add("sink_batch", parent_, start, NowNs());
  }

  const std::vector<uint64_t>& got() const { return got_; }
  uint64_t out_of_range() const { return out_of_range_; }
  uint64_t checksum() const { return checksum_; }
  uint64_t results() const { return results_; }
  uint64_t batches() const { return batches_; }
  uint64_t last_result_ns() const { return last_result_ns_; }
  std::vector<uint32_t>& lat_us() { return lat_us_; }
  std::vector<uint32_t>& op_lat_us() { return op_lat_us_; }
  std::vector<uint32_t>& wait_us() { return wait_us_; }
  const std::vector<ajoin::Row>& rows() const { return rows_; }
  SpanLog& spans() { return spans_; }

 private:
  bool Take(Envelope& msg, uint64_t arrival_us) {
    if (msg.type != MsgType::kResult) return false;  // kEos from upstream
    ++results_;
    if (agg_mode_) {
      // The group-by answers once, for the whole stream, like a batch job:
      // its latency is the time to answer, from the first input's due time.
      lat_us_.push_back(ElapsedUs(arrival_us, due_->DueUs(0)));
      rows_.push_back(std::move(msg.row));
      return true;
    }
    const uint64_t key = static_cast<uint64_t>(msg.key);
    if (key < got_.size()) {
      ++got_[key];
    } else {
      ++out_of_range_;
    }
    checksum_ += PairHash(msg.seq, msg.tag);
    if (std::max(msg.seq, msg.tag) >= num_inputs_) {
      return true;  // counted above; the reference check fails it
    }
    lat_us_.push_back(ResultLatencyUs(*due_, msg.seq, msg.tag, arrival_us));
    if (traced_ && msg.ingest_us != 0) {
      const uint64_t probing = msg.rel == Rel::kR ? msg.seq : msg.tag;
      op_lat_us_.push_back(ElapsedUs(arrival_us, msg.ingest_us));
      wait_us_.push_back(ElapsedUs(msg.ingest_us, due_->DueUs(probing)));
    }
    return true;
  }

  const bool agg_mode_;
  const DueTable* due_;
  const uint64_t num_inputs_;
  const bool traced_;
  uint64_t parent_ = 0;
  std::vector<uint64_t> got_;  // results per join key
  uint64_t out_of_range_ = 0;
  uint64_t checksum_ = 0;
  uint64_t results_ = 0;
  uint64_t batches_ = 0;
  uint64_t last_result_ns_ = 0;
  std::vector<uint32_t> lat_us_;
  std::vector<uint32_t> op_lat_us_;
  std::vector<uint32_t> wait_us_;
  std::vector<ajoin::Row> rows_;
  SpanLog spans_;
};

constexpr uint32_t kIngressBatch = 64;

ajoin::OperatorConfig MainJoinConfig(ajoin::JoinSpec join) {
  ajoin::OperatorConfig cfg;
  cfg.spec = std::move(join);
  cfg.machines = kMainJoiners;
  cfg.initial = kInitialMapping;
  cfg.use_initial = true;
  cfg.adaptive = true;
  cfg.keep_rows = false;
  cfg.min_total_before_adapt = 512;
  return cfg;
}

/// Longest per-epoch migration window (ms): first kMigrationBegin to last
/// kMigrationFinalize of one (stage, epoch), stages told apart by the
/// first task id of each (`stage_bases`, ascending).
double MaxMigrationWindowMs(const ajoin::TraceRing& ring,
                            const std::vector<int>& stage_bases) {
  std::map<std::pair<size_t, uint64_t>, std::pair<uint64_t, uint64_t>> win;
  for (const ajoin::TraceEvent& ev : ring.Snapshot()) {
    if (ev.kind != ajoin::TraceEventKind::kMigrationBegin &&
        ev.kind != ajoin::TraceEventKind::kMigrationFinalize) {
      continue;
    }
    size_t stage = 0;
    while (stage + 1 < stage_bases.size() && ev.task >= stage_bases[stage + 1]) {
      ++stage;
    }
    auto [it, fresh] = win.try_emplace(
        {stage, ev.a}, std::numeric_limits<uint64_t>::max(), 0);
    (void)fresh;
    if (ev.kind == ajoin::TraceEventKind::kMigrationBegin) {
      it->second.first = std::min(it->second.first, ev.t_us);
    } else {
      it->second.second = std::max(it->second.second, ev.t_us);
    }
  }
  double longest = 0;
  for (const auto& [key, w] : win) {
    (void)key;
    if (w.second >= w.first && w.first != std::numeric_limits<uint64_t>::max()) {
      longest = std::max(longest, static_cast<double>(w.second - w.first) / 1e3);
    }
  }
  return longest;
}

}  // namespace

TrialStats RunTrial(const WorkloadSpec& spec, const Inputs& in, bool traced,
                    SpanLog* spans, uint16_t sink_track) {
  const bool cascade = spec.kind == WorkloadKind::kTpchCascade;
  const bool open_loop = spec.rate_tps > 0;
  const uint64_t n = in.pushed_inputs;
  ajoin::ThreadEngine engine;
  ajoin::TraceRing ring(1 << 12);
  ajoin::TraceRing* trace = traced ? &ring : nullptr;
  DueTable due;

  // Assemble the operator(s); stage ids ascend in creation order.
  std::unique_ptr<ajoin::JoinOperator> op;
  std::unique_ptr<ajoin::Dataflow> flow;
  int stage_a = -1, stage_b = -1, group = -1;
  if (!cascade) {
    ajoin::OperatorConfig cfg =
        MainJoinConfig(ajoin::MakeEquiJoin(0, 0, spec.name));
    cfg.trace = trace;
    op = std::make_unique<ajoin::JoinOperator>(engine, cfg);
  } else {
    flow = std::make_unique<ajoin::Dataflow>(engine);
    flow->SetTelemetry(nullptr, trace);
    ajoin::OperatorConfig a_cfg;
    a_cfg.spec = ajoin::MakeEquiJoin(/*r_key_col=*/1,
                                     ajoin::SupplierCols::kNationKey, "RN_S");
    a_cfg.machines = 2;
    a_cfg.adaptive = true;
    a_cfg.min_total_before_adapt = 16;
    a_cfg.keep_rows = true;  // stage B keys on a result-row column
    stage_a = flow->AddJoin(a_cfg);
    stage_b = flow->AddJoin(MainJoinConfig(ajoin::MakeEquiJoin(
        /*r_key_col=*/3, ajoin::LineitemCols::kSuppKey, "EQ5")));
    ajoin::AggConfig g_cfg;
    g_cfg.machines = 2;
    g_cfg.min_total_before_adapt = 512;
    g_cfg.check_every = 256;
    group = flow->AddGroupBy(g_cfg);
    ajoin::Dataflow::ConnectOptions wire;
    wire.rel = Rel::kR;
    wire.key_col = 3;  // s_suppkey inside the stage-A result row
    flow->Connect(stage_a, stage_b, wire);
    flow->Connect(stage_b, group);
  }
  auto sink_owned = std::make_unique<BenchSink>(
      cascade, &due, n, in.join_ref.per_key.size(), in.expected_results,
      traced, sink_track);
  BenchSink* sink = sink_owned.get();
  const int sink_id = engine.AddTask(std::move(sink_owned));
  if (cascade) {
    flow->groupby(group).RouteResultsTo({sink_id});
  } else {
    op->RouteResultsTo({sink_id});
  }
  engine.Start();

  ajoin::JoinOperator* a_op = cascade ? &flow->join(stage_a) : nullptr;
  ajoin::JoinOperator* main_op = cascade ? &flow->join(stage_b) : op.get();
  if (a_op != nullptr) a_op->SetIngressBatch(kIngressBatch);
  main_op->SetIngressBatch(kIngressBatch);
  const size_t a_count = in.stage_a.size();
  const size_t first = in.stage_b_first_pushed;
  ajoin::StreamTuple slim;
  auto push = [&](size_t g) {
    if (g < a_count) {
      a_op->Push(in.stage_a[g]);
      return;
    }
    const InputTuple& t = in.stream[first + (g - a_count)];
    slim.rel = t.rel;
    slim.key = t.key;
    slim.bytes = t.bytes;
    main_op->Push(slim);
  };
  auto flush = [&] {
    if (flow != nullptr) {
      flow->FlushInput();
    } else {
      op->FlushInput();
    }
  };
  if (!open_loop) due.InitClosed(n);

  TrialStats st;
  st.inputs = n;
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  const uint64_t trial_span = spans->Open("trial", 0, t0);
  sink->set_parent(trial_span);
  uint64_t push_ns = 0;
  if (open_loop) {
    due.InitOpen(t0, spec.rate_tps);
    uint64_t max_lag = 0;
    size_t g = 0;
    while (g < n) {
      const uint64_t now = NowNs();
      const uint64_t due_g = due.DueNs(g);
      if (due_g > now) {
        flush();
        const uint64_t flushed = NowNs();
        spans->Add("flush_input", trial_span, now, flushed);
        if (due_g > flushed) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due_g - flushed));
        }
        continue;
      }
      max_lag = std::max(max_lag, now - due_g);
      size_t end = g;
      while (end < n && end - g < DueTable::kGroup && due.DueNs(end) <= now) {
        ++end;
      }
      for (size_t i = g; i < end; ++i) push(i);
      const uint64_t pushed = NowNs();
      push_ns += pushed - now;
      spans->Add("push_group", trial_span, now, pushed);
      g = end;
    }
    st.gen_lag_max_ms = static_cast<double>(max_lag) / 1e6;
  } else {
    for (size_t g = 0; g < n; g += DueTable::kGroup) {
      const uint64_t start = NowNs();
      due.StampGroup(g / DueTable::kGroup, start / 1000);
      const size_t end = std::min<size_t>(n, g + DueTable::kGroup);
      for (size_t i = g; i < end; ++i) push(i);
      const uint64_t pushed = NowNs();
      push_ns += pushed - start;
      spans->Add("push_group", trial_span, start, pushed);
    }
  }
  const uint64_t t_eos = NowNs();
  if (flow != nullptr) {
    flow->SendEos();
  } else {
    op->SendEos();
  }
  const uint64_t t_wait = NowNs();
  spans->Add("send_eos", trial_span, t_eos, t_wait);
  engine.WaitQuiescent();
  const uint64_t t_end = NowNs();
  const double cpu1 = ProcessCpuSeconds();
  spans->Add("wait_quiescent", trial_span, t_wait, t_end);
  spans->Close(trial_span, t_end);

  st.cpu_s = cpu1 - cpu0;
  st.wall_s = static_cast<double>(
                  (sink->last_result_ns() > t0 ? sink->last_result_ns() : t_end) -
                  t0) * 1e-9;
  st.push_ns = n == 0 ? 0 : static_cast<double>(push_ns) / static_cast<double>(n);
  st.drain_ms = static_cast<double>(t_end - t_wait) / 1e6;
  st.results = sink->results();
  st.result_batches = sink->batches();
  st.lat_us = std::move(sink->lat_us());
  st.op_lat_us = std::move(sink->op_lat_us());
  st.wait_us = std::move(sink->wait_us());
  st.tasks = engine.num_tasks();
  st.exchange = engine.exchange_stats();
  for (const ajoin::EdgeStatsSnapshot& e : engine.edge_stats()) {
    st.ring_peak = std::max(st.ring_peak, e.ring_peak);
  }

  for (size_t i = 0; i < main_op->num_joiner_slots(); ++i) {
    const ajoin::JoinerMetrics& m = main_op->joiner(i).metrics();
    st.probe_candidates += m.probe_candidates;
    st.output_tuples += m.output_tuples;
  }
  st.max_in_bytes = main_op->MaxInBytes();
  st.stored_bytes = main_op->TotalStoredBytes();
  st.optimal_ilf_bytes = ajoin::OptimalIlf(
      kMainJoiners, static_cast<double>(in.r_count),
      static_cast<double>(in.s_count), in.r_bytes, in.s_bytes);
  std::vector<int> stage_bases;
  for (ajoin::JoinOperator* j : {a_op, main_op}) {
    if (j == nullptr) continue;
    stage_bases.push_back(j->reshuffler_ids().front());
    st.migrations += j->controller()->log().size();
    for (size_t i = 0; i < j->num_joiner_slots(); ++i) {
      const ajoin::JoinerMetrics& m = j->joiner(i).metrics();
      st.mig_out_bytes += m.mig_out_bytes;
      st.discarded_tuples += m.discarded_tuples;
    }
  }

  if (cascade) {
    const ajoin::AggOperator& agg = flow->groupby(group);
    stage_bases.push_back(agg.router_ids().front());
    for (size_t i = 0; i < agg.num_workers(); ++i) {
      st.agg_cell_migrations += agg.worker(i).mig_out_cells();
    }
    const std::vector<ajoin::AggResult> folded = ajoin::FoldAggRows(sink->rows());
    st.agg_groups = folded.size();
    st.check = CheckAgg(in.agg_ref, folded);
  } else {
    st.check = CheckJoin(in.join_ref, sink->got(), sink->out_of_range(),
                         sink->checksum());
  }
  if (traced) st.mig_window_ms = MaxMigrationWindowMs(ring, stage_bases);
  spans->Absorb(std::move(sink->spans()));
  engine.Shutdown();
  return st;
}

}  // namespace perfbench
