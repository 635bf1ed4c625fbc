#include "replay.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/agg.h"
#include "src/core/joiner.h"
#include "src/core/reshuffler.h"
#include "src/index/flat_index.h"
#include "src/runtime/thread_engine.h"
#include "stats.h"

namespace perfbench {
namespace {

using ajoin::Envelope;
using ajoin::MsgType;
using ajoin::Rel;
using ajoin::TupleBatch;

constexpr size_t kInputBatch = 64;   // ingress / replay input batch
constexpr size_t kEdgeBatch = 128;   // ExchangeConfig::batch_size default
constexpr size_t kExchangeEnvelopes = size_t{1} << 18;

/// Stands in for the engine: keeps every envelope a task sends, per
/// destination task id, or (counting mode) only counts them.
class CaptureContext : public ajoin::Context {
 public:
  CaptureContext(int self, size_t num_tasks, bool keep)
      : self_(self), keep_(keep), by_dest_(num_tasks) {}

  int self() const override { return self_; }

  void Send(int to, Envelope msg) override {
    ++sent_;
    if (keep_) by_dest_[static_cast<size_t>(to)].Add(std::move(msg));
  }

  void SendBatch(int to, TupleBatch&& run) override {
    sent_ += run.size();
    if (!keep_) {
      run.Clear();
      return;
    }
    TupleBatch& dest = by_dest_[static_cast<size_t>(to)];
    if (dest.empty()) {
      std::swap(dest, run);
    } else {
      for (Envelope& e : run.items) dest.Add(std::move(e));
    }
    run.Clear();
  }

  uint64_t NowMicros() const override { return NowNs() / 1000; }

  TupleBatch& outbox(size_t to) { return by_dest_[to]; }
  uint64_t sent() const { return sent_; }

 private:
  int self_;
  bool keep_;
  std::vector<TupleBatch> by_dest_;
  uint64_t sent_ = 0;
};

/// Counts what one exchange edge delivers.
class CountingTask : public ajoin::Task {
 public:
  void OnMessage(Envelope msg, ajoin::Context& ctx) override {
    (void)msg;
    (void)ctx;
    ++count_;
  }
  void OnBatch(TupleBatch batch, ajoin::Context& ctx) override {
    (void)ctx;
    count_ += batch.size();
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

Envelope InputEnvelope(const InputTuple& t, uint64_t seq) {
  Envelope env;
  env.type = MsgType::kInput;
  env.rel = t.rel;
  env.key = t.key;
  env.bytes = t.bytes;
  env.seq = seq;
  return env;
}

TupleBatch InputBatch(const std::vector<InputTuple>& stream, size_t begin) {
  TupleBatch batch;
  const size_t end = std::min(stream.size(), begin + kInputBatch);
  batch.items.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) batch.Add(InputEnvelope(stream[i], i));
  return batch;
}

/// Moves everything `ctx` captured for destination ids [base, base + n)
/// into per-destination accumulators, handing each accumulator to
/// `deliver` once it holds a full exchange batch.
template <typename Deliver>
void Forward(CaptureContext& ctx, int base, size_t n,
             std::vector<TupleBatch>* acc, Deliver&& deliver) {
  for (size_t d = 0; d < n; ++d) {
    TupleBatch& out = ctx.outbox(static_cast<size_t>(base) + d);
    if (out.empty()) continue;
    TupleBatch& a = (*acc)[d];
    if (a.empty()) {
      std::swap(a, out);
    } else {
      for (Envelope& e : out.items) a.Add(std::move(e));
    }
    out.Clear();
    if (a.size() >= kEdgeBatch) deliver(d);
  }
}

/// Reshuffler -> joiner replay of the main join stage under the optimal
/// mapping for the stream's final |R|, |S| (the mapping the controller
/// converges to).
void ReplayJoin(const Inputs& in, SpanLog* spans, ReplayStats* out) {
  const uint32_t j = kMainJoiners;
  const ajoin::Mapping map = ajoin::OptimalMapping(
      j, static_cast<double>(in.r_count), static_cast<double>(in.s_count),
      in.r_bytes, in.s_bytes);
  const ajoin::GridLayout layout = ajoin::GridLayout::Initial(map);
  const int joiner_base = static_cast<int>(j);
  const int sink = 2 * static_cast<int>(j);

  ajoin::ReshufflerConfig rc;
  rc.index = 1 % j;  // a plain routing reshuffler (0 carries the controller)
  rc.num_reshufflers = j;
  ajoin::GroupBlock block;
  block.joiner_task_base = joiner_base;
  block.alloc_machines = j;
  block.initial_layout = layout;
  rc.groups = {block};
  ajoin::ReshufflerCore resh(rc);

  std::vector<std::unique_ptr<ajoin::JoinerCore>> joiners;
  std::vector<CaptureContext> jctx;
  for (uint32_t p = 0; p < j; ++p) {
    ajoin::JoinerConfig jc;
    jc.spec = ajoin::MakeEquiJoin(0, 0);
    jc.machine_index = p;
    jc.initial_layout = layout;
    jc.num_reshufflers = j;
    jc.controller_task = 0;
    jc.joiner_task_base = joiner_base;
    jc.keep_rows = false;
    jc.result_sink = sink;
    joiners.push_back(std::make_unique<ajoin::JoinerCore>(jc));
    jctx.emplace_back(joiner_base + static_cast<int>(p), sink + 1, false);
  }
  CaptureContext rctx(static_cast<int>(rc.index), sink + 1, true);

  const uint64_t t_root = NowNs();
  const uint64_t root = spans->Open("replay.join", 0, t_root);
  uint64_t resh_ns = 0, join_ns = 0;
  std::vector<TupleBatch> acc(j);
  auto deliver = [&](size_t p) {
    const uint64_t t0 = NowNs();
    joiners[p]->OnBatch(std::move(acc[p]), jctx[p]);
    const uint64_t t1 = NowNs();
    acc[p] = TupleBatch();
    join_ns += t1 - t0;
    spans->Add("joiner.on_batch", root, t0, t1);
  };
  for (size_t b = 0; b < in.stream.size(); b += kInputBatch) {
    TupleBatch batch = InputBatch(in.stream, b);
    const uint64_t t0 = NowNs();
    resh.OnBatch(std::move(batch), rctx);
    const uint64_t t1 = NowNs();
    resh_ns += t1 - t0;
    spans->Add("reshuffler.on_batch", root, t0, t1);
    Forward(rctx, joiner_base, j, &acc, deliver);
  }
  for (size_t p = 0; p < j; ++p) {
    if (!acc[p].empty()) deliver(p);
  }
  spans->Close(root, NowNs());

  // Every join result reaches the sink (the cascade folds each of its
  // stage-B results exactly once), so the expected sink count applies.
  uint64_t results = 0;
  for (const CaptureContext& c : jctx) results += c.sent();
  if (results != in.expected_results) ++out->mismatches;
  const double n = static_cast<double>(in.stream.size());
  out->reshuffler_ns_per_tuple = static_cast<double>(resh_ns) / n;
  out->joiner_ns_per_tuple = static_cast<double>(join_ns) / n;
}

void ReplayExchange(const Inputs& in, SpanLog* spans, ReplayStats* out) {
  const size_t m = std::min(in.stream.size(), kExchangeEnvelopes);
  ajoin::ThreadEngine engine;
  auto task = std::make_unique<CountingTask>();
  const CountingTask* counter = task.get();
  const int id = engine.AddTask(std::move(task));
  engine.Start();
  std::unique_ptr<ajoin::IngressPort> port = engine.OpenIngress(id);
  std::vector<double> per_env;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<TupleBatch> batches;
    for (size_t b = 0; b < m; b += kInputBatch) {
      batches.push_back(InputBatch(in.stream, b));
    }
    const uint64_t t_root = NowNs();
    const uint64_t root = spans->Open("replay.exchange", 0, t_root);
    for (TupleBatch& batch : batches) {
      const uint64_t t0 = NowNs();
      port->PostBatch(id, std::move(batch));
      spans->Add("exchange.post_batch", root, t0, NowNs());
    }
    const uint64_t t_flush = NowNs();
    port->Flush();
    engine.WaitQuiescent();
    const uint64_t t_end = NowNs();
    spans->Add("exchange.drain", root, t_flush, t_end);
    spans->Close(root, t_end);
    per_env.push_back(static_cast<double>(t_end - t_root) /
                      static_cast<double>(m));
  }
  port.reset();
  if (counter->count() != kReps * m) ++out->mismatches;
  engine.Shutdown();
  out->exchange_ns_per_envelope = Median(per_env);
}

void ReplayIndex(const Inputs& in, SpanLog* spans, ReplayStats* out) {
  const std::vector<InputTuple>& s = in.stream;
  ajoin::FlatHashIndex index[2];
  auto side = [](Rel rel) { return static_cast<size_t>(rel); };
  auto other = [](Rel rel) { return rel == Rel::kR ? size_t{1} : size_t{0}; };
  uint64_t ins_ns = 0, probe_ns = 0, run_ns = 0;
  uint64_t matches = 0, run_matches = 0;

  uint64_t root = spans->Open("replay.index", 0, NowNs());
  for (size_t b = 0; b < s.size(); b += kInputBatch) {
    const size_t e = std::min(s.size(), b + kInputBatch);
    const uint64_t t0 = NowNs();
    for (size_t i = b; i < e; ++i) index[side(s[i].rel)].Insert(s[i].key, i);
    const uint64_t t1 = NowNs();
    ins_ns += t1 - t0;
    spans->Add("index.insert", root, t0, t1);
  }
  // Probes go against the other relation's complete index.
  for (size_t b = 0; b < s.size(); b += kInputBatch) {
    const size_t e = std::min(s.size(), b + kInputBatch);
    const uint64_t t0 = NowNs();
    for (size_t i = b; i < e; ++i) {
      index[other(s[i].rel)].ForEachMatch(s[i].key,
                                          [&](uint64_t) { ++matches; });
    }
    const uint64_t t1 = NowNs();
    probe_ns += t1 - t0;
    spans->Add("index.probe", root, t0, t1);
  }
  std::vector<int64_t> keys[2];
  for (size_t b = 0; b < s.size(); b += kInputBatch) {
    const size_t e = std::min(s.size(), b + kInputBatch);
    keys[0].clear();
    keys[1].clear();
    for (size_t i = b; i < e; ++i) keys[side(s[i].rel)].push_back(s[i].key);
    const uint64_t t0 = NowNs();
    for (size_t r = 0; r < 2; ++r) {
      index[1 - r].ProbeRun(keys[r].data(), keys[r].size(),
                            [&](size_t, uint64_t) { ++run_matches; });
    }
    const uint64_t t1 = NowNs();
    run_ns += t1 - t0;
    spans->Add("index.probe_run", root, t0, t1);
  }
  spans->Close(root, NowNs());
  if (matches != run_matches) ++out->mismatches;
  const double n = static_cast<double>(s.size());
  out->index_insert_ns = static_cast<double>(ins_ns) / n;
  out->index_probe_ns = static_cast<double>(probe_ns) / n;
  out->index_probe_run_ns = static_cast<double>(run_ns) / n;
  out->index_matches_per_probe = static_cast<double>(matches) / n;
}

/// Group-by tail of the cascade: routes and folds the stage-B join results
/// (key = s_suppkey, value = result bytes) with 2 routers and 2 workers.
void ReplayAgg(const Inputs& in, SpanLog* spans, ReplayStats* out) {
  constexpr uint32_t kWorkers = 2;
  constexpr uint32_t kPartitions = 256;  // AggConfig default
  const int worker_base = static_cast<int>(kWorkers);  // routers first
  std::vector<uint64_t> a_results;  // stage-A results per suppkey
  std::vector<uint32_t> a_bytes;
  for (size_t i = 0; i < in.stage_b_first_pushed; ++i) {
    const size_t k = static_cast<size_t>(in.stream[i].key);
    if (k >= a_results.size()) {
      a_results.resize(k + 1, 0);
      a_bytes.resize(k + 1, 0);
    }
    ++a_results[k];
    a_bytes[k] = in.stream[i].bytes;
  }

  ajoin::AggRouterCore::Config rcfg;
  rcfg.index = 1;  // a plain router (0 carries the controller duty)
  rcfg.num_routers = kWorkers;
  rcfg.num_workers = kWorkers;
  rcfg.partitions = kPartitions;
  rcfg.router_task_base = 0;
  rcfg.worker_task_base = worker_base;
  ajoin::AggRouterCore router(rcfg);
  std::vector<std::unique_ptr<ajoin::AggWorkerCore>> workers;
  std::vector<CaptureContext> wctx;
  for (uint32_t w = 0; w < kWorkers; ++w) {
    ajoin::AggWorkerCore::Config wcfg;
    wcfg.index = w;
    wcfg.num_workers = kWorkers;
    wcfg.num_routers = kWorkers;
    wcfg.partitions = kPartitions;
    wcfg.controller_task = 0;
    wcfg.worker_task_base = worker_base;
    workers.push_back(std::make_unique<ajoin::AggWorkerCore>(wcfg));
    wctx.emplace_back(worker_base + static_cast<int>(w), 2 * kWorkers, false);
  }
  CaptureContext rctx(1, 2 * kWorkers, true);

  const uint64_t root = spans->Open("replay.agg", 0, NowNs());
  uint64_t route_ns = 0, fold_ns = 0, n = 0;
  std::vector<TupleBatch> acc(kWorkers);
  auto deliver = [&](size_t w) {
    const uint64_t t0 = NowNs();
    workers[w]->OnBatch(std::move(acc[w]), wctx[w]);
    const uint64_t t1 = NowNs();
    acc[w] = TupleBatch();
    fold_ns += t1 - t0;
    spans->Add("agg_worker.on_batch", root, t0, t1);
  };
  TupleBatch batch;
  auto route = [&] {
    const uint64_t t0 = NowNs();
    router.OnBatch(std::move(batch), rctx);
    const uint64_t t1 = NowNs();
    batch = TupleBatch();
    route_ns += t1 - t0;
    spans->Add("agg_router.on_batch", root, t0, t1);
    Forward(rctx, worker_base, kWorkers, &acc, deliver);
  };
  for (size_t i = in.stage_b_first_pushed; i < in.stream.size(); ++i) {
    const InputTuple& li = in.stream[i];
    const size_t k = static_cast<size_t>(li.key);
    const uint64_t matches = k < a_results.size() ? a_results[k] : 0;
    for (uint64_t m = 0; m < matches; ++m) {
      Envelope res;
      res.type = MsgType::kResult;
      res.key = li.key;
      res.seq = k;
      res.tag = i;
      res.bytes = a_bytes[k] + li.bytes;
      batch.Add(std::move(res));
      ++n;
      if (batch.size() == kInputBatch) route();
    }
  }
  if (!batch.empty()) route();
  for (size_t w = 0; w < kWorkers; ++w) {
    if (!acc[w].empty()) deliver(w);
  }
  spans->Close(root, NowNs());

  uint64_t folded = 0;
  for (const auto& w : workers) folded += w->in_tuples();
  if (folded != in.expected_results || n != in.expected_results) {
    ++out->mismatches;
  }
  out->agg_inputs = n;
  if (n > 0) {
    out->agg_route_ns_per_tuple =
        static_cast<double>(route_ns) / static_cast<double>(n);
    out->agg_fold_ns_per_tuple =
        static_cast<double>(fold_ns) / static_cast<double>(n);
  }
}

}  // namespace

double ReplayStats::LadderNsPerTuple(const Inputs& in,
                                     double envelopes_per_input) const {
  const double pushed = static_cast<double>(in.pushed_inputs);
  const double stream = static_cast<double>(in.stream.size());
  return (reshuffler_ns_per_tuple + joiner_ns_per_tuple) * stream / pushed +
         (agg_route_ns_per_tuple + agg_fold_ns_per_tuple) *
             static_cast<double>(agg_inputs) / pushed +
         exchange_ns_per_envelope * envelopes_per_input;
}

ReplayStats RunReplays(const WorkloadSpec& spec, const Inputs& inputs,
                       SpanLog* spans) {
  ReplayStats out;
  ReplayJoin(inputs, spans, &out);
  ReplayExchange(inputs, spans, &out);
  ReplayIndex(inputs, spans, &out);
  if (spec.kind == WorkloadKind::kTpchCascade) ReplayAgg(inputs, spans, &out);
  return out;
}

}  // namespace perfbench
