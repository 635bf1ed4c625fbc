// Telemetry plane: seqlock snapshot cells, the task registry, the trace
// ring, per-edge backpressure counters, and the sampler — including the
// TSan stress case: continuous registry snapshots + edge stats + trace
// reads while a 4-joiner adaptive workload runs live migrations on the
// tiny-batch/tiny-ring exchange config.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/trace_ring.h"
#include "src/core/driver.h"
#include "src/core/operator.h"
#include "src/datagen/workloads.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

namespace ajoin {
namespace {

std::vector<StreamTuple> MakeStream(uint64_t n_r, uint64_t n_s,
                                    int64_t key_domain, uint64_t seed) {
  std::vector<StreamTuple> out;
  Rng rng(seed);
  uint64_t left_r = n_r, left_s = n_s;
  while (left_r + left_s > 0) {
    bool pick_r = left_r > 0 &&
                  (left_s == 0 || rng.Uniform(left_r + left_s) < left_r);
    StreamTuple t;
    t.rel = pick_r ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(key_domain)));
    t.bytes = 16;
    out.push_back(t);
    if (pick_r) {
      --left_r;
    } else {
      --left_s;
    }
  }
  return out;
}

// ---- Seqlock cell -----------------------------------------------------------

TEST(MetricsSeqlock, NoTornReadsUnderContention) {
  // Writer publishes payloads whose words satisfy a fixed relation; readers
  // must never observe a mix of two publishes. The initial (all-zero) state
  // is the one payload that predates any publish.
  SeqlockCell<4> cell;
  std::atomic<bool> stop{false};
  std::thread writer([&cell, &stop] {
    uint64_t w[4];
    for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      w[0] = i;
      w[1] = i * 3;
      w[2] = ~i;
      w[3] = i ^ 0x5a5a5a5a;
      cell.Publish(w);
    }
  });
  const int kReaders = 3;
  std::vector<int> torn(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cell, &torn, r] {
      uint64_t out[4];
      for (int i = 0; i < 200000; ++i) {
        cell.Read(out);
        const uint64_t v = out[0];
        const bool ok =
            v == 0 ? (out[1] == 0 && out[2] == 0 && out[3] == 0)
                   : (out[1] == v * 3 && out[2] == ~v &&
                      out[3] == (v ^ 0x5a5a5a5a));
        if (!ok) ++torn[static_cast<size_t>(r)];
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(torn[static_cast<size_t>(r)], 0) << "reader " << r;
  }
}

// ---- Trace ring -------------------------------------------------------------

TEST(MetricsTraceRing, MultiProducerNoLostOrTornEvents) {
  // Capacity exceeds the total, so every event must survive, exactly once,
  // with payload words that belong together.
  TraceRing ring(1 << 12);
  const int kThreads = 4;
  const uint64_t kPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Record(TraceEventKind::kEpochChange, t, i,
                    (static_cast<uint64_t>(t) << 16) | i, 42);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(ring.total_recorded(), kThreads * kPerThread);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    EXPECT_EQ(ev.index, i);  // sorted by claim order, no gaps
    EXPECT_EQ(ev.a >> 16, static_cast<uint64_t>(ev.task));
    EXPECT_EQ(ev.a & 0xffff, ev.t_us);
    EXPECT_EQ(ev.b, 42u);
  }
}

TEST(MetricsTraceRing, WrapKeepsMostRecentEvents) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 100; ++i) {
    ring.Record(TraceEventKind::kMigrationBegin, 1, i, i, 0);
  }
  EXPECT_EQ(ring.total_recorded(), 100u);
  std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_LE(events.size(), 8u);
  ASSERT_FALSE(events.empty());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].index, 92u);  // only the newest survive a wrap
    EXPECT_EQ(events[i].a, events[i].t_us);
    if (i > 0) {
      EXPECT_GT(events[i].index, events[i - 1].index);
    }
  }
}

// ---- Sampler series + export ------------------------------------------------

TEST(TelemetrySampler, SeriesRingAndJsonExport) {
  MetricsRegistry registry;
  TaskTelemetry* cell = registry.Register(0, TaskKind::kJoiner);
  JoinerSnapshot m;
  m.in_tuples = 7;
  m.output_tuples = 3;
  m.stored_tuples = 4;
  m.epoch = 2;
  m.active = true;
  cell->Publish(m);

  TelemetrySampler::Options opts;
  opts.period_us = 1000;
  opts.capacity = 4;
  TelemetrySampler sampler(&registry, opts);
  for (uint64_t t = 0; t < 10; ++t) sampler.SampleNow(t * 1000);
  EXPECT_EQ(sampler.samples_taken(), 10u);
  std::vector<TelemetrySample> series = sampler.series();
  ASSERT_EQ(series.size(), 4u);  // ring dropped the six oldest
  EXPECT_EQ(series.front().t_us, 6000u);
  EXPECT_EQ(series.back().t_us, 9000u);
  ASSERT_EQ(series.back().tasks.size(), 1u);
  EXPECT_EQ(series.back().tasks[0].joiner.in_tuples, 7u);
  EXPECT_EQ(series.back().tasks[0].joiner.epoch, 2u);

  const std::string line = TelemetrySampler::SummaryLine(series.back());
  EXPECT_NE(line.find("1J+0R"), std::string::npos) << line;
  EXPECT_NE(line.find("in=7"), std::string::npos) << line;

  const char* path = "telemetry_test_export.json";
  ASSERT_TRUE(sampler.WriteJson(path, "unit"));
  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  std::string blob(1 << 16, '\0');
  blob.resize(std::fread(&blob[0], 1, blob.size(), f));
  std::fclose(f);
  std::remove(path);
  EXPECT_NE(blob.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(blob.find("\"in_tuples\": 7"), std::string::npos);
  EXPECT_NE(blob.find("\"samples\""), std::string::npos);
  EXPECT_NE(blob.find("\"trace\""), std::string::npos);
}

// ---- Field tables: every field survives the export --------------------------

// Gives every field of `record` a distinct non-zero value (bools: true),
// walking the record's field table, and remembers how the JSON export must
// print each one.
template <typename Record>
std::vector<std::pair<std::string, std::string>> FillDistinct(
    Record* record, uint64_t* next) {
  std::vector<std::pair<std::string, std::string>> expected;
  Record::ForEachField(*record, [&](const char* name, auto& field) {
    using T = std::decay_t<decltype(field)>;
    char buf[64];
    const uint64_t v = (*next)++;
    if (std::is_same<T, bool>::value) {
      field = true;
      std::snprintf(buf, sizeof(buf), "1");
    } else if (std::is_floating_point<T>::value) {
      field = static_cast<T>(static_cast<double>(v) + 0.5);
      std::snprintf(buf, sizeof(buf), "%.6g", static_cast<double>(field));
    } else {
      field = static_cast<T>(v);
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(v));
    }
    expected.emplace_back(name, buf);
  });
  return expected;
}

// The flat JSON object that starts at the first `marker` in `blob`.
std::string ObjectAt(const std::string& blob, const std::string& marker) {
  const size_t at = blob.find(marker);
  if (at == std::string::npos) return "";
  return blob.substr(at, blob.find('}', at) - at);
}

std::string ReadFile(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return "";
  std::string blob(1 << 16, '\0');
  blob.resize(std::fread(&blob[0], 1, blob.size(), f));
  std::fclose(f);
  return blob;
}

// One expectation per record: the marker that locates its JSON object and
// the (field, printed value) pairs it must carry.
struct RecordExpectation {
  std::string marker;
  std::vector<std::pair<std::string, std::string>> fields;
};

// Publishes distinct values into every field of every task kind, binds
// exchange and edge sources doing the same, and writes `samples` samples
// plus one trace event to `path`.
std::vector<RecordExpectation> WriteEveryFieldExport(const char* path,
                                                     int samples) {
  uint64_t next = 11;
  JoinerSnapshot joiner;
  ReshufflerSnapshot reshuffler;
  AggSnapshot agg;
  ExchangeStatsSnapshot exchange;
  EdgeStatsSnapshot edge;
  std::vector<RecordExpectation> want = {
      {"{\"task\": 0, \"kind\": \"joiner\"", FillDistinct(&joiner, &next)},
      {"{\"task\": 1, \"kind\": \"reshuffler\"",
       FillDistinct(&reshuffler, &next)},
      {"{\"task\": 2, \"kind\": \"agg\"", FillDistinct(&agg, &next)},
      {"\"exchange\": {", FillDistinct(&exchange, &next)},
      {"\"edges\": [{", FillDistinct(&edge, &next)},
  };
  MetricsRegistry registry;
  registry.Register(0, TaskKind::kJoiner)->Publish(joiner);
  registry.Register(1, TaskKind::kReshuffler)->Publish(reshuffler);
  registry.Register(2, TaskKind::kAgg)->Publish(agg);
  TraceRing trace(64);
  trace.Record(TraceEventKind::kEpochChange, 1, 5, 1, 0);
  TelemetrySampler sampler(&registry);
  sampler.SetExchangeSource([exchange] { return exchange; });
  sampler.SetEdgeSource(
      [edge] { return std::vector<EdgeStatsSnapshot>{edge}; });
  sampler.SetTraceSource(&trace);
  for (int i = 0; i < samples; ++i) {
    sampler.SampleNow(static_cast<uint64_t>(i) * 1000);
  }
  EXPECT_TRUE(sampler.WriteJson(path, "every_field"));
  return want;
}

TEST(TelemetrySampler, EveryTableFieldSurvivesJsonExport) {
  const char* path = "telemetry_every_field.json";
  const std::vector<RecordExpectation> want = WriteEveryFieldExport(path, 1);
  const std::string blob = ReadFile(path);
  std::remove(path);
  for (const RecordExpectation& record : want) {
    const std::string object = ObjectAt(blob, record.marker);
    ASSERT_FALSE(object.empty()) << record.marker << " missing:\n" << blob;
    for (const auto& field : record.fields) {
      const std::string kv = "\"" + field.first + "\": " + field.second;
      EXPECT_NE((object + ",").find(kv + ","), std::string::npos)
          << record.marker << " lacks " << kv << " in: " << object;
    }
  }
}

#ifdef AJOIN_PYTHON3
// Exit code of tools/validate_telemetry.py on `path`.
int RunValidator(const std::string& path) {
  const std::string cmd = std::string("\"") + AJOIN_PYTHON3 + "\" \"" +
                          AJOIN_SOURCE_DIR +
                          "/tools/validate_telemetry.py\" \"" + path +
                          "\" > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// `blob` with every `from` replaced by `to`.
std::string ReplaceAll(std::string blob, const std::string& from,
                       const std::string& to) {
  for (size_t at = blob.find(from); at != std::string::npos;
       at = blob.find(from, at + to.size())) {
    blob.replace(at, from.size(), to);
  }
  return blob;
}
#endif

TEST(TelemetryValidator, AcceptsExportAndRejectsCorruptions) {
#ifndef AJOIN_PYTHON3
  GTEST_SKIP() << "no Python 3 interpreter at configure time";
#else
  const char* path = "telemetry_validator.json";
  const std::vector<RecordExpectation> want = WriteEveryFieldExport(path, 2);
  const std::string blob = ReadFile(path);
  EXPECT_EQ(RunValidator(path), 0);
  std::remove(path);

  // Lower the joiner's in_tuples (a counter) in the second of two samples.
  ASSERT_EQ(want[0].fields[0].first, "in_tuples");
  const std::string in_tuples = "\"in_tuples\": " + want[0].fields[0].second;
  const size_t second = blob.rfind(in_tuples);
  ASSERT_NE(second, blob.find(in_tuples));
  std::string decreasing = blob;
  decreasing.replace(second, in_tuples.size(), "\"in_tuples\": 1");

  const std::pair<const char*, std::string> corruptions[] = {
      {"field removed",
       ReplaceAll(blob, "\"mig_out_bytes\"", "\"mig_out_bytez\"")},
      {"counter decreases", decreasing},
      {"unknown trace kind",
       ReplaceAll(blob, "\"epoch_change\"", "\"epoch_rewind\"")},
  };
  const char* bad = "telemetry_validator_bad.json";
  for (const auto& c : corruptions) {
    ASSERT_NE(c.second, blob) << c.first;
    std::FILE* f = std::fopen(bad, "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(c.second.data(), 1, c.second.size(), f);
    std::fclose(f);
    EXPECT_EQ(RunValidator(bad), 1) << c.first;
    std::remove(bad);
  }
#endif
}

// ---- Sim engine: drain-interval sampling ------------------------------------

TEST(TelemetrySim, DrainIntervalSamplerMatchesQuiescentHarvest) {
  Workload w = Workload::Synthetic(/*r_count=*/6000, /*s_count=*/6000, 32, 32,
                                   /*key_domain=*/3000, /*zipf=*/0.0,
                                   /*seed=*/11);
  SimEngine engine;
  MetricsRegistry registry;
  OperatorConfig config;
  config.spec = w.spec();
  config.machines = 8;
  config.adaptive = true;
  config.keep_rows = false;
  config.min_total_before_adapt = w.total_count() / 100;
  config.registry = &registry;
  JoinOperator op(engine, config);
  engine.Start();

  TelemetrySampler sampler(&registry);
  RunOptions opts;
  opts.snapshots = 10;
  opts.sampler = &sampler;
  RunResult r = RunWorkload(engine, op, w, opts);

  std::vector<TelemetrySample> series = sampler.series();
  ASSERT_GE(series.size(), 10u);

  // Cumulative counters only grow across drain-interval samples.
  std::unordered_map<int, JoinerSnapshot> prev;
  for (const TelemetrySample& sample : series) {
    for (const TaskSnapshot& task : sample.tasks) {
      if (task.kind != TaskKind::kJoiner) continue;
      auto it = prev.find(task.task);
      if (it != prev.end()) {
        EXPECT_GE(task.joiner.in_tuples, it->second.in_tuples);
        EXPECT_GE(task.joiner.output_tuples, it->second.output_tuples);
        EXPECT_GE(task.joiner.migrations_finalized,
                  it->second.migrations_finalized);
      }
      prev[task.task] = task.joiner;
    }
  }

  // The final sample (taken at quiescence) equals the quiescent harvest.
  uint64_t snap_in = 0, snap_out = 0, snap_stored = 0;
  for (const TaskSnapshot& task : series.back().tasks) {
    if (task.kind != TaskKind::kJoiner) continue;
    snap_in += task.joiner.in_tuples;
    snap_out += task.joiner.output_tuples;
    snap_stored += task.joiner.stored_tuples;
  }
  uint64_t quiet_in = 0, quiet_out = 0, quiet_stored = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    const JoinerMetrics& m = op.joiner(i).metrics();
    quiet_in += m.in_tuples;
    quiet_out += m.output_tuples;
    quiet_stored += m.stored_tuples;
  }
  EXPECT_EQ(snap_in, quiet_in);
  EXPECT_EQ(snap_out, quiet_out);
  EXPECT_EQ(snap_stored, quiet_stored);
  EXPECT_EQ(snap_out, r.outputs);
}

// ---- Dataflow wiring --------------------------------------------------------

TEST(TelemetrySim, DataflowStagesRegisterTasks) {
  // SetTelemetry stamps the registry/trace into every join stage added
  // after the call, so a whole cascade is observable through one registry.
  SimEngine engine;
  MetricsRegistry registry;
  TraceRing trace(64);
  Dataflow flow(engine);
  flow.SetTelemetry(&registry, &trace);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.keep_rows = false;
  const int a = flow.AddJoin(cfg);
  const int b = flow.AddJoin(cfg);
  const int out = flow.AddSink();
  flow.Connect(a, b, Dataflow::ConnectOptions());
  flow.Connect(b, out);
  // Two stages x (reshufflers + joiners) all registered.
  EXPECT_GE(registry.size(), 2 * 4u);
  engine.Start();
  StreamTuple t;
  t.rel = Rel::kR;
  t.key = 1;
  t.bytes = 16;
  flow.join(a).Push(t);
  t.rel = Rel::kS;
  flow.join(b).Push(t);
  flow.SendEos();
  engine.WaitQuiescent();
  uint64_t in_sum = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind == TaskKind::kJoiner) in_sum += task.joiner.in_tuples;
  }
  EXPECT_GT(in_sum, 0u);  // the stages published through the shared registry
}

// ---- Threaded engine: backpressure telemetry --------------------------------

class SlowSink : public Task {
 public:
  void OnMessage(Envelope msg, Context& ctx) override {
    (void)ctx;
    seen_ += 1 + msg.seq * 0;  // touch payload
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

 private:
  uint64_t seen_ = 0;
};

TEST(TelemetryThread, CreditStallCountersAndTrace) {
  // Tiny credit window + a consumer that sleeps per message: the producer
  // must hit the credit wall, and every layer must see it — the port's
  // rolled-up stats, the plane rollup, the per-edge counters, and the trace
  // ring's stall episodes.
  TraceRing trace(1024);
  ExchangeConfig xc;
  xc.batch_size = 1;  // every envelope ships alone: fills the ring fastest
  xc.ring_slots = 2;
  xc.trace = &trace;
  ThreadEngine engine(xc);
  engine.AddTask(std::make_unique<SlowSink>());
  engine.Start();
  std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
  Envelope env;
  env.type = MsgType::kInput;
  for (uint64_t i = 0; i < 256; ++i) {
    env.seq = i;
    port->Post(0, Envelope(env));
  }
  port->Flush();
  engine.WaitQuiescent();

  IngressPortStats ps = port->stats();
  EXPECT_EQ(ps.posted_envelopes, 256u);
  EXPECT_EQ(ps.rejected_posts, 0u);
  EXPECT_GT(ps.credit_waits, 0u);
  EXPECT_GT(ps.credit_wait_ns, 0u);
  EXPECT_EQ(ps.backlog, 0u);  // quiescent: nothing buffered in the port

  ExchangeStatsSnapshot xs = engine.exchange_stats();
  EXPECT_GT(xs.credit_waits, 0u);
  EXPECT_GT(xs.credit_wait_ns, 0u);

  bool found_stalled_edge = false;
  for (const EdgeStatsSnapshot& edge : engine.edge_stats()) {
    if (edge.credit_waits == 0) continue;
    found_stalled_edge = true;
    EXPECT_EQ(edge.consumer, 0);
    EXPECT_TRUE(edge.bounded);
    EXPECT_GT(edge.credit_wait_ns, 0u);
    EXPECT_EQ(edge.ring_capacity, 2u);
    EXPECT_GE(edge.ring_peak, 1u);
    EXPECT_EQ(edge.ring_occupancy, 0u);  // drained at quiescence
  }
  EXPECT_TRUE(found_stalled_edge);

  uint64_t stall_events = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind != TraceEventKind::kCreditStall) continue;
    ++stall_events;
    EXPECT_EQ(ev.task, 0);   // stalled on the slow consumer's edge
    EXPECT_GT(ev.a, 0u);     // stall duration in ns
  }
  EXPECT_GT(stall_events, 0u);
  engine.Shutdown();
}

TEST(TelemetryThread, EdgeEnvelopeAccountingMatchesPlane) {
  // At quiescence the per-edge counters must tile the plane rollup exactly,
  // and every gauge must read empty.
  ExchangeConfig xc;
  xc.batch_size = 16;
  ThreadEngine engine(xc);
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = 4;
  cfg.adaptive = false;
  cfg.keep_rows = false;
  JoinOperator op(engine, cfg);
  engine.Start();
  auto stream = MakeStream(2000, 2000, 50, 17);
  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();

  ExchangeStatsSnapshot xs = engine.exchange_stats();
  uint64_t edge_envelopes = 0, edge_batches = 0;
  for (const EdgeStatsSnapshot& edge : engine.edge_stats()) {
    edge_envelopes += edge.envelopes;
    edge_batches += edge.batches;
    EXPECT_EQ(edge.ring_occupancy, 0u);
    EXPECT_EQ(edge.overflow_depth, 0u);
  }
  EXPECT_EQ(edge_envelopes, xs.envelopes);
  EXPECT_EQ(edge_batches, xs.batches);
  EXPECT_GT(edge_envelopes, 0u);
  engine.Shutdown();
}

// ---- Threaded engine: continuous snapshots during live migrations -----------

TEST(TelemetryThread, ContinuousSnapshotsDuringMigrations) {
  // The TSan stress case: tiny batches + a 2-slot credit window so size
  // flushes, deadline flushes, and credit stalls interleave with live
  // migrations, while (a) a dedicated thread hammers registry snapshots,
  // edge stats, and trace reads, and (b) the sampler thread samples on its
  // own cadence. Per-task cumulative counters must be monotone across
  // snapshots, and the final snapshot must equal the quiescent harvest.
  JoinSpec spec = MakeEquiJoin(0, 0);
  auto stream = MakeStream(1500, 4500, 24, 91);
  TraceRing trace(1 << 14);
  ExchangeConfig xc;
  xc.batch_size = 5;
  xc.ring_slots = 2;
  xc.flush_deadline_us = 50;
  xc.trace = &trace;
  ThreadEngine engine(xc);
  MetricsRegistry registry;
  OperatorConfig cfg;
  cfg.spec = spec;
  cfg.machines = 4;
  cfg.adaptive = true;
  cfg.epsilon = 0.25;
  cfg.min_total_before_adapt = 16;
  cfg.registry = &registry;
  cfg.trace = &trace;
  JoinOperator op(engine, cfg);
  engine.Start();

  TelemetrySampler::Options so;
  so.period_us = 500;
  TelemetrySampler sampler(&registry, so);
  sampler.SetEdgeSource([&engine] { return engine.edge_stats(); });
  sampler.SetExchangeSource([&engine] { return engine.exchange_stats(); });
  sampler.SetTraceSource(&trace);
  sampler.Start();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};
  int non_monotonic = 0;  // snapshot-thread local until the join below
  std::thread snapshotter([&] {
    std::unordered_map<int, JoinerSnapshot> prev;
    while (!done.load(std::memory_order_acquire)) {
      for (const TaskSnapshot& task : registry.Snapshot()) {
        if (task.kind != TaskKind::kJoiner) continue;
        auto it = prev.find(task.task);
        if (it != prev.end() &&
            (task.joiner.in_tuples < it->second.in_tuples ||
             task.joiner.output_tuples < it->second.output_tuples ||
             task.joiner.migrations_finalized <
                 it->second.migrations_finalized)) {
          ++non_monotonic;
        }
        prev[task.task] = task.joiner;
      }
      (void)engine.edge_stats();
      (void)trace.Snapshot();
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (const StreamTuple& t : stream) op.Push(t);
  op.SendEos();
  engine.WaitQuiescent();
  done.store(true, std::memory_order_release);
  snapshotter.join();
  sampler.Stop();

  EXPECT_EQ(non_monotonic, 0);
  EXPECT_GE(snapshots_taken.load(), 1u);
  EXPECT_GE(sampler.samples_taken(), 2u);

  // Final snapshot == quiescent harvest (every publish epilogue ran).
  uint64_t snap_in = 0, snap_out = 0, snap_stored = 0, snap_migs = 0;
  for (const TaskSnapshot& task : registry.Snapshot()) {
    if (task.kind != TaskKind::kJoiner) continue;
    snap_in += task.joiner.in_tuples;
    snap_out += task.joiner.output_tuples;
    snap_stored += task.joiner.stored_tuples;
    snap_migs += task.joiner.migrations_finalized;
  }
  uint64_t quiet_in = 0, quiet_out = 0, quiet_stored = 0, quiet_migs = 0;
  for (size_t i = 0; i < op.num_joiner_slots(); ++i) {
    const JoinerMetrics& m = op.joiner(i).metrics();
    quiet_in += m.in_tuples;
    quiet_out += m.output_tuples;
    quiet_stored += m.stored_tuples;
    quiet_migs += m.migrations_finalized;
  }
  EXPECT_EQ(snap_in, quiet_in);
  EXPECT_EQ(snap_out, quiet_out);
  EXPECT_EQ(snap_stored, quiet_stored);
  EXPECT_EQ(snap_migs, quiet_migs);

  ASSERT_NE(op.controller(), nullptr);
  const uint64_t migrations = op.controller()->log().size();
  EXPECT_GE(migrations, 1u);
  EXPECT_GE(snap_migs, 1u);

  // The trace ring saw the migration protocol run.
  bool saw_begin = false, saw_finalize = false;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (ev.kind == TraceEventKind::kMigrationBegin) saw_begin = true;
    if (ev.kind == TraceEventKind::kMigrationFinalize) saw_finalize = true;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_finalize);
  engine.Shutdown();
}

}  // namespace
}  // namespace ajoin
