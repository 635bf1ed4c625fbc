// Exchange-plane throughput: per-tuple (batch_size 1 — the reference
// configuration since the mutex Channel plane's retirement) vs. batched
// (src/exchange/) shipping, across batch sizes and thread counts. The engine
// hands whole batches to Task::OnBatch, so reshuffler routing and joiner
// store/probe run their data paths over whole batches.
//
// Three sections:
//  1. raw fan-out — an external producer round-robins envelopes over N sink
//     tasks; isolates pure exchange cost (no join work). Batched exchange
//     must move >= 3x the tuples/sec of per-tuple exchange here.
//  2. ingress scaling — the `ingress` axis: N concurrent producer threads
//     drive the same fan-out through one shared IngressPort behind a mutex
//     (`post`: every caller serializes on the shared port's lock — the
//     exact pattern of the now-retired global Engine::Post shim, emulated
//     without the deprecated API), through one IngressPort each with
//     per-envelope Post (`port`: dedicated SPSC lanes, isolates the
//     removed serialization point), or through one IngressPort each
//     posting size-targeted PostBatch runs (`port-batch`: the batch
//     ingress the old single-envelope API could not express). port-batch
//     must show a measurable gain at >= 2 producers on any host; plain
//     port-vs-post is contention-bound and reaches parity on a
//     single-core host.
//  3. 4-joiner join run — a static (n,m)-mapped equi-join on ThreadEngine.
//     End-to-end tuples/sec is reported as-is, but on a small host the run
//     is compute-bound (probe/store/index work), so the exchange comparison
//     is also reported as *exchange overhead per tuple*: wall time per tuple
//     beyond the zero-synchronization compute ceiling, which the bench
//     measures by running the identical operator + stream on the
//     deterministic SimEngine. Batched (batch >= 64) must cut that overhead
//     by >= 3x vs per-tuple exchange.
//
// Emits BENCH_exchange_throughput.json via the shared JSON writer.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/trace_ring.h"
#include "src/core/operator.h"
#include "src/query/dataflow.h"
#include "src/runtime/metrics_registry.h"
#include "src/runtime/thread_engine.h"
#include "src/sim/sim_engine.h"

using namespace ajoin;
using bench::JsonResult;
using bench::JsonRow;

namespace {

struct Mode {
  const char* name;
  uint32_t batch_size;
};

std::unique_ptr<ThreadEngine> MakeEngine(const Mode& mode) {
  ExchangeConfig config;
  config.batch_size = mode.batch_size;
  return std::make_unique<ThreadEngine>(config);
}

class SinkTask : public Task {
 public:
  void OnMessage(Envelope msg, Context& ctx) override {
    (void)ctx;
    count_ += msg.seq;  // touch the payload so nothing is optimized away
  }

 private:
  uint64_t count_ = 0;
};

/// Section 1: raw exchange fan-out, no operator logic, across batch sizes.
const Mode kRawModes[] = {
    {"batched-1", 1},
    {"batched-16", 16},
    {"batched-64", 64},
    {"batched-256", 256},
};

double RawFanout(const Mode& mode, int sinks, uint64_t envelopes) {
  std::unique_ptr<ThreadEngine> engine = MakeEngine(mode);
  for (int i = 0; i < sinks; ++i) {
    engine->AddTask(std::make_unique<SinkTask>());
  }
  engine->Start();
  std::unique_ptr<IngressPort> port = engine->OpenIngress(0);
  Stopwatch clock;
  Envelope env;
  env.type = MsgType::kInput;
  for (uint64_t i = 0; i < envelopes; ++i) {
    env.seq = i;
    port->Post(static_cast<int>(i % static_cast<uint64_t>(sinks)),
               Envelope(env));
  }
  port->Flush();
  engine->WaitQuiescent();
  double secs = clock.ElapsedSeconds();
  engine->Shutdown();
  return static_cast<double>(envelopes) / secs;
}

/// Section 2 ingress modes. The old API could only ever post one envelope
/// at a time through the global shim; the port API adds both the dedicated
/// per-producer lane and batch posting, so both are measured:
///  - kGlobalPost: every producer thread posts through ONE shared
///    IngressPort behind a mutex — the serialization pattern of the
///    retired Engine::Post shim (shared default port + global lock),
///    emulated without the deprecated API so the axis stays comparable
///    across PRs after the shim's bench call sites were migrated.
///  - kPortPost: one IngressPort per producer, per-envelope Post. Isolates
///    the serialization point alone; the win is contention-bound, so
///    expect parity on a single-core host and growth with real cores.
///  - kPortBatch: one IngressPort per producer, size-targeted PostBatch
///    runs — the ingress the old API could not express. Amortizes the port
///    lock, in-flight accounting, and edge work over the run, so it wins
///    even without parallelism.
enum class IngressMode { kGlobalPost, kPortPost, kPortBatch };

const char* IngressName(IngressMode mode) {
  switch (mode) {
    case IngressMode::kGlobalPost: return "post";
    case IngressMode::kPortPost: return "port";
    case IngressMode::kPortBatch: return "port-batch";
  }
  return "?";
}

/// Section 2: multi-producer ingress. `producers` threads split `envelopes`
/// round-robin over the sinks. Identical exchange config everywhere — the
/// only variable is how tuples enter the engine.
double IngressScaling(IngressMode mode, int producers, int sinks,
                      uint64_t envelopes) {
  ExchangeConfig config;
  config.max_ingress_ports = static_cast<uint32_t>(producers);
  ThreadEngine engine(config);
  for (int i = 0; i < sinks; ++i) {
    engine.AddTask(std::make_unique<SinkTask>());
  }
  engine.Start();
  // The `post` mode's shared serialization point: one port, one lock, all
  // producers — what the retired Engine::Post shim did internally.
  std::unique_ptr<IngressPort> shared_port;
  std::mutex shared_mu;
  if (mode == IngressMode::kGlobalPost) shared_port = engine.OpenIngress(0);
  const uint64_t per_producer = envelopes / static_cast<uint64_t>(producers);
  Stopwatch clock;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&engine, &config, &shared_port, &shared_mu, mode,
                          sinks, per_producer, p] {
      Envelope env;
      env.type = MsgType::kInput;
      const uint64_t base = static_cast<uint64_t>(p) * per_producer;
      if (mode == IngressMode::kGlobalPost) {
        for (uint64_t i = 0; i < per_producer; ++i) {
          env.seq = base + i;
          std::lock_guard<std::mutex> lock(shared_mu);
          shared_port->Post(static_cast<int>(i % static_cast<uint64_t>(sinks)),
                            Envelope(env));
        }
        return;
      }
      std::unique_ptr<IngressPort> port = engine.OpenIngress(0);
      if (mode == IngressMode::kPortPost) {
        for (uint64_t i = 0; i < per_producer; ++i) {
          env.seq = base + i;
          port->Post(static_cast<int>(i % static_cast<uint64_t>(sinks)),
                     Envelope(env));
        }
      } else {
        // Size-targeted runs per sink, matching the wire batch size.
        std::vector<TupleBatch> staged(static_cast<size_t>(sinks));
        for (uint64_t i = 0; i < per_producer; ++i) {
          env.seq = base + i;
          const size_t sink = i % static_cast<uint64_t>(sinks);
          TupleBatch& run = staged[sink];
          run.Add(Envelope(env));
          if (run.size() >= config.batch_size) {
            port->PostBatch(static_cast<int>(sink), std::move(run));
            run.Clear();
          }
        }
        for (size_t sink = 0; sink < staged.size(); ++sink) {
          if (staged[sink].empty()) continue;
          port->PostBatch(static_cast<int>(sink), std::move(staged[sink]));
        }
      }
      port->Flush();
    });
  }
  for (std::thread& t : threads) t.join();
  if (shared_port != nullptr) shared_port->Flush();
  engine.WaitQuiescent();
  double secs = clock.ElapsedSeconds();
  engine.Shutdown();
  return static_cast<double>(per_producer) *
         static_cast<double>(producers) / secs;
}

std::vector<StreamTuple> MakeJoinStream(uint64_t n, uint64_t seed) {
  // Wide key domain: almost no matches, so wall-clock is dominated by the
  // data plane (routing, shipping, storing), not result emission.
  std::vector<StreamTuple> stream;
  stream.reserve(n);
  Rng rng(seed);
  for (uint64_t i = 0; i < n; ++i) {
    StreamTuple t;
    t.rel = rng.NextBool(0.5) ? Rel::kR : Rel::kS;
    t.key = static_cast<int64_t>(rng.Uniform(1u << 30));
    t.bytes = 16;
    stream.push_back(t);
  }
  return stream;
}

struct JoinRunResult {
  double tuples_per_sec = 0;
  ExchangeStatsSnapshot stats;
  // Per-edge counters of the best rep, captured before Shutdown.
  std::vector<EdgeStatsSnapshot> edges;
};

OperatorConfig StaticJoinConfig(uint32_t machines) {
  OperatorConfig cfg;
  cfg.spec = MakeEquiJoin(0, 0);
  cfg.machines = machines;
  cfg.adaptive = false;  // static mapping: isolate the exchange layer
  cfg.initial = MidMapping(machines);
  cfg.use_initial = true;
  cfg.keep_rows = false;
  return cfg;
}

/// Section 3 modes: the per-tuple reference (batch_size 1) plus batch sizes
/// 16/64/256.
const Mode kJoinModes[] = {
    {"batched-1", 1},
    {"b16", 16},
    {"b64", 64},
    {"b256", 256},
};

/// Section 2: end-to-end static join run on the threaded engine. Best of
/// `reps` to damp scheduler noise; the 4J point carries the overhead metric
/// and gets extra reps. With `egress_sink`, every joiner streams its
/// results to one ResultSink task as kResult batches (the `sink` value of
/// the egress axis) instead of only counting locally (`poll`).
JoinRunResult JoinRun(const Mode& mode, uint32_t machines,
                      const std::vector<StreamTuple>& stream, int reps = 3,
                      bool egress_sink = false, bool telemetry = false) {
  JoinRunResult result;
  for (int rep = 0; rep < reps; ++rep) {
    // Telemetry axis state (batched modes only): registry + trace wired into
    // the operator and plane, sampler on its own thread at the default
    // period — the whole live-observability plane running during the
    // measured window.
    TraceRing trace(4096);
    MetricsRegistry registry;
    std::unique_ptr<ThreadEngine> engine;
    if (telemetry) {
      ExchangeConfig xc;
      xc.batch_size = mode.batch_size;
      xc.trace = &trace;
      engine = std::make_unique<ThreadEngine>(xc);
    } else {
      engine = MakeEngine(mode);
    }
    OperatorConfig cfg = StaticJoinConfig(machines);
    if (telemetry) {
      cfg.registry = &registry;
      cfg.trace = &trace;
    }
    JoinOperator op(*engine, cfg);
    if (egress_sink) {
      ResultSink::Options opts;
      opts.collect_pairs = false;  // count + bytes only: pure egress cost
      const int sink_task =
          engine->AddTask(std::make_unique<ResultSink>(opts));
      op.RouteResultsTo({sink_task});
    }
    engine->Start();
    TelemetrySampler sampler(&registry);
    if (telemetry) {
      ThreadEngine* raw = engine.get();
      sampler.SetEdgeSource([raw] { return raw->edge_stats(); });
      sampler.SetExchangeSource([raw] { return raw->exchange_stats(); });
      sampler.SetTraceSource(&trace);
      sampler.Start();
    }
    Stopwatch clock;
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine->WaitQuiescent();
    double secs = clock.ElapsedSeconds();
    if (telemetry) sampler.Stop();
    double rate = static_cast<double>(stream.size()) / secs;
    if (rate > result.tuples_per_sec) {
      result.tuples_per_sec = rate;
      result.stats = engine->exchange_stats();
      result.edges = engine->edge_stats();
    }
    engine->Shutdown();
  }
  return result;
}

/// Zero-synchronization compute ceiling: the identical operator + stream on
/// the deterministic single-threaded SimEngine (no threads, no channels, no
/// batching — just the join work plus a deque dispatch).
double SimCeiling(uint32_t machines, const std::vector<StreamTuple>& stream,
                  int reps = 3) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    SimEngine engine;
    JoinOperator op(engine, StaticJoinConfig(machines));
    engine.Start();
    Stopwatch clock;
    for (const StreamTuple& t : stream) op.Push(t);
    op.SendEos();
    engine.WaitQuiescent();
    best = std::max(best,
                    static_cast<double>(stream.size()) / clock.ElapsedSeconds());
  }
  return best;
}

}  // namespace

int main() {
  JsonResult out("exchange_throughput");
  out.meta()
      .Add("unit", "tuples_per_sec")
      .Add("measure", "wall_clock_best_of_n")
      .Add("reps", "5 on 4J join runs, 2 on 2J/8J, 3 on raw fan-out")
      .Add("note", "per-tuple reference = batched-1 (batch_size 1; the "
                   "mutex Channel plane is retired); bN = src/exchange "
                   "plane with batch_size N, whole batches dispatched to "
                   "Task::OnBatch; overhead_ns = per-tuple wall time beyond "
                   "the SimEngine compute ceiling; ingress post = all "
                   "producers serialized on one shared IngressPort behind a "
                   "mutex (the retired Engine::Post shim's pattern, now "
                   "emulated without the deprecated API), port = one "
                   "IngressPort (dedicated SPSC lanes) per producer posting "
                   "per envelope, port-batch = one IngressPort per producer "
                   "shipping size-targeted PostBatch runs; egress poll = results "
                   "counted locally and read at quiescence, sink = joiners "
                   "stream kResult batches to a ResultSink task (the "
                   "join_4j_egress section runs a match-producing stream, "
                   "~1 result/tuple)");

  // ---- Section 1: pure exchange -------------------------------------------
  bench::PrintHeader("Exchange throughput 1/3: raw fan-out, 4 sinks");
  const uint64_t kRawEnvelopes = 200000;
  double raw_per_tuple = 0, raw_best_batched = 0;
  std::printf("%-12s %14s\n", "mode", "envelopes/s");
  for (const Mode& mode : kRawModes) {
    double rate = 0;
    for (int rep = 0; rep < 3; ++rep) {
      rate = std::max(rate, RawFanout(mode, /*sinks=*/4, kRawEnvelopes));
    }
    if (mode.batch_size == 1) raw_per_tuple = rate;
    if (mode.batch_size >= 64) {
      raw_best_batched = std::max(raw_best_batched, rate);
    }
    std::printf("%-12s %14.0f\n", mode.name, rate);
    out.AddRow()
        .Add("section", "raw_fanout")
        .Add("mode", mode.name)
        .Add("batch_size", static_cast<int>(mode.batch_size))
        .Add("threads", 4)
        .Add("envelopes", kRawEnvelopes)
        .Add("tuples_per_sec", rate);
  }

  // ---- Section 2: multi-producer ingress ----------------------------------
  bench::PrintHeader(
      "Exchange throughput 2/3: ingress scaling, 4 sinks "
      "(ingress=post|port|port-batch)");
  const uint64_t kIngressEnvelopes = 200000;
  const int kProducerCounts[] = {1, 2, 4};
  const IngressMode kIngressModes[] = {IngressMode::kGlobalPost,
                                       IngressMode::kPortPost,
                                       IngressMode::kPortBatch};
  double ingress_speedup_2p = 0, ingress_speedup_4p = 0;
  double port_vs_post_2p = 0, port_vs_post_4p = 0;
  std::printf("%-10s %14s %14s %14s %11s %10s\n", "producers", "post (env/s)",
              "port (env/s)", "pbatch (env/s)", "pbatch/post", "port/post");
  for (int producers : kProducerCounts) {
    double rate[3] = {0, 0, 0};
    for (int rep = 0; rep < 3; ++rep) {
      for (int m = 0; m < 3; ++m) {
        rate[m] = std::max(rate[m], IngressScaling(kIngressModes[m], producers,
                                                   /*sinks=*/4,
                                                   kIngressEnvelopes));
      }
    }
    const double batch_speedup = rate[0] > 0 ? rate[2] / rate[0] : 0;
    const double port_speedup = rate[0] > 0 ? rate[1] / rate[0] : 0;
    if (producers == 2) {
      ingress_speedup_2p = batch_speedup;
      port_vs_post_2p = port_speedup;
    }
    if (producers == 4) {
      ingress_speedup_4p = batch_speedup;
      port_vs_post_4p = port_speedup;
    }
    std::printf("%-10d %14.0f %14.0f %14.0f %10.2fx %9.2fx\n", producers,
                rate[0], rate[1], rate[2], batch_speedup, port_speedup);
    for (int m = 0; m < 3; ++m) {
      out.AddRow()
          .Add("section", "ingress_scaling")
          .Add("ingress", IngressName(kIngressModes[m]))
          .Add("producers", producers)
          .Add("threads", 4)
          .Add("envelopes", kIngressEnvelopes)
          .Add("tuples_per_sec", rate[m]);
    }
  }

  // ---- Section 3: 4-joiner join run ---------------------------------------
  bench::PrintHeader(
      "Exchange throughput 3/3: static equi-join run (tuples/s)");
  const uint64_t kJoinTuples = 240000;
  auto stream = MakeJoinStream(kJoinTuples, 4242);
  const uint32_t kMachineCounts[] = {2, 4, 8};

  // Warm-up, discarded: the first runs in the process pay allocator and
  // cache warm-up, and the ceiling is measured first — without this it
  // under-reads and later (warm) threaded runs "beat" it, clamping the
  // overhead metric to zero.
  (void)SimCeiling(4, stream, /*reps=*/1);
  (void)JoinRun(kJoinModes[0], 4, stream, /*reps=*/1);
  const double ceiling_4j = SimCeiling(4, stream, /*reps=*/5);
  const double ceiling_ns = 1e9 / ceiling_4j;
  std::printf("compute ceiling (SimEngine, 4J): %.0f tuples/s "
              "(%.0f ns/tuple)\n\n", ceiling_4j, ceiling_ns);
  out.AddRow()
      .Add("section", "join_4j_static")
      .Add("mode", "sim-ceiling")
      .Add("machines", 4)
      .Add("tuples", kJoinTuples)
      .Add("tuples_per_sec", ceiling_4j);

  std::printf("%-12s", "mode");
  for (uint32_t m : kMachineCounts) std::printf(" %9uJ", m);
  std::printf("   xchg overhead ns/tuple (4J)\n");
  double batched1_4j = 0;
  double best_batched_4j = 0;
  // Best (lowest) 4J overhead across batch sizes >= 64 (for the
  // vs-per-tuple metric).
  double overhead_batch_ns = -1;
  for (const Mode& mode : kJoinModes) {
    std::printf("%-12s", mode.name);
    double overhead_4j = 0;
    for (uint32_t machines : kMachineCounts) {
      JoinRunResult r = JoinRun(mode, machines, stream,
                                /*reps=*/machines == 4 ? 5 : 2);
      std::printf(" %10.0f", r.tuples_per_sec);
      // Clamped at 0: on multi-core hosts the parallel run can beat the
      // single-threaded sim ceiling, i.e. no measurable exchange overhead.
      double overhead_ns =
          machines == 4
              ? std::max(0.0, 1e9 / r.tuples_per_sec - ceiling_ns)
              : 0;
      if (machines == 4) {
        overhead_4j = overhead_ns;
        if (mode.batch_size == 1) batched1_4j = r.tuples_per_sec;
        if (mode.batch_size >= 64) {
          best_batched_4j = std::max(best_batched_4j, r.tuples_per_sec);
          if (overhead_batch_ns < 0 || overhead_ns < overhead_batch_ns) {
            overhead_batch_ns = overhead_ns;
          }
        }
      }
      JsonRow& row = out.AddRow();
      row.Add("section", "join_4j_static")
          .Add("mode", mode.name)
          .Add("index", "flat")
          .Add("batch_size", static_cast<int>(mode.batch_size))
          .Add("machines", static_cast<int>(machines))
          .Add("tuples", kJoinTuples)
          .Add("tuples_per_sec", r.tuples_per_sec)
          .Add("avg_batch_fill", r.stats.avg_batch_fill)
          .Add("credit_waits", r.stats.credit_waits)
          .Add("overflow_batches", r.stats.overflow_batches);
      if (machines == 4) row.Add("exchange_overhead_ns", overhead_ns);
    }
    std::printf("   %.0f\n", overhead_4j);
  }

  // Egress axis at the 4J operating point, on a *match-producing* stream
  // (the main 4J stream is nearly match-free, so it cannot price result
  // shipping): poll = results stay local (counted per joiner, read at
  // quiescence — the pre-egress consumption model), sink = every joiner
  // streams kResult batches to one ResultSink task while the stream runs.
  // The delta prices first-class streaming egress at ~1 result per input
  // tuple.
  auto egress_stream = MakeJoinStream(kJoinTuples, 777);
  for (StreamTuple& t : egress_stream) {
    t.key &= (1 << 16) - 1;  // ~one expected match per probe at 240k tuples
  }
  std::printf("\n%-12s %10s %10s %8s   (egress axis, 4J, matchy stream)\n",
              "mode", "poll t/s", "sink t/s", "ratio");
  double egress_ratio_b64 = 0;
  const char* kEgressModes[] = {"batched-1", "b64", "b256"};
  for (const char* mode_name : kEgressModes) {
    const Mode* found = nullptr;
    for (const Mode& m : kJoinModes) {
      if (std::string(m.name) == mode_name) found = &m;
    }
    // A silently skipped mode would write egress_sink_vs_poll_b64_batch as
    // 0 — reading as a catastrophic regression instead of a bench bug.
    AJOIN_CHECK_MSG(found != nullptr,
                    "egress axis references a mode missing from kJoinModes");
    const Mode& mode = *found;
    JoinRunResult poll = JoinRun(mode, 4, egress_stream, /*reps=*/3,
                                 /*egress_sink=*/false);
    JoinRunResult sink = JoinRun(mode, 4, egress_stream, /*reps=*/3,
                                 /*egress_sink=*/true);
    const double ratio = poll.tuples_per_sec > 0
                             ? sink.tuples_per_sec / poll.tuples_per_sec
                             : 0;
    if (std::string(mode_name) == "b64") egress_ratio_b64 = ratio;
    std::printf("%-12s %10.0f %10.0f %7.2fx\n", mode.name,
                poll.tuples_per_sec, sink.tuples_per_sec, ratio);
    for (int e = 0; e < 2; ++e) {
      const JoinRunResult& r = e == 0 ? poll : sink;
      out.AddRow()
          .Add("section", "join_4j_egress")
          .Add("mode", mode.name)
          .Add("egress", e == 0 ? "poll" : "sink")
          .Add("batch_size", static_cast<int>(mode.batch_size))
          .Add("machines", 4)
          .Add("tuples", kJoinTuples)
          .Add("tuples_per_sec", r.tuples_per_sec)
          .Add("avg_batch_fill", r.stats.avg_batch_fill)
          .Add("credit_waits", r.stats.credit_waits)
          .Add("overflow_batches", r.stats.overflow_batches);
    }
  }

  // Telemetry axis at the 4J operating point: the b64 run with the
  // full observability plane live (per-task registry publishing, per-edge
  // counters, trace ring, sampler thread at the default 10 ms period) vs.
  // telemetry off, measured back-to-back so host drift cancels. Counter
  // bumps are plain stores and snapshots are seqlock reads, so the on/off
  // ratio must stay within 2%.
  const Mode* b64_batch = nullptr;
  for (const Mode& m : kJoinModes) {
    if (std::string(m.name) == "b64") b64_batch = &m;
  }
  AJOIN_CHECK_MSG(b64_batch != nullptr, "b64 missing from kJoinModes");
  JoinRunResult tel_off = JoinRun(*b64_batch, 4, stream, /*reps=*/5);
  JoinRunResult tel_on = JoinRun(*b64_batch, 4, stream, /*reps=*/5,
                                 /*egress_sink=*/false, /*telemetry=*/true);
  const double telemetry_ratio =
      tel_off.tuples_per_sec > 0
          ? tel_on.tuples_per_sec / tel_off.tuples_per_sec
          : 0;
  std::printf("\n%-14s %12s   (telemetry axis, b64, 4J)\n", "telemetry",
              "tuples/s");
  std::printf("%-14s %12.0f\n%-14s %12.0f   ratio %.3fx (>= 0.98 required)\n",
              "off", tel_off.tuples_per_sec, "on", tel_on.tuples_per_sec,
              telemetry_ratio);
  for (int e = 0; e < 2; ++e) {
    const JoinRunResult& r = e == 0 ? tel_off : tel_on;
    out.AddRow()
        .Add("section", "join_4j_telemetry")
        .Add("mode", b64_batch->name)
        .Add("telemetry", e == 0 ? "off" : "on")
        .Add("machines", 4)
        .Add("tuples", kJoinTuples)
        .Add("tuples_per_sec", r.tuples_per_sec)
        .Add("credit_waits", r.stats.credit_waits)
        .Add("credit_wait_ns", r.stats.credit_wait_ns)
        .Add("overflow_batches", r.stats.overflow_batches);
  }
  // Per-edge backpressure rows + aggregates from the telemetry run: one row
  // per active edge so the JSON shows where stalls and occupancy landed.
  uint64_t edge_credit_waits = 0, edge_credit_wait_ns = 0;
  uint64_t edge_overflow = 0, active_edges = 0;
  uint32_t edge_ring_peak = 0;
  for (const EdgeStatsSnapshot& edge : tel_on.edges) {
    if (edge.batches == 0) continue;
    ++active_edges;
    edge_credit_waits += edge.credit_waits;
    edge_credit_wait_ns += edge.credit_wait_ns;
    edge_overflow += edge.overflow_batches;
    edge_ring_peak = std::max(edge_ring_peak, edge.ring_peak);
    out.AddRow()
        .Add("section", "join_4j_edges")
        .Add("producer", edge.producer)
        .Add("consumer", edge.consumer)
        .Add("batches", edge.batches)
        .Add("envelopes", edge.envelopes)
        .Add("credit_waits", edge.credit_waits)
        .Add("credit_wait_ns", edge.credit_wait_ns)
        .Add("overflow_batches", edge.overflow_batches)
        .Add("ring_peak", static_cast<uint64_t>(edge.ring_peak))
        .Add("ring_capacity", static_cast<uint64_t>(edge.ring_capacity));
  }
  std::printf("per-edge (telemetry run): %llu active edges, credit_waits "
              "%llu, stall %.2f ms, overflow %llu, max ring_peak %u\n",
              static_cast<unsigned long long>(active_edges),
              static_cast<unsigned long long>(edge_credit_waits),
              static_cast<double>(edge_credit_wait_ns) / 1e6,
              static_cast<unsigned long long>(edge_overflow), edge_ring_peak);

  // ---- Acceptance summary -------------------------------------------------
  // "Per-tuple exchange" is every-envelope-ships-alone: the batched plane
  // at batch_size 1 (the reference configuration since the mutex Channel
  // plane's retirement).
  const double per_tuple_best = batched1_4j;
  const double raw_speedup =
      raw_per_tuple > 0 ? raw_best_batched / raw_per_tuple : 0;
  const double e2e_speedup =
      batched1_4j > 0 ? best_batched_4j / batched1_4j : 0;
  // Every overhead is floored at 1 ns before entering a ratio: a run that
  // beats the single-threaded sim ceiling has no measurable overhead, and
  // the symmetric floor keeps that from manufacturing either a huge
  // artifact ratio or a false-failing 0x.
  const double overhead_per_tuple_ns =
      std::max(1.0, 1e9 / per_tuple_best - ceiling_ns);
  const double overhead_batched_ns = std::max(1.0, overhead_batch_ns);
  const double overhead_ratio = overhead_per_tuple_ns / overhead_batched_ns;
  std::printf(
      "\nacceptance (batched, batch >= 64, vs per-tuple exchange):\n"
      "  raw 4-sink fan-out:          %.2fx tuples/sec (>= 3x required)\n"
      "  4-joiner run, end-to-end:    %.2fx tuples/sec vs batch=1 "
      "(compute-bound on this host:\n"
      "                               ceiling %.2fx of per-tuple rate "
      "caps any exchange speedup)\n"
      "  4-joiner exchange overhead:  %.1fx reduction "
      "(%.0f -> %.0f ns/tuple, >= 3x required)\n"
      "  ingress axis (4 sinks):      port-batch vs global-mutex post, "
      "%.2fx at 2 producers,\n"
      "                               %.2fx at 4 producers (>= 1.2x at >= 2 "
      "required);\n"
      "                               per-envelope port vs post %.2fx / "
      "%.2fx (contention-bound:\n"
      "                               parity expected on a single-core "
      "host)\n",
      raw_speedup, e2e_speedup, ceiling_4j / per_tuple_best,
      overhead_ratio, overhead_per_tuple_ns, overhead_batched_ns,
      ingress_speedup_2p, ingress_speedup_4p, port_vs_post_2p,
      port_vs_post_4p);
  out.meta()
      .Add("raw_speedup_batched_vs_per_tuple", raw_speedup)
      .Add("join4j_e2e_speedup_batched_vs_batch1", e2e_speedup)
      .Add("join4j_overhead_reduction_batched_vs_per_tuple", overhead_ratio)
      .Add("ingress_speedup_portbatch_vs_post_2producers", ingress_speedup_2p)
      .Add("ingress_speedup_portbatch_vs_post_4producers", ingress_speedup_4p)
      .Add("ingress_speedup_port_vs_post_2producers", port_vs_post_2p)
      .Add("ingress_speedup_port_vs_post_4producers", port_vs_post_4p)
      .Add("egress_sink_vs_poll_b64_batch", egress_ratio_b64)
      .Add("join4j_telemetry_overhead_ratio", telemetry_ratio)
      .Add("join4j_edge_credit_waits", edge_credit_waits)
      .Add("join4j_edge_credit_wait_ns", edge_credit_wait_ns)
      .Add("join4j_edge_overflow_batches", edge_overflow)
      .Add("join4j_edge_ring_peak", static_cast<uint64_t>(edge_ring_peak))
      .Add("join4j_active_edges", active_edges);
  out.Write();
  return 0;
}
