// The live telemetry plane (paper §4: the controller only works because it
// can *observe* the operator). Four pieces:
//
//  * SeqlockCell / TaskTelemetry — a per-task snapshot cell. The owning task
//    keeps bumping its plain counters (no atomics on the hot path), which
//    are its snapshot record itself (JoinerMetrics, ReshufflerMetrics), and
//    periodically *publishes* the record into the cell; any thread can then
//    read a consistent, torn-read-free copy mid-stream. No lock anywhere,
//    no quiescent drain.
//  * MetricsRegistry — the directory of every task's cell. Operators
//    register their tasks at construction; snapshotting walks the directory
//    and reads each cell.
//  * TelemetrySampler — samples the registry (plus optional exchange-plane
//    edge stats and a trace ring) at a fixed period into a ring-buffered
//    time series, on its own thread under the threaded engine or via
//    explicit SampleNow calls from the sim driver's drain intervals.
//    Exports one-line human summaries and stable-schema JSON
//    (schema_version 1, validated by tools/validate_telemetry.py). The
//    records and their JSON keys come from src/common/telemetry_fields.h.
//  * PeriodicTicker / StageObserver — the one periodic thread (shared by
//    the sampler and both stage controllers) and the one stage-sample
//    builder (shared by the autoscale and shed controllers).
//
// Seqlock protocol (TSan-clean): the payload is an array of atomic words so
// the sanitizer sees every access; the relaxed/fence dance below gives the
// same guarantees as the classic seqlock. Writer: seq -> odd (relaxed) ·
// release fence · relaxed payload stores · seq -> even (release). Reader:
// seq (acquire), retry if odd · relaxed payload loads · acquire fence ·
// seq (relaxed), retry if changed.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "src/check/sched.h"
#include "src/common/telemetry_fields.h"
#include "src/common/trace_ring.h"
#include "src/exchange/exchange.h"
#include "src/runtime/metrics.h"

namespace ajoin {

/// A single-writer, many-reader snapshot cell of N uint64 words.
template <size_t N>
class SeqlockCell {
 public:
  /// Publishes a new payload. Single writer (the owning task's thread);
  /// wait-free, two seq stores plus N relaxed word stores.
  void Publish(const uint64_t (&words)[N]) {
    const uint64_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    mc::Fence(AJOIN_MC_ORDER(kSeqlockPublishRelaxedFence,
                             std::memory_order_release));
    for (size_t i = 0; i < N; ++i) {
      words_[i].store(words[i], std::memory_order_relaxed);
    }
    seq_.store(s + 2, std::memory_order_release);
  }

  /// Reads a consistent payload, retrying while the writer is mid-publish.
  /// Callable from any thread; lock-free (bounded only by writer progress).
  void Read(uint64_t (&out)[N]) const {
    for (;;) {
      const uint64_t s1 = seq_.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) continue;  // writer in flight
      for (size_t i = 0; i < N; ++i) {
        out[i] = words_[i].load(std::memory_order_relaxed);
      }
      mc::Fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s1) return;
    }
  }

 private:
  mc::Atomic<uint64_t> seq_{0};
  mc::Atomic<uint64_t> words_[N] = {};
};

/// What kind of task a registry entry describes. Agg routers reuse the
/// reshuffler counter set (they are routing tasks); agg workers get their
/// own accumulator-table layout.
enum class TaskKind { kJoiner, kReshuffler, kAgg };

/// Human-readable name of a task kind ("joiner" / "reshuffler" / "agg").
inline const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kJoiner: return "joiner";
    case TaskKind::kReshuffler: return "reshuffler";
    case TaskKind::kAgg: return "agg";
  }
  return "?";
}

/// One task's entry in a registry snapshot. Exactly one of joiner /
/// reshuffler is meaningful, selected by `kind`.
struct TaskSnapshot {
  int task = -1;
  TaskKind kind = TaskKind::kJoiner;
  JoinerSnapshot joiner;
  ReshufflerSnapshot reshuffler;
  AggSnapshot agg;
};

/// Per-task snapshot cell. The owning task publishes after processing a
/// message/batch; any thread reads via the registry.
class TaskTelemetry {
 public:
  /// Payload width in words; every snapshot record must fit.
  static constexpr size_t kWords = 20;

  /// Publishes any snapshot record (JoinerSnapshot, ReshufflerSnapshot,
  /// AggSnapshot) by copying its bytes through the seqlock cell. Call from
  /// the owning task's thread only (or before that thread starts).
  template <typename S>
  void Publish(const S& snapshot) {
    static_assert(std::is_trivially_copyable<S>::value,
                  "telemetry snapshots are copied as bytes");
    static_assert(sizeof(S) <= sizeof(uint64_t) * kWords,
                  "snapshot does not fit the telemetry cell");
    uint64_t w[kWords] = {};
    std::memcpy(w, &snapshot, sizeof(S));
    cell_.Publish(w);
  }

  /// Reads the cell as snapshot record S (meaningful only for the record
  /// the task publishes). Callable from any thread.
  template <typename S>
  S Read() const {
    uint64_t w[kWords];
    cell_.Read(w);
    S snapshot;
    std::memcpy(&snapshot, w, sizeof(S));
    return snapshot;
  }

 private:
  SeqlockCell<kWords> cell_;
};

/// Directory of every task's telemetry cell. Operators register their tasks
/// while being built; Snapshot() walks the directory from any thread.
class MetricsRegistry {
 public:
  /// Registers a task and returns its cell (stable address for the
  /// registry's lifetime; the task keeps the pointer and publishes into it).
  /// Thread-safe; typically called from operator constructors.
  TaskTelemetry* Register(int task_id, TaskKind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.emplace_back(task_id, kind);
    TaskTelemetry* cell = &slots_.back().cell;
    // Seed the kind's default snapshot, so a cell read before its task's
    // first publish shows the record's defaults (e.g. an exact shed rate).
    if (kind == TaskKind::kJoiner) {
      cell->Publish(JoinerSnapshot());
    } else if (kind == TaskKind::kAgg) {
      cell->Publish(AggSnapshot());
    } else {
      cell->Publish(ReshufflerSnapshot());
    }
    return cell;
  }

  /// Reads every registered task's cell into a consistent-per-task snapshot
  /// (cells are read independently; cross-task skew is one publish period).
  /// Callable from any thread while tasks keep publishing.
  std::vector<TaskSnapshot> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TaskSnapshot> out;
    out.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      TaskSnapshot snap;
      snap.task = slot.task;
      snap.kind = slot.kind;
      if (slot.kind == TaskKind::kJoiner) {
        snap.joiner = slot.cell.Read<JoinerSnapshot>();
      } else if (slot.kind == TaskKind::kAgg) {
        snap.agg = slot.cell.Read<AggSnapshot>();
      } else {
        snap.reshuffler = slot.cell.Read<ReshufflerSnapshot>();
      }
      out.push_back(snap);
    }
    return out;
  }

  /// Number of registered tasks.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

 private:
  struct Slot {
    Slot(int task_in, TaskKind kind_in) : task(task_in), kind(kind_in) {}
    int task;
    TaskKind kind;
    TaskTelemetry cell;  // atomics: slots are neither copied nor moved
  };

  mutable std::mutex mu_;         // guards the deque structure, not the cells
  std::deque<Slot> slots_;        // deque: stable cell addresses on growth
};

/// The one periodic thread of the telemetry plane: runs `tick` every
/// period, stamped with SteadyNowMicros() (the threaded engine's and the
/// trace ring's clock). TelemetrySampler, AutoscaleController and
/// ShedController all run on it.
class PeriodicTicker {
 public:
  /// `tick` runs on the ticker thread, once per `period_us`, with the
  /// steady-clock time of the tick; the first tick comes one period after
  /// Start().
  PeriodicTicker(uint64_t period_us, std::function<void(uint64_t)> tick);
  ~PeriodicTicker();

  PeriodicTicker(const PeriodicTicker&) = delete;
  PeriodicTicker& operator=(const PeriodicTicker&) = delete;

  /// Starts the thread. No-op if already running.
  void Start();

  /// Stops and joins the thread; an in-flight tick finishes first. No-op if
  /// not running.
  void Stop();

  /// True between Start() and Stop().
  bool running() const;

 private:
  void Loop();

  const uint64_t period_us_;
  const std::function<void(uint64_t)> tick_;
  mutable std::mutex mu_;  // guards stop_ / running_
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;  // after everything Loop() uses
};

/// One sampler observation: registry snapshot + optional exchange rollups.
struct TelemetrySample {
  uint64_t t_us = 0;
  std::vector<TaskSnapshot> tasks;
  std::vector<EdgeStatsSnapshot> edges;  // empty when no edge source is set
  ExchangeStatsSnapshot exchange;        // zeroed without an exchange source
};

/// Periodic sampler with ring-buffered time series and structured export.
class TelemetrySampler {
 public:
  struct Options {
    /// Sampling period for the Start()ed background thread.
    uint64_t period_us = 10000;
    /// Ring-buffer capacity in samples; older samples are dropped.
    size_t capacity = 1024;
  };

  /// The sampler observes `registry` (not owned; must outlive the sampler).
  TelemetrySampler(const MetricsRegistry* registry, Options options);
  /// Default options (10 ms period, 1024-sample ring).
  explicit TelemetrySampler(const MetricsRegistry* registry);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Adds per-edge exchange stats to every sample (e.g. bind
  /// ThreadEngine::edge_stats). Set before sampling starts.
  void SetEdgeSource(std::function<std::vector<EdgeStatsSnapshot>()> source);

  /// Adds plane-wide exchange stats to every sample (e.g. bind
  /// ThreadEngine::exchange_stats). Set before sampling starts.
  void SetExchangeSource(std::function<ExchangeStatsSnapshot()> source);

  /// Attaches a trace ring whose events WriteJson dumps alongside the time
  /// series. Set before sampling starts; not owned.
  void SetTraceSource(const TraceRing* trace);

  /// Takes one sample stamped `t_us`, appends it to the series, and returns
  /// it. This is the sim-engine path (the driver calls it at drain
  /// intervals with logical time) and also what the background thread runs.
  TelemetrySample SampleNow(uint64_t t_us);

  /// Takes a first sample and starts the background sampling thread
  /// (threaded engine). No-op if already running.
  void Start();

  /// Stops the background thread, then takes one final sample, so the
  /// series always ends with a fresh observation. No-op if not running.
  void Stop();

  /// Copy of the ring-buffered series, oldest first.
  std::vector<TelemetrySample> series() const;

  /// Total samples ever taken (including ones the ring has dropped).
  uint64_t samples_taken() const;

  /// One-line human summary of a sample (tasks rolled up, stall totals).
  static std::string SummaryLine(const TelemetrySample& sample);

  /// Writes the series (and trace events, if a trace source is attached) as
  /// stable-schema JSON: {"telemetry": name, "schema_version": 1, "meta":
  /// {...}, "samples": [...], "trace": [...]}. Returns false on I/O error.
  bool WriteJson(const std::string& path, const std::string& name) const;

 private:
  const MetricsRegistry* registry_;
  const Options options_;
  std::function<std::vector<EdgeStatsSnapshot>()> edge_source_;
  std::function<ExchangeStatsSnapshot()> exchange_source_;
  const TraceRing* trace_ = nullptr;

  mutable std::mutex mu_;              // guards series_ and taken_
  std::deque<TelemetrySample> series_;
  uint64_t taken_ = 0;

  PeriodicTicker ticker_;  // last member: stopped before the rest goes
};

/// One observation of a join stage, as the autoscale and shed policies see
/// it.
struct StageSample {
  uint64_t t_us = 0;
  /// Joiners currently inside the live grid (telemetry `active` flag).
  uint32_t live_joiners = 0;
  /// Any joiner mid-migration (the autoscale policy never acts while true).
  bool migrating = false;
  /// Fraction of the tick the exchange plane spent credit-stalled.
  double stall_ratio = 0;
  /// Input tuples/sec over the tick (joiner in_tuples delta).
  double input_rate = 0;
  /// Max stored tuples on any live joiner (memory-pressure signal for
  /// logging; the built-in triggers use stall/rate).
  uint64_t per_joiner_stored = 0;
  /// Instantaneous ingress backlog gauge (envelopes posted, not consumed).
  uint64_t backlog = 0;
};

/// Turns registry snapshots into StageSamples for one join stage: filters
/// the registry to the stage's joiner tasks and differences the cumulative
/// counters between consecutive samples. Not thread-safe: one caller (the
/// owning controller's tick) at a time.
class StageObserver {
 public:
  /// Watches `registry` cells whose task ids are in `joiner_tasks`. The
  /// registry is not owned and must outlive the observer.
  StageObserver(const MetricsRegistry* registry, std::vector<int> joiner_tasks);

  /// Adds plane-wide exchange stats so samples carry a stall ratio (e.g.
  /// bind ThreadEngine::exchange_stats). Set before sampling.
  void SetExchangeSource(std::function<ExchangeStatsSnapshot()> source);

  /// Adds an instantaneous ingress-backlog gauge to every sample. Set
  /// before sampling.
  void SetBacklogSource(std::function<uint64_t()> source);

  /// Builds the sample for time `t_us`. Rates and the stall ratio are deltas
  /// since the previous call (zero on the first call or when time has not
  /// advanced).
  StageSample Sample(uint64_t t_us);

 private:
  const MetricsRegistry* registry_;
  std::unordered_set<int> joiner_tasks_;
  std::function<ExchangeStatsSnapshot()> exchange_source_;
  std::function<uint64_t()> backlog_source_;
  uint64_t last_t_us_ = 0;
  uint64_t last_in_tuples_ = 0;
  uint64_t last_stall_ns_ = 0;
  bool have_last_ = false;
};

}  // namespace ajoin
