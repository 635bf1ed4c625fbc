#include "src/runtime/metrics_registry.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "src/common/stopwatch.h"

namespace ajoin {

PeriodicTicker::PeriodicTicker(uint64_t period_us,
                               std::function<void(uint64_t)> tick)
    : period_us_(period_us), tick_(std::move(tick)) {}

PeriodicTicker::~PeriodicTicker() { Stop(); }

void PeriodicTicker::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void PeriodicTicker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
  }
  cv_.notify_all();
  thread_.join();
}

bool PeriodicTicker::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void PeriodicTicker::Loop() {
  const auto period = std::chrono::microseconds(period_us_);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // ajoin-lint: timed-park — tick cadence; wakes every period even if
    // the stop notify is lost.
    if (cv_.wait_for(lock, period, [this] { return stop_; })) return;
    lock.unlock();
    tick_(SteadyNowMicros());
    lock.lock();
  }
}

StageObserver::StageObserver(const MetricsRegistry* registry,
                             std::vector<int> joiner_tasks)
    : registry_(registry),
      joiner_tasks_(joiner_tasks.begin(), joiner_tasks.end()) {}

void StageObserver::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  exchange_source_ = std::move(source);
}

void StageObserver::SetBacklogSource(std::function<uint64_t()> source) {
  backlog_source_ = std::move(source);
}

StageSample StageObserver::Sample(uint64_t t_us) {
  StageSample s;
  s.t_us = t_us;
  uint64_t in_tuples = 0;
  for (const TaskSnapshot& task : registry_->Snapshot()) {
    if (task.kind != TaskKind::kJoiner ||
        joiner_tasks_.count(task.task) == 0) {
      continue;
    }
    const JoinerSnapshot& j = task.joiner;
    in_tuples += j.in_tuples;
    if (j.migrating) s.migrating = true;
    if (j.active) {
      ++s.live_joiners;
      s.per_joiner_stored = std::max(s.per_joiner_stored, j.stored_tuples);
    }
  }
  if (backlog_source_) s.backlog = backlog_source_();
  uint64_t stall_ns = last_stall_ns_;
  if (exchange_source_) stall_ns = exchange_source_().credit_wait_ns;
  if (have_last_ && t_us > last_t_us_) {
    const double dt_s = static_cast<double>(t_us - last_t_us_) / 1e6;
    s.input_rate = static_cast<double>(in_tuples - last_in_tuples_) / dt_s;
    // Plane-wide stall time normalized by wall time; can exceed 1 when
    // several producers stall concurrently, which still reads as "severely
    // backpressured" to the policies.
    s.stall_ratio = static_cast<double>(stall_ns - last_stall_ns_) /
                    (static_cast<double>(t_us - last_t_us_) * 1e3);
  }
  last_t_us_ = t_us;
  last_in_tuples_ = in_tuples;
  last_stall_ns_ = stall_ns;
  have_last_ = true;
  return s;
}

TelemetrySampler::TelemetrySampler(const MetricsRegistry* registry,
                                   Options options)
    : registry_(registry),
      options_(options),
      ticker_(options.period_us, [this](uint64_t t_us) { SampleNow(t_us); }) {}

TelemetrySampler::TelemetrySampler(const MetricsRegistry* registry)
    : TelemetrySampler(registry, Options()) {}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::SetEdgeSource(
    std::function<std::vector<EdgeStatsSnapshot>()> source) {
  edge_source_ = std::move(source);
}

void TelemetrySampler::SetExchangeSource(
    std::function<ExchangeStatsSnapshot()> source) {
  exchange_source_ = std::move(source);
}

void TelemetrySampler::SetTraceSource(const TraceRing* trace) {
  trace_ = trace;
}

TelemetrySample TelemetrySampler::SampleNow(uint64_t t_us) {
  TelemetrySample sample;
  sample.t_us = t_us;
  sample.tasks = registry_->Snapshot();
  if (edge_source_) sample.edges = edge_source_();
  if (exchange_source_) sample.exchange = exchange_source_();
  {
    std::lock_guard<std::mutex> lock(mu_);
    series_.push_back(sample);
    taken_++;
    while (series_.size() > options_.capacity) series_.pop_front();
  }
  return sample;
}

void TelemetrySampler::Start() {
  if (ticker_.running()) return;
  SampleNow(SteadyNowMicros());  // first sample: series starts at Start
  ticker_.Start();
}

void TelemetrySampler::Stop() {
  if (!ticker_.running()) return;
  ticker_.Stop();
  SampleNow(SteadyNowMicros());  // final sample: series ends fresh
}

std::vector<TelemetrySample> TelemetrySampler::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TelemetrySample>(series_.begin(), series_.end());
}

uint64_t TelemetrySampler::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return taken_;
}

std::string TelemetrySampler::SummaryLine(const TelemetrySample& sample) {
  uint64_t in = 0, out = 0, stored = 0, migrations = 0, routed = 0;
  int migrating = 0, joiners = 0, reshufflers = 0, aggs = 0;
  for (const TaskSnapshot& task : sample.tasks) {
    if (task.kind == TaskKind::kJoiner) {
      joiners++;
      in += task.joiner.in_tuples;
      out += task.joiner.output_tuples;
      stored += task.joiner.stored_tuples;
      migrations += task.joiner.migrations_finalized;
      if (task.joiner.migrating) migrating++;
    } else if (task.kind == TaskKind::kAgg) {
      aggs++;
      in += task.agg.in_tuples;
      out += task.agg.emitted_results;
      stored += task.agg.groups;
      migrations += task.agg.migrations_finalized;
      if (task.agg.migrating) migrating++;
    } else {
      reshufflers++;
      routed += task.reshuffler.routed_tuples;
    }
  }
  uint64_t edge_waits = 0, edge_wait_ns = 0;
  uint32_t ring_peak = 0;
  for (const EdgeStatsSnapshot& edge : sample.edges) {
    edge_waits += edge.credit_waits;
    edge_wait_ns += edge.credit_wait_ns;
    if (edge.ring_peak > ring_peak) ring_peak = edge.ring_peak;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[telemetry t=%.3fs] %dJ+%dR+%dA in=%" PRIu64
                " routed=%" PRIu64 " out=%" PRIu64 " stored=%" PRIu64
                " migrations=%" PRIu64 " (%d live) stalls=%" PRIu64
                " stall_ms=%.2f ring_peak=%u",
                static_cast<double>(sample.t_us) / 1e6, joiners, reshufflers,
                aggs, in, routed, out, stored, migrations, migrating,
                edge_waits, static_cast<double>(edge_wait_ns) / 1e6,
                ring_peak);
  return std::string(buf);
}

namespace {

// Minimal JSON emission following bench_common.h's writer conventions
// (that header is bench-only, so the sampler carries its own emitter):
// string keys, %.6g doubles, no trailing commas, two-space indent top level.
void AppendKv(std::string* out, const char* key, uint64_t value, bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                *first ? "" : ", ", key, value);
  *first = false;
  out->append(buf);
}

void AppendKv(std::string* out, const char* key, double value, bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g", *first ? "" : ", ", key,
                value);
  *first = false;
  out->append(buf);
}

void AppendKv(std::string* out, const char* key, const char* value,
              bool* first) {
  out->append(*first ? "" : ", ");
  *first = false;
  out->append("\"");
  out->append(key);
  out->append("\": \"");
  out->append(value);
  out->append("\"");
}

// Narrower integers, bools and ints export as unsigned integers.
template <typename T>
void AppendKv(std::string* out, const char* key, T value, bool* first) {
  AppendKv(out, key, static_cast<uint64_t>(value), first);
}

// Appends every field of a telemetry record, keyed by its table name.
template <typename Record>
void AppendFields(std::string* out, const Record& record, bool* first) {
  Record::ForEachField(record, [out, first](const char* key, auto value) {
    AppendKv(out, key, value, first);
  });
}

void AppendTask(std::string* out, const TaskSnapshot& task) {
  bool first = true;
  out->append("{");
  AppendKv(out, "task", static_cast<uint64_t>(task.task), &first);
  AppendKv(out, "kind", TaskKindName(task.kind), &first);
  if (task.kind == TaskKind::kJoiner) {
    AppendFields(out, task.joiner, &first);
  } else if (task.kind == TaskKind::kAgg) {
    AppendFields(out, task.agg, &first);
  } else {
    AppendFields(out, task.reshuffler, &first);
  }
  out->append("}");
}

void AppendSample(std::string* out, const TelemetrySample& sample) {
  out->append("    {");
  bool first = true;
  AppendKv(out, "t_us", sample.t_us, &first);
  out->append(", \"exchange\": {");
  bool xfirst = true;
  AppendFields(out, sample.exchange, &xfirst);
  out->append("}, \"tasks\": [");
  for (size_t i = 0; i < sample.tasks.size(); ++i) {
    if (i != 0) out->append(", ");
    AppendTask(out, sample.tasks[i]);
  }
  out->append("], \"edges\": [");
  for (size_t i = 0; i < sample.edges.size(); ++i) {
    if (i != 0) out->append(", ");
    bool efirst = true;
    out->append("{");
    AppendFields(out, sample.edges[i], &efirst);
    out->append("}");
  }
  out->append("]}");
}

}  // namespace

bool TelemetrySampler::WriteJson(const std::string& path,
                                 const std::string& name) const {
  const std::vector<TelemetrySample> samples = series();
  std::string out;
  out.reserve(4096 + samples.size() * 512);
  out.append("{\n  \"telemetry\": \"");
  out.append(name);
  out.append("\",\n  \"schema_version\": 1,\n  \"meta\": {");
  bool mfirst = true;
  AppendKv(&out, "period_us", options_.period_us, &mfirst);
  AppendKv(&out, "capacity", static_cast<uint64_t>(options_.capacity),
           &mfirst);
  AppendKv(&out, "samples_taken", samples_taken(), &mfirst);
  AppendKv(&out, "samples_kept", static_cast<uint64_t>(samples.size()),
           &mfirst);
  AppendKv(&out, "tasks",
           static_cast<uint64_t>(registry_ != nullptr ? registry_->size() : 0),
           &mfirst);
  out.append("},\n  \"samples\": [\n");
  for (size_t i = 0; i < samples.size(); ++i) {
    AppendSample(&out, samples[i]);
    if (i + 1 != samples.size()) out.append(",");
    out.append("\n");
  }
  out.append("  ],\n  \"trace\": [\n");
  if (trace_ != nullptr) {
    const std::vector<TraceEvent> events = trace_->Snapshot();
    for (size_t i = 0; i < events.size(); ++i) {
      const TraceEvent& ev = events[i];
      bool first = true;
      out.append("    {");
      AppendKv(&out, "index", ev.index, &first);
      AppendKv(&out, "kind", TraceEventKindName(ev.kind), &first);
      AppendKv(&out, "task",
               static_cast<uint64_t>(static_cast<int64_t>(ev.task)), &first);
      AppendKv(&out, "t_us", ev.t_us, &first);
      AppendKv(&out, "a", ev.a, &first);
      AppendKv(&out, "b", ev.b, &first);
      out.append("}");
      if (i + 1 != events.size()) out.append(",");
      out.append("\n");
    }
  }
  out.append("  ]\n}\n");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ajoin
