// perfbench: wall-clock benchmark of the adaptive join operators on
// ThreadEngine.
//
//   perfbench --workload <skew_equi|fluct_open|tpch_cascade> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--corrupt-reference]
//
// Set-up generates every input tuple from the seed and computes the
// reference (several times; the median CPU time is setup_s). One untimed
// warm-up trial follows, then trials on a fresh engine each until
// --seconds have passed; each metric is the median over trials. --trace 1
// alternates untraced and traced trials (at most five traced), runs the
// layer replays, writes the spans to <out-dir>/spans-<workload>.tsv, and
// reports the per-layer metrics instead of the end-to-end ones. Every
// trial's sink output is checked against the reference; any mismatch makes
// the exit code 1. --corrupt-reference adds one phantom result to the
// reference, to prove the check fails loudly.
//
// A human-readable summary goes to stderr; the last stdout line is the
// JSON result {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "live.h"
#include "replay.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// One reported metric.
struct Metric {
  std::string unit;
  double value = 0;
};

/// Ordered (name -> metric) list as printed.
using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Per-trial values keyed by metric name; the report takes medians.
using TrialValues = std::map<std::string, double>;

constexpr int kSetups = 5;
constexpr size_t kMinTrials = 3;
// Traced trials per run: enough for per-layer medians while the span file
// stays in the tens of megabytes.
constexpr size_t kMaxTracedTrials = 5;

double PerInput(double total, const TrialStats& t) {
  return t.inputs == 0 ? 0 : total / static_cast<double>(t.inputs);
}

TrialValues TrialMetrics(TrialStats& t) {
  TrialValues v;
  v["tput_tps"] = t.wall_s > 0 ? static_cast<double>(t.inputs) / t.wall_s : 0;
  v["cpu_ns_per_tuple"] = PerInput(t.cpu_s * 1e9, t);
  const Percentiles lat = Summarize(&t.lat_us);
  v["lat_p50_us"] = lat.p50;
  v["lat_p99_us"] = lat.p99;
  v["lat.p999_us"] = lat.p999;
  v["lat.samples"] = static_cast<double>(lat.count);
  const Percentiles op = Summarize(&t.op_lat_us);
  v["lat.operator_p50_us"] = op.p50;
  v["lat.operator_p99_us"] = op.p99;
  v["ingress.wait_p99_us"] = Summarize(&t.wait_us).p99;
  v["ingress.push_ns"] = t.push_ns;
  v["ingress.gen_lag_max_ms"] = t.gen_lag_max_ms;
  const ajoin::ExchangeStatsSnapshot& x = t.exchange;
  v["exchange.avg_fill"] = x.avg_batch_fill;
  v["exchange.deadline_flushes"] = static_cast<double>(x.deadline_flushes);
  v["exchange.credit_waits"] = static_cast<double>(x.credit_waits);
  v["exchange.credit_wait_ms"] = static_cast<double>(x.credit_wait_ns) / 1e6;
  v["exchange.overflow_batches"] = static_cast<double>(x.overflow_batches);
  v["exchange.ring_peak"] = t.ring_peak;
  v["exchange.envelopes_per_tuple"] =
      PerInput(static_cast<double>(x.envelopes), t);
  v["joiner.cand_per_result"] =
      t.output_tuples == 0 ? 0
                           : static_cast<double>(t.probe_candidates) /
                                 static_cast<double>(t.output_tuples);
  v["joiner.max_in_mb"] = static_cast<double>(t.max_in_bytes) / 1048576.0;
  v["joiner.ilf_ratio"] = t.optimal_ilf_bytes > 0
                              ? static_cast<double>(t.max_in_bytes) /
                                    t.optimal_ilf_bytes
                              : 0;
  v["joiner.stored_mb"] = static_cast<double>(t.stored_bytes) / 1048576.0;
  v["controller.migrations"] = static_cast<double>(t.migrations);
  v["migration.mb"] = static_cast<double>(t.mig_out_bytes) / 1048576.0;
  v["migration.discarded_tuples"] = static_cast<double>(t.discarded_tuples);
  v["migration.window_ms"] = t.mig_window_ms;
  v["agg.groups"] = static_cast<double>(t.agg_groups);
  v["agg.cell_migrations"] = static_cast<double>(t.agg_cell_migrations);
  v["egress.results_per_batch"] =
      t.result_batches == 0 ? 0
                            : static_cast<double>(t.results) /
                                  static_cast<double>(t.result_batches);
  v["egress.result_batches"] = static_cast<double>(t.result_batches);
  v["runtime.tasks"] = static_cast<double>(t.tasks);
  v["runtime.drain_ms"] = t.drain_ms;
  return v;
}

double MedianOf(const std::vector<TrialValues>& trials,
                const std::string& name) {
  std::vector<double> values;
  for (const TrialValues& t : trials) {
    auto it = t.find(name);
    if (it != t.end()) values.push_back(it->second);
  }
  return Median(std::move(values));
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second.value)
                         ? metrics[i].second.value
                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(), v,
                metrics[i].second.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void CorruptReference(Inputs* in) {
  if (!in->agg_ref.empty()) {
    in->agg_ref.front().acc.tuples += 1;
  } else {
    for (uint64_t& k : in->join_ref.per_key) {
      if (k > 0) {
        ++k;
        break;
      }
    }
    ++in->join_ref.total;
  }
  ++in->expected_results;
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!SpecFor(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  // Set-up: input generation plus reference, before any engine starts. It
  // is single-threaded, so its CPU time is its run time without the wall
  // clock's noise from other tenants of the host.
  std::vector<double> setup_s;
  Inputs inputs;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = ProcessCpuSeconds();
    Inputs fresh = MakeInputs(spec, args.seed);
    setup_s.push_back(ProcessCpuSeconds() - t0);
    inputs = std::move(fresh);
  }
  if (args.corrupt) CorruptReference(&inputs);
  std::fprintf(stderr,
               "%s seed=%llu: %llu inputs pushed, %llu expected results, "
               "set-up %.3f s CPU (median of %d)\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(inputs.pushed_inputs),
               static_cast<unsigned long long>(inputs.expected_results),
               Median(setup_s), kSetups);

  uint64_t attempted = 0, failed = 0;
  bool identity_ok = true;
  auto account = [&](const TrialStats& t) {
    attempted += t.check.expected;
    failed += t.check.missing + t.check.extra;
    identity_ok = identity_ok && t.check.identity_ok;
    if (!t.check.ok()) {
      std::fprintf(stderr,
                   "MISMATCH: expected %llu, missing %llu, extra %llu, "
                   "identity %s\n",
                   static_cast<unsigned long long>(t.check.expected),
                   static_cast<unsigned long long>(t.check.missing),
                   static_cast<unsigned long long>(t.check.extra),
                   t.check.identity_ok ? "ok" : "MISMATCH");
    }
  };

  SpanLog untraced_spans(0, false);
  SpanLog spans(0, args.trace);
  account(RunTrial(spec, inputs, false, &untraced_spans, 0));  // warm-up
  std::vector<TrialValues> plain, traced;
  uint16_t track = 1;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(args.seconds * 1e9);
  while (NowNs() < deadline || plain.size() < kMinTrials ||
         (args.trace && traced.size() < kMinTrials)) {
    TrialStats t = RunTrial(spec, inputs, false, &untraced_spans, 0);
    account(t);
    plain.push_back(TrialMetrics(t));
    const TrialValues& v = plain.back();
    std::fprintf(stderr,
                 "trial %zu: %.0f tuples/s, %.0f ns CPU/tuple, latency p50 "
                 "%.0f us p99 %.0f us, peak RSS so far %.0f MB\n",
                 plain.size(), v.at("tput_tps"), v.at("cpu_ns_per_tuple"),
                 v.at("lat_p50_us"), v.at("lat_p99_us"), PeakRssMb());
    if (args.trace && traced.size() < kMaxTracedTrials) {
      TrialStats tt = RunTrial(spec, inputs, true, &spans, track++);
      account(tt);
      traced.push_back(TrialMetrics(tt));
    }
    // Return memory the trial's threads freed to the OS before the next.
    malloc_trim(0);
  }
  const double rss_mb = PeakRssMb();
  const double fail_ratio =
      attempted == 0 ? 0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  bool correct = failed == 0 && identity_ok;

  Metrics metrics;
  auto add = [&](const std::string& name, const std::string& unit,
                 double value) { metrics.push_back({name, Metric{unit, value}}); };
  if (!args.trace) {
    add("tput_tps", "tuples/s", MedianOf(plain, "tput_tps"));
    add("cpu_ns_per_tuple", "ns", MedianOf(plain, "cpu_ns_per_tuple"));
    add("lat_p50_us", "us", MedianOf(plain, "lat_p50_us"));
    add("lat_p99_us", "us", MedianOf(plain, "lat_p99_us"));
    add("peak_rss_mb", "MB", rss_mb);
    add("setup_s", "s", Median(setup_s));
    std::fprintf(stderr,
                 "%zu trials: %.0f tuples/s, %.0f ns CPU/tuple, latency p50 "
                 "%.0f us p99 %.0f us (%.0f samples/trial), peak RSS %.0f MB, "
                 "fail_ratio %.3g\n",
                 plain.size(), MedianOf(plain, "tput_tps"),
                 MedianOf(plain, "cpu_ns_per_tuple"),
                 MedianOf(plain, "lat_p50_us"), MedianOf(plain, "lat_p99_us"),
                 MedianOf(plain, "lat.samples"), rss_mb, fail_ratio);
    PrintJson(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  const ReplayStats replay = RunReplays(spec, inputs, &spans);
  if (replay.mismatches != 0) {
    std::fprintf(stderr, "MISMATCH: %llu layer replays disagree with the "
                         "reference\n",
                 static_cast<unsigned long long>(replay.mismatches));
    correct = false;
  }
  const double plain_cpu_ns = MedianOf(plain, "cpu_ns_per_tuple");
  const double ladder = replay.LadderNsPerTuple(
      inputs, MedianOf(traced, "exchange.envelopes_per_tuple"));
  auto live = [&](const std::string& name, const std::string& unit) {
    add(name, unit, MedianOf(traced, name));
  };
  live("ingress.push_ns", "ns");
  live("ingress.wait_p99_us", "us");
  live("ingress.gen_lag_max_ms", "ms");
  add("reshuffler.ns_per_tuple", "ns", replay.reshuffler_ns_per_tuple);
  add("exchange.ns_per_tuple", "ns", replay.exchange_ns_per_envelope);
  live("exchange.avg_fill", "count");
  live("exchange.deadline_flushes", "count");
  live("exchange.credit_waits", "count");
  live("exchange.credit_wait_ms", "ms");
  live("exchange.overflow_batches", "count");
  live("exchange.ring_peak", "count");
  live("exchange.envelopes_per_tuple", "count");
  add("joiner.ns_per_tuple", "ns", replay.joiner_ns_per_tuple);
  live("joiner.cand_per_result", "ratio");
  live("joiner.max_in_mb", "MB");
  live("joiner.ilf_ratio", "ratio");
  live("joiner.stored_mb", "MB");
  add("index.insert_ns", "ns", replay.index_insert_ns);
  add("index.probe_ns", "ns", replay.index_probe_ns);
  add("index.probe_run_ns", "ns", replay.index_probe_run_ns);
  add("index.matches_per_probe", "ratio", replay.index_matches_per_probe);
  live("controller.migrations", "count");
  live("migration.mb", "MB");
  live("migration.discarded_tuples", "count");
  live("migration.window_ms", "ms");
  add("agg.route_ns_per_tuple", "ns", replay.agg_route_ns_per_tuple);
  add("agg.fold_ns_per_tuple", "ns", replay.agg_fold_ns_per_tuple);
  live("agg.groups", "count");
  live("agg.cell_migrations", "count");
  live("egress.results_per_batch", "ratio");
  live("egress.result_batches", "count");
  live("runtime.tasks", "count");
  live("runtime.drain_ms", "ms");
  live("lat.operator_p50_us", "us");
  live("lat.operator_p99_us", "us");
  live("lat.p999_us", "us");
  live("lat.samples", "count");
  add("ladder.sum_ns_per_tuple", "ns", ladder);
  add("ladder.residual_ns_per_tuple", "ns", plain_cpu_ns - ladder);
  add("trace.overhead_ratio", "ratio",
      plain_cpu_ns > 0 ? MedianOf(traced, "cpu_ns_per_tuple") / plain_cpu_ns
                       : 0);
  add("fail_ratio", "ratio", fail_ratio);

  // Self time per span name: live spans per traced trial, replay spans in
  // total (the replays run once).
  const std::map<std::string, SelfTime> self = SelfTimes(spans.spans());
  const double per_trial = 1.0 / static_cast<double>(traced.size());
  for (const char* name : {"trial", "push_group", "flush_input", "send_eos",
                           "wait_quiescent", "sink_batch"}) {
    auto it = self.find(name);
    add(std::string("self_ms.") + name, "ms",
        it == self.end() ? 0 : it->second.self_ms * per_trial);
  }
  std::fprintf(stderr, "self time per span name (ms, all spans):\n");
  for (const auto& [name, st] : self) {
    std::fprintf(stderr, "  %-24s %8llu spans %12.3f total %12.3f self\n",
                 name.c_str(), static_cast<unsigned long long>(st.count),
                 st.total_ms, st.self_ms);
  }
  const std::string path = args.out_dir + "/spans-" + spec.name + ".tsv";
  if (!WriteSpans(path, spans.spans())) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 2;
  }
  std::fprintf(stderr, "%zu+%zu trials; %zu spans written to %s\n",
               plain.size(), traced.size(), spans.spans().size(),
               path.c_str());
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-30s %14.4f %s\n", name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <skew_equi|fluct_open|"
                 "tpch_cascade> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>] [--corrupt-reference]\n");
    return 2;
  }
  return perfbench::Run(args);
}
