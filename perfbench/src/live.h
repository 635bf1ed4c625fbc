// Live trials: one workload run end to end on a fresh ThreadEngine. The
// calling thread is the load generator: it pushes the pre-generated tuples
// through each fed stage's ingress port (closed loop: as fast as credits
// allow; open loop: on a fixed schedule), and a sink task owned by the
// benchmark receives every result, stamps its arrival, and tallies it for
// the reference check.

#pragma once

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "src/exchange/exchange.h"

namespace perfbench {

/// When each input tuple was due, by its global push index. Open loop: a
/// fixed schedule from the trial start. Closed loop: the tuple has no
/// schedule, so it is due when the generator starts the 64-tuple Push
/// group that holds it.
class DueTable {
 public:
  static constexpr size_t kGroup = 64;

  /// Open loop at `rate_tps` tuples/s from `start_ns`.
  void InitOpen(uint64_t start_ns, double rate_tps) {
    open_ = true;
    start_ns_ = start_ns;
    period_ns_ = 1e9 / rate_tps;
  }
  /// Closed loop over `n` tuples; StampGroup fills the table as it goes.
  void InitClosed(size_t n) {
    open_ = false;
    group_us_.assign((n + kGroup - 1) / kGroup, 0);
  }
  void StampGroup(size_t group, uint64_t now_us) { group_us_[group] = now_us; }

  /// Due time of push index `i` in nanoseconds (open loop only).
  uint64_t DueNs(uint64_t i) const {
    return start_ns_ + static_cast<uint64_t>(static_cast<double>(i) *
                                             period_ns_);
  }
  /// Due time of push index `i` in microseconds of the steady clock.
  uint64_t DueUs(uint64_t i) const {
    return open_ ? DueNs(i) / 1000 : group_us_[i / kGroup];
  }

 private:
  bool open_ = false;
  uint64_t start_ns_ = 0;
  double period_ns_ = 0;
  std::vector<uint64_t> group_us_;
};

/// Microseconds from `earlier` to `later`, 0 if `later` is not after it,
/// saturated at UINT32_MAX.
uint32_t ElapsedUs(uint64_t later, uint64_t earlier);

/// Latency of one join result (r_seq, s_seq) that reached the sink at
/// `arrival_us`: measured from the due time of the later of its two inputs.
inline uint32_t ResultLatencyUs(const DueTable& due, uint64_t r_seq,
                                uint64_t s_seq, uint64_t arrival_us) {
  return ElapsedUs(arrival_us, due.DueUs(r_seq > s_seq ? r_seq : s_seq));
}

/// Everything one trial measured.
struct TrialStats {
  uint64_t inputs = 0;
  /// First Push to the last result's arrival at the sink.
  double wall_s = 0;
  /// Process CPU (all threads) from the first Push until WaitQuiescent
  /// returned.
  double cpu_s = 0;
  Check check;

  /// Per result: arrival at the sink minus the due time of the later of
  /// its two inputs (cascade aggregates: of the first input; the time to
  /// answer).
  std::vector<uint32_t> lat_us;
  /// Traced trials, join results only: arrival minus the Push stamp
  /// (ingest_us) of the probing input, and that stamp minus its due time.
  std::vector<uint32_t> op_lat_us;
  std::vector<uint32_t> wait_us;

  double push_ns = 0;         // wall ns per Push (timed per group)
  double gen_lag_max_ms = 0;  // open loop: latest a Push group started
  double drain_ms = 0;        // WaitQuiescent after SendEos

  ajoin::ExchangeStatsSnapshot exchange;
  uint32_t ring_peak = 0;
  uint64_t result_batches = 0;
  uint64_t results = 0;
  size_t tasks = 0;

  // Main join stage (stage B of the cascade).
  uint64_t probe_candidates = 0;
  uint64_t output_tuples = 0;
  uint64_t max_in_bytes = 0;
  uint64_t stored_bytes = 0;
  double optimal_ilf_bytes = 0;
  // All join stages.
  uint64_t migrations = 0;
  uint64_t mig_out_bytes = 0;
  uint64_t discarded_tuples = 0;
  /// Traced trials: longest per-epoch window from the first migration
  /// begin to the last finalize (TraceRing events).
  double mig_window_ms = 0;
  // Group-by tail (cascade).
  uint64_t agg_groups = 0;
  uint64_t agg_cell_migrations = 0;
};

/// Runs one trial of `spec` over `inputs`. A traced trial records spans
/// into `spans` (parented under one "trial" span; the sink's spans use
/// track `sink_track`) and protocol events into a TraceRing, and keeps the
/// operator-latency samples.
TrialStats RunTrial(const WorkloadSpec& spec, const Inputs& inputs,
                    bool traced, SpanLog* spans, uint16_t sink_track);

}  // namespace perfbench
