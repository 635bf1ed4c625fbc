// Small statistics and process-measurement helpers for the benchmark:
// nearest-rank percentiles with the "highest percentile that has at least
// ten samples beyond it" rule, medians, and process CPU / peak-RSS reads.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentile summary of one sample set (nearest-rank percentiles).
struct Percentiles {
  /// Number of samples summarized.
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  /// Highest level of the ladder {50, 90, 99, 99.9, 99.99} that has at least
  /// kMinBeyond samples strictly above its rank; 0 when even the median does
  /// not (fewer than 20 samples).
  double top_level = 0;
  /// The sample value at top_level (0 when top_level is 0).
  double top_value = 0;
};

/// Samples a percentile must leave beyond its rank to be reported.
constexpr size_t kMinBeyond = 10;

/// Samples strictly beyond the nearest-rank position of percentile `level`
/// (in percent) in a set of `n` samples.
size_t SamplesBeyond(size_t n, double level);

/// True when percentile `level` of `n` samples leaves at least kMinBeyond
/// samples beyond it.
bool Supported(size_t n, double level);

/// Summarizes `samples` (partially reordered). A percentile that the sample
/// count does not support (see Supported) is reported as the top_value
/// instead, so a small set never claims a tail it did not observe.
Percentiles Summarize(std::vector<uint32_t>* samples);

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
double Median(std::vector<double> values);

/// Process CPU time (user + system, all threads) in seconds.
double ProcessCpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Monotonic wall clock in nanoseconds (the steady clock the library's
/// SteadyNowMicros also reads).
uint64_t NowNs();

}  // namespace perfbench
