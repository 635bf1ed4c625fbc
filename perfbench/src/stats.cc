#include "stats.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

size_t SamplesBeyond(size_t n, double level) {
  if (n == 0) return 0;
  // Nearest rank: the smallest rank r (1-based) with r >= level% of n.
  const double exact = level / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::max<size_t>(1, std::min(rank, n));
  return n - rank;
}

bool Supported(size_t n, double level) {
  return SamplesBeyond(n, level) >= kMinBeyond;
}

namespace {

// Nearest-rank percentile `level` (in percent) of `samples`, which is
// partially reordered. 0 for an empty set.
double PercentileOf(std::vector<uint32_t>* samples, double level) {
  const size_t n = samples->size();
  if (n == 0) return 0;
  const size_t idx = n - SamplesBeyond(n, level) - 1;
  std::nth_element(samples->begin(),
                   samples->begin() + static_cast<std::ptrdiff_t>(idx),
                   samples->end());
  return (*samples)[idx];
}

}  // namespace

Percentiles Summarize(std::vector<uint32_t>* samples) {
  Percentiles out;
  out.count = samples->size();
  static const double kLadder[] = {50, 90, 99, 99.9, 99.99};
  for (double level : kLadder) {
    if (Supported(out.count, level)) out.top_level = level;
  }
  if (out.top_level > 0) out.top_value = PercentileOf(samples, out.top_level);
  auto capped = [&](double level) {
    return Supported(out.count, level) ? PercentileOf(samples, level)
                                       : out.top_value;
  };
  out.p50 = capped(50);
  out.p99 = capped(99);
  out.p999 = capped(99.9);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace perfbench
