// Small numeric and process helpers shared by the benchmark driver:
// order statistics over latency samples, the geometric mean, wall-clock
// deltas, and the process's peak resident set.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now());
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Number of samples strictly above the nearest-rank percentile `p`.
size_t SamplesAbove(const std::vector<double>& values, double p);

/// Geometric mean of positive values; 0 when empty.
double Geomean(const std::vector<double>& values);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMb();

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct RunReport {
  bool correct = true;
  unsigned long long attempted = 0;
  unsigned long long failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// One-line JSON: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
