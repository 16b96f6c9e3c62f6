// Summary statistics for the benchmark driver: medians, tail percentiles
// with a minimum-sample rule, geometric means, span residuals, metric-name
// validation and the metric table the driver prints.  Pure functions, so
// `perfbench_driver --self-test` can check them without running a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> v);

// A tail percentile that keeps at least `kTailSamples` samples beyond it.
// The requested quantile q is lowered to the highest rank that still leaves
// that many samples above it, so a "p99" from 300 samples is really the
// 96.7th percentile — `q` says which one was taken and `beyond` how many
// samples lie strictly above the reported rank.
inline constexpr std::size_t kTailSamples = 10;
struct Tail {
  double value = 0.0;
  double q = 0.0;           // quantile actually reported
  std::size_t n = 0;        // samples
  std::size_t beyond = 0;   // samples ranked above the reported one
  bool enough = false;      // n > kTailSamples, so `beyond` >= kTailSamples
};
Tail tail(std::vector<double> v, double q);

// Geometric mean of strictly positive values; 0 when empty or when any
// value is not positive.
double geomean(const std::vector<double>& v);

// Metric names: 1..64 characters from [A-Za-z0-9_.-], starting with a
// letter or digit.
bool valid_metric_name(const std::string& name);

// A parent against its children: the unattributed residual and whether the
// children overrun the parent (a benchmark bug: children are timed inside
// their parent, so they cannot exceed it beyond clock granularity).
struct Residual {
  double parent = 0.0;
  double children = 0.0;      // time the children account for
  double unattributed = 0.0;  // parent - children
  double share = 0.0;         // unattributed / parent (0 when parent is 0)
  bool overrun = false;
};
// Sequential children given as durations: they account for their sum.
Residual residual(double parent, const std::vector<double>& children);

// Spans given as [t0, t1] intervals, children possibly concurrent: they
// account for the part of the parent's interval they cover (their union),
// and a child reaching outside the parent's interval is an overrun.
struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
};
Residual residual(Interval parent, std::vector<Interval> children);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result line: {"correct": ..., "attempted": ..., "failed": ...,
// "metrics": {name: {"value": v, "unit": u}, ...}} with every value printed
// with all its significant digits.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics);

// JSON string literal (quotes included) with control characters escaped.
std::string json_str(const std::string& s);
// A double with all its significant digits ("%.17g"); non-finite as null.
std::string json_num(double v);

// Runs the summary self-tests; prints each failure to stderr and returns
// the number of failed checks.
int self_test();

}  // namespace perfbench
