#include "summary.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, double q) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t last = t.n - 1;
  std::size_t k = static_cast<std::size_t>(std::floor(q * static_cast<double>(last)));
  k = std::min(k, last);
  t.enough = t.n > kTailSamples;
  if (t.enough) k = std::min(k, last - kTailSamples);
  t.value = v[k];
  t.beyond = last - k;
  t.q = last == 0 ? q : static_cast<double>(k) / static_cast<double>(last);
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

Residual residual(double parent, const std::vector<double>& children) {
  Residual r;
  r.parent = parent;
  for (double c : children) r.children += c;
  r.unattributed = parent - r.children;
  r.share = parent > 0.0 ? r.unattributed / parent : 0.0;
  // Children are timed strictly inside their parent; allow a microsecond of
  // clock granularity per child before calling it an overrun.
  const double slack = 1e-6 * static_cast<double>(children.size());
  r.overrun = r.children > parent + slack;
  return r;
}

Residual residual(Interval parent, std::vector<Interval> children) {
  Residual r;
  r.parent = parent.t1 - parent.t0;
  constexpr double kSlack = 1e-6;  // clock granularity
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  double reach = parent.t0;  // end of the covered prefix
  for (const Interval& c : children) {
    if (c.t0 < parent.t0 - kSlack || c.t1 > parent.t1 + kSlack) r.overrun = true;
    const double lo = std::max(c.t0, reach);
    const double hi = std::min(c.t1, parent.t1);
    if (hi > lo) r.children += hi - lo;
    reach = std::max(reach, hi);
  }
  r.unattributed = r.parent - r.children;
  r.share = r.parent > 0.0 ? r.unattributed / r.parent : 0.0;
  return r;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_str(metrics[i].name) + ": {\"value\": " +
         json_num(metrics[i].value) + ", \"unit\": " +
         json_str(metrics[i].unit) + "}";
  }
  return s + "}}";
}

int self_test() {
  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); };

  // Percentile rule: the reported tail keeps >= 10 samples beyond it.
  for (std::size_t n : {11u, 12u, 50u, 300u, 999u, 1000u, 1011u, 5000u}) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
      v.push_back(static_cast<double>((i * 7919) % n));  // a permutation
    const Tail t = tail(v, 0.99);
    std::size_t above = 0;
    for (double x : v) above += x > t.value ? 1 : 0;
    check(t.enough && above >= kTailSamples && t.beyond >= kTailSamples,
          "tail keeps >= 10 samples beyond the reported percentile");
    check(t.q <= 0.99 + 1e-12, "tail never reports above the requested q");
  }
  {
    std::vector<double> v;
    for (int i = 1; i <= 1011; ++i) v.push_back(i);
    const Tail t = tail(v, 0.99);
    check(t.value == 1000.0 && t.beyond == 11,
          "p99 of 1..1011 is the plain 99th percentile (rank 1000)");
    const Tail small = tail({1, 2, 3}, 0.99);
    check(!small.enough && small.value == 2.0,
          "too few samples: flagged, not silently reported as a tail");
    const Tail p50 = tail(v, 0.5);
    check(p50.value == 506.0, "tail(q=0.5) is the lower median rank");
  }

  // Geometric mean.
  check(near(geomean({1.0, 4.0, 16.0}), 4.0), "geomean(1,4,16) == 4");
  check(near(geomean({2.0, 8.0}), 4.0), "geomean(2,8) == 4");
  check(near(geomean({5.0}), 5.0), "geomean of one value is the value");
  check(geomean({1.0, 0.0}) == 0.0, "geomean rejects non-positive values");
  check(geomean({}) == 0.0, "geomean of nothing is 0");

  // Median.
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");

  // Metric-name rule [A-Za-z0-9_.-]+.
  check(valid_metric_name("latency_p99_ms"), "plain name accepted");
  check(valid_metric_name("serve.queue_wait_p50_ms.bulk"), "dotted name accepted");
  check(valid_metric_name("fusion.dp_states.pyramid"), "per-pipeline name");
  check(valid_metric_name("9lives-x"), "digit start and dash accepted");
  check(!valid_metric_name(""), "empty name rejected");
  check(!valid_metric_name("a b"), "space rejected");
  check(!valid_metric_name("x/y"), "slash rejected");
  check(!valid_metric_name("_x"), "leading underscore rejected");
  check(!valid_metric_name(".x"), "leading dot rejected");
  check(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
  check(valid_metric_name(std::string(64, 'a')), "64 characters accepted");

  // Residual arithmetic.
  {
    const Residual r = residual(10.0, {3.0, 4.0});
    check(near(r.unattributed, 3.0) && near(r.share, 0.3) && !r.overrun,
          "residual = parent - sum(children)");
    const Residual o = residual(5.0, {3.0, 4.0});
    check(o.overrun && near(o.unattributed, -2.0),
          "children above their parent are flagged");
    const Residual z = residual(0.0, {});
    check(z.share == 0.0 && !z.overrun, "empty parent has no share");
    const Residual g = residual(1.0, {0.5, 0.5 + 5e-7});
    check(!g.overrun, "clock-granularity slack is not an overrun");

    // Concurrent children count once: [1,4] and [2,5] cover [1,5].
    const Residual c = residual(Interval{0.0, 10.0}, {{1.0, 4.0}, {2.0, 5.0}});
    check(near(c.children, 4.0) && near(c.unattributed, 6.0) && !c.overrun,
          "overlapping children count by their union");
    const Residual s = residual(Interval{0.0, 10.0}, {{6.0, 7.0}, {1.0, 3.0}});
    check(near(s.children, 3.0) && near(s.share, 0.7),
          "disjoint children in any order count by their sum");
    const Residual out = residual(Interval{1.0, 2.0}, {{0.5, 1.5}});
    check(out.overrun && near(out.children, 0.5),
          "a child starting before its parent is flagged, counted clipped");
    const Residual late = residual(Interval{1.0, 2.0}, {{1.5, 2.5}});
    check(late.overrun, "a child ending after its parent is flagged");
  }

  // Result line shape.
  {
    const std::string s =
        result_json(true, 3, 0, {{"a_ms", 1.5, "ms"}, {"b", 0.1, "1/s"}});
    check(s == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
               "\"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, "
               "\"b\": {\"value\": 0.10000000000000001, \"unit\": \"1/s\"}}}",
          "result line layout");
    check(json_str("a\"b\n") == "\"a\\\"b\\u000a\"", "json string escaping");
  }
  return failures;
}

}  // namespace perfbench
