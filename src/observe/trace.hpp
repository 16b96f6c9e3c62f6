// Trace export and the predicted-vs-measured report.
//
// chrome_trace_json() renders a RunTrace in the Chrome trace_event "JSON
// Object Format" ({"traceEvents": [...]}) consumable by chrome://tracing
// and Perfetto: one complete ("X") event per group on a dedicated "groups"
// timeline, one per tile on its worker thread's timeline, schedule-ladder
// attempts on a "scheduler" timeline before the run, and thread-name
// metadata ("M") events.  Timestamps are microseconds relative to run
// begin.
//
// make_report() joins the cost model's per-group predicted scores (carried
// through the plan into each GroupRecord) against the measured wall times —
// the feedback loop guided-optimization systems expose to users.
#pragma once

#include "observe/observe.hpp"
#include "support/status.hpp"

namespace fusedp::observe {

// The full trace as a JSON string (always valid JSON, even for an empty or
// incomplete trace).
std::string chrome_trace_json(const RunTrace& trace);

// Writes chrome_trace_json(trace) to `path`.  Returns the number of trace
// events written, or a coded kIoError Result on filesystem trouble.
Result<int> write_chrome_trace(const RunTrace& trace, const std::string& path);

struct ReportRow {
  int group = -1;
  std::string stages;
  // Member stage-id set (NodeSet bits); joins a measured row back to the
  // cost model and the grouping it came from (see GroupRecord::stage_bits).
  std::uint64_t stage_bits = 0;
  std::int64_t tiles = 0;
  double predicted_cost = 0.0;  // cost model score (unitless)
  double measured_ms = 0.0;     // serial wall time of the group
  double redundant_pct = 0.0;   // 100 * (computed - owned) / computed
  std::int64_t scratch_bytes = 0;
  bool is_reduction = false;
};

struct Report {
  std::string pipeline;
  std::vector<ReportRow> rows;  // in execution order
  double total_ms = 0.0;
};

Report make_report(const RunTrace& trace);

// How well predicted cost ranks the groups by measured time: Kendall's
// tau-b over the scored rows (non-reduction, finite cost).  One pipeline
// has a handful of groups, and over two or three tau can only read +-1 or
// +-1/3, so it is printed with its n and only from kMinRankRows rows on.
// A high tau means Algorithm 2's ranking tracks reality.
struct RankAgreement {
  int n = 0;         // scored rows
  double tau = 0.0;  // NaN when n < 2 or either column is all ties
};
constexpr int kMinRankRows = 4;

RankAgreement rank_agreement(const Report& report);

// Fixed-width table (one row per group, predicted vs measured columns plus
// the rank-agreement footer when n >= kMinRankRows) as printed by
// `fusedp run --report`.
std::string report_to_string(const Report& report);

}  // namespace fusedp::observe
