#include "observe/trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace fusedp::observe {

namespace {

// JSON string escaping for the small set of characters stage names and
// error messages can realistically contain.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// JSON has no Infinity/NaN literals; infeasible costs serialize as strings.
void append_number(std::ostringstream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << '"' << (std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf")) << '"';
  }
}

double micros(double seconds) { return seconds * 1e6; }

}  // namespace

std::string chrome_trace_json(const RunTrace& trace) {
  std::ostringstream os;
  os.precision(9);
  bool first = true;
  auto event = [&](const std::string& body) {
    os << (first ? "\n    " : ",\n    ") << body;
    first = false;
  };
  auto meta_thread = [&](int tid, const std::string& name, int sort) {
    std::ostringstream e;
    e << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": "
      << tid << ", \"args\": {\"name\": \"" << json_escape(name) << "\"}}";
    event(e.str());
    std::ostringstream s;
    s << "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 0, "
      << "\"tid\": " << tid << ", \"args\": {\"sort_index\": " << sort
      << "}}";
    event(s.str());
  };

  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";

  // Timeline layout: worker threads 0..T-1 keep their own tids; the group
  // spans live on tid T ("groups"), the schedule ladder on tid T+1.
  const int workers = trace.meta.num_threads > 0 ? trace.meta.num_threads : 1;
  const int groups_tid = workers;
  const int sched_tid = workers + 1;

  {
    std::ostringstream e;
    e << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
      << "\"args\": {\"name\": \"fusedp "
      << json_escape(trace.meta.pipeline) << "\"}}";
    event(e.str());
  }
  meta_thread(groups_tid, "groups", 0);
  meta_thread(sched_tid, "scheduler", 1);
  for (int t = 0; t < workers; ++t)
    meta_thread(t, "worker " + std::to_string(t), 2 + t);

  // Schedule-ladder attempts happened before the run; stack them leftward
  // from t=0 so the timeline reads search -> execution.
  double sched_total = 0.0;
  for (const ScheduleAttempt& a : trace.schedule) sched_total += a.seconds;
  double sched_t = -sched_total;
  for (const ScheduleAttempt& a : trace.schedule) {
    std::ostringstream e;
    e << "{\"name\": \"" << json_escape(a.tier)
      << (a.group_limit > 0 ? " limit=" + std::to_string(a.group_limit) : "")
      << "\", \"cat\": \"schedule\", \"ph\": \"X\", \"ts\": "
      << micros(sched_t) << ", \"dur\": " << micros(a.seconds)
      << ", \"pid\": 0, \"tid\": " << sched_tid << ", \"args\": {"
      << "\"succeeded\": " << (a.succeeded ? "true" : "false")
      << ", \"states\": " << a.states;
    if (!a.succeeded)
      e << ", \"code\": \"" << json_escape(a.code) << "\", \"detail\": \""
        << json_escape(a.detail) << "\"";
    e << "}}";
    event(e.str());
    sched_t += a.seconds;
  }

  for (const GroupRecord& g : trace.groups) {
    std::ostringstream e;
    e << "{\"name\": \"group " << g.index << " [" << json_escape(g.stages)
      << "]\", \"cat\": \"group\", \"ph\": \"X\", \"ts\": "
      << micros(g.t_begin) << ", \"dur\": " << micros(g.seconds)
      << ", \"pid\": 0, \"tid\": " << groups_tid << ", \"args\": {"
      << "\"tiles\": " << g.tiles_run
      << ", \"interior_tiles\": " << g.interior_tiles
      << ", \"computed_elems\": " << g.computed_elems
      << ", \"owned_elems\": " << g.owned_elems
      << ", \"scratch_bytes\": " << g.scratch_bytes
      << ", \"steals\": " << g.steals
      << ", \"queue_wait_us\": " << micros(g.queue_wait_seconds)
      << ", \"row_registers\": " << g.row_registers
      << ", \"fused_superops\": " << g.fused_superops
      << ", \"reduction\": " << (g.is_reduction ? "true" : "false")
      << ", \"predicted_cost\": ";
    append_number(e, g.predicted_cost);
    e << "}}";
    event(e.str());

    for (const TileEvent& t : g.tiles) {
      std::ostringstream te;
      te << "{\"name\": \"tile " << t.index << "\", \"cat\": \"tile\", "
         << "\"ph\": \"X\", \"ts\": " << micros(t.t_begin)
         << ", \"dur\": " << micros(t.t_end - t.t_begin)
         << ", \"pid\": 0, \"tid\": " << t.thread << ", \"args\": {"
         << "\"group\": " << g.index
         << ", \"computed_elems\": " << t.computed_elems
         << ", \"owned_elems\": " << t.owned_elems
         << ", \"interior\": " << (t.interior ? "true" : "false")
         << ", \"worker\": " << t.worker
         << ", \"stolen\": " << (t.stolen ? "true" : "false")
         << ", \"queue_wait_us\": " << micros(t.queue_wait) << "}}";
      event(te.str());
    }
  }

  os << "\n  ],\n  \"otherData\": {\"pipeline\": \""
     << json_escape(trace.meta.pipeline)
     << "\", \"num_groups\": " << trace.meta.num_groups
     << ", \"num_threads\": " << trace.meta.num_threads
     << ", \"total_seconds\": ";
  append_number(os, trace.seconds);
  os << "}\n}\n";
  return os.str();
}

Result<int> write_chrome_trace(const RunTrace& trace,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out)
    return Result<int>::failure(ErrorCode::kIoError,
                                "cannot open trace file: " + path);
  out << chrome_trace_json(trace);
  out.flush();
  if (!out)
    return Result<int>::failure(ErrorCode::kIoError,
                                "short write to trace file: " + path);
  int events = 0;
  for (const GroupRecord& g : trace.groups)
    events += 1 + static_cast<int>(g.tiles.size());
  events += static_cast<int>(trace.schedule.size());
  return events;
}

Report make_report(const RunTrace& trace) {
  Report rep;
  rep.pipeline = trace.meta.pipeline;
  rep.total_ms = trace.seconds * 1e3;
  for (const GroupRecord& g : trace.groups) {
    ReportRow row;
    row.group = g.index;
    row.stages = g.stages;
    row.stage_bits = g.stage_bits;
    row.tiles = g.tiles_run;
    row.predicted_cost = g.predicted_cost;
    row.measured_ms = g.seconds * 1e3;
    row.redundant_pct =
        g.computed_elems > 0
            ? 100.0 *
                  static_cast<double>(g.computed_elems - g.owned_elems) /
                  static_cast<double>(g.computed_elems)
            : 0.0;
    row.scratch_bytes = g.scratch_bytes;
    row.is_reduction = g.is_reduction;
    rep.rows.push_back(std::move(row));
  }
  return rep;
}

RankAgreement rank_agreement(const Report& report) {
  std::vector<const ReportRow*> scored;
  for (const ReportRow& r : report.rows)
    if (!r.is_reduction && std::isfinite(r.predicted_cost))
      scored.push_back(&r);
  // tau-b: pairs tied on one side widen only that side's denominator term;
  // pairs tied on both count nowhere.
  std::int64_t concordant = 0, discordant = 0, tied_x = 0, tied_y = 0;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    for (std::size_t j = i + 1; j < scored.size(); ++j) {
      const double dx = scored[j]->predicted_cost - scored[i]->predicted_cost;
      const double dy = scored[j]->measured_ms - scored[i]->measured_ms;
      if (dx == 0 && dy == 0) continue;
      if (dx == 0) ++tied_x;
      else if (dy == 0) ++tied_y;
      else if ((dx > 0) == (dy > 0)) ++concordant;
      else ++discordant;
    }
  }
  RankAgreement ra;
  ra.n = static_cast<int>(scored.size());
  const double untied = static_cast<double>(concordant + discordant);
  const double den = std::sqrt((untied + static_cast<double>(tied_x)) *
                               (untied + static_cast<double>(tied_y)));
  ra.tau = den > 0 ? static_cast<double>(concordant - discordant) / den
                   : std::numeric_limits<double>::quiet_NaN();
  return ra;
}

std::string report_to_string(const Report& report) {
  std::ostringstream os;
  os << "predicted-vs-measured, pipeline '" << report.pipeline << "' ("
     << report.rows.size() << " groups, "
     << static_cast<int>(report.total_ms * 100) / 100.0 << " ms total)\n";
  char line[256];
  std::snprintf(line, sizeof line, "%5s  %9s  %12s  %12s  %10s  %10s  %s\n",
                "group", "tiles", "predicted", "measured-ms", "redundant%",
                "scratchKB", "stages");
  os << line;
  for (const ReportRow& r : report.rows) {
    char pred[32];
    if (r.is_reduction)
      std::snprintf(pred, sizeof pred, "%s", "reduce");
    else if (std::isfinite(r.predicted_cost))
      std::snprintf(pred, sizeof pred, "%12.4g", r.predicted_cost);
    else
      std::snprintf(pred, sizeof pred, "%s", "inf");
    std::snprintf(line, sizeof line,
                  "%5d  %9lld  %12s  %12.3f  %10.1f  %10lld  %s\n", r.group,
                  static_cast<long long>(r.tiles), pred, r.measured_ms,
                  r.redundant_pct,
                  static_cast<long long>(r.scratch_bytes / 1024),
                  r.stages.c_str());
    os << line;
  }
  const RankAgreement ra = rank_agreement(report);
  if (ra.n >= kMinRankRows && std::isfinite(ra.tau)) {
    std::snprintf(line, sizeof line,
                  "predicted/measured rank agreement: Kendall tau %.3f over "
                  "%d groups\n",
                  ra.tau, ra.n);
    os << line;
  }
  return os.str();
}

}  // namespace fusedp::observe
