#include "observe/observe.hpp"

#include <cstdio>

namespace fusedp::observe {

void TraceCollector::on_schedule_attempt(const ScheduleAttempt& attempt) {
  schedule_.push_back(attempt);
  // A run already in flight (or finished) also gets the attempt, so traces
  // of sessions that re-schedule stay self-describing.
  if (!runs_.empty()) runs_.back().schedule.push_back(attempt);
}

void TraceCollector::on_run_begin(const RunMeta& meta) {
  RunTrace t;
  t.meta = meta;
  t.schedule = schedule_;
  t.cache = cache_;
  runs_.push_back(std::move(t));
}

void TraceCollector::on_cache_event(const CacheEvent& event) {
  // Cache events describe how the session's schedule was obtained, so like
  // schedule attempts they attach to every subsequent run's trace.
  cache_.push_back(event);
  if (!runs_.empty()) runs_.back().cache.push_back(event);
}

void TraceCollector::on_group_end(const GroupRecord& group) {
  if (runs_.empty()) {
    // Group events without a preceding on_run_begin (a bare Executor with a
    // sink attached): synthesize an anonymous run so nothing is dropped.
    runs_.emplace_back();
    runs_.back().schedule = schedule_;
    runs_.back().cache = cache_;
  }
  RunTrace& t = runs_.back();
  t.groups.push_back(group);
  if (!keep_tiles_) t.groups.back().tiles.clear();
}

void TraceCollector::on_run_end(const RunRecord& run) {
  if (runs_.empty()) runs_.emplace_back();
  RunTrace& t = runs_.back();
  t.meta = run.meta;
  t.seconds = run.seconds;
  t.complete = true;
}

std::string run_report_to_string(const RunReport& report) {
  const RunAttempt& a = report.attempt;
  std::string out = "run report: ";
  if (a.succeeded) {
    out += "ok";
  } else if (a.code.empty()) {
    return out + "no run yet\n";
  } else {
    out += "failed " + a.code;
    if (!a.detail.empty()) out += ": " + a.detail;
  }
  if (!report.cache_outcome.empty()) {
    out += ", cache " + report.cache_outcome;
    if (report.warm_start) out += " (warm start)";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", a.seconds);
  return out + ", " + buf + " s\n";
}

}  // namespace fusedp::observe
