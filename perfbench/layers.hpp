// Per-layer instrumentation owned by the benchmark: an in-memory span
// recorder and an observe::Observer sink.
//
// Spans are recorded around the public calls the driver makes (name, start,
// end, parent, request id), kept in memory and written once at exit as
// Chrome trace_event JSON.  The sink turns the executor's group records
// into child spans of the enclosing execute span and keeps the per-pipeline
// counters the per-layer metrics are computed from.  With tracing off the
// recorder records nothing and the sink is attached only where the program
// calls it outside the timed path (the schedule search during set-up).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "observe/observe.hpp"
#include "support/timing.hpp"

namespace perfbench {

namespace observe = fusedp::observe;
using fusedp::WallTimer;

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  double t0 = 0.0;  // seconds since the recorder's epoch
  double t1 = -1.0;
  std::int64_t request = -1;
  int thread = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  double now() const { return epoch_.seconds(); }

  // Opens a span under the calling thread's innermost open span (or
  // `parent` when non-zero); returns its id, 0 when disabled.
  std::uint64_t begin(const std::string& name, std::int64_t request = -1,
                      std::uint64_t parent = 0);
  void end(std::uint64_t id);
  // Records a finished span with explicit times (group records, reply
  // phases).  Returns its id, 0 when disabled.
  std::uint64_t add(const std::string& name, std::uint64_t parent, double t0,
                    double t1, std::int64_t request);

  // The calling thread's innermost open span (0 = none).
  static std::uint64_t current();

  std::vector<SpanRec> spans() const;

 private:
  const bool enabled_;
  WallTimer epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_; id = index + 1
};

// RAII span; a no-op on a disabled recorder.
class Scope {
 public:
  Scope(SpanRecorder& rec, const std::string& name, std::int64_t request = -1)
      : rec_(rec), id_(rec.begin(name, request)) {}
  ~Scope() { rec_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

// Per-span-name roll-up with the residual rule applied to every parent.
struct SpanSummary {
  std::string name;
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;          // total minus children
  double unattributed_s = 0.0;  // same as self_s for spans with children
  std::int64_t overruns = 0;    // children summing past their parent
};
std::vector<SpanSummary> summarize(const std::vector<SpanRec>& spans);

// Chrome trace_event JSON of every span (complete "X" events, microseconds).
std::string spans_to_chrome_json(const std::vector<SpanRec>& spans);

// What one schedule search did, from its ladder attempts.
struct SearchFacts {
  std::uint64_t states = 0;
  std::uint64_t winning_states = 0;
  double seconds = 0.0;
  std::string tier;  // the attempt that produced the schedule
};
SearchFacts facts_from_attempts(
    const std::vector<observe::ScheduleAttempt>& attempts);

// Executor measurements of one pipeline, merged over its runs.
struct RuntimeTotals {
  double run_seconds = 0.0;
  double group_seconds = 0.0;
  std::int64_t tiles_run = 0;
  std::int64_t interior_tiles = 0;
  std::int64_t computed = 0;
  std::int64_t owned = 0;
  double tile_queue_wait = 0.0;
};

// The benchmark's Observer.  Callbacks may arrive from several threads (one
// per concurrently executing request), so every member is guarded by mu_.
// The pipeline being opened is set by the driver around each open, since
// schedule attempts and cache events carry no pipeline name.
class LayerSink : public observe::Observer {
 public:
  explicit LayerSink(SpanRecorder& rec) : rec_(rec) {}

  bool want_tile_events() const override { return false; }
  void on_schedule_attempt(const observe::ScheduleAttempt& at) override;
  void on_run_begin(const observe::RunMeta& meta) override;
  void on_group_end(const observe::GroupRecord& g) override;
  void on_run_end(const observe::RunRecord& run) override;
  void on_cache_event(const observe::CacheEvent& ev) override;

  // Attributes subsequent schedule attempts, cache events and runs to
  // `label` (a pipeline key).
  void set_context(const std::string& label);

  // Drains the attempts recorded for `label` since the last call.
  std::vector<observe::ScheduleAttempt> take_attempts(const std::string& label);
  std::map<std::string, RuntimeTotals> runtime() const;
  void clear_runtime();

 private:
  SpanRecorder& rec_;
  mutable std::mutex mu_;
  std::string context_;
  std::map<std::string, std::vector<observe::ScheduleAttempt>> attempts_;
  std::map<std::string, RuntimeTotals> runtime_;
};

}  // namespace perfbench
