// The observability layer: pluggable sinks for what the system actually did.
//
// Every record here is plain data (strings, integers, seconds) so the
// interface sits below every other layer: the autoscheduler reports its
// ladder attempts, the plan/compiler report per-group static facts (tile
// grid, row registers, fused superops, the cost model's predicted score),
// and the executor reports measured reality (per-tile and per-group wall
// time, scratch/arena high-water, redundant-recompute counters).
//
// Cost discipline: producers check `observer != nullptr` before touching a
// clock, and per-tile events are appended to *per-thread* logs that the
// executor merges once, serially, at group end — no locks or atomics on the
// tile path, zero work and bit-identical outputs when no sink is attached.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fusedp::observe {

// One autoschedule ladder attempt (mirrors fusion's TierAttempt as plain
// data, so this header does not depend on the fusion layer).
struct ScheduleAttempt {
  std::string tier;     // "full-dp" / "bounded-dp" / "greedy" / "unfused"
  int group_limit = 0;  // bounded-dp attempts only
  bool succeeded = false;
  std::string code;    // error-code name when !succeeded
  std::string detail;  // failure message / stats summary
  std::uint64_t states = 0;
  double seconds = 0.0;
};

// One executed tile.  Timestamps are seconds since the run began.
struct TileEvent {
  std::int64_t index = 0;  // flat index in the group's tile grid
  int thread = 0;
  double t_begin = 0.0;
  double t_end = 0.0;
  // Elements computed (required regions, including the recomputed overlap)
  // vs. elements owned (the tile's disjoint slice of useful work); the
  // difference is the redundant recomputation the paper's cost model trades
  // against locality.
  std::int64_t computed_elems = 0;
  std::int64_t owned_elems = 0;
  bool interior = false;  // took the translated-template fast path
  // Work-stealing pool attribution (pool backend only; OpenMP leaves the
  // defaults).  `worker` is the pool worker thread that ran the tile (-1 =
  // the submitting thread), `stolen` marks a tile claimed from another
  // lane's deque, and `queue_wait` is the seconds this tile's lane sat in
  // the dispatch queue before starting (0 for the inline lane).
  int worker = -1;
  bool stolen = false;
  double queue_wait = 0.0;
};

// One group's execution: static plan facts + merged measured counters.
struct GroupRecord {
  int index = -1;      // position in the plan's topological group order
  std::string stages;  // comma-joined member stage names
  // The member stage-id set as a NodeSet bit pattern: the stable join key
  // between measured group records and the cost model / grouping / find-db
  // layers (plan group order need not match grouping order, and stage-name
  // strings are for humans).  0 when unknown.
  std::uint64_t stage_bits = 0;
  bool is_reduction = false;
  std::int64_t total_tiles = 1;
  // Static plan/compiler facts.
  double predicted_cost = 0.0;  // cost model's score for this group
  std::int32_t row_registers = 0;
  std::int32_t fused_superops = 0;
  // Measured (serial wall clock around the group's parallel region).
  double t_begin = 0.0;  // seconds since run begin
  double t_end = 0.0;
  double seconds = 0.0;
  // Merged per-thread counters.
  std::int64_t tiles_run = 0;
  std::int64_t interior_tiles = 0;
  std::int64_t computed_elems = 0;
  std::int64_t owned_elems = 0;
  std::int64_t scratch_bytes = 0;  // arena high-water summed over threads
  // Pool-backend counters (0 under OpenMP): cross-lane steal events in this
  // group, and dispatch-queue wait summed over the group's lanes.
  std::int64_t steals = 0;
  double queue_wait_seconds = 0.0;
  // Per-tile events, in per-thread order (thread 0's tiles, then thread
  // 1's, ...); empty unless the sink asked for tiles.
  std::vector<TileEvent> tiles;
};

struct RunMeta {
  std::string pipeline;
  int num_groups = 0;
  int num_threads = 1;
};

struct RunRecord {
  RunMeta meta;
  double seconds = 0.0;  // whole-run wall time
};

// One persistent-schedule-cache interaction (storage/findb, reported by
// Session::open).  Outcomes mirror findb::ProbeOutcome names ("hit",
// "miss", "corrupt", "truncated", "version-skew", "stale-sha",
// "key-mismatch", "lock-timeout", "io-error", "bypass") plus "stored" /
// "store-failed" / "skipped" (a search cut short outside the cache key)
// for writes and "invalid-schedule" for a hit whose
// schedule text failed re-validation.  Plain strings keep this header
// independent of the storage layer.
struct CacheEvent {
  std::string action;   // "probe" / "store" / "evict"
  std::string outcome;
  bool from_memory = false;  // served by the in-process LRU tier
  std::string detail;        // cause for non-hit outcomes
  double seconds = 0.0;      // wall time of the cache operation
};

// One Session::execute() call: a single Executor::run attempt, streamed to
// the observer as it concludes.  on_run_attempt is the only observer
// callback that carries a failed run's coded error.
struct RunAttempt {
  bool succeeded = false;
  std::string code;    // error-code name when !succeeded
  std::string detail;  // failure message when !succeeded
  double seconds = 0.0;
};

// The per-request summary: the attempt plus how the session's schedule came
// to be — the cache probe outcome at open ("hit"/"miss"/... ; empty when
// the cache was off) and whether the schedule was served from the cache
// without any search.
struct RunReport {
  RunAttempt attempt;
  std::string cache_outcome;
  bool warm_start = false;
};

// One line for `--report`: outcome, coded error, cache outcome, seconds.
std::string run_report_to_string(const RunReport& report);

// The sink interface.  Default implementations do nothing, so a sink
// overrides only what it wants.  Callbacks arrive on the serial (calling)
// thread; the executor never invokes a sink from inside a parallel region.
class Observer {
 public:
  virtual ~Observer() = default;

  // Collect per-tile events?  Off keeps per-group aggregation only and
  // spares the per-thread event vectors.
  virtual bool want_tile_events() const { return true; }

  virtual void on_schedule_attempt(const ScheduleAttempt& attempt) {
    (void)attempt;
  }
  virtual void on_run_begin(const RunMeta& meta) { (void)meta; }
  virtual void on_group_end(const GroupRecord& group) { (void)group; }
  virtual void on_run_end(const RunRecord& run) { (void)run; }
  // One execute() concluded (success or coded failure).
  virtual void on_run_attempt(const RunAttempt& attempt) { (void)attempt; }
  // One schedule-cache interaction concluded (probe/store/evict).
  virtual void on_cache_event(const CacheEvent& event) { (void)event; }
};

// Everything one run produced, ready for export (chrome trace) or joining
// against the cost model (predicted-vs-measured report).
struct RunTrace {
  RunMeta meta;
  std::vector<ScheduleAttempt> schedule;  // ladder attempts, in order
  std::vector<CacheEvent> cache;          // cache interactions at open
  std::vector<GroupRecord> groups;        // in execution order
  double seconds = 0.0;
  bool complete = false;  // on_run_end seen
};

// The built-in sink: accumulates one RunTrace per run.  Schedule attempts
// observed before the first run attach to every subsequent run's trace
// (they describe the session's schedule, not one execution).
class TraceCollector : public Observer {
 public:
  explicit TraceCollector(bool keep_tiles = true) : keep_tiles_(keep_tiles) {}

  bool want_tile_events() const override { return keep_tiles_; }
  void on_schedule_attempt(const ScheduleAttempt& attempt) override;
  void on_run_begin(const RunMeta& meta) override;
  void on_group_end(const GroupRecord& group) override;
  void on_run_end(const RunRecord& run) override;
  void on_cache_event(const CacheEvent& event) override;

  // The most recent (possibly still incomplete) run; nullptr before any.
  const RunTrace* last() const { return runs_.empty() ? nullptr : &runs_.back(); }
  const std::vector<RunTrace>& runs() const { return runs_; }
  void clear() { runs_.clear(); }

 private:
  bool keep_tiles_;
  std::vector<ScheduleAttempt> schedule_;
  std::vector<CacheEvent> cache_;
  std::vector<RunTrace> runs_;
};

// Fans every callback out to up to two sinks (the session's own collector
// plus a user observer).  Tile events are collected if either sink wants
// them.
class TeeObserver : public Observer {
 public:
  TeeObserver(Observer* a, Observer* b) : a_(a), b_(b) {}
  bool want_tile_events() const override {
    return (a_ != nullptr && a_->want_tile_events()) ||
           (b_ != nullptr && b_->want_tile_events());
  }
  void on_schedule_attempt(const ScheduleAttempt& at) override {
    if (a_ != nullptr) a_->on_schedule_attempt(at);
    if (b_ != nullptr) b_->on_schedule_attempt(at);
  }
  void on_run_begin(const RunMeta& m) override {
    if (a_ != nullptr) a_->on_run_begin(m);
    if (b_ != nullptr) b_->on_run_begin(m);
  }
  void on_group_end(const GroupRecord& g) override {
    if (a_ != nullptr) a_->on_group_end(g);
    if (b_ != nullptr) b_->on_group_end(g);
  }
  void on_run_end(const RunRecord& r) override {
    if (a_ != nullptr) a_->on_run_end(r);
    if (b_ != nullptr) b_->on_run_end(r);
  }
  void on_run_attempt(const RunAttempt& at) override {
    if (a_ != nullptr) a_->on_run_attempt(at);
    if (b_ != nullptr) b_->on_run_attempt(at);
  }
  void on_cache_event(const CacheEvent& ev) override {
    if (a_ != nullptr) a_->on_cache_event(ev);
    if (b_ != nullptr) b_->on_cache_event(ev);
  }

 private:
  Observer* a_;
  Observer* b_;
};

}  // namespace fusedp::observe
