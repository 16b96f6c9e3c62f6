// The FuseDP session facade: one object owning the schedule -> compile ->
// execute lifecycle behind a single validated Options struct.
//
//   fusedp::Pipeline pl = ...;            // build stages, pl.finalize()
//   fusedp::Options opts;
//   opts.num_threads = 8;
//   auto session = fusedp::Session::open(pl, opts);
//   if (!session.ok()) { /* session.error().code() says why */ }
//   auto out = session.value().run(inputs);
//
// Opening is two steps.  Session::schedule, the schedule step, probes the
// schedule cache, searches on a miss and stores the result; it returns a
// plain Schedule and builds no plan (only kMeasured's search times
// candidate executors).  Session::open adds the compile step: it lowers
// the grouping to an ExecutablePlan and compiles the stage programs once;
// execute()/run() then replay the plan against fresh inputs without
// re-planning.  Every failure comes back as a coded Result — the facade
// never throws for bad options, bad schedules, or runtime faults.
//
// Observability: with Options::collect_trace the session attaches its own
// observe::TraceCollector and exposes the resulting RunTrace via trace(),
// write_trace() (Chrome trace_event JSON) and report() (the cost model's
// predicted per-group scores joined against measured wall times).  A user
// observe::Observer can be attached instead of or in addition to the
// collector.
//
// The pre-facade API (run_pipeline, Executor + Workspace, auto_schedule)
// remains supported; Session is a composition of those pieces, not a
// replacement semantics.  Outputs are bit-identical across both paths and
// across observer-on/off (the verifier's differ ladder pins this).
#pragma once

#include <memory>

#include "fusion/autoschedule.hpp"
#include "observe/trace.hpp"
#include "runtime/executor.hpp"
#include "storage/findb.hpp"

namespace fusedp {

// Which schedule search produces the session's grouping.  The enum values
// feed the cache key, so new entries go at the end.
enum class Scheduler : std::uint8_t {
  kAuto = 0,    // deadline-bounded ladder: bounded DP at group limits 2,
                // 4, 8, then full DP, narrowest first, then greedy ->
                // unfused (fusion/autoschedule); never fails on budget
  kDp,          // unbounded DP (paper Algorithm 1); may fail on budget or
                // deadline
  kGreedy,      // PolyMage-greedy heuristic
  kHalideAuto,  // Halide-auto-inspired grouping
  kUnfused,     // singleton groups; always valid
  kMeasured,    // k-best DP + short measured repetitions of each candidate
                // on a warmup frame; winner-by-wall-clock is selected and
                // persisted to the find-db with measured_ms.  Outputs are
                // bit-identical to the model-ranked schedule's — only the
                // *choice* of schedule changes.
  kIncremental,  // bounded incremental DP (paper Algorithm 3); may fail on
                 // budget or deadline like kDp
};

// The scheduler table: every Scheduler with its one spelling, in enum
// order.  The CLI's --scheduler flag and the trace's schedule-attempt
// labels use these spellings; nothing else maps a name to a Scheduler.
struct SchedulerSpelling {
  Scheduler scheduler;
  const char* spelling;
};
inline constexpr SchedulerSpelling kSchedulers[] = {
    {Scheduler::kAuto, "auto"},         {Scheduler::kDp, "dp"},
    {Scheduler::kGreedy, "greedy"},     {Scheduler::kHalideAuto, "hauto"},
    {Scheduler::kUnfused, "unfused"},   {Scheduler::kMeasured, "measured"},
    {Scheduler::kIncremental, "incremental"},
};

const char* scheduler_name(Scheduler s);
// Every spelling of the table, '|'-joined in table order.
std::string scheduler_spellings();
// The Scheduler spelled `name`; an unknown spelling is a coded
// kInvalidArgument that lists every spelling.
Result<Scheduler> parse_scheduler(const std::string& name);

// Everything that configures a session, in one struct: the execution knobs
// (inherited from ExecOptions, runtime/executor.hpp), the schedule-search
// knobs (inherited from AutoScheduleOptions, fusion/autoschedule.hpp) and
// observability.  Session::open validates the whole struct up front and
// rejects inconsistent combinations (see validate_options) with coded
// kInvalidArgument errors instead of silently misbehaving.
//
// Of the inherited search knobs, deadline_seconds < 0 is rejected; 0 means
// "no deadline".  kAuto, kDp, kIncremental and kMeasured bound their search
// by it (kAuto demotes down its ladder, the others fail with
// kDeadlineExceeded), so with kGreedy/kHalideAuto/kUnfused a nonzero
// deadline is rejected unless the cache is on — and then it bounds only
// the cache probe and lock wait.
struct Options : ExecOptions, AutoScheduleOptions {
  // --- Scheduling ---
  Scheduler scheduler = Scheduler::kAuto;
  MachineModel machine = MachineModel::host();
  // Path to a fitted machine-model file ("fusedp-machine v1", written by
  // `fusedp tune` / save_machine).  Non-empty replaces `machine` at open;
  // a load failure is a coded open error.  The loaded weights feed the
  // machine fingerprint, so cache keys carry fitted-model provenance.
  std::string machine_file;

  // --- Measured re-ranking (Scheduler::kMeasured) ---
  // How many k-best DP candidates to benchmark (validated to [1, 16]; 1
  // degenerates to kDp plus measured_ms persistence).
  int measured_top_k = 4;
  // Measured repetitions per candidate; the candidate's score is the best
  // (minimum) wall time, the standard noise floor for short runs.
  int measured_repeats = 2;
  // Caller-supplied warmup frame for candidate timing (one Buffer per
  // pipeline input, matching the declared domains).  nullptr synthesizes a
  // deterministic frame from the input domains.  Not owned; must outlive
  // open().  Candidate timing never touches the session workspace, so the
  // frame's values only influence timing noise, never the chosen
  // schedule's outputs.
  const std::vector<Buffer>* warmup_inputs = nullptr;

  // --- Persistent schedule cache (storage/findb) ---
  // With cache_mode != kOff, Session::open probes an on-disk cache keyed by
  // (pipeline fingerprint, machine fingerprint, schedule-relevant options
  // fingerprint) before searching: a hit re-validates the cached schedule
  // text through the hardened parser and opens with zero DP search; any
  // cache failure (corruption, version skew, stale build, lock timeout) is
  // a coded, observable event that degrades to a fresh autoschedule.
  // kReadWrite additionally persists freshly found schedules and evicts
  // records that fail validation.  cache_dir must be set when the mode is
  // not kOff.  The schedule-search deadline (deadline_seconds) bounds the
  // cache probe and lock wait too, so a wedged cache cannot stall open.
  findb::CacheMode cache_mode = findb::CacheMode::kOff;
  std::string cache_dir;
  // Bound on waiting for the cache directory lock (seconds, >= 0).
  double cache_lock_timeout_seconds = 0.5;
  // In-process LRU hot tier, shared across sessions (records; 0 = off).
  int cache_memory_entries = 32;

  // --- Request governance ---
  // Per-request wall-clock deadline for execute()/run(), in seconds
  // (0 = none).  Checked cooperatively at tile boundaries: an overrunning
  // request terminates with kDeadlineExceeded and the session workspace
  // stays reusable.  Distinct from deadline_seconds, which bounds the
  // schedule *search*.
  double run_deadline_seconds = 0.0;
  // Execution-time degradation ladder: when > 1, a retryable failure
  // (injected fault, canary trip, allocation failure, resource-budget
  // rejection) retries the request on progressively leaner configurations —
  // superop fusion off, then an unfused schedule without superops — up to
  // this many total attempts.  Every rung is bit-identical
  // by construction, so a degraded success returns the same pixels.
  // kDeadlineExceeded never retries (the clock that expired is still
  // expired).  Each attempt is streamed to the observer as a RunAttempt and
  // summarized in last_report().
  int max_run_attempts = 1;

  // --- Observability ---
  // Attach the session's own TraceCollector: schedule-ladder attempts and
  // per-group measurements accumulate into a RunTrace per execute(),
  // exposed via Session::trace() / write_trace() / report().
  bool collect_trace = false;
  // Keep per-tile events in the collected trace (timeline rendering).  Off
  // keeps per-group aggregation only; ignored unless collect_trace.
  bool trace_tiles = true;
  // Optional user sink, observed in addition to the collector (both see
  // every callback).  Not owned; must outlive the session.
  observe::Observer* observer = nullptr;

  // The schedule-relevant options digest used in the cache key: scheduler
  // choice plus every knob that can change which grouping a search returns
  // (state budgets, greedy tile parameters).  Deliberately excludes
  // deadlines and run-governance knobs: a different deadline can only
  // change *whether* the search finishes, and caching exists precisely to
  // make the finished result independent of future deadlines.  Execution
  // knobs (threads, backends) are also excluded — they change how a
  // grouping runs, not which grouping wins.
  std::uint64_t schedule_fingerprint() const;

  // The findb configuration implied by the cache_* fields.  Compaction
  // uses FindbOptions' default budgets (256 records, 16 MiB).
  findb::FindbOptions findb_options() const;
};

// The execution slice of an Options struct: its ExecOptions base.
inline ExecOptions make_exec_options(const Options& opts) { return opts; }

// Validates `opts` as a whole; returns true or a coded kInvalidArgument
// error naming EVERY offending field/combination (one message, each
// violation on its own "- " line), so callers fix their config in one pass.
Result<bool> validate_options(const Options& opts);

// The schedule step's result: what an open decides before it compiles.
struct Schedule {
  Grouping grouping;  // with its per-group model costs
  // Search post-mortem: the kAuto ladder's tiers or one attempt per
  // kMeasured candidate, else empty.  A warm start ran no search: empty
  // attempts, zero total_states.
  Diagnostics diagnostics;
  // Every cache interaction (probe, store, evictions), in order; empty
  // when Options::cache_mode was kOff.
  std::vector<observe::CacheEvent> cache_events;
  bool warm_start = false;  // the grouping came from the cache
};

class Session {
 public:
  // The schedule step: schedules `pl` with opts.scheduler through the
  // cache and stops there.  Fails with kInvalidPipeline (unfinalized/empty
  // pipeline), kInvalidArgument (bad options), or the scheduler's own
  // coded error (e.g. kSearchBudgetExhausted or kDeadlineExceeded from
  // Scheduler::kDp).
  static Result<Schedule> schedule(const Pipeline& pl, Options opts = {});
  // Uses a caller-provided grouping instead of searching; fails with
  // kInvalidSchedule if it does not validate against `pl`.  Missing
  // per-group costs are filled from the cost model (tile sizes are left
  // exactly as given).
  static Result<Schedule> schedule(const Pipeline& pl,
                                   const Grouping& grouping,
                                   Options opts = {});
  // schedule(), then the compile step.  A cached grouping that fails to
  // compile is evicted and searched again.
  static Result<Session> open(const Pipeline& pl, Options opts = {});
  static Result<Session> open(const Pipeline& pl, const Grouping& grouping,
                              Options opts = {});

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  // Executes the pipeline; results land in the session workspace (see
  // output()).  Returns wall seconds for the run.  The workspace is reused
  // across calls, so repeated execute() measures a warm plan.
  //
  // Honors Options::run_deadline_seconds and, on retryable coded failures,
  // walks the degradation ladder up to Options::max_run_attempts attempts
  // (see last_report() for the attempt-by-attempt post-mortem).  On
  // success, the returned seconds are the successful attempt's wall time.
  Result<double> execute(const std::vector<Buffer>& inputs);

  // execute() + copy of the output buffers (pipeline output order).
  Result<std::vector<Buffer>> run(const std::vector<Buffer>& inputs);

  // The i-th pipeline output (pl.outputs() order); valid after a
  // successful execute()/run().
  const Buffer& output(int i) const;
  int num_outputs() const;

  const Pipeline& pipeline() const { return *pl_; }
  const Options& options() const { return opts_; }
  const Grouping& grouping() const { return schedule_.grouping; }
  const ExecutablePlan& plan() const { return exec_->plan(); }
  // The primary executor.  Callers may run it concurrently on their own
  // distinct Workspaces (api/serve.hpp does), bypassing the session's
  // workspace, deadline and degradation ladder.
  const Executor& executor() const { return *exec_; }
  // The open's Schedule, field by field (see Schedule).
  const Diagnostics& diagnostics() const { return schedule_.diagnostics; }
  bool warm_start() const { return schedule_.warm_start; }
  const std::vector<observe::CacheEvent>& cache_events() const {
    return schedule_.cache_events;
  }

  // The last run's trace; nullptr unless Options::collect_trace and at
  // least one execute() happened.
  const observe::RunTrace* trace() const;
  // Chrome trace_event JSON of the last run -> `path`.  kInvalidArgument
  // without a trace, kIoError on filesystem trouble; otherwise the number
  // of trace events written.
  Result<int> write_trace(const std::string& path) const;
  // Predicted-vs-measured per-group report of the last run.
  Result<observe::Report> report() const;

  // Attempt-by-attempt post-mortem of the most recent execute()/run():
  // every degradation-ladder attempt with its config, outcome, coded error
  // and wall time.  Empty before the first execute().
  const observe::RunReport& last_report() const { return report_; }

 private:
  // The open phases (session.cpp).  steps() constructs the session first
  // — the constructor wires the observability sinks, so probe and search
  // events stream to them as they happen — then runs probe -> search ->
  // store into schedule_ and, with `compile`, assemble().
  struct CacheProbe;
  Session(const Pipeline& pl, Options opts);
  static Result<Session> steps(const Pipeline& pl, const Grouping* given,
                               Options opts, bool compile);
  CacheProbe probe(const Deadline* deadline);
  std::vector<double> search(const Deadline& deadline);
  void store(const CacheProbe& probe, const std::vector<double>& measured_ms,
             const Deadline* deadline);
  Result<bool> assemble();
  // Streams `ev` to the observer and records it in schedule_.
  void emit_cache_event(observe::CacheEvent ev);

  // One fallback rung of the degradation ladder (the primary attempt runs
  // on exec_).  Executors are built lazily on the first failure that
  // reaches the rung and cached for later requests.
  struct FallbackRung {
    std::string label;
    ExecOptions exec;
    bool unfused = false;  // re-schedule as singleton groups
    std::unique_ptr<Executor> executor;
  };

  void build_rungs();
  // The executor for 0-based attempt index `i` (0 = primary); nullptr once
  // the ladder is exhausted.  Lazily constructs fallback executors.
  Executor* attempt_executor(std::size_t i);

  const Pipeline* pl_;
  Options opts_;
  Schedule schedule_;
  // unique_ptrs keep observer addresses stable across Session moves.
  std::unique_ptr<observe::TraceCollector> collector_;
  std::unique_ptr<observe::TeeObserver> tee_;
  std::unique_ptr<Executor> exec_;
  std::vector<FallbackRung> rungs_;
  Workspace ws_;
  observe::RunReport report_;
  bool ran_ = false;

  observe::Observer* effective_observer() const;
};

}  // namespace fusedp
