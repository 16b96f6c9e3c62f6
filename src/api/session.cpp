#include "api/session.hpp"

#include <algorithm>
#include <ctime>
#include <sstream>
#include <utility>

#include "fusion/dp.hpp"
#include "fusion/grouping.hpp"
#include "fusion/halide_auto.hpp"
#include "fusion/incremental.hpp"
#include "fusion/polymage_greedy.hpp"
#include "fusion/serialize.hpp"
#include "model/tune.hpp"
#include "support/fault.hpp"
#include "support/fingerprint.hpp"
#include "support/timing.hpp"

namespace fusedp {

const char* scheduler_name(Scheduler s) {
  for (const SchedulerSpelling& e : kSchedulers)
    if (e.scheduler == s) return e.spelling;
  return "?";
}

std::string scheduler_spellings() {
  std::string all;
  for (const SchedulerSpelling& e : kSchedulers) {
    if (!all.empty()) all += '|';
    all += e.spelling;
  }
  return all;
}

Result<Scheduler> parse_scheduler(const std::string& name) {
  for (const SchedulerSpelling& e : kSchedulers)
    if (name == e.spelling) return e.scheduler;
  return Result<Scheduler>::failure(
      ErrorCode::kInvalidArgument,
      "unknown scheduler '" + name + "' (want " + scheduler_spellings() + ")");
}

std::uint64_t Options::schedule_fingerprint() const {
  Fnv64 h;
  h.add_str("fusedp-options-v1");
  h.add_i32(static_cast<std::int32_t>(scheduler));
  h.add_u64(max_states);
  h.add_i32(kBoundedMaxLimit);
  h.add_i64(greedy_t1);
  h.add_i64(greedy_t2);
  h.add_f64(greedy_tolerance);
  // The measured-rung knobs change which grouping wins, so they join the
  // digest — but only under kMeasured, keeping every pre-existing cache key
  // for the other schedulers byte-stable across this addition.  The
  // execution knobs join for the same reason: the shoot-out's winner is a
  // wall-clock verdict taken at this thread count and tile-loop backend.
  if (scheduler == Scheduler::kMeasured) {
    h.add_i32(measured_top_k);
    h.add_i32(measured_repeats);
    h.add_i32(num_threads);
    // Where a since-deleted backend switch was hashed (always 1 by
    // default): the constant keeps every stored kMeasured key valid.
    h.add_i32(1);
    h.add_i32(pool_backend ? 1 : 0);
    // Where the since-deleted approximate-transcendentals switch was hashed
    // (always 0 by default), kept for the same reason.
    h.add_i32(0);
  }
  return h.digest();
}

findb::FindbOptions Options::findb_options() const {
  findb::FindbOptions fo;
  fo.dir = cache_dir;
  fo.mode = cache_mode;
  fo.lock_timeout_seconds = cache_lock_timeout_seconds;
  fo.memory_entries = cache_memory_entries;
  fo.git_sha = build_git_sha();
  return fo;
}

Result<bool> validate_options(const Options& opts) {
  // Every violation is collected before anything returns, so a caller with
  // three bad fields fixes all three after one failed open instead of
  // replaying open once per field.
  std::vector<std::string> violations;
  auto flag = [&violations](std::string msg) {
    violations.push_back(std::move(msg));
  };

  if (opts.num_threads <= 0) {
    std::ostringstream os;
    os << "Options::num_threads must be >= 1 (got " << opts.num_threads << ")";
    flag(os.str());
  }
  if (opts.deadline_seconds < 0.0)
    flag("Options::deadline_seconds must be >= 0 (0 = no deadline)");
  if (opts.run_deadline_seconds < 0.0)
    flag("Options::run_deadline_seconds must be >= 0 (0 = no deadline)");
  if (opts.max_run_attempts < 1) {
    std::ostringstream os;
    os << "Options::max_run_attempts must be >= 1 (got "
       << opts.max_run_attempts << ")";
    flag(os.str());
  }
  const bool uses_dp = opts.scheduler == Scheduler::kAuto ||
                       opts.scheduler == Scheduler::kDp ||
                       opts.scheduler == Scheduler::kIncremental ||
                       opts.scheduler == Scheduler::kMeasured;
  if (uses_dp && opts.max_states == 0)
    flag(
        "Options::max_states = 0 leaves the DP search no budget at all; "
        "pick a positive budget or Scheduler::kGreedy/kUnfused");
  const bool uses_greedy =
      opts.scheduler == Scheduler::kAuto || opts.scheduler == Scheduler::kGreedy;
  if (uses_greedy && (opts.greedy_t1 <= 0 || opts.greedy_t2 <= 0))
    flag("Options::greedy_t1/greedy_t2 must be positive tile sizes");
  if (uses_greedy && opts.greedy_tolerance < 0.0)
    flag("Options::greedy_tolerance must be >= 0");
  if (opts.scheduler == Scheduler::kMeasured &&
      (opts.measured_top_k < 1 || opts.measured_top_k > 16)) {
    std::ostringstream os;
    os << "Options::measured_top_k must be in [1, 16] (got "
       << opts.measured_top_k << ")";
    flag(os.str());
  }
  if (opts.scheduler == Scheduler::kMeasured && opts.measured_repeats < 1) {
    std::ostringstream os;
    os << "Options::measured_repeats must be >= 1 (got "
       << opts.measured_repeats << ")";
    flag(os.str());
  }
  if (opts.deadline_seconds > 0.0 && !uses_dp &&
      opts.cache_mode == findb::CacheMode::kOff) {
    std::ostringstream os;
    os << "Options::deadline_seconds only bounds the DP searches (auto, dp, "
          "incremental, measured); with scheduler = "
       << scheduler_name(opts.scheduler) << " a deadline cannot be honored";
    flag(os.str());
  }
  if (opts.cache_mode != findb::CacheMode::kOff && opts.cache_dir.empty())
    flag("Options::cache_dir must be set when cache_mode is " +
         std::string(findb::cache_mode_name(opts.cache_mode)));
  if (opts.cache_lock_timeout_seconds < 0.0)
    flag("Options::cache_lock_timeout_seconds must be >= 0");
  if (opts.cache_mode != findb::CacheMode::kOff &&
      opts.cache_memory_entries < 0)
    flag("Options::cache_memory_entries must be >= 0 (0 = off)");

  if (violations.empty()) return true;
  if (violations.size() == 1)
    return Result<bool>::failure(ErrorCode::kInvalidArgument,
                                 violations.front());
  std::ostringstream os;
  os << "invalid Options (" << violations.size() << " violations):";
  for (const std::string& v : violations) os << "\n- " << v;
  return Result<bool>::failure(ErrorCode::kInvalidArgument, os.str());
}

namespace {

// Shared open() precondition checks, then Options::machine_file: a
// non-empty path replaces opts.machine with the fitted model before
// anything fingerprints it, so cache keys carry fitted-model provenance.  A
// load failure fails the open with the loader's coded error.
Result<bool> prepare_open(const Pipeline& pl, Options& opts) {
  Result<bool> v = validate_options(opts);
  if (!v.ok()) return v;
  if (!pl.finalized())
    return Result<bool>::failure(
        ErrorCode::kInvalidPipeline,
        "Session::open: pipeline '" + pl.name() +
            "' is not finalized (call Pipeline::finalize() first)");
  if (pl.num_stages() == 0)
    return Result<bool>::failure(ErrorCode::kInvalidPipeline,
                                 "Session::open: pipeline '" + pl.name() +
                                     "' has no stages");
  if (opts.scheduler == Scheduler::kMeasured &&
      opts.warmup_inputs != nullptr &&
      static_cast<int>(opts.warmup_inputs->size()) != pl.num_inputs()) {
    std::ostringstream os;
    os << "Session::open: Options::warmup_inputs has "
       << opts.warmup_inputs->size() << " buffer(s) but pipeline '"
       << pl.name() << "' takes " << pl.num_inputs() << " input(s)";
    return Result<bool>::failure(ErrorCode::kInvalidArgument, os.str());
  }
  if (opts.machine_file.empty()) return true;
  Result<MachineModel> mm = load_machine(opts.machine_file);
  if (!mm.ok()) return mm.error();
  opts.machine = std::move(mm).value();
  return true;
}

// A deterministic warmup frame for candidate timing under kMeasured when
// the caller did not supply one: smooth low-frequency content per declared
// input domain (values only perturb timing noise, never outputs).
std::vector<Buffer> synthesize_warmup_inputs(const Pipeline& pl) {
  std::vector<Buffer> inputs;
  inputs.reserve(static_cast<std::size_t>(pl.num_inputs()));
  for (int i = 0; i < pl.num_inputs(); ++i) {
    const Box& dom = pl.input(i).domain;
    std::vector<std::int64_t> extents;
    for (int d = 0; d < dom.rank; ++d) extents.push_back(dom.extent(d));
    Buffer b(extents);
    float* p = b.data();
    std::uint32_t state = 0x9E3779B9u * static_cast<std::uint32_t>(i + 1);
    for (std::int64_t j = 0; j < b.volume(); ++j) {
      state = state * 1664525u + 1013904223u;  // LCG, deterministic
      p[j] = static_cast<float>(state >> 8) * (1.0f / 16777216.0f);
    }
    inputs.push_back(std::move(b));
  }
  return inputs;
}

// Inverse of schedule_tier_name, for labeling a cache-served schedule's
// diagnostics with the tier that originally found it.
ScheduleTier tier_from_rung(const std::string& rung) {
  if (rung == "full-dp") return ScheduleTier::kFullDp;
  if (rung == "measured") return ScheduleTier::kFullDp;  // k-best full DP
  if (rung == "bounded-dp") return ScheduleTier::kBoundedDp;
  if (rung == "unfused") return ScheduleTier::kUnfused;
  return ScheduleTier::kGreedy;  // "greedy" and anything unrecognized
}

// Runs `f` and maps whatever it throws to the coded failure every open
// route reports, so Session::open never throws.
template <typename T, typename F>
Result<T> coded(F&& f) {
  try {
    return f();
  } catch (const Error& e) {
    return Result<T>(e);
  } catch (const std::bad_alloc&) {
    return Result<T>::failure(ErrorCode::kAllocationFailed,
                              "Session::open: out of memory");
  } catch (const std::exception& e) {
    return Result<T>::failure(ErrorCode::kInternal, e.what());
  }
}

// The kMeasured shoot-out: times each k-best candidate on a warmup frame
// and returns the index of the fastest, recording one attempt per
// candidate in `diag` and on `obs`.  Measurement runs in scratch
// workspaces and never touches session state, so the chosen schedule's
// outputs are bit-identical to what the model-ranked schedule would
// compute — only the *choice* among model-optimal-ish schedules changes.
// The winner's per-group measured wall times land in `measured_ms`.
std::size_t shoot_out(const Pipeline& pl, const Options& opts,
                      const std::vector<Grouping>& cands, const Deadline* odl,
                      observe::Observer* obs, Diagnostics& diag,
                      std::vector<double>& measured_ms) {
  std::vector<Buffer> synth;
  const std::vector<Buffer>* warm = opts.warmup_inputs;
  if (warm == nullptr) {
    synth = synthesize_warmup_inputs(pl);
    warm = &synth;
  }
  const ExecOptions eo = make_exec_options(opts);
  int best = -1;
  double best_ms = 0.0;
  std::unique_ptr<Executor> best_ex;
  bool expired = false;
  for (std::size_t ci = 0; ci < cands.size() && !expired; ++ci) {
    observe::ScheduleAttempt at;
    at.tier = "measured";
    TierAttempt ta;
    ta.tier = ScheduleTier::kFullDp;
    WallTimer ct;
    try {
      // An already-expired deadline must not start another candidate; the
      // executor's own checks sit at tile boundaries, so a tiny
      // single-tile candidate could otherwise sneak through.
      if (odl != nullptr && odl->expired())
        throw Error("measured rung: open deadline expired",
                    ErrorCode::kDeadlineExceeded);
      auto ex = std::make_unique<Executor>(pl, cands[ci], eo);
      Workspace cand_ws;
      double ms = 0.0;
      for (int r = 0; r < opts.measured_repeats; ++r) {
        WallTimer t;
        ex->run(*warm, cand_ws, nullptr, odl);
        const double s = t.seconds() * 1e3;
        if (r == 0 || s < ms) ms = s;
      }
      if (best < 0 || ms < best_ms) {
        best = static_cast<int>(ci);
        best_ms = ms;
        best_ex = std::move(ex);
      }
      at.succeeded = true;
      std::ostringstream os;
      os << "candidate " << ci << ": " << cands[ci].groups.size()
         << " groups, model cost " << cands[ci].total_cost << ", best of "
         << opts.measured_repeats << " rep(s) " << ms << " ms";
      at.detail = os.str();
    } catch (const Error& e) {
      // An expired deadline ends the shoot-out (the clock stays expired);
      // any other coded failure skips just this candidate — a candidate
      // that cannot even run must not win.
      at.succeeded = false;
      at.code = error_code_name(e.code());
      std::ostringstream os;
      os << "candidate " << ci << ": " << e.what();
      at.detail = os.str();
      if (e.code() == ErrorCode::kDeadlineExceeded) expired = true;
    }
    at.seconds = ct.seconds();
    if (obs != nullptr) obs->on_schedule_attempt(at);
    ta.succeeded = at.succeeded;
    if (!at.succeeded)
      ta.code = expired ? ErrorCode::kDeadlineExceeded : ErrorCode::kInternal;
    ta.detail = at.detail;
    ta.seconds = at.seconds;
    diag.attempts.push_back(std::move(ta));
  }
  // With no completed measurement (deadline expired up front) the
  // model-ranked #1 wins, which is exactly what Scheduler::kDp would have
  // returned.
  if (best < 0) return 0;
  const std::size_t win = static_cast<std::size_t>(best);

  // Harvest the winner's per-group measured times from one traced run of
  // its timed executor; they ride along in the find-db record
  // (measured_ms) and feed `fusedp tune`.  Best-effort: a failure here
  // never loses the chosen schedule.
  try {
    observe::TraceCollector tc(false);
    Workspace cand_ws;
    best_ex->run(*warm, cand_ws, &tc, odl);
    const observe::RunTrace* t = tc.last();
    if (t != nullptr) {
      measured_ms.assign(cands[win].groups.size(), 0.0);
      for (const observe::GroupRecord& g : t->groups)
        for (std::size_t gi = 0; gi < cands[win].groups.size(); ++gi)
          if (cands[win].groups[gi].stages.bits() == g.stage_bits)
            measured_ms[gi] = g.seconds * 1e3;
    }
  } catch (...) {
    measured_ms.clear();
  }
  return win;
}

// A caller's grouping with its missing per-group predicted costs filled
// from the cost model, so the report's predicted column is populated.  Tile
// sizes are never touched: a caller-provided grouping executes exactly as
// given (complete_grouping would overwrite deliberately-absent tile sizes
// and change the run).
Grouping with_predicted_costs(const Pipeline& pl, const MachineModel& machine,
                              Grouping g) {
  const CostModel model(pl, machine);
  double total = 0.0;
  for (GroupSchedule& gs : g.groups) {
    if (gs.cost == 0.0) {
      try {
        GroupCost gc = model.cost(gs.stages);
        if (gc.feasible()) gs.cost = gc.cost;
      } catch (const Error&) {
        // Model cannot score this group (e.g. a reduction); leave 0.
      }
    }
    total += gs.cost;
  }
  if (g.total_cost == 0.0) g.total_cost = total;
  return g;
}

}  // namespace

// What the find-db probe hands the later phases: the cache (null when off
// or unopenable) and this open's key.
struct Session::CacheProbe {
  std::unique_ptr<findb::FindDb> db;
  findb::CacheKey key;
};

// Both steps construct their session first, so the sinks wired here see
// the probe and search events as they happen.
Session::Session(const Pipeline& pl, Options opts)
    : pl_(&pl), opts_(std::move(opts)) {
  if (opts_.collect_trace)
    collector_ = std::make_unique<observe::TraceCollector>(opts_.trace_tiles);
  if (collector_ != nullptr && opts_.observer != nullptr)
    tee_ = std::make_unique<observe::TeeObserver>(collector_.get(),
                                                  opts_.observer);
}

observe::Observer* Session::effective_observer() const {
  if (tee_ != nullptr) return tee_.get();
  if (collector_ != nullptr) return collector_.get();
  return opts_.observer;
}

void Session::emit_cache_event(observe::CacheEvent ev) {
  if (observe::Observer* obs = effective_observer())
    obs->on_cache_event(ev);
  schedule_.cache_events.push_back(std::move(ev));
}

// The degradation ladder, leanest-last: full -> no-superops -> unfused.
// Every rung computes bit-identical outputs (superop fusion is a bit-exact
// transform; the unfused schedule changes only evaluation order across
// group boundaries, which the executor's overlapped-tiling semantics make
// value-neutral), so degrading trades only speed for robustness.  Every
// fallback rung drops superops and FMA contraction (a superop transform)
// and the approximate kernels, since degraded runs must be bit-identical
// to the reference.
void Session::build_rungs() {
  struct Rung {
    const char* label;
    bool applies;
    bool unfused;
  };
  const ExecOptions base = make_exec_options(opts_);
  const Rung table[] = {
      {"no-superops", base.superop_fusion, false},
      {"unfused", true, true},
  };
  rungs_.clear();
  for (const Rung& t : table) {
    if (!t.applies) continue;
    FallbackRung r;
    r.label = t.label;
    r.exec = base;
    r.exec.superop_fusion = false;
    r.unfused = t.unfused;
    rungs_.push_back(std::move(r));
  }
}

Executor* Session::attempt_executor(std::size_t i) {
  if (i == 0) return exec_.get();
  const std::size_t ri = i - 1;
  if (ri >= rungs_.size()) return nullptr;  // ladder exhausted
  FallbackRung& r = rungs_[ri];
  if (r.executor == nullptr) {
    if (r.unfused) {
      CostModel model(*pl_, opts_.machine);
      Grouping g = singleton_grouping(*pl_, model);
      r.executor = std::make_unique<Executor>(*pl_, g, r.exec);
    } else {
      r.executor =
          std::make_unique<Executor>(*pl_, schedule_.grouping, r.exec);
    }
  }
  return r.executor.get();
}

// Phase 1: the find-db probe.  A hit is still untrusted bytes: its
// schedule text goes back through the hardened parser and grouping
// validation against *this* pipeline before it counts as a hit, which
// lands in schedule_ as a warm start.  A hit streams a "cache" schedule
// attempt after the probe's cache event.
Session::CacheProbe Session::probe(const Deadline* deadline) {
  CacheProbe p;
  if (opts_.cache_mode == findb::CacheMode::kOff) return p;
  try {
    p.db = std::make_unique<findb::FindDb>(opts_.findb_options());
    p.key.pipeline_fp = fingerprint(*pl_);
    p.key.machine_fp = fingerprint(opts_.machine);
    p.key.options_fp = opts_.schedule_fingerprint();
    findb::ProbeResult pr = p.db->probe(p.key, deadline);
    observe::CacheEvent ev;
    ev.action = "probe";
    ev.outcome = findb::probe_outcome_name(pr.outcome);
    ev.from_memory = pr.from_memory;
    ev.detail = pr.detail;
    ev.seconds = pr.seconds;
    if (pr.outcome == findb::ProbeOutcome::kHit) {
      Result<Grouping> g =
          try_grouping_from_text(*pl_, pr.record.schedule_text);
      if (g.ok()) {
        Grouping& hit = schedule_.grouping = std::move(g).value();
        schedule_.warm_start = true;
        schedule_.diagnostics.tier = tier_from_rung(pr.record.rung);
        schedule_.diagnostics.total_seconds = pr.seconds;
        // The schedule text carries no costs; restore the record's
        // per-group predictions so reports stay populated on warm starts.
        if (pr.record.predicted.size() == hit.groups.size()) {
          double total = 0.0;
          for (std::size_t i = 0; i < hit.groups.size(); ++i) {
            hit.groups[i].cost = pr.record.predicted[i];
            total += pr.record.predicted[i];
          }
          hit.total_cost = total;
        }
      } else {
        ev.outcome = "invalid-schedule";
        ev.detail = g.error().what();
        if (opts_.cache_mode == findb::CacheMode::kReadWrite)
          (void)p.db->evict(p.key);
      }
    }
    emit_cache_event(std::move(ev));
    observe::Observer* obs = effective_observer();
    if (schedule_.warm_start && obs != nullptr) {
      observe::ScheduleAttempt at;
      at.tier = "cache";
      at.succeeded = true;
      at.seconds = pr.seconds;
      std::ostringstream os;
      os << schedule_.grouping.groups.size()
         << " groups from cache (found by " << pr.record.rung << ")";
      at.detail = os.str();
      obs->on_schedule_attempt(at);
    }
  } catch (...) {
    // The cache must never break an open; an unexpected throw here
    // behaves exactly like a miss.
    observe::CacheEvent ev;
    ev.action = "probe";
    ev.outcome = "io-error";
    ev.detail = "unexpected exception during cache probe";
    emit_cache_event(std::move(ev));
    schedule_.warm_start = false;
  }
  return p;
}

// Phase 2: a fresh schedule search with opts_.scheduler into schedule_.
// Returns the kMeasured winner's per-group measured ms (empty for the
// other schedulers).  Throws the scheduler's coded errors (e.g.
// kSearchBudgetExhausted from kDp).
std::vector<double> Session::search(const Deadline& deadline) {
  const Pipeline& pl = *pl_;
  const Deadline* odl = deadline.armed() ? &deadline : nullptr;
  observe::Observer* obs = effective_observer();
  const CostModel model(pl, opts_.machine);
  Grouping& g = schedule_.grouping;
  Diagnostics& diag = schedule_.diagnostics = Diagnostics{};
  std::vector<double> measured_ms;
  WallTimer timer;
  switch (opts_.scheduler) {
    case Scheduler::kAuto: {
      AutoScheduleOptions ao = opts_;
      // The probe already spent part of the open deadline; the search gets
      // what remains (an effectively-expired remainder makes the ladder
      // fall through to its cheap tiers, same as any late start).
      if (odl != nullptr)
        ao.deadline_seconds = std::max(1e-9, deadline.remaining_seconds());
      ScheduleResult sr = auto_schedule(pl, model, ao, obs);
      g = std::move(sr.grouping);
      diag = std::move(sr.diagnostics);
      break;
    }
    case Scheduler::kDp: {
      DpOptions dopts;
      dopts.max_states = opts_.max_states;
      if (odl != nullptr)
        dopts.deadline_seconds = std::max(1e-9, deadline.remaining_seconds());
      DpFusion dp(pl, model, dopts);
      g = dp.run();
      diag.tier = ScheduleTier::kFullDp;
      diag.total_states = dp.stats().groupings_enumerated;
      break;
    }
    case Scheduler::kIncremental: {
      IncOptions iopts;
      iopts.max_states = opts_.max_states;
      if (odl != nullptr)
        iopts.deadline_seconds = std::max(1e-9, deadline.remaining_seconds());
      IncFusion inc(pl, model, iopts);
      g = inc.run();
      diag.tier = ScheduleTier::kBoundedDp;  // group-limited DP passes
      diag.total_states = inc.stats().groupings_enumerated;
      break;
    }
    case Scheduler::kGreedy:
      g = PolyMageGreedy(pl, model)
              .run(opts_.greedy_t1, opts_.greedy_t2, opts_.greedy_tolerance);
      diag.tier = ScheduleTier::kGreedy;
      break;
    case Scheduler::kHalideAuto:
      g = HalideAuto(pl, model).run();
      diag.tier = ScheduleTier::kGreedy;  // nearest tier label
      break;
    case Scheduler::kUnfused:
      g = singleton_grouping(pl, model);
      diag.tier = ScheduleTier::kUnfused;
      break;
    case Scheduler::kMeasured: {
      // k-best DP, then the measured shoot-out between the candidates.
      DpOptions dopts;
      dopts.max_states = opts_.max_states;
      dopts.top_k = opts_.measured_top_k;
      if (odl != nullptr)
        dopts.deadline_seconds = std::max(1e-9, deadline.remaining_seconds());
      DpFusion dp(pl, model, dopts);
      std::vector<Grouping> cands = dp.run_top_k();
      diag.tier = ScheduleTier::kFullDp;
      diag.total_states = dp.stats().groupings_enumerated;
      const std::size_t win =
          shoot_out(pl, opts_, cands, odl, obs, diag, measured_ms);
      g = std::move(cands[win]);
      break;
    }
  }
  diag.total_seconds = timer.seconds();
  // kAuto streams its ladder attempts itself; synthesize the one-shot
  // record for the direct schedulers so traces always show how the
  // schedule came to be.
  if (obs != nullptr && opts_.scheduler != Scheduler::kAuto) {
    observe::ScheduleAttempt at;
    at.tier = scheduler_name(opts_.scheduler);
    at.succeeded = true;
    at.seconds = diag.total_seconds;
    std::ostringstream os;
    os << g.groups.size() << " groups, model cost " << g.total_cost;
    at.detail = os.str();
    obs->on_schedule_attempt(at);
  }
  return measured_ms;
}

// Phase 3: persist the freshly found schedule_ so the next open
// warm-starts, unless the search was cut short outside the cache key.
// Store failures (lock contention, injected faults, a full disk) are coded
// events, never open failures — the schedule is already good.
void Session::store(const CacheProbe& probe,
                    const std::vector<double>& measured_ms,
                    const Deadline* deadline) {
  if (probe.db == nullptr || opts_.cache_mode != findb::CacheMode::kReadWrite)
    return;
  // A search cut short by something the key leaves out (a deadline, a
  // failed allocation or measured candidate) may answer with a grouping an
  // unhurried search would not pick, and a stored record would serve it to
  // every later open.  Only a state-budget failure is sound to store:
  // max_states is in the key.
  const std::vector<TierAttempt>& attempts = schedule_.diagnostics.attempts;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const TierAttempt& a = attempts[i];
    if (a.succeeded || a.code == ErrorCode::kSearchBudgetExhausted) continue;
    std::string label = opts_.scheduler == Scheduler::kMeasured
                            ? "measured"
                            : schedule_tier_name(a.tier);
    if (a.tier == ScheduleTier::kBoundedDp)
      label += "(limit=" + std::to_string(a.group_limit) + ")";
    observe::CacheEvent ev;
    ev.action = "store";
    ev.outcome = "skipped";
    ev.detail = "attempt " + std::to_string(i + 1) + " " + label + " [" +
                error_code_name(a.code) +
                "]: only a state-budget failure is in the cache key";
    emit_cache_event(std::move(ev));
    return;
  }
  const Grouping& g = schedule_.grouping;
  findb::CacheRecord rec;
  rec.pipeline = pl_->name();
  rec.git_sha = build_git_sha();
  // kMeasured's own label survives the tier round-trip (tier_from_rung
  // maps it back to kFullDp).
  rec.rung = opts_.scheduler == Scheduler::kMeasured
                 ? "measured"
                 : schedule_tier_name(schedule_.diagnostics.tier);
  rec.created_unix = static_cast<std::int64_t>(::time(nullptr));
  rec.predicted.reserve(g.groups.size());
  for (const GroupSchedule& gs : g.groups) rec.predicted.push_back(gs.cost);
  rec.measured_ms = measured_ms;
  rec.schedule_text = grouping_to_text(*pl_, g);
  WallTimer store_timer;
  Result<bool> st = probe.db->store(probe.key, rec, deadline);
  observe::CacheEvent ev;
  ev.action = "store";
  ev.outcome = st.ok() ? "stored" : "store-failed";
  if (!st.ok())
    ev.detail = std::string(error_code_name(st.code())) + ": " +
                st.error().what();
  ev.seconds = store_timer.seconds();
  emit_cache_event(std::move(ev));
}

// Phase 4, the compile step: lowers schedule_.grouping to the primary
// executor and lays out the degradation rungs.  On failure the session
// keeps its options, sinks and cache events untouched, so steps() can
// still fall back to a fresh search with them.
Result<bool> Session::assemble() {
  return coded<bool>([&] {
    if (schedule_.warm_start) FUSEDP_FAULT_POINT("session.warm_plan");
    exec_ = std::make_unique<Executor>(*pl_, schedule_.grouping,
                                       make_exec_options(opts_));
    build_rungs();
    return true;
  });
}

// Every route: the schedule step into schedule_ — a caller's grouping
// (`given`) or probe -> search -> store — and, with `compile`, the compile
// step.  Compiling here lets a cached grouping that fails to compile fall
// back to a fresh search.
Result<Session> Session::steps(const Pipeline& pl, const Grouping* given,
                               Options opts, bool compile) {
  if (Result<bool> pre = prepare_open(pl, opts); !pre.ok())
    return pre.error();
  std::string why;
  if (given != nullptr && !validate_grouping(pl, *given, &why))
    return Result<Session>::failure(
        ErrorCode::kInvalidSchedule,
        "Session::open: grouping does not validate: " + why);
  Session s(pl, std::move(opts));
  // One clock for the whole open: the schedule-search deadline also bounds
  // the cache probe and its lock wait, so a wedged or slow cache directory
  // can never stall an open longer than a cache-off search would.
  const Deadline open_deadline =
      s.opts_.deadline_seconds > 0.0 ? Deadline::after(s.opts_.deadline_seconds)
                                     : Deadline();
  const Deadline* odl = open_deadline.armed() ? &open_deadline : nullptr;

  if (given != nullptr) {
    // A caller-provided grouping overrides the cache: record that the cache
    // was configured but deliberately not consulted.
    if (s.opts_.cache_mode != findb::CacheMode::kOff)
      s.emit_cache_event({.action = "probe",
                          .outcome = "bypass",
                          .detail = "caller-provided grouping"});
    Result<Grouping> g = coded<Grouping>(
        [&] { return with_predicted_costs(pl, s.opts_.machine, *given); });
    if (!g.ok()) return g.error();
    s.schedule_.grouping = std::move(g).value();
  } else {
    CacheProbe cached = s.probe(odl);
    if (s.schedule_.warm_start) {
      Result<bool> warm = compile ? s.assemble() : true;
      if (warm.ok()) return Result<Session>(std::move(s));
      // The cached schedule parsed but failed plan construction (footprint
      // checks, lowering): coded event, evict, fall through to a fresh
      // search as if it had been a miss.
      s.schedule_.warm_start = false;
      s.emit_cache_event(
          {.action = "probe",
           .outcome = "invalid-schedule",
           .detail = std::string("plan rejected cached schedule: ") +
                     warm.error().what()});
      if (s.opts_.cache_mode == findb::CacheMode::kReadWrite)
        (void)cached.db->evict(cached.key);
    }
    Result<bool> found = coded<bool>([&] {
      s.store(cached, s.search(open_deadline), odl);
      return true;
    });
    if (!found.ok()) return found.error();
  }
  if (compile)
    if (Result<bool> built = s.assemble(); !built.ok()) return built.error();
  return Result<Session>(std::move(s));
}

Result<Schedule> Session::schedule(const Pipeline& pl, Options opts) {
  Result<Session> s = steps(pl, nullptr, std::move(opts), false);
  if (!s.ok()) return s.error();
  return std::move(s).value().schedule_;
}

Result<Schedule> Session::schedule(const Pipeline& pl,
                                   const Grouping& grouping, Options opts) {
  Result<Session> s = steps(pl, &grouping, std::move(opts), false);
  if (!s.ok()) return s.error();
  return std::move(s).value().schedule_;
}

Result<Session> Session::open(const Pipeline& pl, Options opts) {
  return steps(pl, nullptr, std::move(opts), /*compile=*/true);
}

Result<Session> Session::open(const Pipeline& pl, const Grouping& grouping,
                              Options opts) {
  return steps(pl, &grouping, std::move(opts), /*compile=*/true);
}

Result<double> Session::execute(const std::vector<Buffer>& inputs) {
  const Deadline deadline =
      opts_.run_deadline_seconds > 0.0
          ? Deadline::after(opts_.run_deadline_seconds)
          : Deadline();
  const Deadline* dl = deadline.armed() ? &deadline : nullptr;

  // A failed attempt retries on the next rung of the degradation ladder
  // when the failure is transient or config-induced: an injected fault or
  // canary trip (the leaner rung sidesteps the faulty path), an allocation
  // failure or budget rejection (the leaner rung needs less memory).  An
  // expired deadline is terminal — no rung can un-expire the clock.
  auto retryable = [](ErrorCode c) {
    return c == ErrorCode::kInternal || c == ErrorCode::kAllocationFailed ||
           c == ErrorCode::kResourceExhausted ||
           c == ErrorCode::kFaultInjected;
  };

  observe::Observer* obs = effective_observer();
  observe::RunReport report;
  if (!schedule_.cache_events.empty())
    report.cache_outcome = schedule_.cache_events.front().outcome;
  report.warm_start = schedule_.warm_start;
  WallTimer total;
  Error last(std::string("Session::execute: no attempts"),
             ErrorCode::kInternal);
  for (int attempt = 1; attempt <= opts_.max_run_attempts; ++attempt) {
    observe::RunAttempt ra;
    ra.index = attempt;
    WallTimer t;
    bool stop = false;
    try {
      Executor* ex = attempt_executor(static_cast<std::size_t>(attempt - 1));
      if (ex == nullptr) break;  // ladder exhausted: report the last error
      ra.config = attempt == 1
                      ? "full"
                      : rungs_[static_cast<std::size_t>(attempt - 2)].label;
      ex->run(inputs, ws_, obs, dl);
      ra.succeeded = true;
      ra.seconds = t.seconds();
      if (obs != nullptr) obs->on_run_attempt(ra);
      report.attempts.push_back(ra);
      report.succeeded = true;
      report.degraded = attempt > 1;
      report.final_config = report.attempts.back().config;
      report.total_seconds = total.seconds();
      report_ = std::move(report);
      ran_ = true;
      return ra.seconds;
    } catch (const Error& e) {
      last = e;
    } catch (const std::bad_alloc&) {
      last = Error(std::string("Session::execute: out of memory"),
                   ErrorCode::kAllocationFailed);
    } catch (const std::exception& e) {
      last = Error(std::string(e.what()), ErrorCode::kInternal);
    }
    if (ra.config.empty()) ra.config = "full";
    ra.seconds = t.seconds();
    ra.code = error_code_name(last.code());
    ra.detail = last.what();
    if (obs != nullptr) obs->on_run_attempt(ra);
    report.attempts.push_back(std::move(ra));
    stop = !retryable(last.code());
    if (stop) break;
  }
  report.succeeded = false;
  if (!report.attempts.empty())
    report.final_config = report.attempts.back().config;
  report.total_seconds = total.seconds();
  report_ = std::move(report);
  return Result<double>(last);
}

Result<std::vector<Buffer>> Session::run(const std::vector<Buffer>& inputs) {
  Result<double> r = execute(inputs);
  if (!r.ok()) return r.error();
  std::vector<Buffer> out;
  out.reserve(pl_->outputs().size());
  for (int s : pl_->outputs()) out.push_back(ws_.stage_buffer(s));
  return out;
}

const Buffer& Session::output(int i) const {
  FUSEDP_CHECK_CODE(ran_, ErrorCode::kInvalidArgument,
                    "Session::output before a successful execute()");
  FUSEDP_CHECK_CODE(i >= 0 && i < num_outputs(), ErrorCode::kInvalidArgument,
                    "Session::output index out of range");
  return ws_.stage_buffer(pl_->outputs()[static_cast<std::size_t>(i)]);
}

int Session::num_outputs() const {
  return static_cast<int>(pl_->outputs().size());
}

const observe::RunTrace* Session::trace() const {
  return collector_ != nullptr ? collector_->last() : nullptr;
}

Result<int> Session::write_trace(const std::string& path) const {
  const observe::RunTrace* t = trace();
  if (t == nullptr)
    return Result<int>::failure(
        ErrorCode::kInvalidArgument,
        "Session::write_trace: no trace collected (set "
        "Options::collect_trace and execute at least once)");
  return observe::write_chrome_trace(*t, path);
}

Result<observe::Report> Session::report() const {
  const observe::RunTrace* t = trace();
  if (t == nullptr)
    return Result<observe::Report>::failure(
        ErrorCode::kInvalidArgument,
        "Session::report: no trace collected (set Options::collect_trace "
        "and execute at least once)");
  return observe::make_report(*t);
}

}  // namespace fusedp
