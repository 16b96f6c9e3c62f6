#include "api/session.hpp"

#include <algorithm>
#include <ctime>
#include <sstream>
#include <utility>

#include "fusion/dp.hpp"
#include "fusion/grouping.hpp"
#include "fusion/halide_auto.hpp"
#include "fusion/polymage_greedy.hpp"
#include "fusion/serialize.hpp"
#include "model/tune.hpp"
#include "support/fault.hpp"
#include "support/fingerprint.hpp"
#include "support/timing.hpp"

namespace fusedp {

const char* scheduler_name(Scheduler s) {
  switch (s) {
    case Scheduler::kAuto: return "auto";
    case Scheduler::kDp: return "dp";
    case Scheduler::kGreedy: return "greedy";
    case Scheduler::kHalideAuto: return "halide-auto";
    case Scheduler::kUnfused: return "unfused";
    case Scheduler::kMeasured: return "measured";
  }
  return "?";
}

ExecOptions make_exec_options(const Options& opts) {
  ExecOptions eo;
  eo.num_threads = opts.num_threads;
  eo.mode = opts.mode;
  eo.compiled = opts.compiled;
  eo.vector_backend = opts.vector_backend;
  eo.superop_fusion = opts.superop_fusion;
  eo.allow_fma = opts.allow_fma;
  eo.fast_transcendentals = opts.fast_transcendentals;
  eo.never_pessimize = opts.never_pessimize;
  eo.tile_schedule = opts.tile_schedule;
  eo.pooled_storage = opts.pooled_storage;
  eo.guard_arena = opts.guard_arena;
  eo.pool_backend = opts.pool_backend;
  return eo;
}

AutoScheduleOptions make_autoschedule_options(const Options& opts) {
  AutoScheduleOptions ao;
  ao.deadline_seconds = opts.deadline_seconds;
  ao.max_states = opts.max_states;
  ao.bounded_initial_limit = opts.bounded_initial_limit;
  ao.greedy_t1 = opts.greedy_t1;
  ao.greedy_t2 = opts.greedy_t2;
  ao.greedy_tolerance = opts.greedy_tolerance;
  return ao;
}

// Deprecated member shims delegate to the free projections.  Defining a
// [[deprecated]] member triggers -Wdeprecated-declarations on some
// toolchains, so the definitions sit inside a suppression window.
#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
#endif
ExecOptions Options::exec() const { return make_exec_options(*this); }

AutoScheduleOptions Options::autoschedule() const {
  return make_autoschedule_options(*this);
}
#if defined(__GNUC__) || defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::uint64_t Options::schedule_fingerprint() const {
  Fnv64 h;
  h.add_str("fusedp-options-v1");
  h.add_i32(static_cast<std::int32_t>(scheduler));
  h.add_u64(max_states);
  h.add_i32(bounded_initial_limit);
  h.add_i64(greedy_t1);
  h.add_i64(greedy_t2);
  h.add_f64(greedy_tolerance);
  // The measured-rung knobs change which grouping wins, so they join the
  // digest — but only under kMeasured, keeping every pre-existing cache key
  // for the other schedulers byte-stable across this addition.  The
  // execution knobs join for the same reason: the shoot-out's winner is a
  // wall-clock verdict taken at this thread count, backend and kernel set.
  if (scheduler == Scheduler::kMeasured) {
    h.add_i32(measured_top_k);
    h.add_i32(measured_repeats);
    h.add_i32(num_threads);
    h.add_i32(vector_backend ? 1 : 0);
    h.add_i32(pool_backend ? 1 : 0);
    h.add_i32(fast_transcendentals ? 1 : 0);
  }
  return h.digest();
}

findb::FindbOptions Options::findb_options() const {
  findb::FindbOptions fo;
  fo.dir = cache_dir;
  fo.mode = cache_mode;
  fo.lock_timeout_seconds = cache_lock_timeout_seconds;
  fo.max_entries = cache_max_entries;
  fo.max_bytes = cache_max_bytes;
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
  if (opts.allow_fma && !opts.vector_backend)
    flag(
        "Options::allow_fma requires the vector backend "
        "(vector_backend = false): FMA contraction is a vector-backend "
        "superop transformation");
  if (opts.allow_fma && (!opts.compiled || opts.mode == EvalMode::kScalar))
    flag(
        "Options::allow_fma requires the compiled row backend "
        "(compiled = true, mode = kRow)");
  if (opts.fast_transcendentals && !opts.vector_backend)
    flag(
        "Options::fast_transcendentals requires the vector backend "
        "(vector_backend = false): the approximate exp/log/pow kernels are "
        "a vector-backend transformation");
  if (opts.fast_transcendentals &&
      (!opts.compiled || opts.mode == EvalMode::kScalar))
    flag(
        "Options::fast_transcendentals requires the compiled row backend "
        "(compiled = true, mode = kRow)");
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
                       opts.scheduler == Scheduler::kMeasured;
  if (uses_dp && opts.max_states == 0)
    flag(
        "Options::max_states = 0 leaves the DP search no budget at all; "
        "pick a positive budget or Scheduler::kGreedy/kUnfused");
  if (opts.scheduler == Scheduler::kAuto && opts.bounded_initial_limit < 2) {
    std::ostringstream os;
    os << "Options::bounded_initial_limit must be >= 2 (got "
       << opts.bounded_initial_limit
       << "): the bounded-DP ladder halves it down to 2";
    flag(os.str());
  }
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
  if (opts.deadline_seconds > 0.0 && opts.scheduler != Scheduler::kAuto &&
      opts.scheduler != Scheduler::kMeasured &&
      opts.cache_mode == findb::CacheMode::kOff) {
    std::ostringstream os;
    os << "Options::deadline_seconds only bounds the Scheduler::kAuto "
          "ladder and the Scheduler::kMeasured rung; with scheduler = "
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

// Shared open() precondition checks.
Result<bool> check_openable(const Pipeline& pl, const Options& opts) {
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
  return true;
}

// Applies Options::machine_file: a non-empty path replaces opts.machine with
// the fitted model before anything fingerprints it, so cache keys carry
// fitted-model provenance automatically.  A load failure fails the open with
// the loader's coded error.
Result<bool> apply_machine_file(Options& opts) {
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

}  // namespace

Session::Session(const Pipeline& pl, Options opts, Grouping grouping,
                 Diagnostics diag)
    : pl_(&pl),
      opts_(std::move(opts)),
      grouping_(std::move(grouping)),
      diag_(std::move(diag)) {}

observe::Observer* Session::effective_observer() const {
  if (tee_ != nullptr) return tee_.get();
  if (collector_ != nullptr) return collector_.get();
  return opts_.observer;
}

// The degradation ladder, leanest-last.  Every rung computes bit-identical
// outputs (the vector backend and superop fusion are bit-exact transforms;
// the unfused schedule changes only evaluation order across group
// boundaries, which the executor's overlapped-tiling semantics make
// value-neutral), so degrading trades only speed for robustness.
void Session::build_rungs() {
  rungs_.clear();
  ExecOptions base = make_exec_options(opts_);
  if (base.vector_backend && base.superop_fusion) {
    FallbackRung r;
    r.label = "no-superops";
    r.exec = base;
    r.exec.superop_fusion = false;
    r.exec.allow_fma = false;  // FMA contraction is a superop transform
    // Degraded runs must be bit-identical to the reference, so the
    // approximate kernels are dropped along with FMA.
    r.exec.fast_transcendentals = false;
    rungs_.push_back(std::move(r));
  }
  if (base.vector_backend) {
    FallbackRung r;
    r.label = "no-vector";
    r.exec = base;
    r.exec.vector_backend = false;
    r.exec.superop_fusion = false;
    r.exec.allow_fma = false;
    r.exec.fast_transcendentals = false;
    rungs_.push_back(std::move(r));
  }
  {
    FallbackRung r;
    r.label = "unfused";
    r.exec = base;
    r.exec.vector_backend = false;
    r.exec.superop_fusion = false;
    r.exec.allow_fma = false;
    r.exec.fast_transcendentals = false;
    r.unfused = true;
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
      r.executor = std::make_unique<Executor>(*pl_, grouping_, r.exec);
    }
  }
  return r.executor.get();
}

namespace {

// Inverse of schedule_tier_name, for labeling a cache-served schedule's
// diagnostics with the tier that originally found it.
ScheduleTier tier_from_rung(const std::string& rung) {
  if (rung == "full-dp") return ScheduleTier::kFullDp;
  if (rung == "measured") return ScheduleTier::kFullDp;  // k-best full DP
  if (rung == "bounded-dp") return ScheduleTier::kBoundedDp;
  if (rung == "unfused") return ScheduleTier::kUnfused;
  return ScheduleTier::kGreedy;  // "greedy" and anything unrecognized
}

}  // namespace

Result<Session> Session::open(const Pipeline& pl, Options opts) {
  if (Result<bool> pre = check_openable(pl, opts); !pre.ok())
    return pre.error();
  if (Result<bool> mf = apply_machine_file(opts); !mf.ok())
    return mf.error();

  std::unique_ptr<observe::TraceCollector> collector;
  std::unique_ptr<observe::TeeObserver> tee;
  if (opts.collect_trace)
    collector = std::make_unique<observe::TraceCollector>(opts.trace_tiles);
  if (collector != nullptr && opts.observer != nullptr)
    tee = std::make_unique<observe::TeeObserver>(collector.get(),
                                                 opts.observer);
  observe::Observer* obs = tee != nullptr
                               ? static_cast<observe::Observer*>(tee.get())
                               : collector != nullptr
                                     ? static_cast<observe::Observer*>(
                                           collector.get())
                                     : opts.observer;

  // One clock for the whole open: the schedule-search deadline also bounds
  // the cache probe and its lock wait, so a wedged or slow cache directory
  // can never stall an open longer than a cache-off search would.
  const Deadline open_deadline = opts.deadline_seconds > 0.0
                                     ? Deadline::after(opts.deadline_seconds)
                                     : Deadline();
  const Deadline* odl = open_deadline.armed() ? &open_deadline : nullptr;

  std::vector<observe::CacheEvent> cache_events;
  auto emit = [&](observe::CacheEvent ev) {
    if (obs != nullptr) obs->on_cache_event(ev);
    cache_events.push_back(std::move(ev));
  };

  // --- Cache probe (storage/findb): hit => open with zero search ---------
  std::unique_ptr<findb::FindDb> db;
  findb::CacheKey key;
  Grouping cached_grouping;
  std::string cached_rung;
  bool cached_hit = false;
  double probe_seconds = 0.0;
  if (opts.cache_mode != findb::CacheMode::kOff) {
    try {
      db = std::make_unique<findb::FindDb>(opts.findb_options());
      key.pipeline_fp = fingerprint(pl);
      key.machine_fp = fingerprint(opts.machine);
      key.options_fp = opts.schedule_fingerprint();
      findb::ProbeResult pr = db->probe(key, odl);
      observe::CacheEvent ev;
      ev.action = "probe";
      ev.outcome = findb::probe_outcome_name(pr.outcome);
      ev.from_memory = pr.from_memory;
      ev.detail = pr.detail;
      ev.seconds = pr.seconds;
      probe_seconds = pr.seconds;
      if (pr.outcome == findb::ProbeOutcome::kHit) {
        // A hit is still untrusted bytes: the schedule text goes back
        // through the hardened parser and grouping validation against
        // *this* pipeline before anything executes.
        Result<Grouping> g =
            try_grouping_from_text(pl, pr.record.schedule_text);
        if (g.ok()) {
          cached_hit = true;
          cached_grouping = std::move(g).value();
          cached_rung = pr.record.rung;
          // The schedule text carries no costs; restore the record's
          // per-group predictions so reports stay populated on warm starts.
          if (pr.record.predicted.size() == cached_grouping.groups.size()) {
            double total = 0.0;
            for (std::size_t i = 0; i < cached_grouping.groups.size(); ++i) {
              cached_grouping.groups[i].cost = pr.record.predicted[i];
              total += pr.record.predicted[i];
            }
            cached_grouping.total_cost = total;
          }
        } else {
          ev.outcome = "invalid-schedule";
          ev.detail = g.error().what();
          if (opts.cache_mode == findb::CacheMode::kReadWrite)
            (void)db->evict(key);
        }
      }
      emit(std::move(ev));
    } catch (...) {
      // The cache must never break an open; an unexpected throw here
      // behaves exactly like a miss.
      observe::CacheEvent ev;
      ev.action = "probe";
      ev.outcome = "io-error";
      ev.detail = "unexpected exception during cache probe";
      emit(std::move(ev));
      cached_hit = false;
    }
  }

  if (cached_hit) {
    try {
      observe::ScheduleAttempt at;
      at.tier = "cache";
      at.succeeded = true;
      at.seconds = probe_seconds;
      std::ostringstream os;
      os << cached_grouping.groups.size() << " groups from cache (found by "
         << cached_rung << ")";
      at.detail = os.str();
      if (obs != nullptr) obs->on_schedule_attempt(at);

      Diagnostics diag;
      diag.tier = tier_from_rung(cached_rung);
      diag.total_seconds = probe_seconds;  // no search ran
      // opts is *copied* here (not moved): if Executor construction below
      // throws, the catch and the fresh-search fallback still need intact
      // opts/collector/tee/obs.  Only after the plan is built is it safe to
      // consume the open-scoped state.
      Session s(pl, opts, std::move(cached_grouping), std::move(diag));
      FUSEDP_FAULT_POINT("session.warm_plan");
      s.exec_ =
          std::make_unique<Executor>(pl, s.grouping_, make_exec_options(s.opts_));
      s.build_rungs();
      s.warm_start_ = true;
      s.collector_ = std::move(collector);
      s.tee_ = std::move(tee);
      s.cache_events_ = std::move(cache_events);
      return Result<Session>(std::move(s));
    } catch (const std::exception& e) {
      // The cached schedule parsed but failed plan construction (footprint
      // checks, lowering): coded event, evict, fall through to a fresh
      // search as if it had been a miss.  Nothing was moved out of the
      // open-scoped state above, so the fallback sees it untouched.
      observe::CacheEvent ev;
      ev.action = "probe";
      ev.outcome = "invalid-schedule";
      ev.detail = std::string("plan rejected cached schedule: ") + e.what();
      emit(std::move(ev));
      if (db != nullptr && opts.cache_mode == findb::CacheMode::kReadWrite)
        (void)db->evict(key);
      cached_hit = false;
    }
  }

  try {
    CostModel model(pl, opts.machine);
    Grouping grouping;
    Diagnostics diag;
    // kMeasured only: a rung label for the cache record that survives the
    // tier round-trip (tier_from_rung maps it back to kFullDp), plus the
    // winner's per-group measured wall times in grouping order.
    std::string rung_override;
    std::vector<double> measured_ms_by_group;
    WallTimer sched_timer;
    switch (opts.scheduler) {
      case Scheduler::kAuto: {
        AutoScheduleOptions ao = make_autoschedule_options(opts);
        ao.observer = obs;
        // The probe already spent part of the open deadline; the search
        // gets what remains (an effectively-expired remainder makes the
        // ladder fall through to its cheap tiers, same as any late start).
        if (open_deadline.armed())
          ao.deadline_seconds = std::max(1e-9,
                                         open_deadline.remaining_seconds());
        ScheduleResult sr = auto_schedule(pl, model, ao);
        grouping = std::move(sr.grouping);
        diag = std::move(sr.diagnostics);
        break;
      }
      case Scheduler::kDp: {
        DpOptions dopts;
        dopts.max_states = opts.max_states;
        grouping = DpFusion(pl, model, dopts).run();
        diag.tier = ScheduleTier::kFullDp;
        break;
      }
      case Scheduler::kGreedy:
        grouping = PolyMageGreedy(pl, model)
                       .run(opts.greedy_t1, opts.greedy_t2,
                            opts.greedy_tolerance);
        diag.tier = ScheduleTier::kGreedy;
        break;
      case Scheduler::kHalideAuto:
        grouping = HalideAuto(pl, model).run();
        diag.tier = ScheduleTier::kGreedy;  // nearest tier label
        break;
      case Scheduler::kUnfused:
        grouping = singleton_grouping(pl, model);
        diag.tier = ScheduleTier::kUnfused;
        break;
      case Scheduler::kMeasured: {
        // k-best DP, then a short measured shoot-out between the candidates
        // on a warmup frame.  Measurement runs in scratch workspaces and
        // never touches session state, so the chosen schedule's outputs are
        // bit-identical to what the model-ranked schedule would compute —
        // only the *choice* among model-optimal-ish schedules changes.
        DpOptions dopts;
        dopts.max_states = opts.max_states;
        dopts.top_k = opts.measured_top_k;
        if (open_deadline.armed())
          dopts.deadline_seconds =
              std::max(1e-9, open_deadline.remaining_seconds());
        std::vector<Grouping> cands = DpFusion(pl, model, dopts).run_top_k();
        diag.tier = ScheduleTier::kFullDp;
        rung_override = "measured";

        std::vector<Buffer> synth;
        const std::vector<Buffer>* warm = opts.warmup_inputs;
        if (warm == nullptr) {
          synth = synthesize_warmup_inputs(pl);
          warm = &synth;
        }
        const ExecOptions eo = make_exec_options(opts);
        int best = -1;
        double best_ms = 0.0;
        bool expired = false;
        for (std::size_t ci = 0; ci < cands.size() && !expired; ++ci) {
          observe::ScheduleAttempt at;
          at.tier = "measured";
          TierAttempt ta;
          ta.tier = ScheduleTier::kFullDp;
          WallTimer ct;
          try {
            // An already-expired deadline must not start another candidate;
            // the executor's own checks sit at tile boundaries, so a tiny
            // single-tile candidate could otherwise sneak through.
            if (odl != nullptr && odl->expired())
              throw Error("measured rung: open deadline expired",
                          ErrorCode::kDeadlineExceeded);
            Executor ex(pl, cands[ci], eo);
            Workspace cand_ws;
            double ms = 0.0;
            for (int r = 0; r < opts.measured_repeats; ++r) {
              WallTimer t;
              ex.run(*warm, cand_ws, nullptr, odl);
              const double s = t.seconds() * 1e3;
              if (r == 0 || s < ms) ms = s;
            }
            if (best < 0 || ms < best_ms) {
              best = static_cast<int>(ci);
              best_ms = ms;
            }
            at.succeeded = true;
            std::ostringstream os;
            os << "candidate " << ci << ": " << cands[ci].groups.size()
               << " groups, model cost " << cands[ci].total_cost
               << ", best of " << opts.measured_repeats << " rep(s) " << ms
               << " ms";
            at.detail = os.str();
          } catch (const Error& e) {
            // An expired deadline ends the shoot-out (the clock stays
            // expired); any other coded failure skips just this candidate —
            // a candidate that cannot even run must not win.
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
            ta.code = expired ? ErrorCode::kDeadlineExceeded
                              : ErrorCode::kInternal;
          ta.detail = at.detail;
          ta.seconds = at.seconds;
          diag.attempts.push_back(std::move(ta));
        }
        // Winner by wall clock; with no completed measurement (deadline
        // expired up front) fall back to the model-ranked #1, which is
        // exactly what Scheduler::kDp would have returned.
        const std::size_t win =
            best >= 0 ? static_cast<std::size_t>(best) : std::size_t{0};

        // Harvest the winner's per-group measured times from one traced
        // run; they ride along in the find-db record (measured_ms) and feed
        // `fusedp tune`.  Best-effort: a failure here never loses the
        // already-chosen schedule.
        if (best >= 0) {
          try {
            observe::TraceCollector tc(false);
            Executor ex(pl, cands[win], eo);
            Workspace cand_ws;
            ex.run(*warm, cand_ws, &tc, odl);
            const observe::RunTrace* t = tc.last();
            if (t != nullptr) {
              measured_ms_by_group.assign(cands[win].groups.size(), 0.0);
              for (const observe::GroupRecord& g : t->groups)
                for (std::size_t gi = 0; gi < cands[win].groups.size(); ++gi)
                  if (cands[win].groups[gi].stages.bits() == g.stage_bits)
                    measured_ms_by_group[gi] = g.seconds * 1e3;
            }
          } catch (...) {
            measured_ms_by_group.clear();
          }
        }
        grouping = std::move(cands[win]);
        break;
      }
    }
    diag.total_seconds = sched_timer.seconds();
    // kAuto streams its ladder attempts itself; synthesize the one-shot
    // record for the direct schedulers so traces always show how the
    // schedule came to be.
    if (obs != nullptr && opts.scheduler != Scheduler::kAuto) {
      observe::ScheduleAttempt at;
      at.tier = scheduler_name(opts.scheduler);
      at.succeeded = true;
      at.seconds = diag.total_seconds;
      std::ostringstream os;
      os << grouping.groups.size() << " groups, model cost "
         << grouping.total_cost;
      at.detail = os.str();
      obs->on_schedule_attempt(at);
    }

    // Persist the freshly found schedule so the next open warm-starts.
    // Store failures (lock contention, injected faults, a full disk) are
    // coded events, never open failures — the session is already good.
    if (db != nullptr && opts.cache_mode == findb::CacheMode::kReadWrite) {
      findb::CacheRecord rec;
      rec.pipeline = pl.name();
      rec.git_sha = build_git_sha();
      rec.rung = rung_override.empty() ? schedule_tier_name(diag.tier)
                                       : rung_override;
      rec.created_unix = static_cast<std::int64_t>(::time(nullptr));
      rec.predicted.reserve(grouping.groups.size());
      for (const GroupSchedule& gs : grouping.groups)
        rec.predicted.push_back(gs.cost);
      rec.measured_ms = measured_ms_by_group;  // kMeasured winners only
      rec.schedule_text = grouping_to_text(pl, grouping);
      WallTimer store_timer;
      Result<bool> st = db->store(key, rec, odl);
      observe::CacheEvent ev;
      ev.action = "store";
      ev.outcome = st.ok() ? "stored" : "store-failed";
      if (!st.ok())
        ev.detail = std::string(error_code_name(st.code())) + ": " +
                    st.error().what();
      ev.seconds = store_timer.seconds();
      emit(std::move(ev));
    }

    Session s(pl, std::move(opts), std::move(grouping), std::move(diag));
    s.collector_ = std::move(collector);
    s.tee_ = std::move(tee);
    s.exec_ =
        std::make_unique<Executor>(pl, s.grouping_, make_exec_options(s.opts_));
    s.build_rungs();
    s.cache_events_ = std::move(cache_events);
    return Result<Session>(std::move(s));
  } catch (const Error& e) {
    return Result<Session>(e);
  } catch (const std::bad_alloc&) {
    return Result<Session>::failure(ErrorCode::kAllocationFailed,
                                    "Session::open: out of memory");
  } catch (const std::exception& e) {
    return Result<Session>::failure(ErrorCode::kInternal, e.what());
  }
}

Result<Session> Session::open(const Pipeline& pl, const Grouping& grouping,
                              Options opts) {
  if (Result<bool> pre = check_openable(pl, opts); !pre.ok())
    return pre.error();
  if (Result<bool> mf = apply_machine_file(opts); !mf.ok())
    return mf.error();

  std::string why;
  if (!validate_grouping(pl, grouping, &why))
    return Result<Session>::failure(
        ErrorCode::kInvalidSchedule,
        "Session::open: grouping does not validate: " + why);

  std::unique_ptr<observe::TraceCollector> collector;
  std::unique_ptr<observe::TeeObserver> tee;
  if (opts.collect_trace)
    collector = std::make_unique<observe::TraceCollector>(opts.trace_tiles);
  if (collector != nullptr && opts.observer != nullptr)
    tee = std::make_unique<observe::TeeObserver>(collector.get(),
                                                 opts.observer);

  try {
    Grouping g = grouping;
    // Fill missing per-group predicted costs so the report's predicted
    // column is populated — but never touch tile sizes: a caller-provided
    // grouping executes exactly as given (complete_grouping would overwrite
    // deliberately-absent tile sizes and change the run).
    CostModel model(pl, opts.machine);
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

    Session s(pl, std::move(opts), std::move(g), Diagnostics{});
    s.collector_ = std::move(collector);
    s.tee_ = std::move(tee);
    s.exec_ =
        std::make_unique<Executor>(pl, s.grouping_, make_exec_options(s.opts_));
    s.build_rungs();
    // A caller-provided grouping overrides the cache: record that the cache
    // was configured but deliberately not consulted.
    if (s.opts_.cache_mode != findb::CacheMode::kOff) {
      observe::CacheEvent ev;
      ev.action = "probe";
      ev.outcome = "bypass";
      ev.detail = "caller-provided grouping";
      observe::Observer* sobs = s.effective_observer();
      if (sobs != nullptr) sobs->on_cache_event(ev);
      s.cache_events_.push_back(std::move(ev));
    }
    return Result<Session>(std::move(s));
  } catch (const Error& e) {
    return Result<Session>(e);
  } catch (const std::bad_alloc&) {
    return Result<Session>::failure(ErrorCode::kAllocationFailed,
                                    "Session::open: out of memory");
  } catch (const std::exception& e) {
    return Result<Session>::failure(ErrorCode::kInternal, e.what());
  }
}

Result<double> Session::execute(const std::vector<Buffer>& inputs) {
  if (static_cast<int>(inputs.size()) != pl_->num_inputs()) {
    std::ostringstream os;
    os << "Session::execute: pipeline '" << pl_->name() << "' takes "
       << pl_->num_inputs() << " input(s), got " << inputs.size();
    return Result<double>::failure(ErrorCode::kInvalidArgument, os.str());
  }
  for (int i = 0; i < pl_->num_inputs(); ++i) {
    const Box& dom = pl_->input(i).domain;
    const Buffer& b = inputs[static_cast<std::size_t>(i)];
    bool match = b.rank() == dom.rank;
    for (int d = 0; match && d < dom.rank; ++d)
      match = b.extent(d) == dom.extent(d);
    if (!match) {
      std::ostringstream os;
      os << "Session::execute: input " << i << " ('" << pl_->input(i).name
         << "') does not match the declared domain";
      return Result<double>::failure(ErrorCode::kInvalidArgument, os.str());
    }
  }
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
  if (!cache_events_.empty())
    report.cache_outcome = cache_events_.front().outcome;
  report.warm_start = warm_start_;
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
