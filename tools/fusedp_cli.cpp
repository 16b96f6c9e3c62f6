// fusedp — command-line driver for the library.
//
// One subcommand grammar (full flag reference in docs/cli.md):
//
//   fusedp list
//   fusedp show <benchmark> [--scale=N]
//   fusedp schedule <benchmark> [--scheduler=S] [--load=FILE]
//                   [--machine=xeon|opteron|host] [--scale=N] [--save=FILE]
//   fusedp dot <benchmark> [--scheduler=S] [--scale=N]      (graphviz)
//   fusedp run <benchmark> [--scheduler=S] [--threads=T] [--runs=R]
//              [--verify] [--pooled] [--load=FILE]
//              [--cache=read|readwrite] [--cache-dir=DIR]
//              [--trace=FILE.json] [--report]
//   fusedp verify <benchmark> [--scheduler=S] [--scale=N] [--seed=S]
//   fusedp cache <stats|verify|evict|warm> --cache-dir=DIR
//              [--repair] [--stem=S|--all] [--bench=KEY|all] [--measure]
//   fusedp tune [--bench=KEY|all] [--runs=R] [--cache-dir=DIR]
//               [--out-model=FILE] [--dry-run]
//
// S is a spelling of the session's scheduler table (scheduler_spellings(),
// api/session.hpp) or `manual`, the benchmark's hand-written grouping.
// `schedule`, `dot`, `verify` and `cache warm` stop at the session's
// schedule step (Session::schedule) and build no executor; `run`,
// `cache warm --measure` and `tune` open a full Session.  --load=FILE and
// `manual` open as given, every other spelling is searched by the session.
//
// `run` executes the session; --trace exports the measured run as Chrome
// trace_event JSON and --report prints the cost model's predicted
// per-group scores against measured wall times.  With --cache, `run` opens
// through the persistent schedule cache (a hit skips the search entirely);
// `cache` inspects and maintains a cache directory.
// `verify` runs the differential oracle on the chosen schedule; `tune`
// re-fits the MachineModel weights from measured runs (model/tune.hpp).
//
// Every subcommand validates its flags against a known-flag table and
// rejects ALL unrecognized ones in a single usage error (exit 2).
#include <cstdio>
#include <cstring>
#include <optional>
#include <type_traits>

#include "fusedp.hpp"
#include "fusion/serialize.hpp"
#include "ir/dot.hpp"
#include "model/tune.hpp"
#include "storage/findb.hpp"
#include "support/cli.hpp"
#include "support/fingerprint.hpp"
#include "support/timing.hpp"
#include "verify/differ.hpp"

using namespace fusedp;

namespace {

// Thrown for malformed invocations (unknown flags, missing operands);
// main() prints the message and exits 2 per the docs/cli.md exit-code
// table, distinct from exit 3 (invalid input values).
struct UsageError {
  std::string msg;
};

// Validates every --flag in argv against the subcommand's known-flag table
// (null-terminated).  ALL unknown flags are reported in one error so a
// caller with three typos fixes all three after one invocation.
void check_flags(const Cli& cli, const char* const* known,
                 const std::string& cmd) {
  const std::vector<std::string> bad = cli.unknown_flags(known);
  if (bad.empty()) return;
  std::string msg = "unknown flag(s) for `fusedp " + cmd + "`:";
  for (const std::string& b : bad) msg += " --" + b;
  msg += " (see docs/cli.md)";
  throw UsageError{std::move(msg)};
}

// Per-subcommand known-flag tables (the shared parser in support/cli.hpp
// does the matching).  Every command that schedules reads the same flags
// through open_as, so they share one list.
#define FUSEDP_SCHEDULING_FLAGS                                          \
  "scale", "machine", "scheduler", "load", "max-states", "deadline-ms", \
      "t1", "t2", "tolerance", "top-k", "repeats", "machine-file"
constexpr const char* kListFlags[] = {nullptr};
constexpr const char* kShowFlags[] = {"scale", nullptr};
constexpr const char* kScheduleFlags[] = {FUSEDP_SCHEDULING_FLAGS, "save",
                                          nullptr};
constexpr const char* kDotFlags[] = {FUSEDP_SCHEDULING_FLAGS, nullptr};
constexpr const char* kRunFlags[] = {
    FUSEDP_SCHEDULING_FLAGS, "threads", "runs", "verify", "pooled", "seed",
    "cache", "cache-dir", "trace", "report", "run-deadline-ms", "attempts",
    "mem-budget-mb", nullptr};
constexpr const char* kVerifyFlags[] = {FUSEDP_SCHEDULING_FLAGS, "seed",
                                        nullptr};
#undef FUSEDP_SCHEDULING_FLAGS
constexpr const char* kCacheFlags[] = {
    "cache-dir", "repair", "stem", "all", "bench", "measure", "scale",
    "threads", "machine", "deadline-ms", nullptr};
constexpr const char* kTuneFlags[] = {
    "bench", "scale", "machine", "threads", "runs", "cache-dir", "out-model",
    "dry-run", "no-tile-sweep", "deadline-ms", nullptr};

MachineModel machine_of(const Cli& cli) {
  const std::string m = cli.get("machine", "host");
  if (m == "host") return MachineModel::host();
  if (m == "xeon") return MachineModel::xeon_haswell();
  if (m == "opteron") return MachineModel::amd_opteron();
  throw UsageError{"unknown --machine=" + m + " (want host|xeon|opteron)"};
}

// --bench=KEY, or every paper pipeline for --bench=all (the default).
std::vector<std::string> bench_keys(const Cli& cli) {
  const std::string which = cli.get("bench", "all");
  if (which != "all") return {which};
  std::vector<std::string> keys;
  for (const auto& b : benchmark_list()) keys.push_back(b.key);
  return keys;
}

int cmd_list(const Cli&, const std::string&) {
  std::printf("%-12s %-22s %7s %s\n", "key", "benchmark", "stages",
              "paper image size");
  for (const auto& b : benchmark_list())
    std::printf("%-12s %-22s %7d %s\n", b.key.c_str(), b.title.c_str(),
                b.paper_stages, b.paper_size.c_str());
  std::printf("%-12s %-22s %7d %s\n", "blur", "Blur (paper Fig. 1)", 2,
              "2048x2048x3");
  return 0;
}

int cmd_show(const Cli& cli, const std::string& bench) {
  const PipelineSpec spec = make_benchmark(bench, cli.get_int("scale", 8));
  std::printf("%s", pipeline_to_string(*spec.pipeline).c_str());
  return 0;
}

// Applies --cache/--cache-dir to session options (coded error on misuse).
void apply_cache_flags(const Cli& cli, Options* opts) {
  const std::string mode = cli.get("cache", "");
  if (mode.empty()) return;
  if (mode == "read") {
    opts->cache_mode = findb::CacheMode::kRead;
  } else if (mode == "readwrite") {
    opts->cache_mode = findb::CacheMode::kReadWrite;
  } else {
    FUSEDP_CHECK_CODE(false, ErrorCode::kInvalidArgument,
                      "--cache must be read or readwrite (got " + mode + ")");
  }
  opts->cache_dir = cli.get("cache-dir", "");
  FUSEDP_CHECK_CODE(!opts->cache_dir.empty(), ErrorCode::kInvalidArgument,
                    "--cache requires --cache-dir=DIR");
}

void print_cache_events(const std::vector<observe::CacheEvent>& events) {
  for (const observe::CacheEvent& ev : events)
    std::printf("cache %s: %s%s%s (%.3f ms)\n", ev.action.c_str(),
                ev.outcome.c_str(), ev.from_memory ? " [memory]" : "",
                ev.detail.empty() ? "" : (" — " + ev.detail).c_str(),
                ev.seconds * 1e3);
}

// --scheduler=manual is the one spelling outside the session's scheduler
// table: it names no search but the benchmark's hand-written grouping.
constexpr const char kManual[] = "manual";

const Diagnostics& diagnostics_of(const Schedule& s) { return s.diagnostics; }
const Diagnostics& diagnostics_of(const Session& s) { return s.diagnostics(); }

// Schedules `spec` with the scheduling flags applied on top of `opts`;
// `fallback` stands in for an absent --scheduler.  `Step` is Schedule for
// the commands that stop at the schedule step and Session for those that
// execute (Session::open compiles).  Caller-given groupings (--load=FILE,
// --scheduler=manual) open as given; every other spelling is searched.  A
// search that leaves a post-mortem (auto's ladder, measured's candidates)
// prints it to stderr.
template <typename Step>
Step open_as(const Cli& cli, const PipelineSpec& spec, Scheduler fallback,
             Options opts = {}) {
  const Pipeline& pl = *spec.pipeline;
  opts.machine = machine_of(cli);
  opts.machine_file = cli.get("machine-file", "");
  opts.deadline_seconds = cli.get_double("deadline-ms", 0.0) / 1e3;
  opts.max_states = static_cast<std::uint64_t>(
      cli.get_int("max-states", static_cast<std::int64_t>(opts.max_states)));
  opts.greedy_t1 = cli.get_int("t1", opts.greedy_t1);
  opts.greedy_t2 = cli.get_int("t2", opts.greedy_t2);
  opts.greedy_tolerance = cli.get_double("tolerance", opts.greedy_tolerance);
  opts.measured_top_k =
      static_cast<int>(cli.get_int("top-k", opts.measured_top_k));
  opts.measured_repeats =
      static_cast<int>(cli.get_int("repeats", opts.measured_repeats));
  apply_cache_flags(cli, &opts);

  const auto step = [&](const auto&... grouping) {
    if constexpr (std::is_same_v<Step, Session>)
      return Session::open(pl, grouping..., opts);
    else
      return Session::schedule(pl, grouping..., opts);
  };
  const std::string load = cli.get("load", "");
  const std::string which = cli.get("scheduler", scheduler_name(fallback));
  Result<Step> opened = [&] {
    if (!load.empty()) return step(load_grouping(pl, load));
    if (which == kManual)
      return step(spec.manual_grouping(CostModel(pl, opts.machine)));
    Result<Scheduler> parsed = parse_scheduler(which);
    FUSEDP_CHECK_CODE(parsed.ok(), ErrorCode::kInvalidArgument,
                      "unknown scheduler: " + which + " (want " +
                          scheduler_spellings() + "|" + kManual + ")");
    opts.scheduler = parsed.value();
    return step();
  }();
  if (!opened.ok()) throw opened.error();
  Step out = std::move(opened).value();
  if (const Diagnostics& d = diagnostics_of(out); !d.attempts.empty())
    std::fprintf(stderr, "%s", d.summary().c_str());
  return out;
}

// Runs `g` through the differential oracle: every backend configuration,
// every materialized stage bit-compared against the scalar reference.
// Divergence exits through the standard error-code map.
void verify_grouping(const Cli& cli, const Pipeline& pl, const Grouping& g,
                     const std::vector<Buffer>& inputs) {
  const verify::DiffResult res = verify::diff_grouping(
      pl, g, inputs, static_cast<std::uint64_t>(cli.get_int("seed", 0)));
  if (res.diverged) {
    std::fprintf(stderr, "%s\n", res.record.to_string().c_str());
    FUSEDP_CHECK_CODE(false, ErrorCode::kInternal,
                      "differential verification FAILED (backend " +
                          res.record.backend + ")");
  }
  std::printf(
      "verified: %d executor configs clean, %s row kernels\n",
      res.runs, row_kernel_isa_name(res.row_kernels));
}

int cmd_schedule(const Cli& cli, const std::string& bench) {
  const PipelineSpec spec = make_benchmark(bench, cli.get_int("scale", 8));
  const Pipeline& pl = *spec.pipeline;
  const Schedule sch = open_as<Schedule>(cli, spec, Scheduler::kIncremental);
  const Grouping& g = sch.grouping;
  std::printf("%s", g.to_string(pl).c_str());
  // The plan's predictions use the model the schedule step scored with.
  const std::string mf = cli.get("machine-file", "");
  const CostModel model(pl, mf.empty() ? machine_of(cli)
                                       : load_machine(mf).value());
  const std::string plan = plan_to_string(lower(pl, g), nullptr, &model);
  std::printf("\n%s", plan.c_str());
  const std::string save = cli.get("save", "");
  if (!save.empty()) {
    save_grouping(pl, g, save);
    std::printf("\nsaved schedule to %s\n", save.c_str());
  }
  return 0;
}

int cmd_dot(const Cli& cli, const std::string& bench) {
  const PipelineSpec spec = make_benchmark(bench, cli.get_int("scale", 8));
  if (cli.has("scheduler") || cli.has("load")) {
    const Schedule sch = open_as<Schedule>(cli, spec, Scheduler::kIncremental);
    std::printf("%s", grouping_to_dot(*spec.pipeline, sch.grouping).c_str());
  } else {
    std::printf("%s", pipeline_to_dot(*spec.pipeline).c_str());
  }
  return 0;
}

int cmd_run(const Cli& cli, const std::string& bench) {
  const PipelineSpec spec = make_benchmark(bench, cli.get_int("scale", 8));
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::string trace_path = cli.get("trace", "");
  const bool want_report = cli.has("report");

  Options opts;
  opts.num_threads = static_cast<int>(cli.get_int("threads", 4));
  opts.pooled_storage = cli.has("pooled");
  opts.collect_trace = !trace_path.empty() || want_report;
  // The report only needs per-group aggregates; tile events are collected
  // only when a timeline is actually being exported.
  opts.trace_tiles = !trace_path.empty();
  // Request governance: per-run deadline and degradation-ladder depth.
  opts.run_deadline_seconds = cli.get_double("run-deadline-ms", 0.0) / 1e3;
  opts.max_run_attempts = static_cast<int>(cli.get_int("attempts", 1));
  // Process-wide Workspace/ScratchArena budget (0 = unlimited): overruns
  // surface as resource-exhausted (exit code 6) instead of OOM.
  const std::int64_t budget_mb = cli.get_int("mem-budget-mb", 0);
  if (budget_mb > 0)
    ResourceGovernor::instance().set_budget(budget_mb * (1 << 20));

  // A cached run defaults to the ladder that never fails on budget: its
  // result is what every later warm open replays.
  Session session = open_as<Session>(
      cli, spec,
      cli.has("cache") ? Scheduler::kAuto : Scheduler::kIncremental, opts);
  print_cache_events(session.cache_events());
  const Grouping& g = session.grouping();
  std::printf("%s%s\n", session.warm_start() ? "warm start\n" : "",
              g.to_string(pl).c_str());

  if (Result<double> warm = session.execute(inputs); !warm.ok())
    throw warm.error();
  const int runs = static_cast<int>(cli.get_int("runs", 3));
  const RunStats st =
      measure_min_of_averages([&] { session.execute(inputs); }, 1, runs);
  std::printf("%s: %.2f ms (best %.2f) on %d threads%s\n", bench.c_str(),
              st.min_avg_ms, st.best_ms, opts.num_threads,
              opts.pooled_storage ? ", pooled storage" : "");

  if (!trace_path.empty()) {
    Result<int> wrote = session.write_trace(trace_path);
    if (!wrote.ok()) throw wrote.error();
    std::printf("wrote %d trace events to %s (chrome://tracing, Perfetto)\n",
                wrote.value(), trace_path.c_str());
  }
  if (want_report) {
    Result<observe::Report> rep = session.report();
    if (!rep.ok()) throw rep.error();
    std::printf("\n%s", observe::report_to_string(rep.value()).c_str());
    const CostModel run_model(pl, session.options().machine);
    std::printf("\n%s", plan_to_string(session.plan(), session.trace(),
                                        &run_model)
                             .c_str());
    // The degradation-ladder post-mortem of the most recent execute().
    std::printf("\n%s",
                observe::run_report_to_string(session.last_report()).c_str());
  }

  if (cli.has("verify")) verify_grouping(cli, pl, g, inputs);
  return 0;
}

// fusedp verify <bench> [--scheduler=S] [--scale=N] [--seed=S]
//
// Runs the chosen schedule through the differential oracle (the same check
// `run --verify` performs after timing, as its own subcommand for CI and
// scripted gates).
int cmd_verify(const Cli& cli, const std::string& bench) {
  const PipelineSpec spec = make_benchmark(bench, cli.get_int("scale", 8));
  const Schedule sch = open_as<Schedule>(cli, spec, Scheduler::kIncremental);
  std::printf("%s\n", sch.grouping.to_string(*spec.pipeline).c_str());
  verify_grouping(cli, *spec.pipeline, sch.grouping, spec.make_inputs());
  return 0;
}

// fusedp tune [--bench=KEY|all] [--scale=N] [--threads=T] [--runs=R]
//             [--cache-dir=DIR] [--out-model=FILE] [--dry-run]
//
// Measured-cost feedback: executes benchmark pipelines with trace
// collection on (one DP-fused and one unfused session each, for feature
// diversity), harvests per-group (predicted, measured) pairs — plus any
// measured_ms records a find-db directory accumulated from
// Scheduler::kMeasured opens — and least-squares re-fits the MachineModel
// weights w1..w4 and innermost tile size (model/tune.hpp).  Prints the
// predicted-vs-measured correlation before and after; --out-model writes
// the fitted "fusedp-machine v1" file that `run --machine-file=FILE` and
// Options::machine_file load.  --dry-run runs the whole fit but writes
// nothing (the CI smoke path).
int cmd_tune(const Cli& cli, const std::string&) {
  const MachineModel base = machine_of(cli);
  Tuner tuner(base);

  const std::vector<std::string> keys = bench_keys(cli);
  const int runs = static_cast<int>(cli.get_int("runs", 2));
  const std::int64_t scale = cli.get_int("scale", 6);

  // Pre-scan an optional find-db directory once; records are matched to
  // pipelines by name below.
  std::vector<findb::EntryInfo> cached;
  const std::string dir = cli.get("cache-dir", "");
  if (!dir.empty()) {
    findb::FindbOptions fo;
    fo.dir = dir;
    fo.mode = findb::CacheMode::kRead;
    findb::FindDb db(fo);
    Result<std::vector<findb::EntryInfo>> scanned = db.scan(false);
    if (!scanned.ok()) throw scanned.error();
    cached = std::move(scanned).value();
  }

  // Tuner samples keep Pipeline pointers (fit() recomputes features from
  // them), so every spec must outlive the fit below.
  std::vector<PipelineSpec> specs;
  for (const std::string& key : keys) {
    specs.push_back(make_benchmark(key, scale));
    const PipelineSpec& spec = specs.back();
    const Pipeline& pl = *spec.pipeline;
    const std::vector<Buffer> inputs = spec.make_inputs();
    int added = 0;
    // kAuto (not kDp) for the fused session: pipelines whose full DP blows
    // the state budget demote to a cheaper tier instead of failing the tune.
    for (const Scheduler sched : {Scheduler::kAuto, Scheduler::kUnfused}) {
      Options opts;
      opts.num_threads = static_cast<int>(cli.get_int("threads", 4));
      opts.machine = base;
      opts.scheduler = sched;
      // Tuning wants many pipelines' measurements, not one pipeline's
      // optimal schedule: bound the kAuto search so a DP-hostile pipeline
      // demotes down the ladder in seconds instead of running its full
      // state budget out (kUnfused needs no search and takes no deadline).
      opts.deadline_seconds = sched == Scheduler::kAuto
                                  ? cli.get_double("deadline-ms", 2000.0) / 1e3
                                  : 0.0;
      opts.collect_trace = true;
      opts.trace_tiles = false;  // per-group aggregates are all the fit needs
      Result<Session> opened = Session::open(pl, opts);
      if (!opened.ok()) throw opened.error();
      Session session = std::move(opened).value();
      for (int r = 0; r < runs; ++r) {
        if (Result<double> rr = session.execute(inputs); !rr.ok())
          throw rr.error();
        Result<observe::Report> rep = session.report();
        if (!rep.ok()) throw rep.error();
        added += tuner.add_report(pl, rep.value());
      }
    }
    // find-db harvest: measured_ms persisted by Scheduler::kMeasured opens.
    int harvested = 0;
    for (const findb::EntryInfo& e : cached) {
      if (!e.valid || e.record.pipeline != pl.name() ||
          e.record.measured_ms.empty())
        continue;
      Result<Grouping> g = try_grouping_from_text(pl, e.record.schedule_text);
      if (!g.ok()) continue;
      const Grouping& gg = g.value();
      if (gg.groups.size() != e.record.measured_ms.size()) continue;
      for (std::size_t i = 0; i < gg.groups.size(); ++i)
        if (tuner.add_group(pl, gg.groups[i].stages, e.record.measured_ms[i]))
          ++harvested;
    }
    added += harvested;
    std::printf("%-12s %3d sample(s)%s\n", key.c_str(), added,
                harvested > 0
                    ? (" (" + std::to_string(harvested) + " from find-db)")
                          .c_str()
                    : "");
  }

  std::printf("%d sample(s) accumulated\n", tuner.sample_count());
  Result<TuneResult> fitted = tuner.fit(!cli.has("no-tile-sweep"));
  if (!fitted.ok()) throw fitted.error();
  const TuneResult& tr = fitted.value();
  const MachineModel& fm = tr.fitted;
  std::printf("correlation before %.4f after %.4f (sse %.3g -> %.3g)\n",
              tr.correlation_before, tr.correlation_after, tr.sse_before,
              tr.sse_after);
  std::printf("weights  w1 %.6g -> %.6g, w2 %.6g -> %.6g, w3 %.6g -> %.6g, "
              "w4 %.6g -> %.6g%s\n",
              base.weights.w1, fm.weights.w1, base.weights.w2, fm.weights.w2,
              base.weights.w3, fm.weights.w3, base.weights.w4, fm.weights.w4,
              tr.weights_changed ? "" : " (baseline kept: fit did not beat it)");
  std::printf("innermost tile %lld -> %lld\n",
              static_cast<long long>(base.innermost_tile),
              static_cast<long long>(fm.innermost_tile));

  if (cli.has("dry-run")) {
    std::printf("dry run: no model file written\n");
    return 0;
  }
  const std::string out = cli.get("out-model", "");
  if (!out.empty()) {
    Result<bool> saved = save_machine(out, fm, &tr);
    if (!saved.ok()) throw saved.error();
    std::printf("wrote fitted model to %s (load with --machine-file=%s)\n",
                out.c_str(), out.c_str());
  }
  return 0;
}

// fusedp cache <stats|verify|evict|warm> --cache-dir=DIR
//
// Maintenance for a persistent schedule-cache directory.  `stats` is a
// plain inventory (any build's records); `verify` validates against the
// running build (checksums, format version, git SHA) and with --repair
// deletes what fails; `evict` removes one record (--stem=S) or everything
// (--all); `warm` pre-populates the cache by opening benchmark pipelines
// with the cache in readwrite mode.
int cmd_cache(const Cli& cli, const std::string& sub) {
  const std::string dir = cli.get("cache-dir", "");
  FUSEDP_CHECK_CODE(!dir.empty(), ErrorCode::kInvalidArgument,
                    "fusedp cache requires --cache-dir=DIR");
  findb::FindbOptions fo;
  fo.dir = dir;
  fo.mode = findb::CacheMode::kReadWrite;

  if (sub == "stats" || sub == "verify") {
    const bool repair = cli.has("repair");
    FUSEDP_CHECK_CODE(!repair || sub == "verify", ErrorCode::kInvalidArgument,
                      "--repair only applies to `cache verify`");
    // stats inventories records from any build; verify holds them against
    // the running one (a stale SHA is a validity failure there).
    fo.git_sha = sub == "verify" ? build_git_sha() : "";
    findb::FindDb db(fo);
    Result<std::vector<findb::EntryInfo>> scanned = db.scan(repair);
    if (!scanned.ok()) throw scanned.error();
    std::int64_t total_bytes = 0;
    int valid = 0, invalid = 0;
    for (const findb::EntryInfo& e : scanned.value()) {
      total_bytes += e.bytes;
      e.valid ? ++valid : ++invalid;
      if (e.valid)
        std::printf("%-52s %8lld B  %-10s %s (%zu groups)\n", e.file.c_str(),
                    static_cast<long long>(e.bytes), e.record.rung.c_str(),
                    e.record.pipeline.c_str(),
                    static_cast<std::size_t>(std::count(
                        e.record.schedule_text.begin(),
                        e.record.schedule_text.end(), '\n')) -
                        1);
      else
        std::printf("%-52s %8lld B  INVALID: %s%s\n", e.file.c_str(),
                    static_cast<long long>(e.bytes), e.problem.c_str(),
                    repair ? " [removed]" : "");
    }
    std::printf("%d record(s), %d invalid, %lld bytes in %s\n", valid + invalid,
                invalid, static_cast<long long>(total_bytes), dir.c_str());
    // verify without --repair reports damage through the exit code so CI
    // and scripts can gate on a clean cache.
    if (sub == "verify" && invalid > 0 && !repair)
      FUSEDP_CHECK_CODE(false, ErrorCode::kInvalidSchedule,
                        std::to_string(invalid) +
                            " invalid cache record(s); rerun with --repair "
                            "to remove them");
    return 0;
  }

  if (sub == "evict") {
    findb::FindDb db(fo);
    const std::string stem = cli.get("stem", "");
    FUSEDP_CHECK_CODE(cli.has("all") != !stem.empty(),
                      ErrorCode::kInvalidArgument,
                      "cache evict needs exactly one of --all or --stem=S");
    Result<int> removed = [&] {
      if (cli.has("all")) return db.evict_all();
      findb::CacheKey key;
      FUSEDP_CHECK_CODE(findb::CacheKey::parse_stem(stem, &key),
                        ErrorCode::kInvalidArgument,
                        "--stem must be <16hex>-<16hex>-<16hex>");
      return db.evict(key);
    }();
    if (!removed.ok()) throw removed.error();
    findb::FindDb::clear_memory_tier();
    std::printf("evicted %d record(s) from %s\n", removed.value(),
                dir.c_str());
    return 0;
  }

  if (sub == "warm") {
    for (const std::string& key : bench_keys(cli)) {
      const PipelineSpec spec = make_benchmark(key, cli.get_int("scale", 8));
      Options opts;
      opts.num_threads = static_cast<int>(cli.get_int("threads", 4));
      opts.cache_mode = findb::CacheMode::kReadWrite;
      opts.cache_dir = dir;
      // Only --measure runs the pipeline, so only it compiles a session.
      WallTimer t;
      std::optional<Session> session;
      Schedule sch;
      if (cli.has("measure"))
        session.emplace(open_as<Session>(cli, spec, Scheduler::kAuto, opts));
      else
        sch = open_as<Schedule>(cli, spec, Scheduler::kAuto, opts);
      const bool warm = session ? session->warm_start() : sch.warm_start;
      std::printf("%-12s open %.1f ms, %s\n", key.c_str(), t.seconds() * 1e3,
                  warm ? "warm (cache hit)" : "cold (searched + stored)");
      print_cache_events(session ? session->cache_events() : sch.cache_events);
      if (session) {
        const std::vector<Buffer> inputs = spec.make_inputs();
        Result<double> r = session->execute(inputs);
        if (!r.ok()) throw r.error();
        std::printf("%-12s run  %.2f ms\n", key.c_str(), r.value() * 1e3);
      }
    }
    return 0;
  }

  FUSEDP_CHECK_CODE(false, ErrorCode::kInvalidArgument,
                    "unknown cache subcommand: " + sub +
                        " (want stats|verify|evict|warm)");
  return 2;
}

void usage() {
  std::printf(
      "usage: fusedp <command> [flags]    (full reference: docs/cli.md)\n"
      "  list                         available benchmark pipelines\n"
      "  show <bench>                 print the pipeline IR\n"
      "  schedule <bench>             run a scheduler, print/save the result\n"
      "  dot <bench>                  graphviz DAG (clustered if --scheduler)\n"
      "  run <bench>                  execute (and optionally --verify)\n"
      "  verify <bench>               differential oracle on the schedule\n"
      "  cache <stats|verify|evict|warm>  persistent schedule-cache tools\n"
      "  tune                         re-fit MachineModel weights from runs\n"
      "flags: --scale=N --machine=xeon|opteron|host\n"
      "       --scheduler=%s|%s\n"
      "       --threads=T --runs=R --verify --pooled --save=F --load=F\n"
      "       --cache=read|readwrite --cache-dir=DIR  (run through the\n"
      "         persistent schedule cache; a hit skips the search)\n"
      "       cache flags: --repair (verify) --all|--stem=S (evict)\n"
      "         --bench=KEY|all --measure (warm)\n"
      "       tune flags: --bench=KEY|all --runs=R --cache-dir=DIR\n"
      "         --out-model=FILE --dry-run --no-tile-sweep\n"
      "       --machine-file=F     (load a fitted fusedp-machine v1 model)\n"
      "       --top-k=K --repeats=R  (--scheduler=measured shoot-out)\n"
      "       --deadline-ms=D --max-states=S   (search budgets)\n"
      "       --run-deadline-ms=D  (per-request execution deadline)\n"
      "       --attempts=N         (degradation-ladder depth, default 1)\n"
      "       --mem-budget-mb=N    (workspace/arena budget, 0 = unlimited)\n"
      "       --trace=FILE (chrome trace_event JSON of the measured run)\n"
      "       --report     (per-group predicted-vs-measured table + attempt "
      "ladder)\n"
      "exit codes: 0 ok, 2 usage, 3 invalid input, 4 budget/deadline "
      "exhausted, 5 internal, 6 resource budget exhausted\n",
      scheduler_spellings().c_str(), kManual);
}

// Every subcommand with its known-flag table; all but `list` and `tune`
// take an operand (the benchmark, or the cache subcommand).
struct Command {
  const char* name;
  const char* const* flags;
  int (*run)(const Cli& cli, const std::string& operand);
  bool takes_operand = true;
};
constexpr Command kCommands[] = {
    {"list", kListFlags, cmd_list, false},
    {"show", kShowFlags, cmd_show},
    {"schedule", kScheduleFlags, cmd_schedule},
    {"dot", kDotFlags, cmd_dot},
    {"run", kRunFlags, cmd_run},
    {"verify", kVerifyFlags, cmd_verify},
    {"cache", kCacheFlags, cmd_cache},
    {"tune", kTuneFlags, cmd_tune, false},
};

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = nullptr;
  for (const Command& c : kCommands)
    if (argc >= 2 && std::strcmp(argv[1], c.name) == 0) cmd = &c;
  if (cmd == nullptr || (cmd->takes_operand && argc < 3)) {
    usage();
    return 2;
  }
  const Cli cli(argc, argv);
  try {
    check_flags(cli, cmd->flags, cmd->name);
    return cmd->run(cli, cmd->takes_operand ? argv[2] : "");
  } catch (const UsageError& e) {
    std::fprintf(stderr, "usage error: %s\n", e.msg.c_str());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error [%s]: %s\n", error_code_name(e.code()),
                 e.what());
    return exit_code(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 5;
  }
}
