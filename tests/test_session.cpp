// Session facade tests: open/execute round-trips against the pre-facade
// run_pipeline path, consolidated Options validation (coded errors), and
// the bit-identity contract with and without an observer attached.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>

#include "api/session.hpp"
#include "fusion/incremental.hpp"
#include "pipelines/pipelines.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

using testing::buffers_equal;

// --- Options validation -----------------------------------------------------

TEST(OptionsValidationTest, DefaultsAreValid) {
  EXPECT_TRUE(validate_options(Options{}).ok());
}

TEST(OptionsValidationTest, RejectsNonPositiveThreads) {
  Options o;
  o.num_threads = 0;
  Result<bool> r = validate_options(o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
  o.num_threads = -3;
  EXPECT_FALSE(validate_options(o).ok());
}

TEST(OptionsValidationTest, RejectsNegativeDeadline) {
  Options o;
  o.deadline_seconds = -1.0;
  Result<bool> r = validate_options(o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
}

TEST(OptionsValidationTest, RejectsZeroStateBudgetForDpSchedulers) {
  Options o;
  o.max_states = 0;
  EXPECT_FALSE(validate_options(o).ok());  // kAuto uses DP tiers
  o.scheduler = Scheduler::kDp;
  EXPECT_FALSE(validate_options(o).ok());
  o.scheduler = Scheduler::kGreedy;  // no DP involved: budget irrelevant
  EXPECT_TRUE(validate_options(o).ok());
}

TEST(OptionsValidationTest, RejectsZeroStateBudgetForIncremental) {
  Options o;
  o.scheduler = Scheduler::kIncremental;
  o.max_states = 0;
  Result<bool> r = validate_options(o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
}

TEST(OptionsValidationTest, RejectsDeadlineOnNonAutoScheduler) {
  Options o;
  o.deadline_seconds = 0.5;
  o.scheduler = Scheduler::kGreedy;
  EXPECT_FALSE(validate_options(o).ok());
  o.scheduler = Scheduler::kAuto;
  EXPECT_TRUE(validate_options(o).ok());
}

TEST(OptionsValidationTest, AcceptsDeadlineOnEveryDpScheduler) {
  Options o;
  o.deadline_seconds = 0.5;
  for (Scheduler which : {Scheduler::kAuto, Scheduler::kDp,
                          Scheduler::kIncremental, Scheduler::kMeasured}) {
    o.scheduler = which;
    EXPECT_TRUE(validate_options(o).ok()) << scheduler_name(which);
  }
  for (Scheduler which : {Scheduler::kGreedy, Scheduler::kHalideAuto,
                          Scheduler::kUnfused}) {
    o.scheduler = which;
    EXPECT_FALSE(validate_options(o).ok()) << scheduler_name(which);
  }
}

// --- The scheduler table ----------------------------------------------------

TEST(SchedulerTableTest, EverySchedulerRoundTripsThroughItsSpelling) {
  // The table lists every enumerator once, in enum order.
  const int last = static_cast<int>(Scheduler::kIncremental);
  ASSERT_EQ(std::size(kSchedulers), static_cast<std::size_t>(last + 1));
  for (int i = 0; i <= last; ++i) {
    const Scheduler s = static_cast<Scheduler>(i);
    EXPECT_EQ(kSchedulers[i].scheduler, s);
    Result<Scheduler> back = parse_scheduler(scheduler_name(s));
    ASSERT_TRUE(back.ok()) << scheduler_name(s);
    EXPECT_EQ(back.value(), s) << scheduler_name(s);
  }
}

TEST(SchedulerTableTest, UnknownSpellingNamesEverySpelling) {
  for (const char* bad : {"", "halide-auto", "DP", "manual"}) {
    Result<Scheduler> r = parse_scheduler(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
    const std::string msg = r.error().what();
    for (const SchedulerSpelling& e : kSchedulers)
      EXPECT_NE(msg.find(e.spelling), std::string::npos) << e.spelling;
  }
}

TEST(SchedulerTableTest, DpAndIncrementalRunTheirPaperAlgorithms) {
  // kDp is Algorithm 1 (DpFusion) and kIncremental Algorithm 3
  // (IncFusion) on every pipeline, budget failures included: pyramid's
  // Algorithm 1 outgrows any budget (paper Table 2), so a small one shows
  // both routes failing alike without paying for the full 50M states.
  for (const BenchmarkInfo& b : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(b.key, 16);
    const Pipeline& pl = *spec.pipeline;
    Options o;
    o.max_states = b.key == "pyramid" ? 200'000 : 4'000'000;
    const CostModel model(pl, o.machine);

    IncOptions io;
    io.max_states = o.max_states;
    const Grouping inc = IncFusion(pl, model, io).run();
    o.scheduler = Scheduler::kIncremental;
    Result<Session> s_inc = Session::open(pl, o);
    ASSERT_TRUE(s_inc.ok()) << b.key << ": " << s_inc.error().what();
    EXPECT_EQ(s_inc.value().grouping().to_string(pl), inc.to_string(pl))
        << b.key;

    DpOptions dopts;
    dopts.max_states = o.max_states;
    Result<Grouping> dp = [&]() -> Result<Grouping> {
      try {
        return DpFusion(pl, model, dopts).run();
      } catch (const Error& e) {
        return Result<Grouping>(e);
      }
    }();
    o.scheduler = Scheduler::kDp;
    Result<Session> s_dp = Session::open(pl, o);
    ASSERT_EQ(s_dp.ok(), dp.ok()) << b.key;
    if (dp.ok())
      EXPECT_EQ(s_dp.value().grouping().to_string(pl),
                dp.value().to_string(pl))
          << b.key;
    else
      EXPECT_EQ(s_dp.error().code(), dp.error().code()) << b.key;
  }
}

TEST(SchedulerTableTest, DpAndIncrementalRecordTheirStateCount) {
  // The direct DP schedulers report the states their search enumerated,
  // as kAuto and kMeasured do.
  const PipelineSpec spec = make_benchmark("harris", 16);
  const Pipeline& pl = *spec.pipeline;
  Options o;
  const CostModel model(pl, o.machine);
  DpOptions dopts;
  dopts.max_states = o.max_states;
  DpFusion dp(pl, model, dopts);
  dp.run();
  IncOptions iopts;
  iopts.max_states = o.max_states;
  IncFusion inc(pl, model, iopts);
  inc.run();
  for (Scheduler which : {Scheduler::kDp, Scheduler::kIncremental}) {
    o.scheduler = which;
    Result<Schedule> s = Session::schedule(pl, o);
    ASSERT_TRUE(s.ok()) << scheduler_name(which) << ": " << s.error().what();
    const std::uint64_t want = which == Scheduler::kDp
                                   ? dp.stats().groupings_enumerated
                                   : inc.stats().groupings_enumerated;
    EXPECT_GT(want, 0u) << scheduler_name(which);
    EXPECT_EQ(s.value().diagnostics.total_states, want)
        << scheduler_name(which);
  }
}

TEST(SchedulerTableTest, DpAndIncrementalHonourTheDeadline) {
  // harris enumerates ~700 DP states, past the DP's 256-state deadline
  // stride, so a microsecond deadline must stop the search.
  const PipelineSpec spec = make_benchmark("harris", 16);
  for (Scheduler which : {Scheduler::kDp, Scheduler::kIncremental}) {
    Options o;
    o.scheduler = which;
    o.deadline_seconds = 1e-6;
    Result<Session> s = Session::open(*spec.pipeline, o);
    ASSERT_FALSE(s.ok()) << scheduler_name(which);
    EXPECT_EQ(s.error().code(), ErrorCode::kDeadlineExceeded)
        << scheduler_name(which);
  }
}

TEST(OptionsValidationTest, RejectsDegenerateLadderAndGreedyConfig) {
  Options o;
  o.greedy_t1 = 0;
  EXPECT_FALSE(validate_options(o).ok());
  o = Options{};
  o.greedy_tolerance = -0.1;
  EXPECT_FALSE(validate_options(o).ok());
}

TEST(OptionsValidationTest, ReportsEveryViolationInOneMessage) {
  Options o;
  o.num_threads = 0;                       // violation 1
  o.greedy_tolerance = -0.1;               // violation 2
  o.deadline_seconds = -1.0;               // violation 3
  o.max_run_attempts = 0;                  // violation 4
  o.greedy_t1 = 0;                         // violation 5 (kAuto uses greedy)
  Result<bool> r = validate_options(o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
  const std::string msg = r.error().what();
  EXPECT_NE(msg.find("violations"), std::string::npos) << msg;
  for (const char* frag :
       {"num_threads", "greedy_tolerance", "deadline_seconds",
        "max_run_attempts", "greedy_t1"})
    EXPECT_NE(msg.find(frag), std::string::npos) << "missing: " << frag;
  // One "- " bullet per violation.
  int bullets = 0;
  for (std::size_t p = msg.find("\n- "); p != std::string::npos;
       p = msg.find("\n- ", p + 1))
    ++bullets;
  EXPECT_GE(bullets, 5);
}

TEST(OptionsValidationTest, SingleViolationIsAPlainMessage) {
  Options o;
  o.num_threads = 0;
  Result<bool> r = validate_options(o);
  ASSERT_FALSE(r.ok());
  const std::string msg = r.error().what();
  EXPECT_EQ(msg.find("violations"), std::string::npos) << msg;
  EXPECT_NE(msg.find("num_threads"), std::string::npos);
}

TEST(OptionsValidationTest, SessionOpenRejectsInvalidOptions) {
  const PipelineSpec spec = make_blur(64, 64);
  Options o;
  o.num_threads = 0;
  Result<Session> s = Session::open(*spec.pipeline, o);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kInvalidArgument);
}

// --- open() preconditions ---------------------------------------------------

TEST(SessionOpenTest, RejectsUnfinalizedPipeline) {
  Pipeline pl("unfinished");
  pl.add_input("in", {16, 16});
  Result<Session> s = Session::open(pl, Options{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kInvalidPipeline);
}

TEST(SessionOpenTest, RejectsInvalidGrouping) {
  const PipelineSpec spec = make_harris(96, 128);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  Grouping g = singleton_grouping(pl, model);
  g.groups.pop_back();  // no longer covers all stages
  Result<Session> s = Session::open(pl, g, Options{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kInvalidSchedule);
}

// --- execute() input validation ---------------------------------------------

TEST(SessionExecuteTest, RejectsWrongInputArity) {
  const PipelineSpec spec = make_blur(64, 64);
  Result<Session> opened = Session::open(*spec.pipeline, Options{});
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened).value();
  Result<double> r = s.execute({});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
}

TEST(SessionExecuteTest, RejectsWrongInputExtents) {
  const PipelineSpec spec = make_blur(64, 64);
  Result<Session> opened = Session::open(*spec.pipeline, Options{});
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened).value();
  std::vector<Buffer> bad;
  bad.emplace_back(std::vector<std::int64_t>{3, 32, 64});
  Result<double> r = s.execute(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kInvalidArgument);
}

// --- facade round-trip vs the pre-facade path -------------------------------

TEST(SessionRoundTripTest, MatchesRunPipelineOnGivenGrouping) {
  const PipelineSpec spec = make_harris(96, 128);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  IncFusion inc(pl, model);
  const Grouping g = inc.run();
  const std::vector<Buffer> inputs = spec.make_inputs();

  ExecOptions eo;
  eo.num_threads = 2;
  const std::vector<Buffer> want = run_pipeline(pl, g, inputs, eo);

  Options so;
  so.num_threads = 2;
  Result<Session> opened = Session::open(pl, g, so);
  ASSERT_TRUE(opened.ok()) << opened.error().what();
  Session s = std::move(opened).value();
  Result<std::vector<Buffer>> got = s.run(inputs);
  ASSERT_TRUE(got.ok()) << got.error().what();

  ASSERT_EQ(got.value().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(buffers_equal(got.value()[i], want[i])) << "output " << i;
}

TEST(SessionRoundTripTest, AutoScheduleMatchesReference) {
  for (const char* key : {"blur", "unsharp"}) {
    const PipelineSpec spec = make_benchmark(key, 16);
    const Pipeline& pl = *spec.pipeline;
    const std::vector<Buffer> inputs = spec.make_inputs();

    Options o;
    o.num_threads = 2;
    Result<Session> opened = Session::open(pl, o);
    ASSERT_TRUE(opened.ok()) << key << ": " << opened.error().what();
    Session s = std::move(opened).value();
    std::string why;
    EXPECT_TRUE(validate_grouping(pl, s.grouping(), &why)) << key << ": " << why;

    Result<double> seconds = s.execute(inputs);
    ASSERT_TRUE(seconds.ok()) << key;
    EXPECT_GT(seconds.value(), 0.0);

    const std::vector<Buffer> ref = run_reference(pl, inputs);
    ASSERT_EQ(s.num_outputs(), static_cast<int>(pl.outputs().size()));
    for (int i = 0; i < s.num_outputs(); ++i)
      EXPECT_TRUE(buffers_equal(
          s.output(i),
          ref[static_cast<std::size_t>(
              pl.outputs()[static_cast<std::size_t>(i)])]))
          << key;
  }
}

TEST(SessionRoundTripTest, EverySchedulerChoiceProducesValidSession) {
  const PipelineSpec spec = make_unsharp(96, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  for (const SchedulerSpelling& e : kSchedulers) {
    const Scheduler which = e.scheduler;
    Options o;
    o.scheduler = which;
    Result<Session> opened = Session::open(pl, o);
    ASSERT_TRUE(opened.ok()) << scheduler_name(which);
    Session s = std::move(opened).value();
    Result<std::vector<Buffer>> got = s.run(inputs);
    ASSERT_TRUE(got.ok()) << scheduler_name(which);
    EXPECT_TRUE(buffers_equal(
        got.value()[0], ref[static_cast<std::size_t>(pl.outputs()[0])]))
        << scheduler_name(which);
  }
}

TEST(SessionRoundTripTest, NonDpInterpolateGroupingsStayWellFormed) {
  // The DP no longer forms groups whose clamped tile overflows L2, and
  // paper/2 interpolate is where that bites.  Every other way a grouping
  // reaches a Session must still score finite, carry tile sizes, and run
  // bit-identically to the reference; a caller's grouping runs as given.
  const PipelineSpec spec = make_benchmark("interpolate", 2);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  Options o;
  o.num_threads = 2;
  o.machine = MachineModel::xeon_haswell();
  o.machine.cores = 4;
  o.machine.l2_bytes = 2 * 1024 * 1024;
  const CostModel model(pl, o.machine);

  auto check = [&](const std::string& label, Result<Session> opened) {
    ASSERT_TRUE(opened.ok()) << label << ": " << opened.error().what();
    Session s = std::move(opened).value();
    for (const GroupSchedule& gs : s.grouping().groups) {
      EXPECT_LT(gs.cost, kInfiniteCost)
          << label << " " << gs.stages.to_string();
      EXPECT_FALSE(gs.tile_sizes.empty())
          << label << " " << gs.stages.to_string();
    }
    Result<std::vector<Buffer>> got = s.run(inputs);
    ASSERT_TRUE(got.ok()) << label << ": " << got.error().what();
    EXPECT_TRUE(buffers_equal(
        got.value()[0], ref[static_cast<std::size_t>(pl.outputs()[0])]))
        << label;
  };

  for (Scheduler which : {Scheduler::kGreedy, Scheduler::kHalideAuto}) {
    Options so = o;
    so.scheduler = which;
    check(scheduler_name(which), Session::open(pl, so));
  }
  check("manual", Session::open(pl, spec.manual_grouping(model), o));

  // The all-in-one group the DP picked before the cache rule, with its
  // granularity-rounded tile: it must open and run exactly as given.
  Grouping whole;
  GroupSchedule all;
  for (int i = 0; i < pl.num_stages(); ++i) all.stages = all.stages.with(i);
  all.tile_sizes = model.cost(all.stages).tile_sizes;
  ASSERT_FALSE(model.cost(all.stages).keeps_tile_guarantees);
  whole.groups.push_back(all);
  Result<Session> given = Session::open(pl, whole, o);
  ASSERT_TRUE(given.ok()) << given.error().what();
  ASSERT_EQ(given.value().grouping().groups.size(), 1u);
  EXPECT_EQ(given.value().grouping().groups[0].stages, all.stages);
  EXPECT_EQ(given.value().grouping().groups[0].tile_sizes, all.tile_sizes);
  check("caller-provided", std::move(given));
}

// --- observer-off bit-identity ----------------------------------------------

TEST(SessionObserverTest, TraceCollectionDoesNotChangeOutputs) {
  const PipelineSpec spec = make_harris(96, 128);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();

  Options plain;
  plain.num_threads = 2;
  Options traced = plain;
  traced.collect_trace = true;

  Result<Session> a = Session::open(pl, plain);
  Result<Session> b = Session::open(pl, traced);
  ASSERT_TRUE(a.ok() && b.ok());
  Session sa = std::move(a).value();
  Session sb = std::move(b).value();
  Result<std::vector<Buffer>> ra = sa.run(inputs);
  Result<std::vector<Buffer>> rb = sb.run(inputs);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra.value().size(), rb.value().size());
  for (std::size_t i = 0; i < ra.value().size(); ++i)
    EXPECT_TRUE(buffers_equal(ra.value()[i], rb.value()[i]));
  EXPECT_EQ(sa.trace(), nullptr);
  ASSERT_NE(sb.trace(), nullptr);
  EXPECT_TRUE(sb.trace()->complete);
}

// --- trace/report gating ----------------------------------------------------

TEST(SessionObserverTest, TraceApisRequireCollection) {
  const PipelineSpec spec = make_blur(64, 64);
  Result<Session> opened = Session::open(*spec.pipeline, Options{});
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened).value();
  Result<int> wrote = s.write_trace("/tmp/fusedp_should_not_exist.json");
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(s.report().ok());
}

TEST(SessionObserverTest, RepeatedExecuteKeepsTracing) {
  const PipelineSpec spec = make_blur(96, 96);
  Options o;
  o.collect_trace = true;
  Result<Session> opened = Session::open(*spec.pipeline, o);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened).value();
  const std::vector<Buffer> inputs = spec.make_inputs();
  ASSERT_TRUE(s.execute(inputs).ok());
  ASSERT_TRUE(s.execute(inputs).ok());
  ASSERT_NE(s.trace(), nullptr);
  EXPECT_TRUE(s.trace()->complete);
  EXPECT_GT(s.trace()->seconds, 0.0);
}

// --- open routes x observer sinks --------------------------------------------

// Every open route (a warm cache hit, a fresh search, a caller-given
// grouping) must wire the same sinks the same way: the collector's trace,
// the user observer's schedule and run callbacks, and the cache events.
enum class OpenRoute { kWarmHit, kFreshSearch, kCallerGrouping };
enum class Sinks { kCollector, kUser, kBoth };

struct RecordingObserver : observe::Observer {
  std::vector<std::string> schedule;
  std::vector<std::string> cache;
  int runs_begun = 0;
  int runs_ended = 0;
  int run_attempts = 0;
  void on_schedule_attempt(const observe::ScheduleAttempt& a) override {
    schedule.push_back(a.tier);
  }
  void on_cache_event(const observe::CacheEvent& e) override {
    cache.push_back(e.action + ":" + e.outcome);
  }
  void on_run_begin(const observe::RunMeta&) override { ++runs_begun; }
  void on_run_end(const observe::RunRecord&) override { ++runs_ended; }
  void on_run_attempt(const observe::RunAttempt&) override { ++run_attempts; }
};

std::vector<std::string> cache_labels(
    const std::vector<observe::CacheEvent>& events) {
  std::vector<std::string> out;
  for (const observe::CacheEvent& e : events)
    out.push_back(e.action + ":" + e.outcome);
  return out;
}

class SessionOpenRouteTest
    : public ::testing::TestWithParam<std::tuple<OpenRoute, Sinks>> {};

TEST_P(SessionOpenRouteTest, WiresEverySinkTheSameWay) {
  const auto [route, sinks] = GetParam();
  char dir[] = "/tmp/fusedp_open_route_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  findb::FindDb::clear_memory_tier();
  const PipelineSpec spec = make_blur(64, 64);
  const Pipeline& pl = *spec.pipeline;

  Options o;
  o.scheduler = Scheduler::kGreedy;
  o.cache_mode = findb::CacheMode::kReadWrite;
  o.cache_dir = dir;
  if (route == OpenRoute::kWarmHit) {
    ASSERT_TRUE(Session::open(pl, o).ok());  // stores the record to hit
  }

  RecordingObserver user;
  o.collect_trace = sinks != Sinks::kUser;
  if (sinks != Sinks::kCollector) o.observer = &user;

  std::vector<std::string> schedule;
  std::vector<std::string> cache;
  Result<Session> opened = Result<Session>::failure(ErrorCode::kInternal, "");
  switch (route) {
    case OpenRoute::kWarmHit:
      schedule = {"cache"};
      cache = {"probe:hit"};
      opened = Session::open(pl, o);
      break;
    case OpenRoute::kFreshSearch:
      schedule = {"greedy"};
      cache = {"probe:miss", "store:stored"};
      opened = Session::open(pl, o);
      break;
    case OpenRoute::kCallerGrouping:
      cache = {"probe:bypass"};
      opened = Session::open(
          pl, singleton_grouping(pl, CostModel(pl, o.machine)), o);
      break;
  }
  ASSERT_TRUE(opened.ok()) << opened.error().what();
  Session s = std::move(opened).value();
  EXPECT_EQ(s.warm_start(), route == OpenRoute::kWarmHit);
  EXPECT_EQ(cache_labels(s.cache_events()), cache);
  ASSERT_TRUE(s.run(spec.make_inputs()).ok());

  if (sinks == Sinks::kUser) {
    EXPECT_EQ(s.trace(), nullptr);
  } else {
    ASSERT_NE(s.trace(), nullptr);
    EXPECT_TRUE(s.trace()->complete);
    std::vector<std::string> traced;
    for (const observe::ScheduleAttempt& a : s.trace()->schedule)
      traced.push_back(a.tier);
    EXPECT_EQ(traced, schedule);
    EXPECT_EQ(cache_labels(s.trace()->cache), cache);
  }
  if (sinks == Sinks::kCollector) {
    EXPECT_TRUE(user.schedule.empty());
    EXPECT_EQ(user.runs_begun, 0);
  } else {
    EXPECT_EQ(user.schedule, schedule);
    EXPECT_EQ(user.cache, cache);
    EXPECT_EQ(user.runs_begun, 1);
    EXPECT_EQ(user.runs_ended, 1);
    EXPECT_EQ(user.run_attempts, 1);
  }
  std::filesystem::remove_all(dir);
}

std::string route_sinks_name(
    const ::testing::TestParamInfo<std::tuple<OpenRoute, Sinks>>& info) {
  static const char* const kRoutes[] = {"WarmHit", "FreshSearch",
                                        "CallerGrouping"};
  static const char* const kSinks[] = {"Collector", "User", "Both"};
  return std::string(kRoutes[static_cast<int>(std::get<0>(info.param))]) +
         "_" + kSinks[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    RoutesBySinks, SessionOpenRouteTest,
    ::testing::Combine(::testing::Values(OpenRoute::kWarmHit,
                                         OpenRoute::kFreshSearch,
                                         OpenRoute::kCallerGrouping),
                       ::testing::Values(Sinks::kCollector, Sinks::kUser,
                                         Sinks::kBoth)),
    route_sinks_name);

// --- option projections ------------------------------------------------------

TEST(OptionsShimTest, ProjectsOntoLegacyStructs) {
  Options o;
  o.num_threads = 7;
  o.mode = EvalMode::kScalar;
  o.superop_fusion = false;
  o.pool_backend = true;
  o.pooled_storage = true;
  o.guard_arena = true;
  const ExecOptions eo = make_exec_options(o);
  EXPECT_EQ(eo.num_threads, 7);
  EXPECT_EQ(eo.mode, EvalMode::kScalar);
  EXPECT_FALSE(eo.superop_fusion);
  EXPECT_TRUE(eo.pool_backend);
  EXPECT_TRUE(eo.pooled_storage);
  EXPECT_TRUE(eo.guard_arena);

  o.deadline_seconds = 1.5;
  o.max_states = 1234;
  const AutoScheduleOptions ao = o;
  EXPECT_EQ(ao.deadline_seconds, 1.5);
  EXPECT_EQ(ao.max_states, 1234u);
}

}  // namespace
}  // namespace fusedp
