// Observability subsystem tests: trace collection counters against the
// plan's ground truth, Chrome trace_event JSON schema, and the
// predicted-vs-measured report join.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "api/session.hpp"
#include "observe/trace.hpp"
#include "pipelines/pipelines.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

// --- a minimal JSON validator (syntax only) ---------------------------------
// Enough to assert the exported trace is well-formed JSON without an
// external parser dependency.

class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_(s) {}

  bool valid() {
    i_ = 0;
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (peek() == '}') { ++i_; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++i_;
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == '}') { ++i_; return true; }
      return false;
    }
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (peek() == ']') { ++i_; return true; }
    for (;;) {
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++i_; continue; }
      if (peek() == ']') { ++i_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i_)
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    return true;
  }
  void ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0)
      ++i_;
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::size_t count_occurrences(const std::string& hay, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t p = hay.find(pat); p != std::string::npos;
       p = hay.find(pat, p + pat.size()))
    ++n;
  return n;
}

// Opens a traced session over `spec`, executes once, returns the session.
Session traced_session(const PipelineSpec& spec, int threads,
                       bool tiles = true) {
  Options o;
  o.num_threads = threads;
  o.collect_trace = true;
  o.trace_tiles = tiles;
  Result<Session> opened = Session::open(*spec.pipeline, o);
  EXPECT_TRUE(opened.ok()) << opened.error().what();
  Session s = std::move(opened).value();
  Result<double> r = s.execute(spec.make_inputs());
  EXPECT_TRUE(r.ok()) << r.error().what();
  return s;
}

// --- counter sanity against the plan ----------------------------------------

TEST(ObserveCountersTest, TileAndElementCountsMatchPlan) {
  const PipelineSpec spec = make_harris(96, 128);
  const Pipeline& pl = *spec.pipeline;
  Session s = traced_session(spec, 2);
  const observe::RunTrace* t = s.trace();
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->complete);
  EXPECT_EQ(t->meta.pipeline, pl.name());
  EXPECT_EQ(t->meta.num_threads, 2);

  const ExecutablePlan& plan = s.plan();
  ASSERT_EQ(t->groups.size(), plan.groups.size());
  EXPECT_EQ(t->meta.num_groups, static_cast<int>(plan.groups.size()));

  std::int64_t plan_tiles = 0, run_tiles = 0;
  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
    const GroupPlan& gp = plan.groups[gi];
    const observe::GroupRecord& rec = t->groups[gi];
    EXPECT_EQ(rec.index, static_cast<int>(gi));
    EXPECT_EQ(rec.is_reduction, gp.is_reduction);
    plan_tiles += gp.is_reduction ? 1 : gp.total_tiles;
    run_tiles += rec.tiles_run;
    // Every tile of every group ran exactly once.
    EXPECT_EQ(rec.tiles_run, gp.is_reduction ? 1 : gp.total_tiles) << gi;
    EXPECT_LE(rec.interior_tiles, rec.tiles_run) << gi;
    EXPECT_GE(rec.seconds, 0.0) << gi;
    EXPECT_GE(rec.t_end, rec.t_begin) << gi;
    if (gp.is_reduction) continue;
    // Owned boxes of adjacent tiles exactly partition each member stage's
    // domain (analysis/regions), so the merged owned counter must equal
    // the summed stage volumes — and the computed counter exceeds it by
    // exactly the redundant overlap recomputation.
    std::int64_t want_owned = 0;
    for (int st : gp.stage_order)
      want_owned += pl.stage(st).domain.volume();
    EXPECT_EQ(rec.owned_elems, want_owned) << gi;
    EXPECT_GE(rec.computed_elems, rec.owned_elems) << gi;
    EXPECT_GT(rec.scratch_bytes, 0) << gi;
    // Per-tile events were requested: they must sum to the group counters.
    ASSERT_EQ(static_cast<std::int64_t>(rec.tiles.size()), rec.tiles_run);
    std::int64_t ev_computed = 0, ev_owned = 0, ev_interior = 0;
    for (const observe::TileEvent& ev : rec.tiles) {
      ev_computed += ev.computed_elems;
      ev_owned += ev.owned_elems;
      ev_interior += ev.interior ? 1 : 0;
      EXPECT_GE(ev.t_end, ev.t_begin);
      EXPECT_GE(ev.thread, 0);
      EXPECT_LT(ev.thread, 2);
      EXPECT_GE(ev.index, 0);
      EXPECT_LT(ev.index, gp.total_tiles);
    }
    EXPECT_EQ(ev_computed, rec.computed_elems) << gi;
    EXPECT_EQ(ev_owned, rec.owned_elems) << gi;
    EXPECT_EQ(ev_interior, rec.interior_tiles) << gi;
  }
  EXPECT_EQ(run_tiles, plan_tiles);
}

TEST(ObserveCountersTest, TilesOffKeepsAggregatesOnly) {
  const PipelineSpec spec = make_blur(96, 96);
  Session s = traced_session(spec, 2, /*tiles=*/false);
  const observe::RunTrace* t = s.trace();
  ASSERT_NE(t, nullptr);
  for (const observe::GroupRecord& rec : t->groups) {
    EXPECT_TRUE(rec.tiles.empty());
    EXPECT_GT(rec.tiles_run, 0);
  }
}

TEST(ObserveCountersTest, ScheduleAttemptsStreamToTrace) {
  const PipelineSpec spec = make_harris(96, 128);
  Session s = traced_session(spec, 1);
  const observe::RunTrace* t = s.trace();
  ASSERT_NE(t, nullptr);
  ASSERT_FALSE(t->schedule.empty());  // kAuto emitted its ladder
  for (const observe::ScheduleAttempt& at : t->schedule) {
    EXPECT_FALSE(at.tier.empty());
    if (!at.succeeded) {
      EXPECT_FALSE(at.code.empty());
    }
  }
  // The winning attempt is last and succeeded.
  EXPECT_TRUE(t->schedule.back().succeeded);
}

TEST(ObserveCountersTest, MeasuredTimesMonotoneUnderRepeat) {
  const PipelineSpec spec = make_blur(96, 96);
  Options o;
  o.collect_trace = true;
  Result<Session> opened = Session::open(*spec.pipeline, o);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened).value();
  const std::vector<Buffer> inputs = spec.make_inputs();
  ASSERT_TRUE(s.execute(inputs).ok());
  ASSERT_TRUE(s.execute(inputs).ok());
  ASSERT_TRUE(s.execute(inputs).ok());
  // One RunTrace per execute; within each, group windows are ordered and
  // bounded by the run's wall time.
  const observe::RunTrace* t = s.trace();
  ASSERT_NE(t, nullptr);
  double prev_end = 0.0;
  for (const observe::GroupRecord& rec : t->groups) {
    EXPECT_GE(rec.t_begin, prev_end - 1e-9);  // groups execute in order
    EXPECT_GE(rec.t_end, rec.t_begin);
    EXPECT_LE(rec.t_end, t->seconds + 1e-3);
    prev_end = rec.t_end;
  }
}

// --- chrome trace export ----------------------------------------------------

TEST(ChromeTraceTest, EmptyTraceIsValidJson) {
  observe::RunTrace empty;
  const std::string json = observe::chrome_trace_json(empty);
  MiniJson v(json);
  EXPECT_TRUE(v.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTraceTest, SchemaAndEventCounts) {
  const PipelineSpec spec = make_harris(96, 128);
  Session s = traced_session(spec, 2);
  const observe::RunTrace* t = s.trace();
  ASSERT_NE(t, nullptr);
  const std::string json = observe::chrome_trace_json(*t);

  MiniJson v(json);
  ASSERT_TRUE(v.valid());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  // One complete ("X") event per group and per tile, plus one per schedule
  // attempt; metadata ("M") events name the process and each timeline.
  std::size_t tiles = 0;
  for (const observe::GroupRecord& g : t->groups) tiles += g.tiles.size();
  const std::size_t want_x = t->groups.size() + tiles + t->schedule.size();
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), want_x);
  EXPECT_GE(count_occurrences(json, "\"ph\": \"M\""), 3u);
  EXPECT_NE(json.find(t->meta.pipeline), std::string::npos);
}

TEST(ChromeTraceTest, WriteToFileRoundTrips) {
  const PipelineSpec spec = make_blur(64, 64);
  Session s = traced_session(spec, 1);
  const std::string path = ::testing::TempDir() + "fusedp_trace_test.json";
  Result<int> wrote = s.write_trace(path);
  ASSERT_TRUE(wrote.ok()) << wrote.error().what();
  EXPECT_GT(wrote.value(), 0);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  MiniJson v(contents);
  EXPECT_TRUE(v.valid());
}

TEST(ChromeTraceTest, UnwritablePathIsIoError) {
  const PipelineSpec spec = make_blur(64, 64);
  Session s = traced_session(spec, 1);
  Result<int> wrote = s.write_trace("/nonexistent-dir/trace.json");
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.error().code(), ErrorCode::kIoError);
}

// --- predicted-vs-measured report -------------------------------------------

TEST(ReportTest, JoinsPredictedAgainstMeasured) {
  const PipelineSpec spec = make_harris(96, 128);
  Session s = traced_session(spec, 2);
  Result<observe::Report> rep = s.report();
  ASSERT_TRUE(rep.ok());
  const observe::Report& r = rep.value();
  EXPECT_EQ(r.pipeline, spec.pipeline->name());
  ASSERT_EQ(r.rows.size(), s.plan().groups.size());
  double total = 0.0;
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const observe::ReportRow& row = r.rows[i];
    EXPECT_EQ(row.group, static_cast<int>(i));
    EXPECT_FALSE(row.stages.empty());
    EXPECT_GE(row.measured_ms, 0.0);
    EXPECT_GE(row.redundant_pct, 0.0);
    EXPECT_LE(row.redundant_pct, 100.0);
    if (!row.is_reduction) {
      EXPECT_NEAR(row.predicted_cost,
                  s.plan().groups[i].model_cost, 1e-12);
    }
    total += row.measured_ms;
  }
  // total_ms is the whole-run wall time: it bounds the sum of per-group
  // windows from above (inter-group bookkeeping sits between them).
  EXPECT_GE(r.total_ms, total - 1e-6);
  EXPECT_GT(r.total_ms, 0.0);
}

TEST(ReportTest, RendersTable) {
  const PipelineSpec spec = make_harris(96, 128);
  Session s = traced_session(spec, 1);
  Result<observe::Report> rep = s.report();
  ASSERT_TRUE(rep.ok());
  const std::string table = observe::report_to_string(rep.value());
  EXPECT_NE(table.find("predicted"), std::string::npos);
  EXPECT_NE(table.find("measured-ms"), std::string::npos);
  EXPECT_NE(table.find(rep.value().pipeline), std::string::npos);
}

observe::ReportRow scored_row(int group, double predicted, double measured) {
  observe::ReportRow r;
  r.group = group;
  r.stages = std::to_string(group);
  r.predicted_cost = predicted;
  r.measured_ms = measured;
  return r;
}

TEST(ReportTest, RankAgreementNeedsFourScoredGroups) {
  // Two scored groups rank perfectly or inversely by construction, so the
  // footer stays silent.
  observe::Report two;
  two.pipeline = "two";
  two.rows = {scored_row(0, 1.0, 2.0), scored_row(1, 3.0, 5.0)};
  EXPECT_EQ(observe::rank_agreement(two).n, 2);
  const std::string quiet = observe::report_to_string(two);
  EXPECT_EQ(quiet.find("correlation"), std::string::npos) << quiet;
  EXPECT_EQ(quiet.find("tau"), std::string::npos) << quiet;

  // Four scored rows with one swapped pair: 5 concordant, 1 discordant of
  // 6 pairs, tau = 4/6.  The reduction and the unscored row are skipped.
  observe::Report four;
  four.pipeline = "four";
  four.rows = {scored_row(0, 1.0, 1.0), scored_row(1, 2.0, 3.0),
               scored_row(2, 3.0, 2.0), scored_row(3, 4.0, 4.0),
               scored_row(4, std::numeric_limits<double>::infinity(), 0.5),
               scored_row(5, 0.0, 9.0)};
  four.rows[5].is_reduction = true;
  const observe::RankAgreement ra = observe::rank_agreement(four);
  EXPECT_EQ(ra.n, 4);
  EXPECT_NEAR(ra.tau, 4.0 / 6.0, 1e-12);
  const std::string table = observe::report_to_string(four);
  EXPECT_NE(table.find("predicted/measured rank agreement: Kendall tau "
                       "0.667 over 4 groups\n"),
            std::string::npos)
      << table;
}

// --- user observers ---------------------------------------------------------

class CountingObserver : public observe::Observer {
 public:
  bool want_tile_events() const override { return false; }
  void on_schedule_attempt(const observe::ScheduleAttempt&) override {
    ++attempts;
  }
  void on_run_begin(const observe::RunMeta&) override { ++begins; }
  void on_group_end(const observe::GroupRecord&) override { ++groups; }
  void on_run_end(const observe::RunRecord&) override { ++ends; }

  int attempts = 0, begins = 0, groups = 0, ends = 0;
};

TEST(ObserverTest, UserObserverSeesEveryCallback) {
  const PipelineSpec spec = make_blur(96, 96);
  CountingObserver counting;
  Options o;
  o.observer = &counting;
  Result<Session> opened = Session::open(*spec.pipeline, o);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened).value();
  ASSERT_TRUE(s.execute(spec.make_inputs()).ok());
  EXPECT_GT(counting.attempts, 0);
  EXPECT_EQ(counting.begins, 1);
  EXPECT_EQ(counting.ends, 1);
  EXPECT_EQ(counting.groups, static_cast<int>(s.plan().groups.size()));
  EXPECT_EQ(s.trace(), nullptr);  // no collector unless collect_trace
}

TEST(ObserverTest, TeeDeliversToUserAndCollector) {
  const PipelineSpec spec = make_blur(96, 96);
  CountingObserver counting;
  Options o;
  o.observer = &counting;
  o.collect_trace = true;
  Result<Session> opened = Session::open(*spec.pipeline, o);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened).value();
  ASSERT_TRUE(s.execute(spec.make_inputs()).ok());
  EXPECT_EQ(counting.begins, 1);
  EXPECT_EQ(counting.ends, 1);
  ASSERT_NE(s.trace(), nullptr);
  EXPECT_TRUE(s.trace()->complete);
  // The collector still wants tiles even though the user observer doesn't.
  std::size_t tiles = 0;
  for (const observe::GroupRecord& g : s.trace()->groups) tiles += g.tiles.size();
  EXPECT_GT(tiles, 0u);
}

// --- direct executor-level bit-identity -------------------------------------

TEST(ObserverTest, ExecutorOutputsBitIdenticalWithObserver) {
  const PipelineSpec spec = make_unsharp(96, 96);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  const Grouping g = singleton_grouping(pl, model);
  const std::vector<Buffer> inputs = spec.make_inputs();

  ExecOptions eo;
  eo.num_threads = 2;
  Executor ex(pl, g, eo);
  Workspace plain, observed;
  ex.run(inputs, plain);
  observe::TraceCollector collector;
  ex.run(inputs, observed, &collector);

  for (int st : pl.outputs())
    EXPECT_TRUE(testing::buffers_equal(plain.stage_buffer(st),
                                       observed.stage_buffer(st)));
  ASSERT_NE(collector.last(), nullptr);
  EXPECT_TRUE(collector.last()->complete);
}

}  // namespace
}  // namespace fusedp
