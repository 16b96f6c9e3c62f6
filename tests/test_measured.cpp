// Scheduler::kMeasured integration tests: the k-best shoot-out picks a
// valid schedule whose outputs are bit-identical to the model-ranked one,
// per-group measured_ms persists to the find-db across re-open, and a
// deadline expiring mid-shoot-out degrades to the model-ranked winner as a
// coded, observable event with the session still fully usable.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "pipelines/pipelines.hpp"
#include "storage/findb.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/fusedp_measured_test_XXXXXX";
    char* p = ::mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    path = p ? p : "";
  }
  ~TempDir() {
    if (!path.empty()) {
      std::string cmd = "rm -rf '" + path + "'";
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
};

// Captures every schedule attempt streamed during open/execute.
struct AttemptObserver : observe::Observer {
  std::vector<observe::ScheduleAttempt> attempts;
  bool want_tile_events() const override { return false; }
  void on_schedule_attempt(const observe::ScheduleAttempt& a) override {
    attempts.push_back(a);
  }
};

// The grouping's partition as a canonical set of stage-bit masks.
std::set<std::uint64_t> partition_of(const Grouping& g) {
  std::set<std::uint64_t> p;
  for (const GroupSchedule& gs : g.groups) p.insert(gs.stages.bits());
  return p;
}

TEST(MeasuredTest, PicksValidScheduleAndMatchesModelRankedOutputs) {
  PipelineSpec spec = make_blur(96, 128);
  const std::vector<Buffer> inputs = spec.make_inputs();

  Options mo;
  mo.scheduler = Scheduler::kMeasured;
  mo.measured_top_k = 4;
  mo.measured_repeats = 2;
  auto ms = Session::open(*spec.pipeline, mo);
  ASSERT_TRUE(ms.ok()) << ms.error().what();
  Session measured = std::move(ms).value();

  Options dopts;
  dopts.scheduler = Scheduler::kDp;
  auto ds = Session::open(*spec.pipeline, dopts);
  ASSERT_TRUE(ds.ok()) << ds.error().what();
  Session ranked = std::move(ds).value();

  ASSERT_TRUE(measured.execute(inputs).ok());
  ASSERT_TRUE(ranked.execute(inputs).ok());

  // The measured rung may *choose* a different schedule, but the pixels it
  // produces must be bit-identical to the model-ranked schedule's.
  ASSERT_EQ(measured.num_outputs(), ranked.num_outputs());
  for (int i = 0; i < measured.num_outputs(); ++i)
    EXPECT_TRUE(testing::buffers_equal(measured.output(i), ranked.output(i)))
        << "output " << i << " diverges at index "
        << testing::first_mismatch(measured.output(i), ranked.output(i));

  // The shoot-out itself is visible in the diagnostics: one attempt per
  // measured candidate, all succeeded here.
  EXPECT_GE(measured.diagnostics().attempts.size(), 1u);
  for (const TierAttempt& ta : measured.diagnostics().attempts)
    EXPECT_TRUE(ta.succeeded) << ta.detail;
}

TEST(MeasuredTest, StreamsOneAttemptPerCandidateToObserver) {
  PipelineSpec spec = make_blur(64, 96);
  AttemptObserver obs;
  Options opts;
  opts.scheduler = Scheduler::kMeasured;
  opts.measured_top_k = 3;
  opts.measured_repeats = 1;
  opts.observer = &obs;
  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok()) << s.error().what();

  int measured = 0;
  for (const observe::ScheduleAttempt& a : obs.attempts)
    if (a.tier == "measured" && a.succeeded) ++measured;
  EXPECT_GE(measured, 1);
  EXPECT_LE(measured, opts.measured_top_k);
}

// The post-mortem counts the k-best DP's states and shows what each
// candidate measured.
TEST(MeasuredTest, PostMortemCountsStatesAndShowsCandidateTimes) {
  PipelineSpec spec = make_blur(64, 96);
  Options opts;
  opts.scheduler = Scheduler::kMeasured;
  opts.measured_top_k = 2;
  opts.measured_repeats = 1;
  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok()) << s.error().what();
  const Diagnostics& diag = s.value().diagnostics();
  EXPECT_GT(diag.total_states, 0u);
  const std::string summary = diag.summary();
  for (const TierAttempt& a : diag.attempts) {
    ASSERT_TRUE(a.succeeded) << a.detail;
    EXPECT_NE(summary.find(a.detail + "\n"), std::string::npos) << summary;
  }
  EXPECT_NE(summary.find(": ok ("), std::string::npos) << summary;
  EXPECT_NE(summary.find("candidate 0: "), std::string::npos) << summary;
}

TEST(MeasuredTest, CallerWarmupFrameIsAcceptedAndCountChecked) {
  PipelineSpec spec = make_blur(64, 96);
  const std::vector<Buffer> warm = spec.make_inputs();
  Options opts;
  opts.scheduler = Scheduler::kMeasured;
  opts.warmup_inputs = &warm;
  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok()) << s.error().what();
  Session sess = std::move(s).value();
  EXPECT_TRUE(sess.execute(spec.make_inputs()).ok());

  // Wrong buffer count is a coded open failure, not a crash mid-shoot-out.
  const std::vector<Buffer> empty;
  Options bad = opts;
  bad.warmup_inputs = &empty;
  auto s2 = Session::open(*spec.pipeline, bad);
  ASSERT_FALSE(s2.ok());
  EXPECT_EQ(s2.code(), ErrorCode::kInvalidArgument);
}

// Deadline expiry mid-shoot-out: the session still opens (model-ranked
// fallback = what Scheduler::kDp would return), the failure is a coded
// observable attempt, and the session remains fully usable afterwards.
TEST(MeasuredTest, DeadlineExpiryFallsBackToModelRankedWinner) {
  PipelineSpec spec = make_blur(64, 96);
  AttemptObserver obs;
  Options opts;
  opts.scheduler = Scheduler::kMeasured;
  opts.measured_top_k = 4;
  // Expired before the first candidate can run: the DP on a 2-stage
  // pipeline finishes under its 256-state deadline-check stride, so the
  // shoot-out is reached and must refuse to start measuring.
  opts.deadline_seconds = 1e-7;
  opts.observer = &obs;
  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok()) << s.error().what();
  Session sess = std::move(s).value();

  bool saw_deadline = false;
  for (const observe::ScheduleAttempt& a : obs.attempts)
    if (a.tier == "measured" && !a.succeeded &&
        a.code == "deadline-exceeded")
      saw_deadline = true;
  EXPECT_TRUE(saw_deadline);

  // Fallback is the model-ranked winner: same partition as kDp.
  Options dopts;
  dopts.scheduler = Scheduler::kDp;
  auto ds = Session::open(*spec.pipeline, dopts);
  ASSERT_TRUE(ds.ok()) << ds.error().what();
  Session ranked = std::move(ds).value();
  EXPECT_EQ(partition_of(sess.grouping()), partition_of(ranked.grouping()));

  // The open deadline is spent; execution is governed separately and the
  // workspace must be reusable.
  const std::vector<Buffer> inputs = spec.make_inputs();
  ASSERT_TRUE(sess.execute(inputs).ok());
  ASSERT_TRUE(sess.execute(inputs).ok());
  ASSERT_TRUE(ranked.execute(inputs).ok());
  for (int i = 0; i < sess.num_outputs(); ++i)
    EXPECT_TRUE(testing::buffers_equal(sess.output(i), ranked.output(i)));
}

// The winning schedule persists to the find-db with per-group measured_ms,
// and survives a re-open (memory tier dropped, so the record is re-read
// from disk) as a "measured"-rung warm start.
TEST(MeasuredTest, PersistsMeasuredMsAcrossReopen) {
  TempDir dir;
  PipelineSpec spec = make_blur(64, 96);
  Options opts;
  opts.scheduler = Scheduler::kMeasured;
  opts.measured_top_k = 3;
  opts.measured_repeats = 1;
  opts.cache_mode = findb::CacheMode::kReadWrite;
  opts.cache_dir = dir.path;

  auto s1 = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s1.ok()) << s1.error().what();
  Session cold = std::move(s1).value();
  ASSERT_FALSE(cold.warm_start());
  const std::set<std::uint64_t> part1 = partition_of(cold.grouping());

  // The on-disk record carries the measured rung label and one measured_ms
  // slot per group.
  findb::FindbOptions fo;
  fo.dir = dir.path;
  fo.mode = findb::CacheMode::kRead;
  findb::FindDb db(fo);
  auto entries = db.scan();
  ASSERT_TRUE(entries.ok()) << entries.error().what();
  ASSERT_EQ(entries.value().size(), 1u);
  const findb::EntryInfo& e = entries.value()[0];
  ASSERT_TRUE(e.valid) << e.problem;
  EXPECT_EQ(e.record.rung, "measured");
  ASSERT_EQ(e.record.measured_ms.size(), part1.size());
  for (double ms : e.record.measured_ms) EXPECT_GT(ms, 0.0);

  // Re-open from disk (not the memory tier): warm start, same schedule, no
  // re-measurement (zero schedule attempts in the diagnostics).
  findb::FindDb::clear_memory_tier();
  auto s2 = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s2.ok()) << s2.error().what();
  Session warm = std::move(s2).value();
  EXPECT_TRUE(warm.warm_start());
  EXPECT_EQ(partition_of(warm.grouping()), part1);
  EXPECT_TRUE(warm.diagnostics().attempts.empty());

  // Warm-started measured sessions still execute correctly.
  const std::vector<Buffer> inputs = spec.make_inputs();
  ASSERT_TRUE(cold.execute(inputs).ok());
  ASSERT_TRUE(warm.execute(inputs).ok());
  for (int i = 0; i < cold.num_outputs(); ++i)
    EXPECT_TRUE(testing::buffers_equal(cold.output(i), warm.output(i)));
}

TEST(MeasuredTest, ValidatesMeasuredKnobs) {
  Options opts;
  opts.scheduler = Scheduler::kMeasured;
  opts.measured_top_k = 0;
  auto r = validate_options(opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);

  opts.measured_top_k = 17;
  EXPECT_FALSE(validate_options(opts).ok());

  opts.measured_top_k = 4;
  opts.measured_repeats = 0;
  EXPECT_FALSE(validate_options(opts).ok());

  opts.measured_repeats = 1;
  EXPECT_TRUE(validate_options(opts).ok());
}

}  // namespace
}  // namespace fusedp
