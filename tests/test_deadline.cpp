// Per-request deadlines and the Session degradation ladder.
//
// The load-bearing invariant: a deadline that expires mid-run cancels
// cooperatively through the executor's latch, surfaces as exactly one coded
// kDeadlineExceeded error, and leaves the Workspace so untouched-in-spirit
// that an immediate re-run without the deadline is bit-identical to a run
// that was never disturbed.
#include <gtest/gtest.h>

#include "api/session.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "support/fault.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

class FaultGuard {
 public:
  FaultGuard(const std::string& point, ErrorCode code, int skip = 0) {
    FaultInjector::arm(point, code, skip);
  }
  ~FaultGuard() { FaultInjector::disarm(); }
};

Grouping tiny_tile_grouping(const Pipeline& pl) {
  Grouping g;
  GroupSchedule gs;
  for (int i = 0; i < pl.num_stages(); ++i) gs.stages = gs.stages.with(i);
  gs.tile_sizes = {2, 8, 16};
  g.groups.push_back(gs);
  return g;
}

void expect_matches_reference(const Pipeline& pl, Workspace& ws,
                              const std::vector<Buffer>& ref) {
  for (int out : pl.outputs()) {
    const std::int64_t bad = testing::first_mismatch(
        ws.stage_buffer(out), ref[static_cast<std::size_t>(out)]);
    EXPECT_LT(bad, 0) << "output " << out << " differs at " << bad;
  }
}

TEST(DeadlineTest, UnarmedDeadlineNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.remaining_seconds() > 1e18);
}

TEST(DeadlineTest, ArmedDeadlineExpires) {
  const Deadline d = Deadline::after(0.0);
  EXPECT_TRUE(d.armed());
  EXPECT_TRUE(d.expired());
  const Deadline far = Deadline::after(3600.0);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_seconds(), 3000.0);
}

// Satellite invariant: deadline cancellation under schedule(dynamic) with
// several worker threads leaves the Workspace reusable, and the immediate
// re-run is bit-identical to a run that never saw a deadline.
TEST(DeadlineTest, DynamicScheduleCancellationLeavesWorkspaceReusable) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  ExecOptions opts;
  opts.num_threads = 4;
  Executor ex(pl, tiny_tile_grouping(pl), opts);
  Workspace ws;

  // Already-expired deadline: the run still prepares the workspace, then
  // every tile cancels through the latch.
  const Deadline expired = Deadline::after(0.0);
  try {
    ex.run(inputs, ws, nullptr, &expired);
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }

  // Immediate re-run without the deadline: bit-identical to undisturbed.
  ex.run(inputs, ws);
  expect_matches_reference(pl, ws, ref);

  // And identical to a run in a workspace that never saw the cancellation.
  Workspace fresh;
  ex.run(inputs, fresh);
  for (int out : pl.outputs())
    EXPECT_LT(testing::first_mismatch(ws.stage_buffer(out),
                                      fresh.stage_buffer(out)),
              0);
}

TEST(DeadlineTest, FarFutureDeadlineDoesNotPerturbOutputs) {
  const PipelineSpec spec = make_unsharp(48, 64);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  Executor ex(pl, tiny_tile_grouping(pl), {});
  Workspace ws;
  const Deadline far = Deadline::after(3600.0);
  ex.run(inputs, ws, nullptr, &far);
  expect_matches_reference(pl, ws, ref);
}

TEST(SessionDeadlineTest, ExpiredRunDeadlineIsTerminalNoRetry) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();

  Options o;
  o.num_threads = 2;
  o.scheduler = Scheduler::kGreedy;
  o.run_deadline_seconds = 1e-9;  // expires before the first tile
  o.max_run_attempts = 3;         // ladder must NOT be climbed
  Result<Session> sr = Session::open(pl, o);
  ASSERT_TRUE(sr.ok()) << sr.error().what();
  Session s = std::move(sr).value();

  Result<double> r = s.execute(inputs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kDeadlineExceeded);
  // kDeadlineExceeded is terminal: exactly one attempt, no degradation.
  ASSERT_EQ(s.last_report().attempts.size(), 1u);
  EXPECT_FALSE(s.last_report().succeeded);
  EXPECT_EQ(s.last_report().attempts[0].config, "full");
  EXPECT_EQ(s.last_report().attempts[0].code, "deadline-exceeded");
}

TEST(SessionDeadlineTest, DegradationLadderRetriesFaultAndStaysBitIdentical) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  Options o;
  o.num_threads = 2;
  o.scheduler = Scheduler::kGreedy;
  o.max_run_attempts = 3;
  Result<Session> sr = Session::open(pl, o);
  ASSERT_TRUE(sr.ok()) << sr.error().what();
  Session s = std::move(sr).value();

  // The injector's fired-latch makes the fault one-shot: attempt 1 trips it,
  // attempt 2 (first fallback rung) runs clean.
  Result<double> r = [&] {
    FaultGuard guard("executor.tile_eval", ErrorCode::kFaultInjected, 0);
    return s.execute(inputs);
  }();
  ASSERT_TRUE(r.ok()) << r.error().what();

  const observe::RunReport& rep = s.last_report();
  ASSERT_EQ(rep.attempts.size(), 2u);
  EXPECT_FALSE(rep.attempts[0].succeeded);
  EXPECT_EQ(rep.attempts[0].code, "fault-injected");
  EXPECT_TRUE(rep.attempts[1].succeeded);
  EXPECT_TRUE(rep.succeeded);
  EXPECT_TRUE(rep.degraded);
  EXPECT_EQ(rep.final_config, "no-superops");

  // Degraded success is bit-identical to the scalar reference.
  for (int i = 0; i < s.num_outputs(); ++i) {
    const int out = pl.outputs()[static_cast<std::size_t>(i)];
    EXPECT_LT(testing::first_mismatch(s.output(i),
                                      ref[static_cast<std::size_t>(out)]),
              0);
  }

  // The report renders as a readable attempt ladder.
  const std::string text = observe::run_report_to_string(rep);
  EXPECT_NE(text.find("attempt 1 [full]"), std::string::npos);
  EXPECT_NE(text.find("attempt 2 [no-superops]"), std::string::npos);
  EXPECT_NE(text.find("degraded"), std::string::npos);
}

TEST(SessionDeadlineTest, LadderExhaustionReportsLastCodedError) {
  const PipelineSpec spec = make_unsharp(48, 64);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();

  // The injector's fired latch makes each arming one-shot, so to exhaust
  // the whole ladder the observer re-arms the fault as each failed attempt
  // is streamed — every rung then trips the same coded error.
  struct Rearm : observe::Observer {
    void on_run_attempt(const observe::RunAttempt& a) override {
      if (!a.succeeded)
        FaultInjector::arm("executor.tile_eval", ErrorCode::kFaultInjected, 0);
    }
  } rearm;
  Options o2;
  o2.num_threads = 1;
  o2.scheduler = Scheduler::kGreedy;
  o2.max_run_attempts = 3;  // full + 2 rungs
  o2.observer = &rearm;
  Result<Session> sr2 = Session::open(pl, o2);
  ASSERT_TRUE(sr2.ok());
  Session s2 = std::move(sr2).value();

  FaultInjector::arm("executor.tile_eval", ErrorCode::kFaultInjected, 0);
  Result<double> r = s2.execute(inputs);
  FaultInjector::disarm();

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kFaultInjected);
  EXPECT_EQ(s2.last_report().attempts.size(), 3u);
  EXPECT_FALSE(s2.last_report().succeeded);
  for (const observe::RunAttempt& a : s2.last_report().attempts)
    EXPECT_EQ(a.code, "fault-injected");
}

}  // namespace
}  // namespace fusedp
