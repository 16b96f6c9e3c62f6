// Per-request deadlines and what a failed Session run leaves behind.
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
  Result<Session> sr = Session::open(pl, o);
  ASSERT_TRUE(sr.ok()) << sr.error().what();
  Session s = std::move(sr).value();

  Result<double> r = s.execute(inputs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kDeadlineExceeded);
  // The one attempt reports the same coded error.
  EXPECT_FALSE(s.last_report().attempt.succeeded);
  EXPECT_EQ(s.last_report().attempt.code, "deadline-exceeded");
}

// A failed execute() must not leave the previous request's pixels on
// offer: output() refuses until a run succeeds again, and that run computes
// the new request's outputs.
TEST(SessionFailureTest, FailedRunWithdrawsEarlierOutputs) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> a = spec.make_inputs();
  std::vector<Buffer> b = spec.make_inputs();
  for (Buffer& buf : b)
    for (std::int64_t i = 0; i < buf.volume(); ++i)
      buf.data()[i] = 1.0f - buf.data()[i];
  const std::vector<Buffer> ref_a = run_reference(pl, a);
  const std::vector<Buffer> ref_b = run_reference(pl, b);
  const int out0 = pl.outputs()[0];
  ASSERT_GE(testing::first_mismatch(ref_a[static_cast<std::size_t>(out0)],
                                    ref_b[static_cast<std::size_t>(out0)]),
            0);

  Options o;
  o.num_threads = 2;
  o.scheduler = Scheduler::kGreedy;
  Result<Session> sr = Session::open(pl, o);
  ASSERT_TRUE(sr.ok()) << sr.error().what();
  Session s = std::move(sr).value();
  ASSERT_TRUE(s.run(a).ok());

  {
    FaultGuard guard("executor.tile_eval", ErrorCode::kFaultInjected, 0);
    Result<double> r = s.execute(b);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kFaultInjected);
  }
  EXPECT_EQ(s.last_report().attempt.code, "fault-injected");
  try {
    (void)s.output(0);
    FAIL() << "output(0) after a failed execute() returned pixels";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }

  Result<std::vector<Buffer>> again = s.run(b);
  ASSERT_TRUE(again.ok()) << again.error().what();
  for (std::size_t i = 0; i < pl.outputs().size(); ++i) {
    const int out = pl.outputs()[i];
    EXPECT_LT(testing::first_mismatch(again.value()[i],
                                      ref_b[static_cast<std::size_t>(out)]),
              0);
    EXPECT_LT(testing::first_mismatch(s.output(static_cast<int>(i)),
                                      ref_b[static_cast<std::size_t>(out)]),
              0);
  }
}

}  // namespace
}  // namespace fusedp
