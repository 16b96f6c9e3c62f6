// Failure-path tests for the exception-safe executor: a fault raised inside
// a tile worker thread must surface as exactly one coded fusedp::Error on
// the calling thread (no std::terminate, no hang — without the executor's
// capture/rethrow latch these tests would abort the process, since an
// exception may not cross an OpenMP region boundary), and the Workspace
// must stay destructible and reusable afterwards.
#include <gtest/gtest.h>

#include "fusion/dp.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "support/fault.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

// Arms are process-global: always disarm, even when an assertion fails.
class FaultGuard {
 public:
  FaultGuard(const std::string& point, ErrorCode code, int skip = 0) {
    FaultInjector::arm(point, code, skip);
  }
  ~FaultGuard() { FaultInjector::disarm(); }
};

// A grouping with deliberately small tiles so every run has many tiles to
// hand out across threads.
Grouping tiny_tile_grouping(const Pipeline& pl) {
  Grouping g;
  GroupSchedule gs;
  for (int i = 0; i < pl.num_stages(); ++i) gs.stages = gs.stages.with(i);
  gs.tile_sizes = {2, 8, 16};
  g.groups.push_back(gs);
  return g;
}

ErrorCode run_and_capture_code(const Executor& ex,
                               const std::vector<Buffer>& inputs,
                               Workspace& ws) {
  try {
    ex.run(inputs, ws);
  } catch (const Error& e) {
    return e.code();
  } catch (...) {
    ADD_FAILURE() << "expected fusedp::Error, got another exception type";
    throw;
  }
  ADD_FAILURE() << "expected fusedp::Error, got clean completion";
  return ErrorCode::kInternal;
}

void expect_matches_reference(const Pipeline& pl, Workspace& ws,
                              const std::vector<Buffer>& ref) {
  for (int out : pl.outputs()) {
    const std::int64_t bad =
        testing::first_mismatch(ws.stage_buffer(out), ref[static_cast<std::size_t>(out)]);
    EXPECT_LT(bad, 0) << "output " << out << " differs at " << bad;
  }
}

class TileFaultTest : public ::testing::TestWithParam<EvalMode> {};

TEST_P(TileFaultTest, MidTileFaultSurfacesAsSingleCodedError) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  ExecOptions opts;
  opts.num_threads = 4;
  opts.mode = GetParam();
  Executor ex(pl, tiny_tile_grouping(pl), opts);
  Workspace ws;

  {
    // Fire mid-run: skip a few tile entries first.
    FaultGuard guard("executor.tile_eval", ErrorCode::kFaultInjected, 5);
    EXPECT_EQ(run_and_capture_code(ex, inputs, ws),
              ErrorCode::kFaultInjected);
  }

  // The workspace survived and is reusable: a clean re-run produces
  // bit-identical output.
  ex.run(inputs, ws);
  expect_matches_reference(pl, ws, ref);
}

INSTANTIATE_TEST_SUITE_P(BothEvalModes, TileFaultTest,
                         ::testing::Values(EvalMode::kRow, EvalMode::kScalar));

TEST(ExecutorFaultTest, ScratchAllocationFailureIsCoded) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();

  ExecOptions opts;
  opts.num_threads = 3;
  Executor ex(pl, tiny_tile_grouping(pl), opts);
  Workspace ws;

  FaultGuard guard("executor.scratch_alloc", ErrorCode::kAllocationFailed);
  EXPECT_EQ(run_and_capture_code(ex, inputs, ws),
            ErrorCode::kAllocationFailed);
}

TEST(ExecutorFaultTest, WorkspacePrepareFailureLeavesNoHalfInitializedViews) {
  const PipelineSpec spec = make_harris(64, 64);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  DpFusion dp(pl, model);
  const Grouping g = dp.run();
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  Executor ex(pl, g, {});
  Workspace ws;
  {
    // Fire on the SECOND allocation, so some buffers were already made.
    FaultGuard guard("workspace.prepare", ErrorCode::kAllocationFailed, 1);
    EXPECT_EQ(run_and_capture_code(ex, inputs, ws),
              ErrorCode::kAllocationFailed);
    // Strong guarantee: no view survived the failed prepare.
    for (int s = 0; s < pl.num_stages(); ++s) EXPECT_FALSE(ws.has(s));
  }
  // Reusable after the failure.
  ex.run(inputs, ws);
  expect_matches_reference(pl, ws, ref);
}

TEST(ExecutorFaultTest, PooledWorkspacePrepareFailureIsRecoverable) {
  const PipelineSpec spec = make_harris(64, 64);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  DpFusion dp(pl, model);
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  ExecOptions opts;
  opts.pooled_storage = true;
  opts.num_threads = 2;
  Executor ex(pl, dp.run(), opts);
  Workspace ws;
  {
    FaultGuard guard("workspace.prepare", ErrorCode::kAllocationFailed);
    EXPECT_EQ(run_and_capture_code(ex, inputs, ws),
              ErrorCode::kAllocationFailed);
  }
  ex.run(inputs, ws);
  expect_matches_reference(pl, ws, ref);
}

TEST(ExecutorFaultTest, DynamicScheduleCancelsAndMatchesPool) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  // The cancellation latch must hold under dynamic worksharing too: with
  // schedule(dynamic) the tile->thread assignment is nondeterministic, but
  // a mid-run fault still surfaces as exactly one coded error.
  ExecOptions dyn;
  dyn.num_threads = 4;
  Executor ex_dyn(pl, tiny_tile_grouping(pl), dyn);
  Workspace ws_dyn;
  {
    FaultGuard guard("executor.tile_eval", ErrorCode::kFaultInjected, 7);
    EXPECT_EQ(run_and_capture_code(ex_dyn, inputs, ws_dyn),
              ErrorCode::kFaultInjected);
    EXPECT_FALSE(FaultInjector::armed());
  }

  // A clean re-run after the cancelled one is bit-correct...
  ex_dyn.run(inputs, ws_dyn);
  expect_matches_reference(pl, ws_dyn, ref);

  // ...and identical to a work-stealing-pool run of the same plan: the
  // worksharing policy must never change the bits.
  ExecOptions pooled = dyn;
  pooled.pool_backend = true;
  Executor ex_pool(pl, tiny_tile_grouping(pl), pooled);
  Workspace ws_pool;
  ex_pool.run(inputs, ws_pool);
  for (int out : pl.outputs())
    EXPECT_TRUE(testing::buffers_equal(ws_dyn.stage_buffer(out),
                                       ws_pool.stage_buffer(out)));
}

TEST(ExecutorFaultTest, FaultFiresExactlyOnceAcrossThreads) {
  const PipelineSpec spec = make_unsharp(64, 96);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();

  ExecOptions opts;
  opts.num_threads = 4;
  Executor ex(pl, tiny_tile_grouping(pl), opts);
  Workspace ws;

  FaultGuard guard("executor.tile_eval", ErrorCode::kFaultInjected);
  EXPECT_EQ(run_and_capture_code(ex, inputs, ws), ErrorCode::kFaultInjected);
  // The injector latches after firing: the run ended because of exactly one
  // injected fault, and the point is now spent.
  EXPECT_FALSE(FaultInjector::armed());
}

}  // namespace
}  // namespace fusedp
