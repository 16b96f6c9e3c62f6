// The never-pessimize gate's per-stage measurement memo
// (runtime/benefit.hpp): a rebuilt plan reuses every stage's times and
// reads the same verdicts, while anything the micro-measure depends on
// (row-kernel flags, row-kernel table, the stage itself) gets its own
// measurement.  The memo is process-wide, so each case below uses keys no
// other case in this file measures first.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "api/serve.hpp"
#include "fusion/incremental.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/benefit.hpp"
#include "runtime/executor.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

ExecOptions gate_options() {
  ExecOptions opts;
  opts.num_threads = 1;
  opts.mode = EvalMode::kRow;
  opts.vector_backend = true;
  opts.never_pessimize = true;
  return opts;
}

Grouping incremental_grouping(const Pipeline& pl) {
  const CostModel model(pl, MachineModel::xeon_haswell());
  IncFusion inc(pl, model);  // keeps a reference to the model
  return inc.run();
}

// Stage measurements one Executor construction runs.
std::int64_t measurements_to_build(const Pipeline& pl, const Grouping& g,
                                   const ExecOptions& opts) {
  const std::int64_t before = detail::never_pessimize_measurements();
  const Executor ex(pl, g, opts);
  return detail::never_pessimize_measurements() - before;
}

void expect_same_verdicts(const ExecutablePlan& a, const ExecutablePlan& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    const GroupVerdict& va = a.groups[i].verdict;
    const GroupVerdict& vb = b.groups[i].verdict;
    EXPECT_EQ(va.cause, vb.cause) << "group " << i;
    EXPECT_EQ(va.measured, vb.measured) << "group " << i;
    EXPECT_EQ(va.demoted, vb.demoted) << "group " << i;
    EXPECT_EQ(va.vector_ms, vb.vector_ms) << "group " << i;
    EXPECT_EQ(va.scalar_ms, vb.scalar_ms) << "group " << i;
  }
}

TEST(NeverPessimizeMemoTest, RebuildMeasuresNothingAndKeepsVerdicts) {
  const PipelineSpec spec = make_benchmark("bilateral", 16);
  const Pipeline& pl = *spec.pipeline;
  const Grouping g = incremental_grouping(pl);
  const ExecOptions opts = gate_options();

  const std::int64_t before = detail::never_pessimize_measurements();
  const Executor first(pl, g, opts);
  EXPECT_GT(detail::never_pessimize_measurements(), before);
  int measured = 0;
  for (const GroupPlan& gp : first.plan().groups) measured += gp.verdict.measured;
  EXPECT_GE(measured, 1);  // the gather-bound group

  const std::int64_t mid = detail::never_pessimize_measurements();
  const Executor second(pl, g, opts);
  EXPECT_EQ(detail::never_pessimize_measurements(), mid);
  expect_same_verdicts(first.plan(), second.plan());
}

TEST(NeverPessimizeMemoTest, EveryKeyInputMeasuresAgain) {
  const PipelineSpec spec = make_benchmark("bilateral", 12);
  const Pipeline& pl = *spec.pipeline;
  const Grouping g = incremental_grouping(pl);
  const ExecOptions base = gate_options();
  EXPECT_GT(measurements_to_build(pl, g, base), 0);
  EXPECT_EQ(measurements_to_build(pl, g, base), 0);

  ExecOptions fma = base;
  fma.allow_fma = true;
  EXPECT_GT(measurements_to_build(pl, g, fma), 0) << "allow_fma";
  EXPECT_EQ(measurements_to_build(pl, g, fma), 0) << "allow_fma";

  // bilateral's suspect group is gather-bound, so it stays suspect (and
  // measured) with the approximate transcendentals on.
  ExecOptions fast = base;
  fast.fast_transcendentals = true;
  EXPECT_GT(measurements_to_build(pl, g, fast), 0) << "fast_transcendentals";
  EXPECT_EQ(measurements_to_build(pl, g, fast), 0) << "fast_transcendentals";

  const PipelineSpec rescaled = make_benchmark("bilateral", 20);
  const Pipeline& pl2 = *rescaled.pipeline;
  const Grouping g2 = incremental_grouping(pl2);
  EXPECT_GT(measurements_to_build(pl2, g2, base), 0) << "scale";
  EXPECT_EQ(measurements_to_build(pl2, g2, base), 0) << "scale";
}

TEST(NeverPessimizeMemoTest, RowKernelTableMeasuresAgain) {
  const RowKernelIsa other = active_row_kernels() == RowKernelIsa::kAvx2
                                 ? RowKernelIsa::kBaseline
                                 : RowKernelIsa::kAvx2;
  if (!row_kernels_supported(other))
    GTEST_SKIP() << "this host runs one row-kernel table only";
  const PipelineSpec spec = make_benchmark("bilateral", 24);
  const Pipeline& pl = *spec.pipeline;
  const Grouping g = incremental_grouping(pl);
  const ExecOptions opts = gate_options();
  EXPECT_GT(measurements_to_build(pl, g, opts), 0);
  const detail::ScopedRowKernels kernels(other);
  EXPECT_GT(measurements_to_build(pl, g, opts), 0);
  EXPECT_EQ(measurements_to_build(pl, g, opts), 0);
}

// Four services built at once race on the memo: misses measure outside
// its lock and every plan ends on the same stored times.  Run under TSan
// in CI.
TEST(NeverPessimizeMemoTest, ConcurrentServicesShareVerdicts) {
  const PipelineSpec spec = make_benchmark("bilateral", 28);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);

  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<PipelineService>> services(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      auto r = PipelineService::create(pl);
      if (r.ok()) services[static_cast<std::size_t>(t)] = std::move(r).value();
    });
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const PipelineService* svc = services[static_cast<std::size_t>(t)].get();
    ASSERT_NE(svc, nullptr) << "service " << t;
    expect_same_verdicts(services[0]->plan(), svc->plan());
    ServeRequest req;
    req.inputs = inputs;
    Result<ServeReply> reply =
        services[static_cast<std::size_t>(t)]->call(std::move(req));
    ASSERT_TRUE(reply.ok()) << reply.error().what();
    ASSERT_EQ(reply.value().outputs.size(), pl.outputs().size());
    for (std::size_t o = 0; o < pl.outputs().size(); ++o)
      EXPECT_TRUE(testing::buffers_equal(
          reply.value().outputs[o],
          ref[static_cast<std::size_t>(pl.outputs()[o])]))
          << "service " << t << " output " << o;
  }
  int measured = 0;
  for (const GroupPlan& gp : services[0]->plan().groups)
    measured += gp.verdict.measured;
  EXPECT_GE(measured, 1);
}

}  // namespace
}  // namespace fusedp
