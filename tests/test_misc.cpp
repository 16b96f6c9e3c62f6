// Cross-cutting tests: determinism of schedulers, plan printing, pooled
// workspace reuse, and host-model sanity.
#include <gtest/gtest.h>

#include "fusion/halide_auto.hpp"
#include "fusion/incremental.hpp"
#include "fusion/polymage_greedy.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan_printer.hpp"
#include "support/stats.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

std::string grouping_key(const Pipeline& pl, const Grouping& g) {
  return g.to_string(pl);
}

TEST(DeterminismTest, SchedulersAreDeterministic) {
  for (const char* key : {"harris", "campipe"}) {
    const PipelineSpec spec = make_benchmark(key, 16);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, MachineModel::xeon_haswell());
    IncFusion a(pl, model), b(pl, model);
    EXPECT_EQ(grouping_key(pl, a.run()), grouping_key(pl, b.run())) << key;
    const HalideAuto ha(pl, model), hb(pl, model);
    EXPECT_EQ(grouping_key(pl, ha.run()), grouping_key(pl, hb.run())) << key;
    const PolyMageGreedy ga(pl, model);
    EXPECT_EQ(grouping_key(pl, ga.run(64, 64, 0.4)),
              grouping_key(pl, ga.run(64, 64, 0.4)))
        << key;
  }
}

TEST(PlanPrinterTest, MentionsStagesAndTiles) {
  const PipelineSpec spec = make_unsharp(256, 256);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  IncFusion inc(pl, model);
  const std::string s = plan_to_string(lower(pl, inc.run()));
  EXPECT_NE(s.find("omp parallel for"), std::string::npos);
  EXPECT_NE(s.find("blurx"), std::string::npos);
  EXPECT_NE(s.find("masked"), std::string::npos);
  EXPECT_NE(s.find("tile ("), std::string::npos);
}

TEST(PlanPrinterTest, ShowsLine15ChecksAndMarksStarvedGrids) {
  // Interpolate fused whole at paper/16 runs as one tile: the printer must
  // say so against the model's core count, next to the run tile's volume.
  const PipelineSpec spec = make_benchmark("interpolate", 16);
  const Pipeline& pl = *spec.pipeline;
  MachineModel m = MachineModel::xeon_haswell();
  m.cores = 4;
  const CostModel model(pl, m);
  Grouping whole;
  GroupSchedule all;
  for (int i = 0; i < pl.num_stages(); ++i) all.stages = all.stages.with(i);
  whole.groups.push_back(all);
  complete_grouping(pl, model, whole);
  const std::string s = plan_to_string(lower(pl, whole), nullptr, &model);
  EXPECT_NE(s.find("line 15: 1 tiles for 4 cores (grid cannot feed the "
                   "cores); run tile "),
            std::string::npos)
      << s;

  // Singletons tile finely: checks printed, no group marked.
  const std::string fine =
      plan_to_string(lower(pl, singleton_grouping(pl, model)), nullptr, &model);
  EXPECT_NE(fine.find("line 15: "), std::string::npos);
  EXPECT_EQ(fine.find("cannot feed"), std::string::npos) << fine;
  // Without a model the plan text is unchanged.
  EXPECT_EQ(plan_to_string(lower(pl, whole)).find("line 15"),
            std::string::npos);
}

TEST(PlanPrinterTest, ReductionRendered) {
  const PipelineSpec spec = make_bilateral(64, 64);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const std::string s = plan_to_string(
      lower(*spec.pipeline, singleton_grouping(*spec.pipeline, model)));
  EXPECT_NE(s.find("reduce grid"), std::string::npos);
}

TEST(WorkspaceTest, SwitchingPooledModesIsSafe) {
  const PipelineSpec spec = make_unsharp(96, 96);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  const Grouping g = singleton_grouping(pl, model);
  const std::vector<Buffer> inputs = spec.make_inputs();
  ExecOptions plain, pooled;
  pooled.pooled_storage = true;
  Executor ep(pl, g, plain), eq(pl, g, pooled);
  Workspace ws;  // shared between both executors, alternating modes
  ep.run(inputs, ws);
  const Buffer first = ws.stage_buffer(pl.outputs()[0]);
  eq.run(inputs, ws);
  EXPECT_TRUE(
      testing::buffers_equal(first, ws.stage_buffer(pl.outputs()[0])));
  ep.run(inputs, ws);
  EXPECT_TRUE(
      testing::buffers_equal(first, ws.stage_buffer(pl.outputs()[0])));
}

TEST(HostModelTest, SaneDefaults) {
  const MachineModel m = MachineModel::host();
  EXPECT_GE(m.cores, 1);
  EXPECT_GE(m.l1_bytes, 4 * 1024);
  EXPECT_GE(m.l2_bytes, m.l1_bytes);
  EXPECT_GT(m.innermost_tile, 0);
}

TEST(GroupCostTest, FeasibleFlagConsistent) {
  const PipelineSpec spec = make_bilateral(96, 96);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const GroupCost good = model.cost(NodeSet::single(1));
  EXPECT_TRUE(good.feasible());
  EXPECT_FALSE(good.tile_sizes.empty());
  const GroupCost bad = model.cost(NodeSet::single(0).with(1));
  EXPECT_FALSE(bad.feasible());
  EXPECT_EQ(bad.cost, kInfiniteCost);
}

TEST(RunStatsTest, ExecutionTimingSmoke) {
  // time_grouping-style protocol through the public API.
  const PipelineSpec spec = make_blur(64, 64);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  Executor ex(pl, singleton_grouping(pl, model), {});
  Workspace ws;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const RunStats st =
      measure_min_of_averages([&] { ex.run(inputs, ws); }, 2, 2);
  EXPECT_GT(st.min_avg_ms, 0.0);
  EXPECT_LE(st.best_ms, st.min_avg_ms + 1e-9);
}

TEST(UmbrellaHeaderTest, EverythingReachable) {
  // Compile-time smoke: the public names the README uses are visible via
  // the aggregated includes (this file includes them piecemeal; the
  // umbrella is exercised by examples/quickstart.cpp at build time).
  const PipelineSpec spec = make_blur(32, 32);
  EXPECT_EQ(spec.pipeline->name(), "blur");
}

}  // namespace
}  // namespace fusedp
