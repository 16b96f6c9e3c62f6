// Tests for liveness-based storage pooling.
#include <gtest/gtest.h>

#include <string>

#include "fusion/dp.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "storage/liveness.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

// Linear chain of n singleton groups: intermediates have short, disjoint
// lifetimes and should collapse into very few slots.
TEST(StorageTest, LinearChainCollapsesToTwoSlots) {
  Pipeline pl("chain");
  const int img = pl.add_input("img", {32, 32});
  const Stage* prev = nullptr;
  for (int i = 0; i < 6; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    StageBuilder b(pl, pl.add_stage(name, {32, 32}));
    b.define(prev == nullptr ? b.in(img, {0, 0}) * 2.0f
                             : b.at(*prev, {0, 1}) + 1.0f);
    prev = &b.stage();
  }
  pl.finalize();
  const CostModel model(pl, MachineModel::xeon_haswell());
  const ExecutablePlan plan = lower(pl, singleton_grouping(pl, model));
  const StorageAssignment asg = assign_storage(plan);
  // Stage i is dead once stage i+1 has run: 2 slots suffice (producer +
  // consumer alternating); the output stage is unpooled.
  EXPECT_EQ(asg.num_slots, 2);
  EXPECT_EQ(asg.unpooled_floats, 5 * 32 * 32);
  EXPECT_EQ(asg.pooled_floats, 2 * 32 * 32);
  EXPECT_GT(asg.reuse_factor(), 2.0);
  EXPECT_EQ(asg.slot[5], -1) << "pipeline output must not be pooled";
}

TEST(StorageTest, IntervalsNeverOverlapWithinSlot) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 16);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, MachineModel::xeon_haswell());
    DpOptions dopts;
    const ExecutablePlan plan = lower(pl, singleton_grouping(pl, model));
    const StorageAssignment asg = assign_storage(plan);
    const std::vector<LiveInterval> intervals = compute_live_intervals(plan);
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      for (std::size_t j = i + 1; j < intervals.size(); ++j) {
        const int si = asg.slot[static_cast<std::size_t>(intervals[i].stage)];
        const int sj = asg.slot[static_cast<std::size_t>(intervals[j].stage)];
        if (si != sj || si < 0) continue;
        const bool disjoint = intervals[i].last_use < intervals[j].def_group ||
                              intervals[j].last_use < intervals[i].def_group;
        EXPECT_TRUE(disjoint)
            << info.key << ": stages " << intervals[i].stage << " and "
            << intervals[j].stage << " share slot " << si;
      }
    }
    // Slots must be large enough for every tenant.
    for (const LiveInterval& li : intervals) {
      const int s = asg.slot[static_cast<std::size_t>(li.stage)];
      if (s < 0) continue;
      EXPECT_GE(asg.slot_floats[static_cast<std::size_t>(s)],
                pl.stage(li.stage).volume());
    }
  }
}

TEST(StorageTest, PooledExecutionBitIdentical) {
  for (const char* key : {"unsharp", "harris", "campipe", "bilateral"}) {
    const PipelineSpec spec = make_benchmark(key, 24);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, MachineModel::xeon_haswell());
    DpFusion dp(pl, model);
    const Grouping g = dp.run();
    const std::vector<Buffer> inputs = spec.make_inputs();
    ExecOptions plain, pooled;
    pooled.pooled_storage = true;
    plain.num_threads = pooled.num_threads = 2;
    const std::vector<Buffer> a = run_pipeline(pl, g, inputs, plain);
    const std::vector<Buffer> b = run_pipeline(pl, g, inputs, pooled);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t o = 0; o < a.size(); ++o)
      EXPECT_TRUE(testing::buffers_equal(a[o], b[o])) << key;
  }
}

TEST(StorageTest, PoolingReducesFootprint) {
  const PipelineSpec spec = make_benchmark("interpolate", 16);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  const Grouping g = singleton_grouping(pl, model);
  const std::vector<Buffer> inputs = spec.make_inputs();

  ExecOptions plain, pooled;
  pooled.pooled_storage = true;
  Executor ep(pl, g, plain), eq(pl, g, pooled);
  Workspace wp, wq;
  ep.run(inputs, wp);
  eq.run(inputs, wq);
  EXPECT_LT(wq.allocated_floats(), wp.allocated_floats());
  EXPECT_GT(eq.storage().reuse_factor(), 1.2);
}

TEST(StorageTest, FullyFusedGroupNeedsNoSlots) {
  const PipelineSpec spec = make_unsharp(64, 64);
  const Pipeline& pl = *spec.pipeline;
  Grouping g;
  GroupSchedule gs;
  for (int i = 0; i < 4; ++i) gs.stages = gs.stages.with(i);
  g.groups = {gs};
  const StorageAssignment asg = assign_storage(lower(pl, g));
  EXPECT_EQ(asg.num_slots, 0);  // everything lives in per-tile scratch
  EXPECT_EQ(asg.pooled_floats, 0);
}

}  // namespace
}  // namespace fusedp
