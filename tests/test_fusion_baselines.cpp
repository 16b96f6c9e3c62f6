// Tests for the baseline schedulers: PolyMage-A (greedy + auto-tuning),
// H-auto (Halide auto-scheduler model), and H-manual (expert schedules).
#include <gtest/gtest.h>

#include "fusion/halide_auto.hpp"
#include "fusion/manual.hpp"
#include "fusion/polymage_greedy.hpp"
#include "pipelines/pipelines.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

TEST(PolyMageGreedyTest, ValidOnAllBenchmarksAcrossConfigs) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 16);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    const PolyMageGreedy greedy(*spec.pipeline, model);
    for (std::int64_t t : {8ll, 64ll, 256ll}) {
      for (double tol : {0.2, 0.5}) {
        const Grouping g = greedy.run(t, t, tol);
        std::string why;
        EXPECT_TRUE(validate_grouping(*spec.pipeline, g, &why))
            << info.key << " t=" << t << " tol=" << tol << ": " << why;
      }
    }
  }
}

TEST(PolyMageGreedyTest, HigherToleranceFusesAtLeastAsMuch) {
  const PipelineSpec spec = make_harris(512, 512);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const PolyMageGreedy greedy(*spec.pipeline, model);
  const Grouping strict = greedy.run(64, 64, 0.05);
  const Grouping loose = greedy.run(64, 64, 0.9);
  EXPECT_GE(strict.groups.size(), loose.groups.size());
}

TEST(PolyMageGreedyTest, ZeroToleranceMeansNoOverlappedFusion) {
  const PipelineSpec spec = make_blur(256, 256);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const PolyMageGreedy greedy(*spec.pipeline, model);
  // blur's fusion requires recomputation, so a ~zero tolerance forbids it.
  const Grouping g = greedy.run(64, 64, 1e-9);
  EXPECT_EQ(g.groups.size(), 2u);
}

TEST(PolyMageGreedyTest, TunePicksFastestConfig) {
  const PipelineSpec spec = make_blur(256, 256);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  PolyMageOptions opts;
  opts.tile_candidates = {32, 64};
  opts.tolerances = {0.2, 0.5};
  const PolyMageGreedy greedy(*spec.pipeline, model, opts);
  // Synthetic timing callback: prefer fewer groups, then larger tiles.
  PolyMageTuneResult res;
  const Grouping best = greedy.tune(
      [](const Grouping& g) {
        double ms = static_cast<double>(g.groups.size()) * 100.0;
        for (const GroupSchedule& gs : g.groups)
          for (std::int64_t t : gs.tile_sizes) ms -= static_cast<double>(t) * 1e-3;
        return ms;
      },
      &res);
  EXPECT_EQ(res.configs_tried, 2 * 2 * 2);
  EXPECT_EQ(best.groups.size(), 1u);
  EXPECT_EQ(res.best_t1, 64);
}

TEST(HalideAutoTest, ValidOnAllBenchmarks) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 16);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    const HalideAuto h(*spec.pipeline, model);
    const Grouping g = h.run();
    std::string why;
    EXPECT_TRUE(validate_grouping(*spec.pipeline, g, &why))
        << info.key << ": " << why;
  }
}

TEST(HalideAutoTest, ValidOnWideDagsAcrossScales) {
  // Regression: at near-full image sizes the merge order once produced two
  // mutually-cyclic groups on pyramid blend (pairwise path checks are not
  // a complete cycle test).
  for (const char* key : {"pyramid", "campipe"}) {
    for (std::int64_t scale : {4, 8}) {
      const PipelineSpec spec = make_benchmark(key, scale);
      const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
      const HalideAuto h(*spec.pipeline, model);
      const Grouping g = h.run();
      std::string why;
      EXPECT_TRUE(validate_grouping(*spec.pipeline, g, &why))
          << key << " scale " << scale << ": " << why;
    }
  }
}

TEST(HalideAutoTest, FusesProducerConsumerOnBlur) {
  const PipelineSpec spec = make_blur(1024, 1024);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const HalideAuto h(*spec.pipeline, model);
  const Grouping g = h.run();
  EXPECT_EQ(g.groups.size(), 1u) << "load-cost model must reward fusing blur";
}

TEST(HalideAutoTest, ParametersComeFromTheMachine) {
  // Paper Section 6.2: CACHE_SIZE is the machine's L2 and
  // PARALLELISM_THRESHOLD its core count.  Opteron's 1 MB L2 fuses pyramid
  // further than a fixed 256 KB would (7 groups), and 4 Xeon cores need
  // fewer tiles per group than a fixed 16 (15 groups).
  {
    const PipelineSpec spec = make_benchmark("pyramid", 2);
    const CostModel model(*spec.pipeline, MachineModel::amd_opteron());
    EXPECT_EQ(HalideAuto(*spec.pipeline, model).run().groups.size(), 5u);
  }
  {
    const PipelineSpec spec = make_benchmark("interpolate", 4);
    MachineModel four_cores = MachineModel::xeon_haswell();
    four_cores.cores = 4;
    const CostModel model(*spec.pipeline, four_cores);
    EXPECT_EQ(HalideAuto(*spec.pipeline, model).run().groups.size(), 16u);
  }
}

TEST(HalideAutoTest, TilesArePowersOfTwoOnly) {
  // Section 2.4: Halide's implementation considers only power-of-two sizes.
  const PipelineSpec spec = make_harris(512, 1024);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const HalideAuto h(*spec.pipeline, model);
  const Grouping g = h.run();
  for (const GroupSchedule& gs : g.groups) {
    const AlignResult align = solve_alignment(*spec.pipeline, gs.stages);
    for (int d = 0; d < align.num_classes; ++d) {
      const std::int64_t t = gs.tile_sizes[static_cast<std::size_t>(d)];
      const std::int64_t ext =
          align.class_extent[static_cast<std::size_t>(d)];
      const bool pow2 = (t & (t - 1)) == 0;
      EXPECT_TRUE(pow2 || t >= ext) << "tile " << t << " ext " << ext;
    }
  }
}

TEST(ManualTest, AllBenchmarkManualSchedulesValid) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 16);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    const Grouping g = spec.manual_grouping(model);
    std::string why;
    EXPECT_TRUE(validate_grouping(*spec.pipeline, g, &why))
        << info.key << ": " << why;
  }
}

TEST(ManualTest, UnmentionedStagesBecomeSingletons) {
  const PipelineSpec spec = make_unsharp(128, 128);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const Grouping g =
      grouping_from_names(*spec.pipeline, model, {{"blurx", "blury"}}, {{32, 32}});
  EXPECT_EQ(g.groups.size(), 3u);  // {blurx,blury} + sharpen + masked
}

TEST(ManualTest, UnknownStageNameThrows) {
  const PipelineSpec spec = make_unsharp(128, 128);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  EXPECT_THROW(grouping_from_names(*spec.pipeline, model, {{"nope"}}, {{}}),
               Error);
}

TEST(ManualTest, RepeatedStageThrows) {
  const PipelineSpec spec = make_unsharp(128, 128);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  EXPECT_THROW(grouping_from_names(*spec.pipeline, model,
                                   {{"blurx"}, {"blurx", "blury"}}, {}),
               Error);
}

TEST(GroupingTest, ValidateCatchesDefects) {
  const PipelineSpec spec = make_unsharp(128, 128);
  const Pipeline& pl = *spec.pipeline;
  std::string why;

  Grouping overlap;
  overlap.groups.resize(2);
  overlap.groups[0].stages = NodeSet::single(0).with(1);
  overlap.groups[1].stages = NodeSet::single(1).with(2).with(3);
  EXPECT_FALSE(validate_grouping(pl, overlap, &why));

  Grouping incomplete;
  incomplete.groups.resize(1);
  incomplete.groups[0].stages = NodeSet::single(0).with(1);
  EXPECT_FALSE(validate_grouping(pl, incomplete, &why));

  Grouping disconnected;
  disconnected.groups.resize(2);
  disconnected.groups[0].stages = NodeSet::single(0).with(2);  // blurx+sharpen?
  disconnected.groups[1].stages = NodeSet::single(1).with(3);
  // Either disconnectedness or a quotient cycle must be reported.
  EXPECT_FALSE(validate_grouping(pl, disconnected, &why));
}

TEST(GroupingTest, SingletonGroupingAlwaysValid) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 16);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    const Grouping g = singleton_grouping(*spec.pipeline, model);
    std::string why;
    EXPECT_TRUE(validate_grouping(*spec.pipeline, g, &why)) << why;
    EXPECT_EQ(static_cast<int>(g.groups.size()), spec.pipeline->num_stages());
  }
}

}  // namespace
}  // namespace fusedp
