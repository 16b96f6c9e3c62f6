// Tests for the machine model and Algorithm 2 (COST / COSTFORCACHESIZE /
// COMPUTETILESIZES).
#include <gtest/gtest.h>

#include "model/cost.hpp"
#include "pipelines/pipelines.hpp"

namespace fusedp {
namespace {

NodeSet all_stages(const Pipeline& pl) {
  NodeSet s;
  for (int i = 0; i < pl.num_stages(); ++i) s = s.with(i);
  return s;
}

TEST(MachineTest, Presets) {
  const MachineModel xeon = MachineModel::xeon_haswell();
  EXPECT_EQ(xeon.l1_bytes, 32 * 1024);
  EXPECT_EQ(xeon.l2_bytes, 256 * 1024);
  EXPECT_EQ(xeon.innermost_tile, 256);
  EXPECT_EQ(xeon.cores, 16);
  const MachineModel amd = MachineModel::amd_opteron();
  EXPECT_EQ(amd.l1_bytes, 16 * 1024);
  EXPECT_EQ(amd.innermost_tile, 128);
  EXPECT_LT(amd.weights.w1, xeon.weights.w1);  // paper Table 1 relation
  EXPECT_GT(amd.weights.w4, xeon.weights.w4);
  const MachineModel host = MachineModel::host();
  EXPECT_GT(host.l1_bytes, 0);
  EXPECT_GE(host.cores, 1);
}

TEST(MachineTest, PaperWeightsPreserved) {
  const CostWeights px = CostWeights::paper_xeon();
  EXPECT_DOUBLE_EQ(px.w1, 1.0);
  EXPECT_DOUBLE_EQ(px.w2, 100.0);
  EXPECT_DOUBLE_EQ(px.w3, 46875.0);
  EXPECT_DOUBLE_EQ(px.w4, 1.5);
  const CostWeights po = CostWeights::paper_opteron();
  EXPECT_DOUBLE_EQ(po.w1, 0.3);
  EXPECT_DOUBLE_EQ(po.w4, 2.0);
}

TEST(CostTest, InfeasibleGroupsCostInfinity) {
  const PipelineSpec spec = make_bilateral(128, 128);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  // grid (reduction) fused with blurz.
  EXPECT_FALSE(model.cost(NodeSet::single(0).with(1)).feasible());
  // blurx fused with slice_num (dynamic z).
  EXPECT_FALSE(model.cost(NodeSet::single(3).with(4)).feasible());
  // Disconnected pair slice_num + grid.
  EXPECT_FALSE(model.cost(NodeSet::single(0).with(4)).feasible());
  // Singletons are always feasible.
  for (int s = 0; s < spec.pipeline->num_stages(); ++s)
    EXPECT_TRUE(model.cost(NodeSet::single(s)).feasible()) << s;
}

TEST(CostTest, FusionBeatsNoFusionOnBlur) {
  const PipelineSpec spec = make_blur(1024, 1024);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const double fused = model.cost(all_stages(*spec.pipeline)).cost;
  const double apart =
      model.cost(NodeSet::single(0)).cost + model.cost(NodeSet::single(1)).cost;
  EXPECT_LT(fused, apart)
      << "producer-consumer fusion with small overlap must win";
}

TEST(CostTest, InnermostTilePinned) {
  const PipelineSpec spec = make_unsharp(512, 2048);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const GroupCost gc = model.cost(all_stages(*spec.pipeline));
  ASSERT_TRUE(gc.feasible());
  ASSERT_EQ(gc.tile_sizes.size(), 3u);
  EXPECT_EQ(gc.tile_sizes[2], 256);  // min(2048, INNERMOSTTILESIZE=256)
}

TEST(CostTest, InnermostClampedToExtent) {
  const PipelineSpec spec = make_unsharp(512, 100);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  const GroupCost gc = model.cost(all_stages(*spec.pipeline));
  ASSERT_TRUE(gc.feasible());
  EXPECT_EQ(gc.tile_sizes[2], 100);
}

TEST(CostTest, TileSizesNotRestrictedToPowersOfTwo) {
  // A key claim of the paper.  Across the benchmarks, at least one group
  // must receive a non-power-of-two tile size.
  bool found = false;
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 8);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    for (int s = 0; s < spec.pipeline->num_stages(); ++s) {
      const GroupCost gc = model.cost(NodeSet::single(s));
      for (std::int64_t t : gc.tile_sizes)
        if (t > 2 && (t & (t - 1)) != 0) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CostTest, TileSizesWithinExtentsAndPositive) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 8);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, MachineModel::xeon_haswell());
    for (int s = 0; s < pl.num_stages(); ++s) {
      const GroupCost gc = model.cost(NodeSet::single(s));
      ASSERT_TRUE(gc.feasible());
      const AlignResult align = solve_alignment(pl, NodeSet::single(s));
      ASSERT_EQ(gc.tile_sizes.size(),
                static_cast<std::size_t>(align.num_classes));
      for (int d = 0; d < align.num_classes; ++d) {
        EXPECT_GE(gc.tile_sizes[static_cast<std::size_t>(d)], 1);
        // Granularity rounding may exceed the extent by < one granule.
        EXPECT_LE(gc.tile_sizes[static_cast<std::size_t>(d)],
                  align.class_extent[static_cast<std::size_t>(d)] +
                      align.class_granularity[static_cast<std::size_t>(d)]);
      }
    }
  }
}

TEST(CostTest, ComputeTileSizesRespectsFootprint) {
  const PipelineSpec spec = make_unsharp(2832, 4256);
  const Pipeline& pl = *spec.pipeline;
  const NodeSet group = all_stages(pl);
  const AlignResult align = solve_alignment(pl, group);
  const ReuseInfo reuse = compute_reuse(pl, group, align);
  const std::int64_t footprint = 8192;  // L1 floats
  const auto ts = CostModel::compute_tile_sizes(reuse, align, footprint,
                                                /*buffers=*/4,
                                                /*imts=*/256);
  std::int64_t vol = 4;
  for (std::int64_t t : ts) vol *= t;
  // Tile volume * buffers should be within ~4x of the target footprint
  // (rounding, granularity, innermost pinning).
  EXPECT_LE(vol, footprint * 4);
}

TEST(CostTest, HigherReuseDimensionGetsLongerTile) {
  const PipelineSpec spec = make_unsharp(2832, 4256);
  const Pipeline& pl = *spec.pipeline;
  const NodeSet group = all_stages(pl);
  const AlignResult align = solve_alignment(pl, group);
  ReuseInfo reuse = compute_reuse(pl, group, align);
  // Force a strong reuse imbalance between c (dim 0) and x (dim 1).
  reuse.dim_reuse[0] = 1.0;
  reuse.dim_reuse[1] = 8.0;
  const auto ts = CostModel::compute_tile_sizes(reuse, align, 1 << 16, 4, 256);
  EXPECT_GT(ts[1], ts[0]);
}

TEST(CostTest, L2FallbackWhenOverlapDominates) {
  // A deep stencil chain on a tiny L1 makes the halo exceed the tile, which
  // must trigger the L2-size fallback (Algorithm 2 lines 6-9).
  const PipelineSpec spec = make_harris(2832, 4256);
  const Pipeline& pl = *spec.pipeline;
  MachineModel m = MachineModel::xeon_haswell();
  m.l1_bytes = 2 * 1024;  // pathologically small L1
  const CostModel model(pl, m);
  NodeSet group;
  for (int i = 0; i < pl.num_stages(); ++i) group = group.with(i);
  const GroupCost gc = model.cost(group);
  ASSERT_TRUE(gc.feasible());
  EXPECT_TRUE(gc.used_l2);
}

// A 4-core host with a 2 MB L2, the shape of the machines the deep
// multi-resolution cases below are sized for.
MachineModel four_core_2mb() {
  MachineModel m = MachineModel::xeon_haswell();
  m.cores = 4;
  m.l2_bytes = 2 * 1024 * 1024;
  return m;
}

TEST(CostTest, InflatedTileOverL2IsNotAFusionCandidate) {
  // Interpolate's ten downsampling levels round the whole-pipeline tile far
  // past the group's class extents.  The tile that runs is then the whole
  // paper/2 image on one core, far more than L2, so the group is flagged,
  // though it keeps a finite score for schedules that hold it as given.
  const PipelineSpec spec = make_benchmark("interpolate", 2);
  const Pipeline& pl = *spec.pipeline;
  const MachineModel m = four_core_2mb();
  const CostModel model(pl, m);
  const NodeSet all = all_stages(pl);
  const GroupCost gc = model.cost(all);
  ASSERT_TRUE(gc.feasible());
  const AlignResult align = solve_alignment(pl, all);
  EXPECT_TRUE(run_tile(align, gc.tile_sizes).inflated);
  EXPECT_GT(run_tile_volume(pl, all, align, gc.tile_sizes), m.l2_floats());
  EXPECT_FALSE(gc.keeps_tile_guarantees);
  EXPECT_EQ(gc.n_tiles, 1);

  for (int s = 0; s < pl.num_stages(); ++s) {
    const GroupCost single = model.cost(NodeSet::single(s));
    EXPECT_TRUE(single.feasible()) << pl.stage(s).name;
    EXPECT_TRUE(single.keeps_tile_guarantees) << pl.stage(s).name;
  }
}

TEST(CostTest, InflatedTileRunningAloneIsNotAFusionCandidate) {
  // Fitting L2 is not enough: at paper/16 the whole rounded-out tile fits
  // L2, but it is still the whole group as one tile on one core.
  const PipelineSpec spec = make_benchmark("interpolate", 16);
  const Pipeline& pl = *spec.pipeline;
  const MachineModel m = four_core_2mb();
  const CostModel model(pl, m);
  const NodeSet all = all_stages(pl);
  const GroupCost gc = model.cost(all);
  ASSERT_TRUE(gc.feasible());
  const AlignResult align = solve_alignment(pl, all);
  ASSERT_TRUE(run_tile(align, gc.tile_sizes).inflated);
  EXPECT_LE(run_tile_volume(pl, all, align, gc.tile_sizes), m.l2_floats());
  EXPECT_EQ(gc.n_tiles, 1);
  EXPECT_FALSE(gc.keeps_tile_guarantees);
}

TEST(CostTest, EmptyGroupCostsZero) {
  const PipelineSpec spec = make_blur(64, 64);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  EXPECT_EQ(model.cost(NodeSet()).cost, 0.0);
}

}  // namespace
}  // namespace fusedp
