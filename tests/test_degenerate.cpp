// Degenerate extents through every backend: 1x1, 1xN, Nx1 domains,
// zero-margin (pointwise) stages, and pathological tile sizes.  Every
// combination must be bit-identical to the scalar reference — these shapes
// are where interior/boundary classification, row kernels, and cleanup-tile
// logic historically break.
#include <gtest/gtest.h>

#include "support/image_io.hpp"
#include "test_util.hpp"
#include "verify/differ.hpp"

namespace fusedp {
namespace {

// A 3-stage chain: radius-1 stencil -> pointwise (zero margin) -> select,
// over an arbitrary (possibly degenerate) 2-D shape.
std::unique_ptr<Pipeline> chain(std::int64_t h, std::int64_t w) {
  auto pl = std::make_unique<Pipeline>("degenerate");
  const int img = pl->add_input("img", {h, w});
  StageBuilder s0(*pl, pl->add_stage("stencil", {h, w}));
  s0.define((s0.in(img, {-1, 0}) + s0.in(img, {0, -1}) + s0.in(img, {0, 0}) +
             s0.in(img, {0, 1}) + s0.in(img, {1, 0})) *
            0.2f);
  StageBuilder s1(*pl, pl->add_stage("pointwise", {h, w}));
  s1.define(sqrt(abs(s1.at(s0.stage(), {0, 0})) + 0.25f));
  StageBuilder s2(*pl, pl->add_stage("mask", {h, w}));
  s2.define(select(lt(s2.at(s1.stage(), {0, 0}), 0.6f),
                   s2.at(s0.stage(), {0, 0}) * 2.0f,
                   s2.at(s1.stage(), {0, 0})));
  pl->finalize();
  return pl;
}

struct Shape {
  std::int64_t h, w;
};

class DegenerateShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(DegenerateShapes, AllBackendsAllTilingsBitExact) {
  const auto [h, w] = GetParam();
  const auto pl = chain(h, w);
  const std::vector<Buffer> inputs = {
      make_synthetic_image({h, w}, 7 + static_cast<std::uint64_t>(h * w))};
  const auto ref = run_reference(*pl, inputs);

  const std::vector<std::vector<std::int64_t>> tilings = {
      {},            // untiled
      {1, 1},        // size-1 tiles: every tile is a cleanup tile
      {3, 5},        // non-divisible
      {1 << 20, 1},  // oversized x degenerate mix
  };
  testing::for_each_valid_grouping(*pl, [&](const Grouping& base) {
    for (const auto& ts : tilings) {
      Grouping g = base;
      for (GroupSchedule& gs : g.groups) gs.tile_sizes = ts;
      for (const EvalMode mode : {EvalMode::kRow, EvalMode::kScalar}) {
        ExecOptions opts;
        opts.mode = mode;
        opts.num_threads = 2;
        opts.guard_arena = true;  // guards must cope with 1-wide rows
        const auto outs = run_pipeline(*pl, g, inputs, opts);
        ASSERT_EQ(outs.size(), 1u);
        EXPECT_TRUE(testing::buffers_equal(
            outs[0], ref[static_cast<std::size_t>(pl->outputs()[0])]))
            << h << "x" << w << " scalar=" << (mode == EvalMode::kScalar)
            << " tiles=" << ts.size();
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, DegenerateShapes,
                         ::testing::Values(Shape{1, 1}, Shape{1, 33},
                                           Shape{33, 1}, Shape{1, 256},
                                           Shape{2, 2}, Shape{17, 3}));

TEST(Degenerate, DifferSweepOverDegenerateGenerator) {
  // Force the generator into degenerate-only mode and cross-check.
  verify::DifferOptions opts;
  opts.gen.p_degenerate = 1.0;
  opts.gen.min_stages = 2;
  opts.gen.max_stages = 6;
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const auto res = verify::diff_seed(seed, opts);
    EXPECT_FALSE(res.diverged) << res.record.to_string();
  }
}

TEST(Degenerate, ScalarUpsampleFromOneByOne) {
  // A 1x1 stage broadcast up to a full image: den=2 chains hit extent-1
  // producers.
  auto pl = std::make_unique<Pipeline>("broadcast");
  const int img = pl->add_input("img", {9, 9});
  StageBuilder s0(*pl, pl->add_stage("pinhole", {1, 1}));
  s0.define(s0.in(img, {0, 0}) * 0.5f);
  StageBuilder s1(*pl, pl->add_stage("spread", {9, 9}));
  s1.define(s1.at_scaled({false, s0.stage_id()}, {0, 0}, {1, 1}, {16, 16}) +
            s1.in(img, {0, 0}) * 0.25f);
  pl->finalize();
  const std::vector<Buffer> inputs = {make_synthetic_image({9, 9}, 3)};
  const auto ref = run_reference(*pl, inputs);
  testing::for_each_valid_grouping(*pl, [&](const Grouping& g) {
    const auto outs = run_pipeline(*pl, g, inputs);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(testing::buffers_equal(
        outs[0], ref[static_cast<std::size_t>(pl->outputs()[0])]));
  });
}

}  // namespace
}  // namespace fusedp
