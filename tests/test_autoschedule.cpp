// The deadline/budget-bounded autoschedule driver: under any budget it must
// return a validate_grouping-passing schedule, report which fallback tier
// produced it and why the better tiers lost, and the schedule must execute
// bit-identical to the scalar reference.
#include <gtest/gtest.h>

#include "fusion/autoschedule.hpp"
#include "fusion/serialize.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

void expect_executes_bit_identical(const PipelineSpec& spec,
                                   const Grouping& g) {
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  ExecOptions opts;
  opts.num_threads = 2;
  const std::vector<Buffer> outs = run_pipeline(pl, g, inputs, opts);
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const Buffer& expect = ref[static_cast<std::size_t>(pl.outputs()[o])];
    EXPECT_LT(testing::first_mismatch(outs[o], expect), 0) << "output " << o;
  }
}

TEST(AutoScheduleTest, AmpleBudgetUsesFullDp) {
  const PipelineSpec spec = make_harris(64, 96);
  const ScheduleResult res =
      auto_schedule(*spec.pipeline, MachineModel::xeon_haswell());
  EXPECT_EQ(res.diagnostics.tier, ScheduleTier::kFullDp);
  ASSERT_EQ(res.diagnostics.attempts.size(), 1u);
  EXPECT_TRUE(res.diagnostics.attempts[0].succeeded);
  std::string why;
  EXPECT_TRUE(validate_grouping(*spec.pipeline, res.grouping, &why)) << why;
}

TEST(AutoScheduleTest, TinyStateBudgetFallsBackAndStaysCorrect) {
  const PipelineSpec spec = make_harris(64, 96);
  AutoScheduleOptions opts;
  opts.max_states = 40;  // far below what the 11-stage full DP needs
  const ScheduleResult res =
      auto_schedule(*spec.pipeline, MachineModel::xeon_haswell(), opts);

  EXPECT_NE(res.diagnostics.tier, ScheduleTier::kFullDp);
  ASSERT_GE(res.diagnostics.attempts.size(), 2u);
  EXPECT_FALSE(res.diagnostics.attempts[0].succeeded);
  EXPECT_EQ(res.diagnostics.attempts[0].code,
            ErrorCode::kSearchBudgetExhausted);

  std::string why;
  ASSERT_TRUE(validate_grouping(*spec.pipeline, res.grouping, &why)) << why;
  expect_executes_bit_identical(spec, res.grouping);
}

TEST(AutoScheduleTest, ExpiredDeadlineFallsThroughToModelDrivenTier) {
  const PipelineSpec spec = make_harris(64, 96);
  AutoScheduleOptions opts;
  opts.deadline_seconds = 1e-9;  // effectively already expired
  const ScheduleResult res =
      auto_schedule(*spec.pipeline, MachineModel::xeon_haswell(), opts);

  // DP tiers must all have been denied (deadline), landing on greedy or —
  // if greedy ever learned to fail — unfused.  Both are model-driven and
  // exempt from the deadline gate, so a schedule always comes back.
  EXPECT_TRUE(res.diagnostics.tier == ScheduleTier::kGreedy ||
              res.diagnostics.tier == ScheduleTier::kUnfused);
  for (const TierAttempt& a : res.diagnostics.attempts) {
    if (!a.succeeded) {
      EXPECT_TRUE(a.code == ErrorCode::kDeadlineExceeded ||
                  a.code == ErrorCode::kSearchBudgetExhausted)
          << a.detail;
    }
  }

  std::string why;
  ASSERT_TRUE(validate_grouping(*spec.pipeline, res.grouping, &why)) << why;
  expect_executes_bit_identical(spec, res.grouping);
}

TEST(AutoScheduleTest, UnfusedFloorWhenEvenBoundedDpIsOverBudget) {
  // A state budget of 1 starves every DP attempt (bounded ones included);
  // the ladder must still land on a valid schedule.
  const PipelineSpec spec = make_unsharp(64, 64);
  AutoScheduleOptions opts;
  opts.max_states = 1;
  const ScheduleResult res =
      auto_schedule(*spec.pipeline, MachineModel::xeon_haswell(), opts);
  EXPECT_TRUE(res.diagnostics.tier == ScheduleTier::kGreedy ||
              res.diagnostics.tier == ScheduleTier::kUnfused);
  std::string why;
  ASSERT_TRUE(validate_grouping(*spec.pipeline, res.grouping, &why)) << why;
  expect_executes_bit_identical(spec, res.grouping);
}

TEST(AutoScheduleTest, DiagnosticsSummaryNamesTierAndFailures) {
  const PipelineSpec spec = make_harris(64, 96);
  AutoScheduleOptions opts;
  opts.max_states = 40;
  const ScheduleResult res =
      auto_schedule(*spec.pipeline, MachineModel::xeon_haswell(), opts);
  const std::string s = res.diagnostics.summary();
  EXPECT_NE(s.find("tier="), std::string::npos);
  EXPECT_NE(s.find("full-dp"), std::string::npos);
  EXPECT_NE(s.find("search-budget-exhausted"), std::string::npos);
  // A failed attempt shows what it cost: the budget fires on state 41.
  EXPECT_NE(s.find("full-dp: failed after 41 states, "), std::string::npos)
      << s;
  EXPECT_NE(s.find("DP state budget of 40 exhausted (no group limit)"),
            std::string::npos)
      << s;
}

TEST(AutoScheduleTest, BoundedTierMatchesFullDpWhenItFits) {
  // With a budget generous enough for a bounded pass but not the full DP,
  // the bounded tier should win and record its group limit.
  const PipelineSpec spec = make_campipe(64, 64);
  AutoScheduleOptions opts;
  opts.max_states = 20'000;
  const ScheduleResult res =
      auto_schedule(*spec.pipeline, MachineModel::xeon_haswell(), opts);
  std::string why;
  ASSERT_TRUE(validate_grouping(*spec.pipeline, res.grouping, &why)) << why;
  if (res.diagnostics.tier == ScheduleTier::kBoundedDp) {
    const TierAttempt& winner = res.diagnostics.attempts.back();
    EXPECT_GE(winner.group_limit, 2);
  }
  expect_executes_bit_identical(spec, res.grouping);
}

// The searches behind every paper pipeline's schedule, pinned: each ladder
// attempt (tier, group limit, outcome, DP states) and the winning schedule
// text at paper/8 under the 150,000-state budget perfbench uses, plus the
// k-best lists of harris and interpolate.  A change to the DP's internals
// (memo layout, candidate storage, object reuse) must leave every number
// and every schedule here exactly as it is; only search time may move.
struct PinnedAttempt {
  ScheduleTier tier;
  int group_limit;
  bool succeeded;
  std::uint64_t states;
};

struct PinnedLadder {
  const char* key;
  std::vector<PinnedAttempt> attempts;
  const char* schedule;
};

TEST(AutoScheduleTest, PaperLadderIsPinned) {
  const std::vector<PinnedLadder> pinned = {
      {"unsharp",
       {{ScheduleTier::kFullDp, 0, true, 10}},
       R"(# fusedp-schedule v1 for unsharp
group blurx blury sharpen masked : 2 5 256
)"},
      {"harris",
       {{ScheduleTier::kFullDp, 0, true, 713}},
       R"(# fusedp-schedule v1 for harris
group gray Ix Iy Ixx Iyy Ixy Sxx Syy Sxy det harris : 23 256
)"},
      {"bilateral",
       {{ScheduleTier::kFullDp, 0, true, 13}},
       R"(# fusedp-schedule v1 for bilateral
group grid : 2 4 4 24
group blurz blury blurx : 2 6 6 24
group slice_num slice_den out : 14 192
)"},
      {"interpolate",
       {{ScheduleTier::kFullDp, 0, true, 1'225}},
       R"(# fusedp-schedule v1 for interpolate
group premult : 4 7 192
group downx1 down1 downx2 down2 downx3 down3 downx4 down4 downx5 down5 downx6 down6 downx7 : 4 64 64
group down7 downx8 down8 downx9 down9 downx10 down10 upx9 upy9 interp9 upx8 upy8 interp8 upx7 upy7 interp7 upx6 upy6 interp6 upx5 upy5 interp5 upx4 upy4 interp4 upx3 upy3 interp3 upx2 upy2 : 2 256 256
group interp2 upx1 upy1 : 4 10 48
group interp1 out : 4 10 96
)"},
      {"campipe",
       {{ScheduleTier::kFullDp, 0, false, 150'001},
        {ScheduleTier::kBoundedDp, 8, false, 150'001},
        {ScheduleTier::kBoundedDp, 4, true, 128'215}},
       R"(# fusedp-schedule v1 for campipe
group hotpix d_gr d_r d_gb : 8 256
group d_b g_b b_gb g_full : 14 162
group g_r r_gr r_gb r_full : 14 162
group r_b : 8 162
group curve : 256
group b_gr b_r b_full demosaiced : 3 4 162
group corrected curved : 3 4 256
group sharpen_x sharpen_y : 2 7 256
group sharpened luma cb cr : 3 3 256
group cb_blur_x cb_blur_y recombined final : 3 3 256
group cr_blur_x cr_blur_y : 16 256
)"},
      {"pyramid",
       {{ScheduleTier::kFullDp, 0, false, 150'001},
        {ScheduleTier::kBoundedDp, 8, false, 150'001},
        {ScheduleTier::kBoundedDp, 4, false, 150'001},
        {ScheduleTier::kBoundedDp, 2, true, 112'971}},
       R"(# fusedp-schedule v1 for pyramid
group gax1 : 3 6 240
group ga1 gax2 : 2 7 240
group gbx1 : 3 6 240
group gmx1 : 17 240
group ga2 lapA1 : 3 12 120
group gb1 gbx2 : 2 7 240
group gm1 gmx2 : 6 240
group lapA0 : 3 8 256
group gax3 ga3 : 2 6 60
group gb2 gbx3 : 2 5 120
group gm2 gmx3 : 3 120
group lapB0 blend0 : 3 6 256
group gax4 ga4 : 1 4 30
group gb3 gbx4 : 1 4 60
group gm3 gmx4 : 2 60
group lapA2 : 3 5 120
group lapB1 blend1 : 3 6 240
group gb4 lapB3 : 1 6 30
group gm4 blend4 : 3 1 30
group lapA3 blend3 : 2 4 60
group lapB2 blend2 : 3 5 120
group colupx3 : 2 2 60
group col3 colupx2 : 2 4 60
group col2 colupx1 : 3 6 120
group col1 out : 2 8 240
)"},
  };
  for (const PinnedLadder& p : pinned) {
    SCOPED_TRACE(p.key);
    const PipelineSpec spec = make_benchmark(p.key, 8);
    AutoScheduleOptions opts;
    opts.max_states = 150'000;
    const ScheduleResult res =
        auto_schedule(*spec.pipeline, MachineModel::xeon_haswell(), opts);
    const std::vector<TierAttempt>& got = res.diagnostics.attempts;
    ASSERT_EQ(got.size(), p.attempts.size()) << res.diagnostics.summary();
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("attempt " + std::to_string(i + 1));
      EXPECT_EQ(got[i].tier, p.attempts[i].tier);
      EXPECT_EQ(got[i].group_limit, p.attempts[i].group_limit);
      EXPECT_EQ(got[i].succeeded, p.attempts[i].succeeded);
      EXPECT_EQ(got[i].states, p.attempts[i].states);
    }
    EXPECT_EQ(grouping_to_text(*spec.pipeline, res.grouping), p.schedule);
  }

  const std::vector<std::pair<const char*, std::vector<const char*>>>
      pinned_top_k = {
          {"harris",
           {R"(# fusedp-schedule v1 for harris
group gray Ix Iy Ixx Iyy Ixy Sxx Syy Sxy det harris : 23 256
)",
            R"(# fusedp-schedule v1 for harris
group gray Ix Iy Ixx Iyy Ixy : 5 256
group Sxx Syy Sxy det harris : 6 256
)",
            R"(# fusedp-schedule v1 for harris
group gray Ix Iy Ixx Ixy : 6 256
group Iyy Sxx Syy Sxy det harris : 5 256
)",
            R"(# fusedp-schedule v1 for harris
group gray Ix Iy Iyy Ixy : 6 256
group Ixx Sxx Syy Sxy det harris : 5 256
)"}},
          {"interpolate",
           {R"(# fusedp-schedule v1 for interpolate
group premult : 4 7 192
group downx1 down1 downx2 down2 downx3 down3 downx4 down4 downx5 down5 downx6 down6 downx7 : 4 64 64
group down7 downx8 down8 downx9 down9 downx10 down10 upx9 upy9 interp9 upx8 upy8 interp8 upx7 upy7 interp7 upx6 upy6 interp6 upx5 upy5 interp5 upx4 upy4 interp4 upx3 upy3 interp3 upx2 upy2 : 2 256 256
group interp2 upx1 upy1 : 4 10 48
group interp1 out : 4 10 96
)",
            R"(# fusedp-schedule v1 for interpolate
group premult : 4 7 192
group downx1 down1 downx2 down2 downx3 down3 downx4 down4 downx5 down5 downx6 down6 downx7 : 4 64 64
group down7 downx8 down8 downx9 down9 downx10 down10 upx9 upy9 interp9 upx8 upy8 interp8 upx7 upy7 interp7 upx6 upy6 interp6 upx5 upy5 interp5 upx4 upy4 interp4 upx3 upy3 interp3 upx2 : 2 128 256
group upy2 interp2 upx1 upy1 : 4 12 48
group interp1 out : 4 10 96
)",
            R"(# fusedp-schedule v1 for interpolate
group premult : 4 7 192
group downx1 down1 downx2 down2 downx3 down3 downx4 down4 downx5 down5 downx6 down6 downx7 : 4 64 64
group down7 downx8 down8 downx9 down9 downx10 down10 upx9 upy9 interp9 upx8 upy8 interp8 upx7 upy7 interp7 upx6 upy6 interp6 upx5 upy5 interp5 upx4 upy4 interp4 upx3 upy3 : 1 128 128
group interp3 upx2 upy2 interp2 upx1 upy1 : 4 16 24
group interp1 out : 4 10 96
)",
            R"(# fusedp-schedule v1 for interpolate
group premult : 4 7 192
group downx1 down1 downx2 down2 downx3 down3 downx4 down4 downx5 down5 downx6 down6 downx7 : 4 64 64
group down7 downx8 down8 downx9 down9 downx10 down10 upx9 upy9 interp9 upx8 upy8 interp8 upx7 upy7 interp7 upx6 upy6 interp6 upx5 upy5 interp5 upx4 upy4 interp4 upx3 upy3 interp3 upx2 upy2 interp2 upx1 : 3 256 512
group upy1 : 4 9 96
group interp1 out : 4 10 96
)"}},
      };
  for (const auto& [key, schedules] : pinned_top_k) {
    SCOPED_TRACE(key);
    const PipelineSpec spec = make_benchmark(key, 8);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    DpOptions opts;
    opts.top_k = 4;
    opts.max_states = 150'000;
    const std::vector<Grouping> top =
        DpFusion(*spec.pipeline, model, opts).run_top_k();
    ASSERT_EQ(top.size(), schedules.size());
    for (std::size_t i = 0; i < top.size(); ++i)
      EXPECT_EQ(grouping_to_text(*spec.pipeline, top[i]), schedules[i])
          << "rank " << i;
  }
}

}  // namespace
}  // namespace fusedp
