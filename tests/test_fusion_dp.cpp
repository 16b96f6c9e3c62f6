// Tests for the DP grouping engine (Algorithm 1 / Figure 5), including the
// paper's complexity claims on linear pipelines and optimality against
// brute-force enumeration on random DAGs.
#include <gtest/gtest.h>

#include <algorithm>

#include "fusion/dp.hpp"
#include "fusion/incremental.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/plan.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

// Linear pipeline of n pointwise/stencil stages.
std::unique_ptr<Pipeline> linear_pipeline(int n, std::int64_t hw = 64) {
  auto pl = std::make_unique<Pipeline>("linear");
  const int img = pl->add_input("img", {hw, hw});
  const Stage* prev = nullptr;
  for (int i = 0; i < n; ++i) {
    StageBuilder b(*pl, pl->add_stage("s" + std::to_string(i), {hw, hw}));
    Eh e = prev == nullptr
               ? b.in(img, {0, 0}) + b.in(img, {0, 1})
               : b.at(*prev, {0, -1}) + b.at(*prev, {0, 1});
    b.define(e * 0.5f);
    prev = &b.stage();
  }
  pl->finalize();
  return pl;
}

TEST(DpTest, LinearStateCountIsQuadratic) {
  // Section 3.3: for a linear DAG the DP evaluates n(n+1)/2 states while
  // covering all 2^(n-1) groupings.
  for (int n : {2, 3, 4, 5, 8}) {
    const auto pl = linear_pipeline(n);
    const CostModel model(*pl, MachineModel::xeon_haswell());
    DpFusion dp(*pl, model);
    const Grouping g = dp.run();
    EXPECT_EQ(dp.stats().groupings_enumerated,
              static_cast<std::uint64_t>(n) * (n + 1) / 2)
        << "n=" << n;
    std::string why;
    EXPECT_TRUE(validate_grouping(*pl, g, &why)) << why;
  }
}

TEST(DpTest, UnsharpMatchesPaperTable2Count) {
  // Paper Table 2: Unsharp Mask enumerates 10 groupings.
  const PipelineSpec spec = make_unsharp(256, 256);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  DpFusion dp(*spec.pipeline, model);
  dp.run();
  EXPECT_EQ(dp.stats().groupings_enumerated, 10u);
}

TEST(DpTest, OptimalOnLinearPipelinesVsBruteForce) {
  for (int n : {3, 4, 5}) {
    const auto pl = linear_pipeline(n);
    const CostModel model(*pl, MachineModel::xeon_haswell());
    DpFusion dp(*pl, model);
    const Grouping got = dp.run();
    double best = kInfiniteCost;
    std::uint64_t count = 0;
    testing::for_each_valid_grouping(*pl, [&](const Grouping& g) {
      ++count;
      double c = 0.0;
      for (const GroupSchedule& gs : g.groups) c += model.cost(gs.stages).cost;
      best = std::min(best, c);
    });
    EXPECT_EQ(count, 1ull << (n - 1)) << "2^(n-1) valid groupings of a chain";
    EXPECT_NEAR(got.total_cost, best, 1e-9) << "n=" << n;
  }
}

TEST(DpTest, OptimalOnRandomDagsVsBruteForce) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto pl = testing::random_pipeline(6, 48, 48, seed,
                                             /*scaling=*/seed % 3 == 0);
    const CostModel model(*pl, MachineModel::xeon_haswell());
    DpFusion dp(*pl, model);
    const Grouping got = dp.run();
    std::string why;
    ASSERT_TRUE(validate_grouping(*pl, got, &why)) << why << " seed " << seed;
    double best = kInfiniteCost;
    testing::for_each_valid_grouping(*pl, [&](const Grouping& g) {
      double c = 0.0;
      for (const GroupSchedule& gs : g.groups) c += model.cost(gs.stages).cost;
      best = std::min(best, c);
    });
    ASSERT_LT(best, kInfiniteCost);
    EXPECT_NEAR(got.total_cost, best, 1e-9) << "seed " << seed;
    ++compared;
  }
  EXPECT_EQ(compared, 12);
}

TEST(DpTest, ValidOnAllBenchmarks) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 16);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    // pyramid's raw DP is intractable by design (paper Section 5) — use the
    // incremental driver there.
    Grouping g;
    if (info.key == "pyramid") {
      IncFusion inc(*spec.pipeline, model);
      g = inc.run();
    } else {
      DpFusion dp(*spec.pipeline, model);
      g = dp.run();
    }
    std::string why;
    EXPECT_TRUE(validate_grouping(*spec.pipeline, g, &why))
        << info.key << ": " << why;
    EXPECT_LT(g.total_cost, kInfiniteCost);
  }
}

TEST(DpTest, InterpolateFusedGroupsHaveMoreThanOneTile) {
  // Paper/2 interpolate on a 4-core, 2 MB-L2 machine.  Fusing all 49
  // stages rounds the tile past the image, so the group would run as one
  // tile on one core; the DP must instead pick groups whose tile grid can
  // spread over the cores.
  const PipelineSpec spec = make_benchmark("interpolate", 2);
  const Pipeline& pl = *spec.pipeline;
  MachineModel m = MachineModel::xeon_haswell();
  m.cores = 4;
  m.l2_bytes = 2 * 1024 * 1024;
  const CostModel model(pl, m);
  DpFusion dp(pl, model);
  const Grouping g = dp.run();
  const ExecutablePlan plan = lower(pl, g);
  int fused = 0;
  for (const GroupPlan& gp : plan.groups) {
    if (gp.stages.size() < 2) continue;
    ++fused;
    EXPECT_GT(gp.total_tiles, 1) << gp.stages.to_string();
    EXPECT_TRUE(model.cost(gp.stages).keeps_tile_guarantees)
        << gp.stages.to_string();
  }
  EXPECT_GT(fused, 0);
}

TEST(DpTest, NeverWorseThanSingletons) {
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const auto pl = testing::random_pipeline(8, 48, 48, seed);
    const CostModel model(*pl, MachineModel::xeon_haswell());
    DpFusion dp(*pl, model);
    const Grouping got = dp.run();
    const Grouping single = singleton_grouping(*pl, model);
    EXPECT_LE(got.total_cost, single.total_cost + 1e-9) << "seed " << seed;
  }
}

TEST(DpTest, GroupLimitRespected) {
  const PipelineSpec spec = make_harris(128, 128);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  DpOptions opts;
  opts.group_limit = 3;
  DpFusion dp(*spec.pipeline, model, opts);
  const Grouping g = dp.run();
  for (const GroupSchedule& gs : g.groups) EXPECT_LE(gs.stages.size(), 3);
}

TEST(DpTest, StateBudgetEnforced) {
  const PipelineSpec spec = make_campipe(128, 128);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  DpOptions opts;
  opts.max_states = 100;
  DpFusion dp(*spec.pipeline, model, opts);
  EXPECT_THROW(dp.run(), Error);
}

TEST(DpTest, SecondRunOnOneObjectStartsAFreshBudget) {
  // Harris at paper/8 takes 713 states.  A reused DpFusion must count its
  // second run from zero, not from the first run's total, or this budget
  // would fire halfway through it.
  const PipelineSpec spec = make_benchmark("harris", 8);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  DpOptions opts;
  opts.max_states = 1000;
  DpFusion dp(*spec.pipeline, model, opts);
  const Grouping first = dp.run();
  EXPECT_EQ(dp.stats().groupings_enumerated, 713u);
  const Grouping second = dp.run();
  EXPECT_EQ(dp.stats().groupings_enumerated, 713u);
  ASSERT_EQ(first.groups.size(), second.groups.size());
  for (std::size_t i = 0; i < first.groups.size(); ++i) {
    EXPECT_EQ(first.groups[i].stages, second.groups[i].stages);
    EXPECT_EQ(first.groups[i].tile_sizes, second.groups[i].tile_sizes);
  }
  EXPECT_EQ(first.total_cost, second.total_cost);
}

TEST(DpTest, BilateralNeverFusesReductionOrSlice) {
  const PipelineSpec spec = make_bilateral(256, 256);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  DpFusion dp(*spec.pipeline, model);
  const Grouping g = dp.run();
  for (const GroupSchedule& gs : g.groups) {
    if (gs.stages.contains(0)) {
      EXPECT_EQ(gs.stages.size(), 1);  // grid must stay alone
    }
    // blurs (1-3) never share a group with slices (4-6).
    const bool has_blur = gs.stages.intersects(
        NodeSet::single(1).with(2).with(3));
    const bool has_slice = gs.stages.intersects(
        NodeSet::single(4).with(5).with(6));
    EXPECT_FALSE(has_blur && has_slice);
  }
}

TEST(QuotientGraphTest, IdentityAddsDummyForMultipleSources) {
  const PipelineSpec spec = make_pyramid_blend(64, 64);
  const QuotientGraph q = QuotientGraph::identity(*spec.pipeline);
  EXPECT_GE(q.dummy, 0);
  EXPECT_EQ(q.num_nodes(), spec.pipeline->num_stages() + 1);
  EXPECT_TRUE(q.underlying[static_cast<std::size_t>(q.dummy)].empty());
  const PipelineSpec blur = make_blur(64, 64);
  const QuotientGraph qb = QuotientGraph::identity(*blur.pipeline);
  EXPECT_LT(qb.dummy, 0);
}

TEST(QuotientGraphTest, CondensePreservesEdgesAndExpansion) {
  const PipelineSpec spec = make_unsharp(128, 128);
  const Pipeline& pl = *spec.pipeline;
  Grouping g;
  GroupSchedule a, b;
  a.stages = NodeSet::single(0).with(1);  // blurx, blury
  b.stages = NodeSet::single(2).with(3);  // sharpen, masked
  g.groups = {a, b};
  const QuotientGraph q = QuotientGraph::condense(pl, g);
  EXPECT_EQ(q.num_nodes(), 2);
  EXPECT_TRUE(q.graph.has_edge(0, 1));
  EXPECT_FALSE(q.graph.has_edge(1, 0));
  EXPECT_EQ(q.expand(NodeSet::single(0).with(1)).size(), 4);
}

TEST(IncrementalTest, MatchesOrBeatsBoundedAndIsValid) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 16);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    IncFusion inc(*spec.pipeline, model);
    const Grouping g = inc.run();
    std::string why;
    EXPECT_TRUE(validate_grouping(*spec.pipeline, g, &why))
        << info.key << ": " << why;
    EXPECT_GE(inc.stats().iterations, 1);
    EXPECT_GT(inc.stats().groupings_enumerated, 0u);
  }
}

TEST(IncrementalTest, FindsDpOptimumOnLinearChains) {
  const auto pl = linear_pipeline(6);
  const CostModel model(*pl, MachineModel::xeon_haswell());
  DpFusion dp(*pl, model);
  const Grouping exact = dp.run();
  IncFusion inc(*pl, model);
  const Grouping approx = inc.run();
  // The final unbounded pass on the condensed graph can refine up to the
  // exact optimum on chains.
  EXPECT_LE(approx.total_cost, exact.total_cost * 1.05 + 1e-9);
}

// The partition signature of a grouping: sorted list of sorted stage sets.
std::vector<std::vector<int>> partition_of(const Grouping& g) {
  std::vector<std::vector<int>> p;
  for (const GroupSchedule& gs : g.groups) {
    std::vector<int> s;
    gs.stages.for_each([&](int n) { s.push_back(n); });
    p.push_back(std::move(s));
  }
  std::sort(p.begin(), p.end());
  return p;
}

TEST(KBestTest, TopKIsSortedDistinctAndFrontMatchesRun) {
  for (const auto& info : benchmark_list()) {
    const PipelineSpec spec = make_benchmark(info.key, 8);
    const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
    DpOptions opts;
    opts.top_k = 4;
    // Keep the test fast: DP-hostile benchmarks exhaust this budget and
    // are skipped; the friendly ones finish well inside it.
    opts.max_states = 1'000'000;
    DpFusion dp(*spec.pipeline, model, opts);
    std::vector<Grouping> top;
    try {
      top = dp.run_top_k();
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kSearchBudgetExhausted) << info.key;
      continue;
    }
    ASSERT_FALSE(top.empty()) << info.key;
    EXPECT_LE(top.size(), 4u) << info.key;
    // Element 0 is exactly what the classic recurrence returns.
    DpOptions copts;
    copts.max_states = opts.max_states;
    const Grouping classic = DpFusion(*spec.pipeline, model, copts).run();
    EXPECT_EQ(partition_of(top.front()), partition_of(classic)) << info.key;
    EXPECT_NEAR(top.front().total_cost, classic.total_cost, 1e-9) << info.key;
    // Sorted by cost, all valid, and pairwise-distinct partitions.
    for (std::size_t i = 0; i < top.size(); ++i) {
      std::string why;
      EXPECT_TRUE(validate_grouping(*spec.pipeline, top[i], &why))
          << info.key << ": " << why;
      if (i > 0) {
        EXPECT_LE(top[i - 1].total_cost, top[i].total_cost + 1e-9)
            << info.key;
      }
      for (std::size_t j = i + 1; j < top.size(); ++j)
        EXPECT_NE(partition_of(top[i]), partition_of(top[j]))
            << info.key << ": candidates " << i << " and " << j;
    }
  }
}

TEST(KBestTest, KOneMatchesClassicOnLinearChain) {
  const auto pl = linear_pipeline(7);
  const CostModel model(*pl, MachineModel::xeon_haswell());
  DpOptions opts;
  opts.top_k = 1;
  std::vector<Grouping> top = DpFusion(*pl, model, opts).run_top_k();
  ASSERT_EQ(top.size(), 1u);
  const Grouping classic = DpFusion(*pl, model).run();
  EXPECT_EQ(partition_of(top.front()), partition_of(classic));
  EXPECT_NEAR(top.front().total_cost, classic.total_cost, 1e-12);
}

TEST(KBestTest, SecondBestReallyIsSecondOnSmallChain) {
  // Brute-force check on a 4-stage chain: the k-best list's costs must be
  // the k smallest distinct-partition costs over every valid grouping.
  const auto pl = linear_pipeline(4);
  const CostModel model(*pl, MachineModel::xeon_haswell());
  std::vector<double> all;
  testing::for_each_valid_grouping(*pl, [&](const Grouping& g) {
    double c = 0.0;
    for (const GroupSchedule& gs : g.groups) c += model.cost(gs.stages).cost;
    all.push_back(c);
  });
  std::sort(all.begin(), all.end());
  DpOptions opts;
  opts.top_k = 3;
  std::vector<Grouping> top = DpFusion(*pl, model, opts).run_top_k();
  ASSERT_GE(top.size(), 2u);
  for (std::size_t i = 0; i < top.size() && i < all.size(); ++i)
    EXPECT_NEAR(top[i].total_cost, all[i], 1e-9) << "rank " << i;
}

}  // namespace
}  // namespace fusedp
