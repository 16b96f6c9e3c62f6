// Property sweeps over the cost model and graph utilities: machine x
// benchmark x grouping combinations must always produce well-formed costs,
// and quotient/topological utilities must satisfy their contracts on random
// DAGs.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fusion/manual.hpp"
#include "model/cost.hpp"
#include "pipelines/pipelines.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

struct Combo {
  const char* bench;
  const char* machine;
};

// std::string rather than const char* parameters: gtest prints a tuple of
// const char* as pointer addresses, which would make the case names change
// from one build (and one run) to the next.
class CostWellFormed
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(CostWellFormed, FiniteCostsHaveValidTiles) {
  const auto [bench, machine_name] = GetParam();
  const PipelineSpec spec = make_benchmark(bench, 16);
  const Pipeline& pl = *spec.pipeline;
  const MachineModel machine = machine_name == "xeon"
                                   ? MachineModel::xeon_haswell()
                                   : MachineModel::amd_opteron();
  const CostModel model(pl, machine);

  // Singletons plus the expert groups: every feasible cost must carry
  // positive, extent-bounded (modulo granularity), granularity-aligned
  // tile sizes and at least one tile.
  std::vector<NodeSet> groups;
  for (int s = 0; s < pl.num_stages(); ++s)
    groups.push_back(NodeSet::single(s));
  const Grouping manual = spec.manual_grouping(model);
  for (const GroupSchedule& gs : manual.groups) groups.push_back(gs.stages);

  for (NodeSet g : groups) {
    const GroupCost gc = model.cost(g);
    if (!gc.feasible()) continue;
    const AlignResult align = solve_alignment(pl, g);
    ASSERT_TRUE(align.constant);
    // Line 15's cache promise: a multi-stage group the DP may form runs a
    // tile that fits L2 once clamped to the group's extents.  Rounded-out
    // tiles must also leave more than one tile.
    if (g.size() > 1 && gc.keeps_tile_guarantees) {
      EXPECT_LE(run_tile_volume(pl, g, align, gc.tile_sizes),
                machine.l2_floats())
          << g.to_string();
      if (run_tile(align, gc.tile_sizes).inflated) {
        EXPECT_GT(gc.n_tiles, 1) << g.to_string();
      }
    }
    ASSERT_EQ(static_cast<int>(gc.tile_sizes.size()), align.num_classes);
    EXPECT_GE(gc.n_tiles, 1);
    EXPECT_GE(gc.overlap, 0);
    EXPECT_GT(gc.tile_footprint, 0);
    for (int d = 0; d < align.num_classes; ++d) {
      const std::int64_t t = gc.tile_sizes[static_cast<std::size_t>(d)];
      const std::int64_t gr =
          align.class_granularity[static_cast<std::size_t>(d)];
      EXPECT_GE(t, 1);
      EXPECT_EQ(t % gr, 0) << "granularity";
      EXPECT_LE(t, align.class_extent[static_cast<std::size_t>(d)] + gr);
      if (!align.class_common.empty() &&
          !align.class_common[static_cast<std::size_t>(d)]) {
        EXPECT_GE(t, align.class_extent[static_cast<std::size_t>(d)])
            << "non-common classes must stay untiled";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CostWellFormed,
    ::testing::Combine(::testing::Values("unsharp", "harris", "bilateral",
                                         "interpolate", "campipe", "pyramid"),
                       ::testing::Values("xeon", "opteron")));

TEST(TopoProperty, RandomDagsRespectEdges) {
  Rng rng(271828);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 5 + static_cast<int>(rng.next_below(30));
    Digraph g(n);
    for (int a = 0; a < n; ++a)
      for (int b = a + 1; b < n; ++b)
        if (rng.next_bool(0.2)) g.add_edge(a, b);
    g.finalize();
    // Random subset.
    NodeSet s;
    for (int i = 0; i < n; ++i)
      if (rng.next_bool(0.6)) s = s.with(i);
    const std::vector<int> order = g.topo_order_of(s);
    ASSERT_EQ(static_cast<int>(order.size()), s.size());
    std::vector<int> pos(static_cast<std::size_t>(n), -1);
    for (std::size_t i = 0; i < order.size(); ++i)
      pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
    s.for_each([&](int a) {
      (g.successors(a) & s).for_each([&](int b) {
        EXPECT_LT(pos[static_cast<std::size_t>(a)],
                  pos[static_cast<std::size_t>(b)]);
      });
    });
  }
}

TEST(QuotientProperty, AcyclicityMatchesBruteForce) {
  // quotient_is_acyclic must agree with exhaustive cycle search on tiny
  // random DAGs and random partitions.
  Rng rng(314159);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(4));
    Digraph g(n);
    for (int a = 0; a < n; ++a)
      for (int b = a + 1; b < n; ++b)
        if (rng.next_bool(0.4)) g.add_edge(a, b);
    g.finalize();
    // Random partition of nodes into groups.
    std::vector<NodeSet> groups;
    for (int i = 0; i < n; ++i) {
      if (!groups.empty() && rng.next_bool(0.5)) {
        const std::size_t k = rng.next_below(groups.size());
        groups[k] = groups[k].with(i);
      } else {
        groups.push_back(NodeSet::single(i));
      }
    }
    // Brute force: repeatedly contract-reachability between groups.
    const int gcount = static_cast<int>(groups.size());
    std::vector<std::vector<bool>> reach(
        static_cast<std::size_t>(gcount),
        std::vector<bool>(static_cast<std::size_t>(gcount), false));
    for (int a = 0; a < gcount; ++a)
      for (int b = 0; b < gcount; ++b) {
        if (a == b) continue;
        bool edge = false;
        groups[static_cast<std::size_t>(a)].for_each([&](int u) {
          if ((g.successors(u) & groups[static_cast<std::size_t>(b)]).size())
            edge = true;
        });
        reach[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = edge;
      }
    for (int k = 0; k < gcount; ++k)
      for (int a = 0; a < gcount; ++a)
        for (int b = 0; b < gcount; ++b)
          if (reach[static_cast<std::size_t>(a)][static_cast<std::size_t>(k)] &&
              reach[static_cast<std::size_t>(k)][static_cast<std::size_t>(b)])
            reach[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
                true;
    bool cyclic = false;
    for (int a = 0; a < gcount; ++a)
      if (reach[static_cast<std::size_t>(a)][static_cast<std::size_t>(a)])
        cyclic = true;
    EXPECT_EQ(g.quotient_is_acyclic(groups), !cyclic) << "trial " << trial;
  }
}

}  // namespace
}  // namespace fusedp
