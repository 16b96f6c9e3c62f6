// Unit tests for Box math and the pipeline IR / builder.
#include <gtest/gtest.h>

#include <string>

#include "ir/builder.hpp"
#include "ir/printer.hpp"

namespace fusedp {
namespace {

TEST(BoxTest, DenseAndVolume) {
  const Box b = Box::dense({3, 4, 5});
  EXPECT_EQ(b.rank, 3);
  EXPECT_EQ(b.volume(), 60);
  EXPECT_EQ(b.extent(1), 4);
  EXPECT_FALSE(b.empty());
}

TEST(BoxTest, HullAndIntersect) {
  Box a = Box::dense({10, 10});
  a.lo[0] = 2; a.hi[0] = 5;
  Box b = Box::dense({10, 10});
  b.lo[0] = 4; b.hi[0] = 8; b.lo[1] = 3; b.hi[1] = 6;
  const Box h = a.hull(b);
  EXPECT_EQ(h.lo[0], 2);
  EXPECT_EQ(h.hi[0], 8);
  EXPECT_EQ(h.lo[1], 0);
  const Box i = a.intersect(b);
  EXPECT_EQ(i.lo[0], 4);
  EXPECT_EQ(i.hi[0], 5);
  EXPECT_EQ(i.lo[1], 3);
}

TEST(BoxTest, EmptyIntersectionAndHull) {
  Box a = Box::dense({4});
  Box b = Box::dense({4});
  a.hi[0] = 1;        // [0,1]
  b.lo[0] = 2;        // [2,3]
  EXPECT_TRUE(a.intersect(b).empty());
  const Box h = a.hull(b);
  EXPECT_EQ(h.lo[0], 0);
  EXPECT_EQ(h.hi[0], 3);
  Box empty;
  empty.rank = 1;
  empty.lo[0] = 5;
  empty.hi[0] = 4;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.hull(a).lo[0], a.lo[0]);  // hull with empty = other
}

TEST(BoxTest, FloorDiv) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(-1, 2), -1);
  EXPECT_EQ(floor_div(0, 2), 0);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(8, 2), 4);
}

TEST(PipelineTest, BuildAndFinalize) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder a(pl, pl.add_stage("a", {16, 16}));
  a.define(a.in(img, {0, 0}) * 2.0f);
  StageBuilder b(pl, pl.add_stage("b", {16, 16}));
  b.define(b.at(a.stage(), {0, 0}) + 1.0f);
  pl.finalize();
  EXPECT_EQ(pl.num_stages(), 2);
  EXPECT_TRUE(pl.graph().has_edge(0, 1));
  ASSERT_EQ(pl.outputs().size(), 1u);
  EXPECT_EQ(pl.outputs()[0], 1);  // sink is the live-out
  EXPECT_FALSE(pl.stage(0).is_output);
  EXPECT_EQ(pl.total_volume(), 512);
}

TEST(PipelineTest, ExplicitOutputMark) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {8, 8});
  StageBuilder a(pl, pl.add_stage("a", {8, 8}));
  a.define(a.in(img, {0, 0}));
  a.mark_output();
  StageBuilder b(pl, pl.add_stage("b", {8, 8}));
  b.define(b.at(a.stage(), {0, 0}));
  pl.finalize();
  EXPECT_EQ(pl.outputs().size(), 2u);  // a (marked) and b (sink)
}

TEST(PipelineTest, StageWithoutBodyRejected) {
  Pipeline pl("p");
  pl.add_input("img", {8, 8});
  pl.add_stage("a", {8, 8});
  EXPECT_THROW(pl.finalize(), Error);
}

TEST(PipelineTest, ReductionWithoutImplRejected) {
  Pipeline pl("p");
  pl.add_input("img", {8, 8});
  pl.add_reduction("r", {4});
  EXPECT_THROW(pl.finalize(), Error);
}

TEST(BuilderTest, TrailingAlignmentOfRanks) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {3, 8, 8});
  // Rank-2 stage reading a rank-3 producer must use load() with explicit
  // axes; at() with a bare offset list requires producer rank <= stage rank.
  StageBuilder g(pl, pl.add_stage("gray", {8, 8}));
  g.define(g.load({true, img}, {AxisMap::constant(0), AxisMap::affine(0),
                                AxisMap::affine(1)}));
  // Rank-3 stage reading the rank-2 producer aligns trailing dims.
  StageBuilder c(pl, pl.add_stage("color", {3, 8, 8}));
  c.define(c.at(g.stage(), {0, 0}) * 0.5f);
  pl.finalize();
  const Access& acc = pl.stage(1).loads[0];
  EXPECT_EQ(acc.axes.size(), 2u);
  EXPECT_EQ(acc.axes[0].src_dim, 1);  // producer dim 0 <- stage dim 1
  EXPECT_EQ(acc.axes[1].src_dim, 2);
}

TEST(BuilderTest, MixedStageExpressionRejected) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {8, 8});
  StageBuilder a(pl, pl.add_stage("a", {8, 8}));
  StageBuilder b(pl, pl.add_stage("b", {8, 8}));
  const Eh ea = a.in(img, {0, 0});
  const Eh eb = b.in(img, {0, 0});
  EXPECT_THROW(ea + eb, Error);
}

TEST(BuilderTest, OperatorsBuildExpectedTree) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {8, 8});
  StageBuilder a(pl, pl.add_stage("a", {8, 8}));
  const Eh e = select(lt(a.in(img, {0, 0}), 0.5f), a.cst(1.0f),
                      abs(-a.in(img, {1, 0})));
  a.define(e);
  pl.finalize();
  const std::string s = expr_to_string(pl.stage(0), pl.stage(0).body);
  EXPECT_NE(s.find("select"), std::string::npos);
  EXPECT_NE(s.find("abs"), std::string::npos);
  EXPECT_NE(s.find("in0"), std::string::npos);
}

TEST(BuilderTest, AccessRankMismatchRejected) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {3, 8, 8});
  StageBuilder a(pl, pl.add_stage("a", {3, 8, 8}));
  EXPECT_THROW(a.in(img, {0, 0}), Error);  // 2 offsets for rank-3 producer
}

TEST(PrinterTest, PipelineDumpMentionsAllStages) {
  Pipeline pl("demo");
  const int img = pl.add_input("img", {8, 8});
  StageBuilder a(pl, pl.add_stage("alpha", {8, 8}));
  a.define(a.in(img, {0, 0}));
  StageBuilder b(pl, pl.add_stage("beta", {8, 8}));
  b.define(b.at(a.stage(), {-1, 1}) / 2.0f);
  pl.finalize();
  const std::string s = pipeline_to_string(pl);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("[out]"), std::string::npos);
}

TEST(PipelineTest, MaxStagesEnforced) {
  Pipeline pl("big");
  const int img = pl.add_input("img", {8, 8});
  for (int i = 0; i < kMaxNodes; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    StageBuilder s(pl, pl.add_stage(name, {8, 8}));
    s.define(s.in(img, {0, 0}));
  }
  EXPECT_THROW(pl.add_stage("overflow", {8, 8}), Error);
}

}  // namespace
}  // namespace fusedp
