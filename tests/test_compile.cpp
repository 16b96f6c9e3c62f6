// Tests for the plan-time stage compiler, the interior-tile fast path and
// the static vector-benefit profile.
//
// The load-bearing invariant: the compiled executor (CompiledStage programs
// + translated region templates + unclamped interior kernels) is
// bit-identical to the unfused scalar reference on every registered
// pipeline, for arbitrary tile sizes — including degenerate size-1 tiles
// and tiles larger than the domain.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "fusion/incremental.hpp"
#include "ir/builder.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/benefit.hpp"
#include "runtime/compile.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

// ---------------------------------------------------------------------------
// compile_stage unit tests (via the builder DSL).

TEST(CompileStageTest, FoldsConstantSubtrees) {
  Pipeline pl("fold");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  // (2 + 3) * load: the constant add folds to 5.0f, which is then absorbed
  // as the immediate operand of the multiply (imm_side 2: dst = 5 * load).
  b.define((b.cst(2.0f) + b.cst(3.0f)) * b.in(img, {0, 0}));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_GE(cs.folded, 1);
  EXPECT_LT(cs.num_slots(), cs.source_nodes);
  bool has_five = false;
  for (const CompiledOp& op : cs.ops) {
    if (op.op == Op::kConst && op.imm == 5.0f) has_five = true;
    if (op.op == Op::kMul && op.imm_side == 2 && op.imm == 5.0f)
      has_five = true;
  }
  EXPECT_TRUE(has_five);
  // No dead constant slot survives: the program is load + imm-multiply.
  EXPECT_EQ(cs.num_slots(), 2);
}

TEST(CompileStageTest, EliminatesCommonSubexpressions) {
  Pipeline pl("cse");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  // x+y built twice as distinct arena nodes: the second is a CSE hit.
  const Eh x = b.coord(0);
  const Eh y = b.coord(1);
  const Eh e1 = x + y;
  const Eh e2 = x + y;
  b.define(e1 * e2 + b.in(img, {0, 0}));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_GE(cs.cse_hits, 1);
  EXPECT_LT(cs.num_slots(), cs.source_nodes);
}

TEST(CompileStageTest, FoldsSelectWithConstantCondition) {
  Pipeline pl("sel");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  const Eh t = b.in(img, {0, 1});
  const Eh f = b.in(img, {1, 0});
  b.define(select(b.cst(1.0f), t, f));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_GE(cs.folded, 1);
  // The root is the taken arm's load, not a select.
  EXPECT_EQ(cs.ops[static_cast<std::size_t>(cs.root)].op, Op::kLoad);
  for (const CompiledOp& op : cs.ops) EXPECT_NE(op.op, Op::kSelect);
}

TEST(CompileStageTest, ClassifiesLoadAxes) {
  Pipeline pl("axes");
  const int img = pl.add_input("img", {8, 32, 32});
  StageBuilder b(pl, pl.add_stage("s", {32, 32}));
  // Constant plane, fixed-row affine, row-varying affine.
  b.define(b.load({true, img},
                  {AxisMap::constant(3), AxisMap::affine(0, -1),
                   AxisMap::affine(1, 2)}));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  const CompiledLoad& cl = cs.loads[0];
  EXPECT_EQ(cl.prank, 3);
  EXPECT_FALSE(cl.any_dynamic);
  EXPECT_EQ(cl.vary_axis, 2);
  EXPECT_TRUE(cl.vary_identity);
  EXPECT_EQ(cl.axes[0].kind, AxisMap::Kind::kConstant);
  EXPECT_FALSE(cl.axes[1].varies_row);
  EXPECT_TRUE(cl.axes[2].varies_row);
}

TEST(CompileStageTest, ReductionsAreInvalid) {
  const PipelineSpec spec = make_bilateral(32, 32);
  const Pipeline& pl = *spec.pipeline;
  bool saw_reduction = false;
  for (int s = 0; s < pl.num_stages(); ++s) {
    const CompiledStage cs = compile_stage(pl.stage(s));
    if (pl.stage(s).kind == StageKind::kReduction) {
      saw_reduction = true;
      EXPECT_FALSE(cs.valid());
    } else {
      EXPECT_TRUE(cs.valid());
    }
  }
  EXPECT_TRUE(saw_reduction);
}

// ---------------------------------------------------------------------------
// Region template.

TEST(RegionTemplateTest, BlurGroupIsTranslatable) {
  const PipelineSpec spec = make_blur(64, 64);
  const Pipeline& pl = *spec.pipeline;
  Grouping g;
  GroupSchedule gs;
  for (int i = 0; i < pl.num_stages(); ++i) gs.stages = gs.stages.with(i);
  gs.tile_sizes = {8, 8, 16};
  g.groups.push_back(gs);
  const ExecutablePlan plan = lower(pl, g);
  ASSERT_EQ(plan.groups.size(), 1u);
  EXPECT_TRUE(plan.groups[0].region_template.translatable);
  EXPECT_GT(plan.groups[0].total_tiles, 1);
}

// For every translatable group in a DP plan, the translated template must
// equal the exact (unclamped) region computation on every full tile.
class TemplateExactnessTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TemplateExactnessTest, TranslatedTemplateMatchesExactRegions) {
  const PipelineSpec spec = make_benchmark(GetParam(), 16);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  IncFusion inc(pl, model);
  const ExecutablePlan plan = lower(pl, inc.run());

  for (const GroupPlan& g : plan.groups) {
    if (g.is_reduction || !g.region_template.translatable) continue;
    const int ncls = g.align.num_classes;
    for (std::int64_t t = 0; t < g.total_tiles; ++t) {
      Box tile;
      tile.rank = ncls;
      bool full = true;
      std::int64_t rem = t;
      for (int d = ncls - 1; d >= 0; --d) {
        const std::int64_t nd = g.tiles_per_dim[static_cast<std::size_t>(d)];
        const std::int64_t idx = rem % nd;
        rem /= nd;
        const std::int64_t ts = g.tile_sizes[static_cast<std::size_t>(d)];
        tile.lo[d] = idx * ts;
        tile.hi[d] = tile.lo[d] + ts - 1;
        if (tile.hi[d] > g.align.class_extent[static_cast<std::size_t>(d)] - 1)
          full = false;
      }
      if (!full) continue;
      const GroupRegions exact = compute_group_regions(
          pl, g.stages, g.align, tile, /*clamp=*/false, &g.stage_order);
      for (int s : g.stage_order) {
        const Stage& st = pl.stage(s);
        const StageAlign& sa = g.align.stages[static_cast<std::size_t>(s)];
        const StageRegions& tr =
            g.region_template.stages[static_cast<std::size_t>(s)];
        const StageRegions& ex = exact.stages[static_cast<std::size_t>(s)];
        for (int d = 0; d < st.rank(); ++d) {
          const DimAlign& da = sa.dim[static_cast<std::size_t>(d)];
          const std::int64_t delta =
              (da.cls >= 0 && da.cls < ncls)
                  ? tile.lo[da.cls] * da.sd / da.sn
                  : 0;
          ASSERT_EQ(tr.owned.lo[d] + delta, ex.owned.lo[d])
              << GetParam() << " stage " << st.name << " tile " << t;
          ASSERT_EQ(tr.owned.hi[d] + delta, ex.owned.hi[d]);
          ASSERT_EQ(tr.required.lo[d] + delta, ex.required.lo[d]);
          ASSERT_EQ(tr.required.hi[d] + delta, ex.required.hi[d]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TemplateExactnessTest,
                         ::testing::Values("unsharp", "harris", "bilateral",
                                           "interpolate", "campipe",
                                           "pyramid", "blur"));

// ---------------------------------------------------------------------------
// Bit-equality sweep: compiled executor vs the golden reference.

void expect_outputs_match(const Pipeline& pl, const Grouping& g,
                          const std::vector<Buffer>& inputs,
                          const std::vector<Buffer>& ref,
                          const ExecOptions& opts, const std::string& label) {
  const std::vector<Buffer> outs = run_pipeline(pl, g, inputs, opts);
  ASSERT_EQ(outs.size(), pl.outputs().size());
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const Buffer& expect = ref[static_cast<std::size_t>(pl.outputs()[o])];
    const std::int64_t bad = testing::first_mismatch(outs[o], expect);
    ASSERT_LT(bad, 0) << label << ": output " << o << " differs at " << bad
                      << " (got " << outs[o].data()[bad] << ", want "
                      << expect.data()[bad] << ")";
  }
}

// The equivalence tests below run once per row-kernel table: the unsuffixed
// case under the baseline table, the Avx2 case under the AVX2 table (skipped
// where this build or CPU lacks it).  Every other test runs whichever table
// the host selects.
constexpr const char* kNoAvx2 =
    "no AVX2+FMA row-kernel table on this build or CPU";

void sweep_randomized_tile_sizes(const std::string& key) {
  const PipelineSpec spec = make_benchmark(key, 24);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  IncFusion inc(pl, model);
  const Grouping dp = inc.run();

  Rng rng(std::hash<std::string>{}(key));
  for (int round = 0; round < 3; ++round) {
    Grouping g = dp;
    for (GroupSchedule& gs : g.groups)
      for (std::int64_t& t : gs.tile_sizes) {
        switch (rng.next_below(4)) {
          case 0: t = 1; break;  // degenerate: every tile is boundary-ish
          case 1: t = 1 + static_cast<std::int64_t>(rng.next_below(7)); break;
          case 2: t = 8 + static_cast<std::int64_t>(rng.next_below(56)); break;
          default: t = 4096; break;  // larger than any domain: single tile
        }
      }
    const std::string label = key + " round " + std::to_string(round);

    ExecOptions compiled_row;
    compiled_row.num_threads = 3;
    compiled_row.mode = EvalMode::kRow;
    expect_outputs_match(pl, g, inputs, ref, compiled_row,
                         label + " compiled/kRow");

    ExecOptions scalar = compiled_row;
    scalar.mode = EvalMode::kScalar;
    expect_outputs_match(pl, g, inputs, ref, scalar, label + " kScalar");
  }
}

class CompiledSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CompiledSweepTest, BitIdenticalUnderRandomizedTileSizes) {
  const detail::ScopedRowKernels kernels(RowKernelIsa::kBaseline);
  sweep_randomized_tile_sizes(GetParam());
}

TEST_P(CompiledSweepTest, BitIdenticalUnderRandomizedTileSizesAvx2) {
  if (!row_kernels_supported(RowKernelIsa::kAvx2)) GTEST_SKIP() << kNoAvx2;
  const detail::ScopedRowKernels kernels(RowKernelIsa::kAvx2);
  sweep_randomized_tile_sizes(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CompiledSweepTest,
                         ::testing::Values("unsharp", "harris", "bilateral",
                                           "interpolate", "campipe",
                                           "pyramid", "blur"));

// Random DAGs (including 2x up/down-scaling accesses) through the compiled
// path, against the reference.
void random_pipeline_matches_reference(int param) {
  const std::uint64_t seed = static_cast<std::uint64_t>(param);
  const auto pl = testing::random_pipeline(7, 44 + param, 52, seed,
                                           /*scaling=*/param % 2 == 0);
  const CostModel model(*pl, MachineModel::xeon_haswell());
  IncFusion inc(*pl, model);
  const Grouping g = inc.run();
  std::vector<Buffer> inputs;
  inputs.push_back(make_synthetic_image(pl->input(0).domain.extents(), seed));
  const std::vector<Buffer> ref = run_reference(*pl, inputs);
  ExecOptions opts;
  opts.num_threads = 2;
  expect_outputs_match(*pl, g, inputs, ref, opts, "random compiled");
}

class CompiledRandomPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(CompiledRandomPipelineTest, CompiledMatchesReference) {
  const detail::ScopedRowKernels kernels(RowKernelIsa::kBaseline);
  random_pipeline_matches_reference(GetParam());
}

TEST_P(CompiledRandomPipelineTest, CompiledMatchesReferenceAvx2) {
  if (!row_kernels_supported(RowKernelIsa::kAvx2)) GTEST_SKIP() << kNoAvx2;
  const detail::ScopedRowKernels kernels(RowKernelIsa::kAvx2);
  random_pipeline_matches_reference(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledRandomPipelineTest,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Row-kernel table dispatch.

TEST(RowKernelDispatchTest, EvaluatorResolvesTableAtConstruction) {
  EXPECT_STREQ(row_kernel_isa_name(RowKernelIsa::kBaseline), "baseline");
  EXPECT_STREQ(row_kernel_isa_name(RowKernelIsa::kAvx2), "avx2");
  EXPECT_TRUE(row_kernels_supported(RowKernelIsa::kBaseline));
  const RowKernelIsa host = active_row_kernels();
  EXPECT_TRUE(row_kernels_supported(host));
  EXPECT_EQ(CompiledRowEvaluator().isa(), host);
  {
    const detail::ScopedRowKernels outer(RowKernelIsa::kBaseline);
    const CompiledRowEvaluator ev;
    EXPECT_EQ(ev.isa(), RowKernelIsa::kBaseline);
    {
      // An unsupported table falls back to baseline rather than SIGILL.
      const detail::ScopedRowKernels inner(RowKernelIsa::kAvx2);
      EXPECT_EQ(CompiledRowEvaluator().isa(),
                row_kernels_supported(RowKernelIsa::kAvx2)
                    ? RowKernelIsa::kAvx2
                    : RowKernelIsa::kBaseline);
      EXPECT_EQ(ev.isa(), RowKernelIsa::kBaseline);  // resolved already
    }
    EXPECT_EQ(active_row_kernels(), RowKernelIsa::kBaseline);
  }
  EXPECT_EQ(active_row_kernels(), host);
}

// ---------------------------------------------------------------------------
// Superop fusion unit tests.

const CompiledOp& root_op(const CompiledStage& cs) {
  return cs.ops[static_cast<std::size_t>(cs.root)];
}

TEST(SuperOpFusionTest, MulAddFusesToBinChain) {
  Pipeline pl("mac");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  b.define(b.in(img, {0, 0}) * b.in(img, {0, 1}) + b.in(img, {1, 0}));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_EQ(cs.fused, 1);
  const CompiledOp& o = root_op(cs);
  EXPECT_EQ(o.super, SuperOp::kBinChain);
  EXPECT_EQ(o.op2, Op::kMul);
  EXPECT_EQ(o.op, Op::kAdd);
  // The fused multiply disappeared as a standalone slot: 3 loads + 1 root.
  EXPECT_EQ(cs.num_slots(), 4);
}

TEST(SuperOpFusionTest, AddChainFusesAcrossNonMulOps) {
  Pipeline pl("boxsum");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  // A box-filter style add chain: fusable even with no multiply in sight.
  b.define((b.in(img, {0, -1}) + b.in(img, {0, 0})) + b.in(img, {0, 1}));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_GE(cs.fused, 1);
  const CompiledOp& o = root_op(cs);
  EXPECT_EQ(o.super, SuperOp::kBinChain);
  EXPECT_EQ(o.op2, Op::kAdd);
  EXPECT_EQ(o.op, Op::kAdd);
}

TEST(SuperOpFusionTest, ProductDifferenceFusesToChainPair) {
  Pipeline pl("det");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  // The Harris determinant shape: Sxx*Syy - Sxy*Sxy in a single pass.
  b.define(b.in(img, {0, 0}) * b.in(img, {0, 1}) -
           b.in(img, {1, 0}) * b.in(img, {1, 1}));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_EQ(cs.fused, 2);  // one kBinChain upgrade + the pair absorption
  const CompiledOp& o = root_op(cs);
  EXPECT_EQ(o.super, SuperOp::kChainPair);
  EXPECT_EQ(o.op, Op::kSub);
  EXPECT_EQ(o.op2, Op::kMul);
  EXPECT_EQ(o.op3, Op::kMul);
  EXPECT_GE(o.a, 0);
  EXPECT_GE(o.b, 0);
  EXPECT_GE(o.c, 0);
  EXPECT_GE(o.d, 0);
}

TEST(SuperOpFusionTest, WeightedTapFusesToWeighted) {
  Pipeline pl("tap");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  // The weighted-tap backbone of pyramid/interpolate stages.
  b.define(b.in(img, {0, 0}) * 2.0f + b.in(img, {0, 1}) * 3.0f);
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_EQ(cs.fused, 2);
  const CompiledOp& o = root_op(cs);
  EXPECT_EQ(o.super, SuperOp::kWeighted);
  EXPECT_EQ(o.op, Op::kAdd);
  EXPECT_EQ(o.imm, 2.0f);
  EXPECT_EQ(o.imm2, 3.0f);
}

TEST(SuperOpFusionTest, ComparisonSelectFusesToCmpBlend) {
  Pipeline pl("blend");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  b.define(select(lt(b.in(img, {0, 0}), b.in(img, {0, 1})),
                  b.in(img, {1, 0}), b.in(img, {1, 1})));
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  EXPECT_GE(cs.fused, 1);
  const CompiledOp& o = root_op(cs);
  EXPECT_EQ(o.super, SuperOp::kCmpBlend);
  EXPECT_EQ(o.op2, Op::kLt);
}

TEST(SuperOpFusionTest, SharedSubtreeIsNotFused) {
  Pipeline pl("shared");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  // m is multiply-used: absorbing it into either consumer would duplicate
  // work, so it must stay a standalone op.
  const Eh m = b.in(img, {0, 0}) * b.in(img, {0, 1});
  b.define((m + b.in(img, {1, 0})) * m);
  b.mark_output();
  pl.finalize();

  const CompiledStage cs = compile_stage(pl.stage(0));
  ASSERT_TRUE(cs.valid());
  bool mul_survives = false;
  for (const CompiledOp& op : cs.ops)
    if (op.op == Op::kMul && op.super == SuperOp::kNone && op.imm_side == 0 &&
        op.b >= 0)
      mul_survives = true;
  EXPECT_TRUE(mul_survives);
}

TEST(SuperOpFusionTest, LegacyOptionsDisableFusion) {
  Pipeline pl("legacy");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder b(pl, pl.add_stage("s", {16, 16}));
  b.define(b.in(img, {0, 0}) * b.in(img, {0, 1}) + b.in(img, {1, 0}));
  b.mark_output();
  pl.finalize();

  CompileOptions legacy;
  legacy.fuse_superops = false;
  const CompiledStage cs = compile_stage(pl.stage(0), legacy);
  ASSERT_TRUE(cs.valid());
  EXPECT_EQ(cs.fused, 0);
  for (const CompiledOp& op : cs.ops) EXPECT_EQ(op.super, SuperOp::kNone);
}

// ---------------------------------------------------------------------------
// Row-register allocation invariants.

void collect_operands(const CompiledOp& o, const CompiledStage& cs,
                      std::vector<std::int32_t>* out) {
  for (std::int32_t s : {o.a, o.b, o.c, o.d})
    if (s >= 0) out->push_back(s);
  if (o.op == Op::kLoad) {
    const CompiledLoad& cl = cs.loads[static_cast<std::size_t>(o.load_id)];
    for (int d = 0; d < cl.prank; ++d)
      if (cl.axes[static_cast<std::size_t>(d)].dyn_slot >= 0)
        out->push_back(cl.axes[static_cast<std::size_t>(d)].dyn_slot);
  }
}

TEST(RegisterAllocationTest, ReusesRegistersWithoutAliasing) {
  for (const char* key : {"unsharp", "harris", "bilateral", "campipe"}) {
    const PipelineSpec spec = make_benchmark(key, 16);
    const Pipeline& pl = *spec.pipeline;
    bool saw_reuse = false;
    for (int s = 0; s < pl.num_stages(); ++s) {
      const CompiledStage cs = compile_stage(pl.stage(s));
      if (!cs.valid()) continue;
      ASSERT_EQ(cs.reg.size(), cs.ops.size()) << key;
      EXPECT_LE(cs.num_regs, cs.num_slots()) << key;
      saw_reuse |= cs.num_regs < cs.num_slots();
      for (std::size_t i = 0; i < cs.ops.size(); ++i) {
        const std::int32_t r = cs.reg[i];
        if (static_cast<std::int32_t>(i) == cs.root) {
          // The root writes the caller's row, never an arena register.
          EXPECT_EQ(r, -1) << key;
          continue;
        }
        ASSERT_GE(r, 0) << key;
        ASSERT_LT(r, cs.num_regs) << key;
        // A dst register never aliases any operand's register: kernels may
        // read and write in any order within the row.
        std::vector<std::int32_t> opnds;
        collect_operands(cs.ops[i], cs, &opnds);
        for (std::int32_t o : opnds)
          EXPECT_NE(r, cs.reg[static_cast<std::size_t>(o)])
              << key << " stage " << s << " slot " << i;
      }
    }
    // Some stage of each pipeline is big enough for the allocator to win.
    EXPECT_TRUE(saw_reuse) << key;
  }
}

// ---------------------------------------------------------------------------
// Adversarial row lengths and unaligned tile origins.
//
// Innermost tile sizes of 1, vector_width±1 (7/9 for 8-lane AVX2 floats)
// and primes force every SIMD kernel through remainder lanes, and odd
// sizes make most tile origins unaligned.  The compiled form must stay
// bit-identical to the scalar reference everywhere.

void hostile_row_lengths(const std::string& key) {
  const PipelineSpec spec = make_benchmark(key, 24);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  IncFusion inc(pl, model);
  const Grouping dp = inc.run();

  for (const std::int64_t inner : {1, 7, 9, 13, 31}) {
    Grouping g = dp;
    for (GroupSchedule& gs : g.groups)
      for (std::size_t d = 0; d < gs.tile_sizes.size(); ++d)
        gs.tile_sizes[d] = (d + 1 == gs.tile_sizes.size()) ? inner : 5;
    const std::string label = key + " inner=" + std::to_string(inner);

    ExecOptions vec;
    vec.num_threads = 2;
    vec.mode = EvalMode::kRow;
    expect_outputs_match(pl, g, inputs, ref, vec, label + " vector");
  }
}

class AdversarialTileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AdversarialTileTest, BitIdenticalOnHostileRowLengths) {
  const detail::ScopedRowKernels kernels(RowKernelIsa::kBaseline);
  hostile_row_lengths(GetParam());
}

TEST_P(AdversarialTileTest, BitIdenticalOnHostileRowLengthsAvx2) {
  if (!row_kernels_supported(RowKernelIsa::kAvx2)) GTEST_SKIP() << kNoAvx2;
  const detail::ScopedRowKernels kernels(RowKernelIsa::kAvx2);
  hostile_row_lengths(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AdversarialTileTest,
                         ::testing::Values("unsharp", "harris", "bilateral",
                                           "interpolate", "campipe",
                                           "pyramid", "blur"));

// ---------------------------------------------------------------------------
// Plans time nothing: the Executor's programs are lower()'s, and each group
// carries only its static benefit cause (runtime/benefit.hpp).

Grouping incremental_grouping(const Pipeline& pl) {
  const CostModel model(pl, MachineModel::xeon_haswell());
  IncFusion inc(pl, model);  // keeps a reference to the model
  return inc.run();
}

// Same compiled program, op for op: what any plan-time rewrite would
// change.
void expect_same_program(const CompiledStage& a, const CompiledStage& b,
                         const std::string& where) {
  EXPECT_EQ(a.stage_id, b.stage_id) << where;
  EXPECT_EQ(a.root, b.root) << where;
  EXPECT_EQ(a.reg, b.reg) << where;
  EXPECT_EQ(a.num_regs, b.num_regs) << where;
  EXPECT_EQ(a.fused, b.fused) << where;
  ASSERT_EQ(a.ops.size(), b.ops.size()) << where;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].op, b.ops[i].op) << where << " op " << i;
    EXPECT_EQ(a.ops[i].a, b.ops[i].a) << where << " op " << i;
    EXPECT_EQ(a.ops[i].b, b.ops[i].b) << where << " op " << i;
    EXPECT_EQ(a.ops[i].c, b.ops[i].c) << where << " op " << i;
    EXPECT_EQ(a.ops[i].d, b.ops[i].d) << where << " op " << i;
  }
}

// A plan is a pure function of pipeline, grouping, options and row-kernel
// table: the Executor runs exactly the programs lower() produces (nothing
// is timed or demoted at plan time), and they stay bit-identical to the
// reference under either kernel table.
TEST(NeverPessimizeTest, GateIsBitInvisible) {
  for (const char* key : {"unsharp", "harris", "bilateral", "interpolate",
                          "campipe", "pyramid", "blur"}) {
    const PipelineSpec spec = make_benchmark(key, 8);
    const Pipeline& pl = *spec.pipeline;
    const std::vector<Buffer> inputs = spec.make_inputs();
    const std::vector<Buffer> ref = run_reference(pl, inputs);
    const Grouping g = incremental_grouping(pl);
    for (RowKernelIsa isa : {RowKernelIsa::kBaseline, RowKernelIsa::kAvx2}) {
      const detail::ScopedRowKernels kernels(isa);
      const std::string where =
          std::string(key) + " " + row_kernel_isa_name(isa);
      ExecOptions opts;
      opts.num_threads = 2;
      const Executor ex(pl, g, opts);
      const ExecutablePlan lowered = lower(pl, g, CompileOptions{});
      ASSERT_EQ(ex.plan().compiled.size(), lowered.compiled.size()) << where;
      for (std::size_t s = 0; s < lowered.compiled.size(); ++s)
        expect_same_program(ex.plan().compiled[s], lowered.compiled[s],
                            where + " stage " + std::to_string(s));

      Workspace ws;
      ex.run(inputs, ws);
      for (int o : pl.outputs())
        EXPECT_TRUE(testing::buffers_equal(
            ws.stage_buffer(o), ref[static_cast<std::size_t>(o)]))
            << where << " output " << pl.stage(o).name;
    }
  }
}

// The plan group holding the stage named `name`.
const GroupPlan* group_of(const Pipeline& pl, const ExecutablePlan& plan,
                          const std::string& name) {
  for (const GroupPlan& gp : plan.groups)
    for (int s : gp.stage_order)
      if (pl.stage(s).name == name) return &gp;
  return nullptr;
}

// The Executor records each group's static benefit cause, and nothing
// else: no field of the plan carries a timing.
TEST(NeverPessimizeTest, VerdictsArePopulated) {
  static_assert(
      std::is_same_v<decltype(GroupPlan::benefit_cause), BenefitCause>,
      "a group's verdict is its static cause only");
  ExecOptions opts;
  opts.num_threads = 1;
  opts.mode = EvalMode::kRow;

  // campipe's tone-curve group runs scalar libm pow.
  const PipelineSpec cam = make_benchmark("campipe", 16);
  const Pipeline& cpl = *cam.pipeline;
  const Executor cex(cpl, incremental_grouping(cpl), opts);
  const GroupPlan* curve = group_of(cpl, cex.plan(), "curve");
  ASSERT_NE(curve, nullptr);
  EXPECT_EQ(curve->benefit_cause, BenefitCause::kLibmFallback);

  // bilateral's slicing group gathers through data-dependent grid indices.
  const PipelineSpec bil = make_benchmark("bilateral", 16);
  const Pipeline& bpl = *bil.pipeline;
  const Executor bex(bpl, incremental_grouping(bpl), opts);
  const GroupPlan* slice = group_of(bpl, bex.plan(), "slice_num");
  ASSERT_NE(slice, nullptr);
  EXPECT_EQ(slice->benefit_cause, BenefitCause::kGatherBound);
}

}  // namespace
}  // namespace fusedp
