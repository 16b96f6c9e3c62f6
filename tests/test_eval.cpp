// Evaluator equivalence tests: the compiled row kernels must agree
// bit-for-bit with the scalar interpreter on every operator, access kind,
// and boundary condition.
#include <gtest/gtest.h>

#include <cstring>

#include "ir/builder.hpp"
#include "runtime/compile.hpp"
#include "runtime/eval.hpp"
#include "support/image_io.hpp"
#include "support/rng.hpp"

namespace fusedp {
namespace {

// Evaluates the last stage's body over its whole domain with the compiled
// row kernels (superops, register allocation, vector loads) and with
// eval_scalar_at, and asserts bit-equality, with every load on the exact
// border-folding kernel.  `srcs` resolves the stage's loads.
void expect_evaluators_agree(const Pipeline& pl,
                             const std::vector<LoadSrc>& srcs) {
  const Stage& st = pl.stage(pl.num_stages() - 1);
  StageEvalCtx ctx;
  ctx.stage = &st;
  ctx.srcs = srcs;
  const std::vector<unsigned char> clamped(st.loads.size(), 1);
  const Box& dom = st.domain;
  const int last = st.rank() - 1;
  std::vector<float> row(static_cast<std::size_t>(dom.extent(last)));
  const CompiledStage cs = compile_stage(st);
  CompiledRowEvaluator ev;
  std::int64_t c[kMaxDims];
  for (int d = 0; d < dom.rank; ++d) c[d] = dom.lo[d];
  for (;;) {
    ev.eval_row(cs, ctx, clamped.data(), c, dom.lo[last], dom.hi[last],
                row.data());
    for (std::int64_t y = dom.lo[last]; y <= dom.hi[last]; ++y) {
      c[last] = y;
      const float expect = eval_scalar_at(ctx, st.body, c);
      const float got = row[static_cast<std::size_t>(y - dom.lo[last])];
      if (std::memcmp(&expect, &got, 4) != 0)
        FAIL() << "mismatch at y=" << y << ": " << expect << " vs " << got;
    }
    c[last] = dom.lo[last];
    int d = last - 1;
    for (; d >= 0; --d) {
      if (++c[d] <= dom.hi[d]) break;
      c[d] = dom.lo[d];
    }
    if (d < 0) break;
  }
}

LoadSrc src_of(const Buffer& b, const Box& dom) {
  return LoadSrc{b.view(), dom};
}

TEST(EvalTest, AllArithmeticOps) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {16, 32});
  StageBuilder s(pl, pl.add_stage("s", {16, 32}));
  const Eh a = s.in(img, {0, 0});
  const Eh b = s.in(img, {1, -1});
  Eh e = a + b;
  e = e - a * 0.5f;
  e = e * b;
  e = e / (b + 2.0f);
  e = min(e, a);
  e = max(e, b * 0.1f);
  e = pow(abs(e) + 0.1f, 1.7f);
  e = sqrt(abs(e));
  e = exp(e * 0.01f);
  e = log(e + 1.5f);
  e = floor(e * 7.0f);
  e = -e;
  e = select(logical_and(lt(a, 0.7f), le(b, 0.9f)), e,
             select(logical_or(eq(a, b), lt(s.cst(0.2f), a)), a, b));
  s.define(e);
  pl.finalize();
  const Buffer in = make_synthetic_image({16, 32}, 3);
  expect_evaluators_agree(pl, {src_of(in, pl.input(0).domain),
                               src_of(in, pl.input(0).domain)});
}

TEST(EvalTest, CoordRows) {
  Pipeline pl("p");
  pl.add_input("img", {4, 8, 16});
  StageBuilder s(pl, pl.add_stage("s", {4, 8, 16}));
  s.define(s.coord(0) * 100.0f + s.coord(1) * 10.0f + s.coord(2));
  pl.finalize();
  expect_evaluators_agree(pl, {});
}

TEST(EvalTest, ClampedStencilEdges) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {12, 20});
  StageBuilder s(pl, pl.add_stage("s", {12, 20}));
  // Offsets large enough to clamp on both edges of both dims.
  s.define(s.in(img, {-3, -5}) + s.in(img, {4, 7}) + s.in(img, {0, 19}) +
           s.in(img, {0, -19}));
  pl.finalize();
  const Buffer in = make_synthetic_image({12, 20}, 5);
  std::vector<LoadSrc> srcs(4, src_of(in, pl.input(0).domain));
  expect_evaluators_agree(pl, srcs);
}

TEST(EvalTest, DownsampleUpsampleAndPre) {
  Pipeline pl("p");
  const int coarse = pl.add_input("coarse", {8, 8});
  const int fine = pl.add_input("fine", {32, 32});
  StageBuilder s(pl, pl.add_stage("s", {16, 16}));
  // Upsample from coarse with pre-offset taps, downsample from fine.
  const Eh up0 = s.load({true, coarse}, {AxisMap::affine(0, 0, 1, 2, 0),
                                         AxisMap::affine(1, 0, 1, 2, 1)});
  const Eh down = s.load({true, fine}, {AxisMap::affine(0, -1, 2, 1),
                                        AxisMap::affine(1, 1, 2, 1)});
  s.define(up0 * 0.3f + down * 0.7f);
  pl.finalize();
  const Buffer c = make_synthetic_image({8, 8}, 7);
  const Buffer f = make_synthetic_image({32, 32}, 9);
  expect_evaluators_agree(pl, {src_of(c, pl.input(0).domain),
                               src_of(f, pl.input(1).domain)});
}

TEST(EvalTest, BroadcastAndConstantAxes) {
  Pipeline pl("p");
  const int img = pl.add_input("img", {3, 8, 8});
  StageBuilder s(pl, pl.add_stage("s", {8, 8}));
  const Eh r = s.load({true, img}, {AxisMap::constant(0), AxisMap::affine(0),
                                    AxisMap::affine(1)});
  const Eh g = s.load({true, img}, {AxisMap::constant(1), AxisMap::affine(0),
                                    AxisMap::affine(1)});
  s.define(r * 0.6f + g * 0.4f);
  pl.finalize();
  const Buffer in = make_synthetic_image({3, 8, 8}, 11);
  std::vector<LoadSrc> srcs(2, src_of(in, pl.input(0).domain));
  expect_evaluators_agree(pl, srcs);
}

TEST(EvalTest, DynamicGather) {
  Pipeline pl("p");
  const int lut = pl.add_input("lut", {64});
  const int img = pl.add_input("img", {16, 16});
  StageBuilder s(pl, pl.add_stage("s", {16, 16}));
  const Eh v = s.in(img, {0, 0});
  const Eh idx = v * 63.0f;  // data-dependent index, clamped by the load
  const Eh t = s.load({true, lut}, {AxisMap::dynamic(idx.r)});
  // Also an out-of-range dynamic index to exercise clamping.
  const Eh wild = s.load({true, lut}, {AxisMap::dynamic((v * 500.0f - 100.0f).r)});
  s.define(t + wild * 0.25f);
  pl.finalize();
  Buffer lutbuf({64});
  for (int i = 0; i < 64; ++i) lutbuf.data()[i] = static_cast<float>(i * i);
  const Buffer in = make_synthetic_image({16, 16}, 13);
  expect_evaluators_agree(pl, {src_of(in, pl.input(1).domain),
                               src_of(lutbuf, pl.input(0).domain),
                               src_of(lutbuf, pl.input(0).domain)});
}

TEST(EvalTest, SharedSubexpressionEvaluatedOnce) {
  // Reusing an Eh twice must be correct (and, compiled, CSE'd to one op).
  Pipeline pl("p");
  const int img = pl.add_input("img", {8, 8});
  StageBuilder s(pl, pl.add_stage("s", {8, 8}));
  const Eh shared = s.in(img, {0, 0}) * 3.0f;
  s.define(shared + shared * shared);
  pl.finalize();
  const Buffer in = make_synthetic_image({8, 8}, 15);
  expect_evaluators_agree(pl, {src_of(in, pl.input(0).domain)});
}

TEST(EvalTest, ViewWithOriginOffset) {
  // Loads through a scratch-like view whose origin is not zero.
  Pipeline pl("p");
  const int img = pl.add_input("img", {16, 16});
  StageBuilder s(pl, pl.add_stage("s", {16, 16}));
  s.define(s.in(img, {-1, 1}) + s.in(img, {1, -1}));
  pl.finalize();
  const Buffer in = make_synthetic_image({16, 16}, 17);
  expect_evaluators_agree(pl, {src_of(in, pl.input(0).domain),
                               src_of(in, pl.input(0).domain)});
}

TEST(EvalTest, SelectEvaluatesBothArmsIdentically) {
  // Division by zero in the untaken arm must produce identical results in
  // both evaluators (neither short-circuits).
  Pipeline pl("p");
  const int img = pl.add_input("img", {8, 8});
  StageBuilder s(pl, pl.add_stage("s", {8, 8}));
  const Eh v = s.in(img, {0, 0});
  s.define(select(lt(v, 2.0f), v, v / (v - v)));
  pl.finalize();
  const Buffer in = make_synthetic_image({8, 8}, 19);
  expect_evaluators_agree(pl, {src_of(in, pl.input(0).domain)});
}

}  // namespace
}  // namespace fusedp
