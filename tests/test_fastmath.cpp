// Accuracy and dispatch tests for the approximate transcendental kernels
// (runtime/fastmath.hpp), the ExecOptions::fast_transcendentals plumbing
// around them, and the static vector-benefit profile (runtime/benefit.hpp).
//
// The ulp/relative bounds asserted here are ~2-4x the measured worst case
// of each kernel (exp/log sampled at <= 1 ulp, pow/rsqrt at < 7e-6
// relative), so they fail on a real accuracy regression without being
// flaky across compilers.  Special values (+-0, denormals, NaN, +-Inf,
// the overflow/underflow boundaries) are pinned exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "fusion/incremental.hpp"
#include "model/cost.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/benefit.hpp"
#include "runtime/executor.hpp"
#include "runtime/fastmath.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Distance in representable floats, treating the number line monotonically
// across the sign (so ulp(-0, +0) == 0, and values straddling zero measure
// through it).
std::int64_t ulp_dist(float a, float b) {
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof ia);
  std::memcpy(&ib, &b, sizeof ib);
  if (ia < 0) ia = std::numeric_limits<std::int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int32_t>::min() - ib;
  const std::int64_t d = static_cast<std::int64_t>(ia) - ib;
  return d < 0 ? -d : d;
}

// ---------------------------------------------------------------------------
// fast_exp

TEST(FastExpTest, UlpSweepAgainstLibm) {
  // Dense-ish sweep over the full finite-result range, both signs.
  for (std::uint32_t i = 0; i < 0x7F800000u; i += 4099) {
    float x;
    std::memcpy(&x, &i, sizeof x);
    for (const float s : {x, -x}) {
      if (s > 88.7f || s < -104.0f) continue;
      const float got = fastmath::fast_exp(s);
      const float want = std::exp(s);
      ASSERT_LE(ulp_dist(got, want), 4) << "exp(" << s << ") got " << got
                                        << " want " << want;
    }
  }
}

TEST(FastExpTest, GradualUnderflowToDenormals) {
  // Between exp(-87.33) (smallest normal result) and exp(-103.97) (last
  // nonzero denormal), results leave the normal range; the two-part scale
  // must keep them within a few ulp of libm instead of flushing to zero.
  for (float x = -88.0f; x > -104.0f; x -= 0.173f) {
    const float got = fastmath::fast_exp(x);
    const float want = std::exp(x);
    ASSERT_LE(ulp_dist(got, want), 4) << "exp(" << x << ")";
  }
  EXPECT_EQ(fastmath::fast_exp(-150.0f), 0.0f);
  EXPECT_FALSE(std::signbit(fastmath::fast_exp(-150.0f)));
}

TEST(FastExpTest, SpecialValues) {
  EXPECT_EQ(bits_of(fastmath::fast_exp(0.0f)), bits_of(1.0f));
  EXPECT_EQ(bits_of(fastmath::fast_exp(-0.0f)), bits_of(1.0f));
  EXPECT_EQ(fastmath::fast_exp(kInf), kInf);
  EXPECT_EQ(fastmath::fast_exp(-kInf), 0.0f);
  EXPECT_TRUE(std::isnan(fastmath::fast_exp(kNaN)));
  // Denormal inputs: e^tiny == 1.0f exactly in float.
  EXPECT_EQ(fastmath::fast_exp(1e-40f), 1.0f);
  EXPECT_EQ(fastmath::fast_exp(-1e-40f), 1.0f);
  // Overflow boundary: the largest finite-exp argument stays finite, just
  // past it overflows to +inf (log(FLT_MAX) = 88.7228390...).
  EXPECT_TRUE(std::isfinite(fastmath::fast_exp(88.72283f)));
  EXPECT_EQ(fastmath::fast_exp(88.8f), kInf);
  EXPECT_EQ(fastmath::fast_exp(1000.0f), kInf);
}

// ---------------------------------------------------------------------------
// fast_log

TEST(FastLogTest, UlpSweepAgainstLibm) {
  for (std::uint32_t i = 0x00800000u; i < 0x7F800000u; i += 4099) {
    float x;
    std::memcpy(&x, &i, sizeof x);
    const float got = fastmath::fast_log(x);
    const float want = std::log(x);
    // Near x = 1 the result crosses zero and relative ulp explodes for any
    // approximation; pin a tight absolute envelope there instead.
    if (std::fabs(want) < 1e-5f) {
      ASSERT_NEAR(got, want, 1e-6f) << "log(" << x << ")";
    } else {
      ASSERT_LE(ulp_dist(got, want), 4) << "log(" << x << ") got " << got
                                        << " want " << want;
    }
  }
}

TEST(FastLogTest, DenormalArguments) {
  // The denormal path renormalizes by 2^23 before the exponent split.
  for (std::uint32_t i = 1; i < 0x00800000u; i += 977) {
    float x;
    std::memcpy(&x, &i, sizeof x);
    const float got = fastmath::fast_log(x);
    const float want = std::log(x);
    ASSERT_LE(ulp_dist(got, want), 4) << "log(denormal " << x << ")";
  }
}

TEST(FastLogTest, SpecialValues) {
  // log(1) must be +0.0f exactly — campipe's tone curve hits it.
  EXPECT_EQ(bits_of(fastmath::fast_log(1.0f)), bits_of(0.0f));
  EXPECT_EQ(fastmath::fast_log(0.0f), -kInf);
  EXPECT_EQ(fastmath::fast_log(-0.0f), -kInf);
  EXPECT_EQ(fastmath::fast_log(kInf), kInf);
  EXPECT_TRUE(std::isnan(fastmath::fast_log(-1.0f)));
  EXPECT_TRUE(std::isnan(fastmath::fast_log(-kInf)));
  EXPECT_TRUE(std::isnan(fastmath::fast_log(kNaN)));
}

// ---------------------------------------------------------------------------
// fast_pow

TEST(FastPowTest, RelativeErrorSweep) {
  // exp(b*log a) compounds both kernels' errors multiplicatively; away from
  // overflow the compound stays well under 2e-5 relative.
  for (float a = 1e-6f; a < 1e6f; a *= 1.37f) {
    for (float b = -8.0f; b <= 8.0f; b += 0.31f) {
      const double want = std::pow(static_cast<double>(a),
                                   static_cast<double>(b));
      if (!std::isfinite(want) || std::fabs(want) < 1e-30 ||
          std::fabs(want) > 1e30)
        continue;
      const float got = fastmath::fast_pow(a, b);
      ASSERT_NEAR(got, want, 2e-5 * std::fabs(want))
          << "pow(" << a << ", " << b << ")";
    }
  }
}

TEST(FastPowTest, CampipeGammaConstants) {
  // The campipe tone curve applies pow(x, 1/2.2) over [0, 1] — the exact
  // shape fast_transcendentals accelerates.  Check the full LUT domain.
  for (int i = 0; i <= 255; ++i) {
    const float x = static_cast<float>(i) / 255.0f;
    if (x == 0.0f) {
      EXPECT_EQ(fastmath::fast_pow(0.0f, 1.0f / 2.2f), 0.0f);
      continue;
    }
    const double want =
        std::pow(static_cast<double>(x), 1.0 / 2.2);
    EXPECT_NEAR(fastmath::fast_pow(x, 1.0f / 2.2f), want, 2e-5 * want)
        << "gamma at " << i;
  }
}

TEST(FastPowTest, BilateralRangeWeightConstants) {
  // Bilateral-style range weights: exp(-d^2 / (2 sigma^2)) for pixel
  // differences d in [0, 1] and the typical sigma ladder.
  for (const float sigma : {0.05f, 0.1f, 0.25f, 0.5f}) {
    for (float d = 0.0f; d <= 1.0f; d += 0.01f) {
      const float arg = -d * d / (2.0f * sigma * sigma);
      const float got = fastmath::fast_exp(arg);
      const float want = std::exp(arg);
      ASSERT_LE(ulp_dist(got, want), 4)
          << "range weight sigma=" << sigma << " d=" << d;
    }
  }
}

TEST(FastPowTest, NegativeBaseParity) {
  EXPECT_EQ(fastmath::fast_pow(-2.0f, 3.0f), -8.0f);
  EXPECT_EQ(fastmath::fast_pow(-2.0f, 2.0f), 4.0f);
  EXPECT_NEAR(fastmath::fast_pow(-3.0f, 5.0f), -243.0f, 243.0f * 2e-5f);
  EXPECT_TRUE(std::isnan(fastmath::fast_pow(-2.0f, 0.5f)));
  EXPECT_TRUE(std::isnan(fastmath::fast_pow(-2.0f, 2.5f)));
}

TEST(FastPowTest, SpecialValues) {
  EXPECT_EQ(fastmath::fast_pow(0.0f, 0.0f), 1.0f);   // IEEE pow(0,0) = 1
  EXPECT_EQ(fastmath::fast_pow(7.5f, 0.0f), 1.0f);
  EXPECT_EQ(fastmath::fast_pow(1.0f, kNaN), 1.0f);   // IEEE pow(1,y) = 1
  EXPECT_EQ(fastmath::fast_pow(1.0f, kInf), 1.0f);
  EXPECT_EQ(fastmath::fast_pow(0.0f, 2.0f), 0.0f);   // 0^positive = 0
  EXPECT_EQ(fastmath::fast_pow(0.0f, -2.0f), kInf);  // 0^negative = inf
  EXPECT_EQ(fastmath::fast_pow(2.0f, kInf), kInf);
  EXPECT_EQ(fastmath::fast_pow(2.0f, -kInf), 0.0f);
  EXPECT_TRUE(std::isnan(fastmath::fast_pow(2.0f, kNaN)));
  EXPECT_TRUE(std::isnan(fastmath::fast_pow(kNaN, 2.0f)));
}

// ---------------------------------------------------------------------------
// fast_rsqrt

TEST(FastRsqrtTest, RelativeErrorSweep) {
  for (std::uint32_t i = 0x00800000u; i < 0x7F800000u; i += 4099) {
    float x;
    std::memcpy(&x, &i, sizeof x);
    const double want = 1.0 / std::sqrt(static_cast<double>(x));
    if (!std::isfinite(want) || want < 1e-30) continue;
    ASSERT_NEAR(fastmath::fast_rsqrt(x), want, 2e-5 * want)
        << "rsqrt(" << x << ")";
  }
}

TEST(FastRsqrtTest, SpecialValues) {
  EXPECT_EQ(fastmath::fast_rsqrt(0.0f), kInf);
  EXPECT_EQ(fastmath::fast_rsqrt(-0.0f), -kInf);  // IEEE rsqrt(-0) = -inf
  EXPECT_EQ(fastmath::fast_rsqrt(kInf), 0.0f);
  EXPECT_TRUE(std::isnan(fastmath::fast_rsqrt(-1.0f)));
  EXPECT_TRUE(std::isnan(fastmath::fast_rsqrt(kNaN)));
}

// ---------------------------------------------------------------------------
// Executor-level: fast_transcendentals tolerance, static benefit profile.

std::vector<Buffer> run_with(const Pipeline& pl, const Grouping& g,
                             const std::vector<Buffer>& inputs,
                             bool fastmath) {
  ExecOptions opts;
  opts.num_threads = 2;
  opts.mode = EvalMode::kRow;
  opts.fast_transcendentals = fastmath;
  return run_pipeline(pl, g, inputs, opts);
}

Grouping incremental_grouping(const Pipeline& pl) {
  const CostModel model(pl, MachineModel::xeon_haswell());
  IncFusion inc(pl, model);  // keeps a reference to the model
  return inc.run();
}

// campipe (tone curve: pow) and bilateral (transcendental-free but
// gather-heavy) under fast_transcendentals: outputs must stay within the
// documented tolerance envelope of the bit-exact reference.
TEST(FastTranscendentalsTest, CampipeWithinToleranceOfReference) {
  const PipelineSpec spec = make_benchmark("campipe", 16);
  const Pipeline& pl = *spec.pipeline;
  const std::vector<Buffer> inputs = spec.make_inputs();
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  const Grouping g = incremental_grouping(pl);

  const std::vector<Buffer> outs = run_with(pl, g, inputs, /*fastmath=*/true);
  ASSERT_EQ(outs.size(), pl.outputs().size());
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const Buffer& expect = ref[static_cast<std::size_t>(pl.outputs()[o])];
    const float* got = outs[o].data();
    const float* want = expect.data();
    for (std::int64_t i = 0; i < outs[o].volume(); ++i) {
      ASSERT_TRUE(std::isfinite(got[i])) << "output " << o << " at " << i;
      const float tol = 1e-3f + 1e-2f * std::fabs(want[i]);
      ASSERT_NEAR(got[i], want[i], tol) << "output " << o << " at " << i;
    }
  }
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
// is timed or demoted at plan time), and with fast_transcendentals off they
// stay bit-identical to the reference under either kernel table.
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

// With fast_transcendentals ON, campipe's libm suspicion disappears (the
// transcendental rows vectorize), so the static profile reports no
// libm-fallback cause.
TEST(NeverPessimizeTest, FastmathClearsLibmSuspicion) {
  const PipelineSpec spec = make_benchmark("campipe", 16);
  const Pipeline& pl = *spec.pipeline;
  const Grouping g = incremental_grouping(pl);

  ExecOptions opts;
  opts.num_threads = 1;
  opts.mode = EvalMode::kRow;
  opts.fast_transcendentals = true;
  const Executor ex(pl, g, opts);
  for (const GroupPlan& gp : ex.plan().groups)
    EXPECT_NE(gp.benefit_cause, BenefitCause::kLibmFallback);
}

}  // namespace
}  // namespace fusedp
