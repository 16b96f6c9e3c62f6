#include "runtime/benefit.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "ir/pipeline.hpp"
#include "support/buffer.hpp"

namespace fusedp {

const char* benefit_cause_name(BenefitCause c) {
  switch (c) {
    case BenefitCause::kNone: return "none";
    case BenefitCause::kLibmFallback: return "libm-fallback";
    case BenefitCause::kGatherBound: return "gather-bound";
    case BenefitCause::kFusionPessimized: return "fusion-pessimized";
  }
  return "?";
}

GroupBenefit analyze_group_benefit(const ExecutablePlan& plan,
                                   const GroupPlan& g,
                                   bool fast_transcendentals) {
  GroupBenefit b;
  for (int s : g.stage_order) {
    const CompiledStage& cs = plan.compiled[static_cast<std::size_t>(s)];
    if (!cs.valid()) continue;
    b.total_ops += cs.num_slots();
    b.fused += cs.fused;
    for (const CompiledOp& o : cs.ops) {
      if (o.op == Op::kExp || o.op == Op::kLog || o.op == Op::kPow)
        ++b.libm_ops;
    }
    for (const CompiledLoad& cl : cs.loads) {
      if (cl.prank == 0) continue;  // unreachable load, never evaluated
      if (cl.any_dynamic) ++b.dynamic_loads;
      for (int k = 0; k < cl.prank; ++k) {
        const CompiledAxis& m = cl.axes[static_cast<std::size_t>(k)];
        if (m.kind == AxisMap::Kind::kAffine && m.varies_row && m.den > 1)
          ++b.upsampled_axes;
      }
    }
  }
  // Suspicion rules.  Scalar libm calls inside the vector backend leave the
  // transcendental rows serial while the vector bookkeeping still costs;
  // dynamic gathers bound throughput on address math rather than the fused
  // arithmetic the vector form accelerates.  Everything else has never
  // measured below the plain form, so it is not worth the micro-run.
  if (b.libm_ops > 0 && !fast_transcendentals) {
    b.suspect = true;
    b.cause = BenefitCause::kLibmFallback;
  } else if (b.dynamic_loads > 0) {
    b.suspect = true;
    b.cause = BenefitCause::kGatherBound;
  }
  return b;
}

namespace {

std::int64_t fdiv(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b, r = a % b;
  return r != 0 && ((r < 0) != (b < 0)) ? q - 1 : q;
}

// Synthetic evaluation context for one stage: per-load buffers sized from
// the compiled axis ranges over the measured rows, filled with a positive
// deterministic pattern (safe under log/pow/div).  All loads run through
// the clamped kernels, so any access the program computes stays in bounds
// regardless of the synthetic extents.
struct StageHarness {
  std::vector<Buffer> bufs;  // storage behind ctx.srcs
  StageEvalCtx ctx;
  std::vector<unsigned char> clamped;
  std::vector<float> out;
  std::int64_t base[kMaxDims] = {0, 0, 0, 0};
  std::int64_t y0 = 0, y1 = 0;
};

bool build_harness(const Stage& st, const CompiledStage& cs,
                   StageHarness& h) {
  const int rank = st.rank();
  if (rank < 1 || rank > kMaxDims) return false;
  const Box& dom = st.domain;
  for (int d = 0; d < rank; ++d) h.base[d] = dom.lo[d];
  const std::int64_t w = std::min<std::int64_t>(256, dom.extent(rank - 1));
  if (w < 1) return false;
  h.y0 = dom.lo[rank - 1];
  h.y1 = h.y0 + w - 1;
  h.ctx.stage = &st;
  h.ctx.srcs.resize(cs.loads.size());
  h.bufs.resize(cs.loads.size());
  h.clamped.assign(cs.loads.size(), 1u);
  for (std::size_t li = 0; li < cs.loads.size(); ++li) {
    const CompiledLoad& cl = cs.loads[li];
    if (cl.prank == 0) continue;  // unreachable: never evaluated
    std::vector<std::int64_t> extents;
    std::int64_t lo[kMaxDims] = {0, 0, 0, 0};
    for (int k = 0; k < cl.prank; ++k) {
      const CompiledAxis& m = cl.axes[static_cast<std::size_t>(k)];
      std::int64_t vlo = 0, vhi = 0;
      if (m.kind == AxisMap::Kind::kDynamic) {
        vlo = 0;
        vhi = 15;  // dyn rows are clamped into the domain either way
      } else if (m.kind == AxisMap::Kind::kConstant || m.num == 0) {
        vlo = vhi = m.offset;
      } else {
        const std::int64_t c0 = m.varies_row ? h.y0 : h.base[m.src_dim];
        const std::int64_t c1 = m.varies_row ? h.y1 : h.base[m.src_dim];
        const std::int64_t v0 = fdiv(c0 * m.num + m.pre, m.den) + m.offset;
        const std::int64_t v1 = fdiv(c1 * m.num + m.pre, m.den) + m.offset;
        vlo = std::min(v0, v1);
        vhi = std::max(v0, v1);
      }
      lo[k] = vlo;
      extents.push_back(std::clamp<std::int64_t>(vhi - vlo + 1, 1, 1024));
    }
    h.bufs[li].reset(extents);
    float* d = h.bufs[li].data();
    const std::int64_t vol = h.bufs[li].volume();
    for (std::int64_t i = 0; i < vol; ++i) {
      const float t = static_cast<float>(i) * 0.6180339887f;
      d[i] = 0.25f + 0.5f * (t - std::floor(t));
    }
    LoadSrc& src = h.ctx.srcs[li];
    src.view = h.bufs[li].view();
    src.domain.rank = cl.prank;
    for (int k = 0; k < cl.prank; ++k) {
      src.view.origin[k] = lo[k];
      src.domain.lo[k] = lo[k];
      src.domain.hi[k] = lo[k] + src.view.extent[k] - 1;
    }
  }
  h.out.assign(static_cast<std::size_t>(w), 0.0f);
  return true;
}

double measure_stage_ms(const CompiledStage& cs, StageHarness& h,
                        bool allow_fma, bool fast_transcendentals) {
  CompiledRowEvaluator ev;
  const std::int64_t w = h.y1 - h.y0 + 1;
  const int calls = std::max(4, static_cast<int>(16384 / w));
  // Warm-up covers the evaluator's arena growth and icache.
  ev.eval_row(cs, h.ctx, h.clamped.data(), h.base, h.y0, h.y1, h.out.data(),
              allow_fma, fast_transcendentals);
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < calls; ++c)
      ev.eval_row(cs, h.ctx, h.clamped.data(), h.base, h.y0, h.y1,
                  h.out.data(), allow_fma, fast_transcendentals);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best / calls;
}

}  // namespace

void apply_never_pessimize(ExecutablePlan& plan, bool allow_fma,
                           bool fast_transcendentals) {
  const Pipeline& pl = *plan.pipeline;
  const CompileOptions plain{/*fuse_superops=*/false, /*vector=*/false};
  // Demotion needs a real, repeatable loss: micro-runs on short rows are
  // noisy, and a wrong demotion costs real speedup while a wrong keep costs
  // only what the micro-run already showed to be small.
  constexpr double kDemoteMargin = 1.05;
  for (GroupPlan& g : plan.groups) {
    if (g.is_reduction) continue;
    const GroupBenefit b = analyze_group_benefit(plan, g,
                                                 fast_transcendentals);
    g.verdict.cause = b.cause;
    if (!b.suspect) continue;
    double vec_ms = 0.0, sca_ms = 0.0;
    bool measured = false;
    for (int s : g.stage_order) {
      const CompiledStage& cs = plan.compiled[static_cast<std::size_t>(s)];
      if (!cs.valid()) continue;
      const Stage& st = pl.stage(s);
      StageHarness h;
      if (!build_harness(st, cs, h)) continue;
      const CompiledStage plain_cs = compile_stage(st, plain);
      vec_ms += measure_stage_ms(cs, h, allow_fma, fast_transcendentals);
      sca_ms += measure_stage_ms(plain_cs, h, allow_fma,
                                 fast_transcendentals);
      measured = true;
    }
    if (!measured) continue;
    g.verdict.measured = true;
    g.verdict.vector_ms = vec_ms;
    g.verdict.scalar_ms = sca_ms;
    if (vec_ms > sca_ms * kDemoteMargin) {
      for (int s : g.stage_order) {
        CompiledStage& cs = plan.compiled[static_cast<std::size_t>(s)];
        if (cs.valid()) cs = compile_stage(pl.stage(s), plain);
      }
      g.verdict.demoted = true;
    }
  }
}

}  // namespace fusedp
