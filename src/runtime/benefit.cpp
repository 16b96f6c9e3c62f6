#include "runtime/benefit.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ir/pipeline.hpp"
#include "support/buffer.hpp"
#include "support/fingerprint.hpp"

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

// One stage's micro-measure: the per-call row time of its vector and plain
// compiled forms over the same synthetic rows.
struct StageTimes {
  double vector_ms = 0.0;
  double plain_ms = 0.0;
};

// Process-wide StageTimes memo (see apply_never_pessimize).  Its key must
// cover everything the harness reads.  Both compiled forms are
// bit-identical, so a colliding entry can change speed only, never
// outputs.  Cleared when full.
constexpr std::size_t kMemoCapacity = 4096;

struct TimesMemo {
  std::mutex mu;
  std::unordered_map<std::uint64_t, StageTimes> times;
};

TimesMemo& times_memo() {
  static TimesMemo memo;
  return memo;
}

std::atomic<std::int64_t> g_measurements{0};

std::uint64_t memo_key(const Stage& st, const CompileOptions& vector_opts,
                       bool allow_fma, bool fast_transcendentals) {
  Fnv64 h;
  add_stage_structure(h, st);
  h.add_tag(vector_opts.fuse_superops ? 'F' : '.');
  h.add_tag(vector_opts.vector ? 'V' : '.');
  h.add_tag(allow_fma ? 'M' : '.');
  h.add_tag(fast_transcendentals ? 'T' : '.');
  h.add_i32(static_cast<std::int32_t>(active_row_kernels()));
  return h.digest();
}

bool memo_find(std::uint64_t key, StageTimes& out) {
  TimesMemo& m = times_memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  const auto it = m.times.find(key);
  if (it == m.times.end()) return false;
  out = it->second;
  return true;
}

// Stores `t` unless a racing build stored the key first, and returns the
// stored times, so every plan in the process reads one verdict per stage.
StageTimes memo_store(std::uint64_t key, const StageTimes& t) {
  TimesMemo& m = times_memo();
  const std::lock_guard<std::mutex> lock(m.mu);
  if (m.times.size() >= kMemoCapacity) m.times.clear();
  return m.times.emplace(key, t).first->second;
}

}  // namespace

namespace detail {

std::int64_t never_pessimize_measurements() {
  return g_measurements.load(std::memory_order_relaxed);
}

}  // namespace detail

void apply_never_pessimize(ExecutablePlan& plan,
                           const CompileOptions& vector_opts, bool allow_fma,
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
    // Plain forms compiled for a measurement, by stage_order position,
    // reused if the group is demoted.
    std::vector<CompiledStage> plain_forms(g.stage_order.size());
    for (std::size_t i = 0; i < g.stage_order.size(); ++i) {
      const int s = g.stage_order[i];
      const CompiledStage& cs = plan.compiled[static_cast<std::size_t>(s)];
      if (!cs.valid()) continue;
      const Stage& st = pl.stage(s);
      const std::uint64_t key =
          memo_key(st, vector_opts, allow_fma, fast_transcendentals);
      StageTimes t;
      if (!memo_find(key, t)) {
        StageHarness h;
        if (!build_harness(st, cs, h)) continue;
        plain_forms[i] = compile_stage(st, plain);
        t.vector_ms = measure_stage_ms(cs, h, allow_fma, fast_transcendentals);
        t.plain_ms = measure_stage_ms(plain_forms[i], h, allow_fma,
                                      fast_transcendentals);
        g_measurements.fetch_add(1, std::memory_order_relaxed);
        t = memo_store(key, t);
      }
      vec_ms += t.vector_ms;
      sca_ms += t.plain_ms;
      measured = true;
    }
    if (!measured) continue;
    g.verdict.measured = true;
    g.verdict.vector_ms = vec_ms;
    g.verdict.scalar_ms = sca_ms;
    if (vec_ms > sca_ms * kDemoteMargin) {
      for (std::size_t i = 0; i < g.stage_order.size(); ++i) {
        CompiledStage& cs =
            plan.compiled[static_cast<std::size_t>(g.stage_order[i])];
        if (!cs.valid()) continue;
        cs = plain_forms[i].valid()
                 ? std::move(plain_forms[i])
                 : compile_stage(pl.stage(g.stage_order[i]), plain);
      }
      g.verdict.demoted = true;
    }
  }
}

}  // namespace fusedp
