// Cost-aware never-pessimize fusion gate.
//
// The vector backend (superop fusion + register allocation + SIMD loads) is
// bit-identical to the plain compiled form, but not unconditionally faster:
// groups whose rows are dominated by scalar-libm transcendentals or by
// data-dependent gathers can see the vector bookkeeping cost more than the
// kernels save (BENCH_vector.json has carried exactly such losses).  In the
// spirit of the source paper's cost-model discipline — fusion decisions are
// benefit-gated, never assumed — this module:
//
//   1. statically profiles each group's compiled programs
//      (analyze_group_benefit) and flags the groups whose vector benefit is
//      in doubt, with a cause (libm-fallback / gather-bound) shared with
//      bench_vector's regression attribution;
//   2. micro-measures the flagged groups at plan time — a few short row
//      evaluations of each member stage over synthetic buffers, vector
//      compilation vs. plain — and demotes the group to the plain form when
//      the vector choice loses by more than a small margin.
//
// Both compiled forms compute bit-identical values, so the gate changes
// speed only; the verdicts are persisted on GroupPlan::verdict for the plan
// printer, benches and tests.
#pragma once

#include "runtime/plan.hpp"

namespace fusedp {

// Static per-group profile of the compiled programs.
struct GroupBenefit {
  bool suspect = false;            // micro-measurement warranted
  BenefitCause cause = BenefitCause::kNone;
  std::int32_t libm_ops = 0;       // kExp/kLog/kPow op slots
  std::int32_t dynamic_loads = 0;  // loads with a data-dependent axis
  std::int32_t upsampled_axes = 0; // row-varying affine axes with den > 1
  std::int32_t total_ops = 0;
  std::int32_t fused = 0;          // fused superops across member stages
};

// Profiles `g` against the plan's compiled stages.  `fast_transcendentals`
// mirrors the executor flag: with the approximate kernels enabled the libm
// suspicion disappears (the transcendental rows vectorize).
GroupBenefit analyze_group_benefit(const ExecutablePlan& plan,
                                   const GroupPlan& g,
                                   bool fast_transcendentals);

// Applies the gate to every non-reduction group of `plan`: statically
// suspect groups are micro-measured and, when the vector compilation loses
// to the plain form by more than ~5%, their member stages are recompiled
// with the plain CompileOptions.  Fills GroupPlan::verdict either way.
// `vector_opts` are the CompileOptions `plan` was lowered with;
// `allow_fma`/`fast_transcendentals` are the executor's row-kernel flags,
// passed through so the measurement runs the same kernels the executor
// will.
//
// Each stage is timed at most once per process: its vector and plain
// times are memoized (bounded, process-wide) under its structure, these
// options and the active row-kernel table, and every later plan containing
// the stage sums the stored times.  A group's verdict is therefore stable
// within a process.
void apply_never_pessimize(ExecutablePlan& plan,
                           const CompileOptions& vector_opts, bool allow_fma,
                           bool fast_transcendentals);

namespace detail {

// Test-only: stage micro-measurements (memo misses) run in this process so
// far.
std::int64_t never_pessimize_measurements();

}  // namespace detail

}  // namespace fusedp
