#include "runtime/benefit.hpp"

namespace fusedp {

const char* benefit_cause_name(BenefitCause c) {
  switch (c) {
    case BenefitCause::kNone: return "none";
    case BenefitCause::kLibmFallback: return "libm-fallback";
    case BenefitCause::kGatherBound: return "gather-bound";
  }
  return "?";
}

BenefitCause analyze_group_benefit(const ExecutablePlan& plan,
                                   const GroupPlan& g) {
  bool libm = false, dynamic = false;
  for (int s : g.stage_order) {
    const CompiledStage& cs = plan.compiled[static_cast<std::size_t>(s)];
    if (!cs.valid()) continue;
    for (const CompiledOp& o : cs.ops)
      libm |= o.op == Op::kExp || o.op == Op::kLog || o.op == Op::kPow;
    for (const CompiledLoad& cl : cs.loads)
      dynamic |= cl.prank > 0 && cl.any_dynamic;  // prank 0: unreachable
  }
  // Scalar libm calls inside the vector backend leave the transcendental
  // rows serial while the vector bookkeeping still costs; dynamic gathers
  // bound throughput on address math rather than the fused arithmetic the
  // vector form accelerates.
  if (libm) return BenefitCause::kLibmFallback;
  if (dynamic) return BenefitCause::kGatherBound;
  return BenefitCause::kNone;
}

}  // namespace fusedp
