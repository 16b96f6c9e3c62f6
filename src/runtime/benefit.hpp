// Static vector-benefit profile of a plan's groups.
//
// The compiled row backend (superop fusion + register allocation + SIMD
// loads) does not speed every group up equally: groups whose rows are
// dominated by scalar-libm transcendentals or by data-dependent gathers
// gain little from vectorization.  analyze_group_benefit profiles each
// group's compiled programs and names the cause when the vector benefit is
// in doubt (libm-fallback / gather-bound).  The Executor records the cause
// on GroupPlan::benefit_cause for the plan printer.
//
// Nothing here times anything: a plan is a pure function of the pipeline,
// the grouping, the ExecOptions and the active row-kernel table.
#pragma once

#include "runtime/plan.hpp"

namespace fusedp {

// Why the vector benefit of `g`'s compiled programs is in doubt, or kNone.
BenefitCause analyze_group_benefit(const ExecutablePlan& plan,
                                   const GroupPlan& g);

}  // namespace fusedp
