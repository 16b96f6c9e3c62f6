// Lowering: Grouping -> ExecutablePlan.
//
// The plan fixes everything the executor needs per group: stage order, the
// reference-space tile grid (tile sizes rounded to the alignment
// granularity), which stages write global buffers (live-outs), and how each
// load resolves (in-group scratch vs. materialized global buffer vs. input
// image).  The lowered loop structure matches PolyMage's generated code
// (paper Figure 3): parallel fused tile-space loops; per-tile, the member
// stages run one after another into per-thread scratch buffers.
#pragma once

#include "analysis/regions.hpp"
#include "fusion/grouping.hpp"
#include "runtime/compile.hpp"

namespace fusedp {

// Why a group's vector-backend benefit is in doubt, as named by the static
// benefit profile (runtime/benefit.hpp).
enum class BenefitCause : std::uint8_t {
  kNone = 0,      // no static reason to doubt the vector compilation
  kLibmFallback,  // transcendentals run as scalar libm calls inside the
                  // vector backend
  kGatherBound,   // dominated by dynamic / upsampled gathers
};

const char* benefit_cause_name(BenefitCause c);

struct GroupPlan {
  NodeSet stages;
  AlignResult align;
  std::vector<int> stage_order;           // topological within the group
  std::vector<std::int64_t> tile_sizes;   // per reference dim, final
  std::vector<std::int64_t> tiles_per_dim;
  std::int64_t total_tiles = 1;
  bool is_reduction = false;  // single reduction stage, runs untiled
  // The cost model's score for this group (GroupSchedule::cost), carried
  // into the plan so the observability layer can join predicted cost
  // against measured wall time; 0.0 when the schedule never scored it.
  double model_cost = 0.0;
  // Plan-time regions of the nominal full tile; when translatable, the
  // executor shifts these per tile instead of re-deriving them.
  RegionTemplate region_template;
  // Why the group's vector benefit is in doubt (runtime/benefit.hpp); set
  // by the Executor for vector row-mode plans, kNone otherwise.
  BenefitCause benefit_cause = BenefitCause::kNone;
};

struct ExecutablePlan {
  const Pipeline* pipeline = nullptr;
  std::vector<GroupPlan> groups;  // in executable (topological) order
  // liveout[stage] — stage output is materialized in a full-size buffer
  // (live-out of its group or consumed by a later group).
  std::vector<bool> materialized;
  // Indexed by stage id; invalid() for reductions.  Lowered once here so
  // every tile executes the optimized linear program.
  std::vector<CompiledStage> compiled;
};

// Validates the grouping (throws on invalid) and lowers it.  `copts`
// chooses whether the compiled stages get superop fusion (on by default;
// see CompileOptions).
ExecutablePlan lower(const Pipeline& pl, const Grouping& grouping,
                     const CompileOptions& copts = {});

}  // namespace fusedp
