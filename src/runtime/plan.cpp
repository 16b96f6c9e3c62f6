#include "runtime/plan.hpp"

#include <algorithm>

#include "support/checked.hpp"
#include "support/fault.hpp"

namespace fusedp {

ExecutablePlan lower(const Pipeline& pl, const Grouping& grouping,
                     const CompileOptions& copts) {
  FUSEDP_FAULT_POINT("plan.lower");
  std::string why;
  FUSEDP_CHECK_CODE(validate_grouping(pl, grouping, &why),
                    ErrorCode::kInvalidSchedule, "invalid grouping: " + why);

  ExecutablePlan plan;
  plan.pipeline = &pl;
  plan.materialized.assign(static_cast<std::size_t>(pl.num_stages()), false);

  for (const GroupSchedule& gs : grouping.groups) {
    GroupPlan gp;
    gp.stages = gs.stages;
    gp.align = solve_alignment(pl, gs.stages);
    FUSEDP_CHECK(gp.align.constant, "unfusable group slipped validation");
    gp.stage_order = pl.graph().topo_order_of(gs.stages);

    gp.is_reduction = gs.stages.size() == 1 &&
                      pl.stage(gs.stages.first()).kind == StageKind::kReduction;
    gp.model_cost = gs.cost;

    const int n = gp.align.num_classes;
    gp.tile_sizes.assign(static_cast<std::size_t>(n), 0);
    for (int d = 0; d < n; ++d) {
      const std::int64_t ext =
          gp.align.class_extent[static_cast<std::size_t>(d)];
      const std::int64_t gran =
          gp.align.class_granularity[static_cast<std::size_t>(d)];
      std::int64_t t = ext;  // untiled unless the schedule says otherwise
      if (d < static_cast<int>(gs.tile_sizes.size()) &&
          gs.tile_sizes[static_cast<std::size_t>(d)] > 0)
        t = gs.tile_sizes[static_cast<std::size_t>(d)];
      // Classes missing from some member stage must stay untiled; tiling
      // them would redundantly recompute (and concurrently rewrite) the
      // class-less stages once per tile along the class.
      if (!gp.align.class_common.empty() &&
          !gp.align.class_common[static_cast<std::size_t>(d)])
        t = ext;
      t = std::clamp<std::int64_t>(t, 1, ext);
      t = ceil_div(t, gran) * gran;  // keep tile edges on integer coords
      gp.tile_sizes[static_cast<std::size_t>(d)] = t;
    }
    if (gp.is_reduction) {
      // Reductions run whole-domain; the tile grid is a single tile.
      for (int d = 0; d < n; ++d)
        gp.tile_sizes[static_cast<std::size_t>(d)] =
            gp.align.class_extent[static_cast<std::size_t>(d)];
    }
    gp.tiles_per_dim.assign(static_cast<std::size_t>(n), 1);
    gp.total_tiles = 1;
    for (int d = 0; d < n; ++d) {
      gp.tiles_per_dim[static_cast<std::size_t>(d)] =
          ceil_div(gp.align.class_extent[static_cast<std::size_t>(d)],
                   gp.tile_sizes[static_cast<std::size_t>(d)]);
      // Tile-count math over user extents: wrap here would make the
      // executor's tile loop nonsense, so overflow is a coded error.
      gp.total_tiles = mul_or_throw(
          gp.total_tiles, gp.tiles_per_dim[static_cast<std::size_t>(d)],
          "plan tile count", ErrorCode::kInvalidSchedule);
    }

    if (!gp.is_reduction)
      gp.region_template =
          build_region_template(pl, gp.stages, gp.align, gp.stage_order,
                                gp.tile_sizes, gp.tiles_per_dim);

    gs.stages.for_each([&](int s) {
      if (is_liveout_of(pl, gs.stages, s))
        plan.materialized[static_cast<std::size_t>(s)] = true;
    });
    plan.groups.push_back(std::move(gp));
  }

  // Lower each map stage's body once per plan.
  plan.compiled.resize(static_cast<std::size_t>(pl.num_stages()));
  for (int s = 0; s < pl.num_stages(); ++s)
    if (pl.stage(s).kind == StageKind::kMap)
      plan.compiled[static_cast<std::size_t>(s)] =
          compile_stage(pl.stage(s), copts);

  // Order groups topologically (producers before consumers).
  std::vector<NodeSet> sets;
  sets.reserve(plan.groups.size());
  for (const GroupPlan& g : plan.groups) sets.push_back(g.stages);
  std::vector<GroupPlan> ordered;
  std::vector<bool> placed(plan.groups.size(), false);
  while (ordered.size() < plan.groups.size()) {
    bool progress = false;
    for (std::size_t i = 0; i < plan.groups.size(); ++i) {
      if (placed[i]) continue;
      const NodeSet preds =
          pl.graph().predecessors_of_set(plan.groups[i].stages);
      bool ready = true;
      for (std::size_t j = 0; j < plan.groups.size(); ++j)
        if (!placed[j] && j != i && preds.intersects(plan.groups[j].stages))
          ready = false;
      if (ready) {
        ordered.push_back(std::move(plan.groups[i]));
        placed[i] = true;
        progress = true;
      }
    }
    FUSEDP_CHECK(progress, "group graph has a cycle");
  }
  plan.groups = std::move(ordered);
  return plan;
}

}  // namespace fusedp
