#include "fusion/halide_auto.hpp"

#include <algorithm>

namespace fusedp {

constexpr double kLoadCost = 40.0;
// Power-of-two tile extents tried per tiled dimension.
constexpr std::int64_t kTileCandidates[] = {8, 16, 32, 64, 128, 256};

HalideAuto::HalideAuto(const Pipeline& pl, const CostModel& model)
    : pl_(&pl), model_(&model) {}

double HalideAuto::ops_per_point(int stage) const {
  const Stage& s = pl_->stage(stage);
  if (s.kind == StageKind::kReduction) return 8.0;  // nominal
  double ops = 0.0;
  for (const ExprNode& n : s.nodes) {
    switch (n.op) {
      case Op::kConst:
      case Op::kCoord:
        break;
      case Op::kLoad:
        ops += 1.0;
        break;
      case Op::kSqrt:
      case Op::kExp:
      case Op::kLog:
      case Op::kPow:
        ops += 8.0;  // transcendental weight
        break;
      default:
        ops += 1.0;
    }
  }
  return std::max(ops, 1.0);
}

HalideAuto::Scored HalideAuto::score_group(NodeSet group) const {
  Scored best;
  const AlignResult align = solve_alignment(*pl_, group);
  if (!align.constant) return best;
  int reductions = 0;
  group.for_each([&](int s) {
    if (pl_->stage(s).kind == StageKind::kReduction) ++reductions;
  });
  if (reductions > 0 && group.size() > 1) return best;
  if (group.size() > 1 && !pl_->graph().is_connected_undirected(group))
    return best;

  const int n = align.num_classes;
  const MachineModel& machine = model_->machine();
  const std::int64_t cache_floats = machine.l2_floats();
  const std::int64_t vector_width = 2 * machine.vector_width_floats;

  // Candidate tile configurations: powers of two on the two innermost
  // reference dimensions, full extent elsewhere (plus the untiled config).
  std::vector<std::vector<std::int64_t>> configs;
  auto push_config = [&](std::int64_t t1, std::int64_t t2) {
    std::vector<std::int64_t> ts(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
      const std::int64_t ext = align.class_extent[static_cast<std::size_t>(d)];
      const std::int64_t gran =
          align.class_granularity[static_cast<std::size_t>(d)];
      std::int64_t t = ext;
      if (d == n - 1)
        t = std::min(ext, t2);
      else if (d == n - 2)
        t = std::min(ext, t1);
      ts[static_cast<std::size_t>(d)] =
          ceil_div(std::max<std::int64_t>(t, 1), gran) * gran;
    }
    configs.push_back(std::move(ts));
  };
  if (n == 1) {
    for (std::int64_t t : kTileCandidates) push_config(t, t);
    push_config(1 << 30, 1 << 30);  // untiled
  } else {
    for (std::int64_t t1 : kTileCandidates)
      for (std::int64_t t2 : kTileCandidates) push_config(t1, t2);
    push_config(1 << 30, 1 << 30);
  }

  double group_ops = 0.0;
  group.for_each([&](int s) { group_ops += ops_per_point(s); });
  group_ops /= std::max(group.size(), 1);

  Scored fallback;  // best config ignoring the hard constraints
  for (const auto& ts : configs) {
    Box tile;
    tile.rank = n;
    std::int64_t n_tiles = 1;
    for (int d = 0; d < n; ++d) {
      tile.lo[d] = 0;
      tile.hi[d] = ts[static_cast<std::size_t>(d)] - 1;
      n_tiles *= ceil_div(align.class_extent[static_cast<std::size_t>(d)],
                          ts[static_cast<std::size_t>(d)]);
    }
    const GroupRegions regions =
        compute_group_regions(*pl_, group, align, tile, /*clamp=*/false);
    const double arith =
        static_cast<double>(regions.computed_volume) * group_ops;
    double mem_loads = static_cast<double>(regions.livein_volume);
    if (regions.computed_volume > cache_floats) {
      // Working set spills the cache: intermediates also stream from memory.
      mem_loads += static_cast<double>(regions.computed_volume);
    }
    mem_loads += static_cast<double>(regions.liveout_volume);  // stores
    const double per_tile = arith + kLoadCost * mem_loads;
    const double total = per_tile * static_cast<double>(n_tiles);
    if (total < fallback.cost) {
      fallback.cost = total;
      fallback.tiles = ts;
    }
    // Hard constraints: enough tiles to parallelize, innermost wide enough
    // to vectorize (waived when the dimension itself is too small).
    const bool vec_ok =
        ts[static_cast<std::size_t>(n - 1)] >= vector_width ||
        align.class_extent[static_cast<std::size_t>(n - 1)] < vector_width;
    const bool par_ok = n_tiles >= machine.cores;
    if (vec_ok && par_ok && total < best.cost) {
      best.cost = total;
      best.tiles = ts;
    }
  }
  // Small groups (e.g. a 256-entry LUT) may satisfy no constraint set.
  return best.cost < kInfiniteCost ? best : fallback;
}

Grouping HalideAuto::run() const {
  std::vector<NodeSet> groups;
  std::vector<Scored> scores;
  for (int i = 0; i < pl_->num_stages(); ++i) {
    groups.push_back(NodeSet::single(i));
    scores.push_back(score_group(groups.back()));
  }

  for (;;) {
    double best_benefit = 0.0;
    int best_a = -1, best_b = -1;
    Scored best_merged;
    for (std::size_t a = 0; a < groups.size(); ++a) {
      const NodeSet succ = pl_->graph().successors_of_set(groups[a]);
      for (std::size_t b = 0; b < groups.size(); ++b) {
        if (a == b || !succ.intersects(groups[b])) continue;
        // Merging must not create a group-level cycle anywhere in the
        // current grouping (pairwise path checks are incomplete: two
        // internally-valid groups can be mutually cyclic through others).
        const NodeSet merged = groups[a] | groups[b];
        std::vector<NodeSet> candidate;
        candidate.reserve(groups.size() - 1);
        candidate.push_back(merged);
        for (std::size_t k = 0; k < groups.size(); ++k)
          if (k != a && k != b) candidate.push_back(groups[k]);
        if (!pl_->graph().quotient_is_acyclic(candidate)) continue;
        const Scored sm = score_group(merged);
        if (sm.cost == kInfiniteCost) continue;
        const double benefit = scores[a].cost + scores[b].cost - sm.cost;
        if (benefit > best_benefit) {
          best_benefit = benefit;
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
          best_merged = sm;
        }
      }
    }
    if (best_a < 0) break;
    groups[static_cast<std::size_t>(best_a)] =
        groups[static_cast<std::size_t>(best_a)] |
        groups[static_cast<std::size_t>(best_b)];
    scores[static_cast<std::size_t>(best_a)] = best_merged;
    groups.erase(groups.begin() + best_b);
    scores.erase(scores.begin() + best_b);
  }

  Grouping out;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    GroupSchedule gs;
    gs.stages = groups[i];
    gs.tile_sizes = scores[i].tiles;
    out.groups.push_back(gs);
  }
  complete_grouping(*pl_, *model_, out);
  return out;
}

}  // namespace fusedp
