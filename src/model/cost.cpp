#include "model/cost.hpp"

#include <algorithm>
#include <cmath>

#include "support/checked.hpp"

namespace fusedp {

namespace {

std::int64_t round_up_to_multiple(std::int64_t v, std::int64_t g) {
  return ceil_div(v, g) * g;
}

}  // namespace

RunTile run_tile(const AlignResult& align,
                 const std::vector<std::int64_t>& tile_sizes) {
  RunTile rt;
  rt.box.rank = align.num_classes;
  for (int d = 0; d < rt.box.rank; ++d) {
    const auto i = static_cast<std::size_t>(d);
    const std::int64_t ext = align.class_extent[i];
    const std::int64_t t = tile_sizes[i];
    rt.clipped = rt.clipped || t > ext;
    rt.inflated = rt.inflated || (align.class_granularity[i] > 1 && t >= ext);
    rt.box.lo[d] = 0;
    rt.box.hi[d] = std::min(t, ext) - 1;
  }
  return rt;
}

std::int64_t run_tile_volume(const Pipeline& pl, NodeSet group,
                             const AlignResult& align,
                             const std::vector<std::int64_t>& tile_sizes) {
  const RunTile rt = run_tile(align, tile_sizes);
  return compute_group_regions(pl, group, align, rt.box, rt.clipped)
      .computed_volume;
}

std::vector<std::int64_t> CostModel::compute_tile_sizes(
    const ReuseInfo& reuse, const AlignResult& align,
    std::int64_t tile_footprint, std::int64_t num_buffers,
    std::int64_t innermost_tile) {
  const int n = align.num_classes;
  FUSEDP_CHECK(n >= 1, "group has no dimensions");
  std::vector<std::int64_t> ts(static_cast<std::size_t>(n), 1);
  const auto& sizes = reuse.dim_sizes;
  const auto& gran = align.class_granularity;

  const double tile_vol = std::max<double>(
      1.0, static_cast<double>(tile_footprint) /
               static_cast<double>(std::max<std::int64_t>(num_buffers, 1)));

  // Classes not common to all member stages stay untiled (full extent) —
  // tiling them would recompute the class-less stages once per tile.
  auto common = [&](int i) {
    return align.class_common.empty() ||
           align.class_common[static_cast<std::size_t>(i)];
  };
  double budget = tile_vol;
  for (int i = 0; i < n; ++i) {
    if (!common(i)) {
      ts[static_cast<std::size_t>(i)] = sizes[static_cast<std::size_t>(i)];
      budget /= static_cast<double>(std::max<std::int64_t>(
          sizes[static_cast<std::size_t>(i)], 1));
    }
  }

  // Innermost common dimension pinned for prefetching / vectorization.
  int last = n - 1;
  while (last >= 0 && !common(last)) --last;
  if (last < 0) return ts;  // nothing tileable
  ts[static_cast<std::size_t>(last)] =
      std::min(sizes[static_cast<std::size_t>(last)], innermost_tile);
  budget = std::max(budget / static_cast<double>(
                                 ts[static_cast<std::size_t>(last)]),
                    1.0);

  // Remaining common dims share the budget in proportion to reuse:
  // tau_i = tau * reuse_i / maxReuse, prod tau_i = budget.
  std::vector<int> free_dims;
  for (int i = 0; i < n; ++i)
    if (i != last && common(i)) free_dims.push_back(i);
  if (!free_dims.empty()) {
    double tau = budget;
    double max_reuse = 0.0;
    for (int i : free_dims)
      max_reuse =
          std::max(max_reuse, reuse.dim_reuse[static_cast<std::size_t>(i)]);
    for (int i : free_dims)
      tau /= reuse.dim_reuse[static_cast<std::size_t>(i)] / max_reuse;
    tau = std::pow(std::max(tau, 1.0),
                   1.0 / static_cast<double>(free_dims.size()));
    for (int i : free_dims) {
      const double scaled =
          tau * reuse.dim_reuse[static_cast<std::size_t>(i)] / max_reuse;
      std::int64_t t = static_cast<std::int64_t>(std::llround(scaled));
      t = std::clamp<std::int64_t>(t, 1, sizes[static_cast<std::size_t>(i)]);
      ts[static_cast<std::size_t>(i)] =
          round_up_to_multiple(t, gran[static_cast<std::size_t>(i)]);
    }
  }
  ts[static_cast<std::size_t>(last)] = round_up_to_multiple(
      std::max<std::int64_t>(ts[static_cast<std::size_t>(last)], 1),
      gran[static_cast<std::size_t>(last)]);
  return ts;
}

GroupCost CostModel::cost_for_cache(NodeSet group, const AlignResult& align,
                                    const ReuseInfo& reuse,
                                    std::int64_t cache_floats,
                                    std::int64_t total_footprint,
                                    std::int64_t num_buffers) const {
  GroupCost gc;
  // Line 15: tileFootprint <- min(totalFootprint / NCORES, cacheSize).
  gc.tile_footprint = std::min<std::int64_t>(
      std::max<std::int64_t>(total_footprint / m_.cores, 1), cache_floats);
  gc.tile_sizes = compute_tile_sizes(reuse, align, gc.tile_footprint,
                                     num_buffers, m_.innermost_tile);

  // Interior tile (unclamped) — boundary effects excluded from the model —
  // unless granularity rounding pushed a size past its class extent: the
  // tile that runs then spans the whole class, so it is scored clamped to
  // the extents and clipped to the stage domains.
  const RunTile tile = run_tile(align, gc.tile_sizes);
  const GroupRegions regions = compute_group_regions(
      *pl_, group, align, tile.box, /*clamp_to_domain=*/tile.clipped);
  gc.overlap = regions.overlap_volume;

  gc.n_tiles = 1;
  for (int d = 0; d < tile.box.rank; ++d)
    gc.n_tiles = mul_or_throw(
        gc.n_tiles,
        ceil_div(align.class_extent[static_cast<std::size_t>(d)],
                 gc.tile_sizes[static_cast<std::size_t>(d)]),
        "group tile count");
  // Line 15 promises a tile that fits the cache and enough tiles to feed
  // the cores.  A tile rounded out to its class extent can break both: it
  // may be the whole group on one core, and far more than tileFootprint.
  // Such a multi-stage group must keep more than one tile and fit L2.
  gc.keeps_tile_guarantees =
      group.size() <= 1 || !tile.inflated ||
      (gc.n_tiles > 1 && regions.computed_volume <= m_.l2_floats());

  const double comp_vol =
      std::max<double>(1.0, static_cast<double>(regions.computed_volume));
  const double locality =
      static_cast<double>(regions.livein_volume + regions.liveout_volume) /
      comp_vol;
  const double cleanup = static_cast<double>(
      (gc.n_tiles + m_.cores - 1) % m_.cores);
  // Relative overlap: redundant recomputation as a fraction of the tile's
  // useful volume.  (Algorithm 2 line 23 divides by tileFootprint, but under
  // the paper's one-to-one iterations<->data assumption — Section 4.2 —
  // the footprint equals the owned volume; with granularity rounding and
  // mixed-rank groups ours can differ, and owned volume is the quantity the
  // trade-off is actually about.)
  const double rel_overlap =
      static_cast<double>(gc.overlap) /
      static_cast<double>(std::max<std::int64_t>(regions.owned_volume, 1));
  const CostWeights& w = m_.weights;
  gc.locality = locality;
  gc.cleanup = cleanup;
  gc.rel_overlap = rel_overlap;
  gc.dim_stddev = reuse.dim_size_stddev;
  gc.cost = w.w1 * locality - w.w2 * cleanup + w.w3 * rel_overlap +
            w.w4 * reuse.dim_size_stddev;
  return gc;
}

GroupCost CostModel::cost(NodeSet group) const {
  GroupCost infeasible;
  if (group.empty()) {
    infeasible.cost = 0.0;  // empty grouping costs nothing
    return infeasible;
  }

  const AlignResult align = solve_alignment(*pl_, group);
  if (!align.constant) return infeasible;
  if (group.size() > 1 && !pl_->graph().is_connected_undirected(group))
    return infeasible;

  const ReuseInfo reuse = compute_reuse(*pl_, group, align);

  // Footprints are summed over user-controlled extents; checked math turns
  // a silent wrap (UB, and a nonsense schedule later) into a coded error.
  std::int64_t total_footprint = 0;
  std::int64_t num_buffers = 0;
  group.for_each([&](int s) {
    const Box& dom = pl_->stage(s).domain;
    std::int64_t ext[kMaxDims];
    for (int d = 0; d < dom.rank; ++d) ext[d] = dom.extent(d);
    total_footprint = add_or_throw(
        total_footprint, volume_or_throw(ext, dom.rank, "stage volume"),
        "group footprint");
    ++num_buffers;
  });

  GroupCost l1 = cost_for_cache(group, align, reuse, m_.l1_floats(),
                                total_footprint, num_buffers);
  // Algorithm 2 lines 6-9: fall back to L2-sized tiles when the redundant
  // computation exceeds the tile's useful volume.  We additionally fall
  // back when the L1 tile degenerates — per-buffer volume so small that
  // non-innermost extents collapse to a few rows — which the paper's Table 5
  // discussion singles out as "too small to adversely affect prefetching
  // and overlap fraction".
  std::int64_t l1_tile_volume = num_buffers;
  for (std::int64_t t : l1.tile_sizes)
    l1_tile_volume = mul_or_throw(l1_tile_volume, t, "L1 tile volume");
  const std::int64_t per_buffer = l1.tile_footprint / std::max<std::int64_t>(num_buffers, 1);
  const std::int64_t innermost =
      l1.tile_sizes.empty() ? 1 : l1.tile_sizes.back();
  const bool degenerate = per_buffer < 4 * innermost;
  if (l1.overlap > l1_tile_volume || degenerate) {
    GroupCost l2 = cost_for_cache(group, align, reuse, m_.l2_floats(),
                                  total_footprint, num_buffers);
    l2.used_l2 = true;
    return l2;
  }
  return l1;
}

}  // namespace fusedp
