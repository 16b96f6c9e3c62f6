// The paper's cost function (Algorithm 2): COST, COSTFORCACHESIZE and
// COMPUTETILESIZES.
//
// COST(H) returns the cost of fusing the stages of H into one
// overlapped-tiled group, together with the tile sizes (in reference-space
// coordinates) that minimize it:
//
//   cost =  w1 * (livein_tile + liveout_tile) / compute_volume
//         - w2 * ((n_tiles + NCORES - 1) % NCORES)
//         + w3 * overlap / tileFootprint
//         + w4 * dimSizeStandardDeviation
//
// Tile sizes are first computed for the L1 capacity; if the resulting
// redundant-computation volume exceeds the tile's compute volume, L2-sized
// tiles are used instead (Algorithm 2 lines 3-9).  Groups whose dependence
// vectors cannot be made constant cost infinity.  Tile sizes are NOT
// restricted to powers of two — a key point of the paper.  A multi-stage
// group whose granularity-rounded tile reaches its extents must still run
// as more than one tile within L2, or it is flagged
// (GroupCost::keeps_tile_guarantees) and the DP never forms it.
#pragma once

#include <limits>
#include <vector>

#include "analysis/regions.hpp"
#include "analysis/reuse.hpp"
#include "analysis/scaling.hpp"
#include "model/machine.hpp"

namespace fusedp {

inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

struct GroupCost {
  double cost = kInfiniteCost;
  std::vector<std::int64_t> tile_sizes;  // per reference-space dimension
  std::int64_t overlap = 0;              // redundant elements per tile
  std::int64_t n_tiles = 0;
  std::int64_t tile_footprint = 0;       // elements
  bool used_l2 = false;
  // The four per-term features behind the linear score, exposed so the
  // weight fitter (model/tune) can re-fit w1..w4 by least squares:
  //   cost = w1*locality - w2*cleanup + w3*rel_overlap + w4*dim_stddev.
  double locality = 0.0;     // (livein + liveout) / compute volume
  double cleanup = 0.0;      // (n_tiles + NCORES - 1) % NCORES
  double rel_overlap = 0.0;  // overlap / owned volume
  double dim_stddev = 0.0;   // dimension-extent standard deviation
  // False for a multi-stage group whose tile granularity rounding took to
  // its class extent (RunTile::inflated) when that tile then runs alone or
  // needs more than L2.  The score stays finite, so a grouping that holds
  // the group still runs as given; only the DP refuses to form it.
  bool keeps_tile_guarantees = true;

  bool feasible() const { return cost != kInfiniteCost; }
  // The cost a fusion search sees: infinite unless the group keeps its
  // tile guarantees.
  double candidate_cost() const {
    return keeps_tile_guarantees ? cost : kInfiniteCost;
  }
};

// The tile that runs for `tile_sizes`: the box at the reference-space
// origin with each size clamped to its class extent.  Granularity rounding
// (to the LCM of the members' scale denominators) can take a size of a deep
// multi-resolution group to or past its extent.
struct RunTile {
  Box box;
  bool clipped = false;   // some size exceeded its class extent
  bool inflated = false;  // rounding took some size to its class extent
};
RunTile run_tile(const AlignResult& align,
                 const std::vector<std::int64_t>& tile_sizes);

// Elements that tile computes (all members, halos included; clipped to the
// stage domains when the tile was): the working set the cache must hold.
std::int64_t run_tile_volume(const Pipeline& pl, NodeSet group,
                             const AlignResult& align,
                             const std::vector<std::int64_t>& tile_sizes);

class CostModel {
 public:
  CostModel(const Pipeline& pl, MachineModel machine)
      : pl_(&pl), m_(std::move(machine)) {}

  const MachineModel& machine() const { return m_; }

  // Algorithm 2, COST(H).
  GroupCost cost(NodeSet group) const;

  // Algorithm 2, COMPUTETILESIZES: per-class tile sizes such that
  // numBuffers * prod(tileSizes) ~= tileFootprint, innermost pinned to
  // min(extent, INNERMOSTTILESIZE), remaining dims proportional to reuse.
  static std::vector<std::int64_t> compute_tile_sizes(
      const ReuseInfo& reuse, const AlignResult& align,
      std::int64_t tile_footprint, std::int64_t num_buffers,
      std::int64_t innermost_tile);

 private:
  GroupCost cost_for_cache(NodeSet group, const AlignResult& align,
                           const ReuseInfo& reuse, std::int64_t cache_floats,
                           std::int64_t total_footprint,
                           std::int64_t num_buffers) const;

  const Pipeline* pl_;
  MachineModel m_;
};

}  // namespace fusedp
