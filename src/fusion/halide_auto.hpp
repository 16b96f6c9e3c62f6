// Halide auto-scheduler-style greedy grouping — the paper's "H-auto"
// baseline (Section 2.3, after Mullapudi et al. 2016).
//
// Each stage starts in its own group.  The algorithm repeatedly enumerates
// pair-wise producer/consumer group merges, analytically estimates the
// benefit of each (best tile configuration per group, from a power-of-two
// candidate set only), and commits the highest-benefit merge until none is
// profitable.  Group cost = arithmetic cost + LOAD_COST x memory loads,
// with (i) at least PARALLELISM_THRESHOLD tiles, (ii) a footprint penalty
// past CACHE_SIZE, (iii) at least VECTOR_WIDTH points along the innermost
// dimension.  The paper (Section 6.2) defines the first three from the
// machine, so they come from the cost model's MachineModel:
// PARALLELISM_THRESHOLD = cores, CACHE_SIZE = per-core L2, VECTOR_WIDTH =
// twice the native f32 width (16 on AVX2); LOAD_COST = 40.
#pragma once

#include "fusion/grouping.hpp"

namespace fusedp {

class HalideAuto {
 public:
  HalideAuto(const Pipeline& pl, const CostModel& model);

  Grouping run() const;

 private:
  struct Scored {
    double cost = kInfiniteCost;
    std::vector<std::int64_t> tiles;
  };
  // Best analytic cost over tile configurations for one group.
  Scored score_group(NodeSet group) const;
  // Arithmetic operations per output point of a stage (AST op count).
  double ops_per_point(int stage) const;

  const Pipeline* pl_;
  const CostModel* model_;
};

}  // namespace fusedp
