// Bounded incremental grouping (paper Section 5, Algorithm 3).
//
// Runs the DP with a group-size limit l (starting at 2), coalesces the
// resulting groups into super-nodes of a quotient graph, doubles l, and
// repeats until the limit covers the whole pipeline (the final iteration
// runs unbounded).
// This keeps DP time bounded on large graphs (paper Table 2: camera pipeline
// and pyramid blending).
#pragma once

#include "fusion/dp.hpp"

namespace fusedp {

struct IncOptions {
  std::uint64_t max_states = 50'000'000;
  // Wall-clock deadline over all iterations combined; <= 0 means none.
  // Each DP pass runs under the time remaining when it starts.
  double deadline_seconds = 0.0;
};

struct IncStats {
  std::uint64_t groupings_enumerated = 0;  // summed over iterations
  int max_succ = 0;
  int iterations = 0;
  double seconds = 0.0;
};

class IncFusion {
 public:
  IncFusion(const Pipeline& pl, const CostModel& model, IncOptions opts = {});

  Grouping run();
  const IncStats& stats() const { return stats_; }

 private:
  const Pipeline* pl_;
  const CostModel* model_;
  IncOptions opts_;
  IncStats stats_;
};

}  // namespace fusedp
