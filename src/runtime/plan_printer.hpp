// Renders an ExecutablePlan as pseudo-code resembling the C++ PolyMage
// generates (paper Figure 3): parallel fused tile-space loops, per-tile
// scratch buffers, intra-tile stage loops, and live-out publication.
//
// With a RunTrace (observe layer), each group header also carries a
// measured column — wall ms and redundant-recompute share joined against
// the plan's predicted cost — so one printout answers both "what will run"
// and "what did it cost last time".
//
// With a CostModel, each tiled group also shows the two promises of
// Algorithm 2 line 15 on the tiles the plan runs: its tile count against
// MachineModel::cores (marked when the grid cannot feed the cores) and the
// run tile's volume against the cache budget the model sized it for.
#pragma once

#include <string>

#include "observe/observe.hpp"
#include "runtime/plan.hpp"

namespace fusedp {

std::string plan_to_string(const ExecutablePlan& plan,
                           const observe::RunTrace* trace = nullptr,
                           const CostModel* model = nullptr);

}  // namespace fusedp
