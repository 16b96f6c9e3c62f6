// Machine models for the cost function (paper Section 6.1).
//
// The cost model consumes L1/L2 sizes, core count, the innermost tile size
// (INNERMOSTTILESIZE) and the weights w1..w4 (paper Table 1).  Presets
// reproduce the two evaluation systems; host() inspects the running machine.
#pragma once

#include <cstdint>
#include <string>

namespace fusedp {

// Revision of the cost model and search that turn a MachineModel into a
// schedule.  fingerprint(MachineModel) folds it into every schedule-cache
// key, so a schedule an older model chose is never served, even by a build
// without a git SHA to compare.  Bump it whenever the same machine can
// pick a different schedule.  Revision 2: the DP rejects groups whose
// rounded-out tile runs alone or overflows L2
// (GroupCost::keeps_tile_guarantees).  Revision 3: H-auto takes its cache
// size, parallelism threshold and vector width from the machine.
inline constexpr std::int32_t kCostModelRevision = 3;

// Weights of the four cost terms (paper Section 4.1, Table 1).
//
// The paper's absolute values ({1.0, 100, 46875, 1.5} on Xeon) are tied to
// units internal to the PolyMage implementation; the paper states they were
// "set to fixed values for the entire evaluation after an empirical trial"
// (Section 6.1).  We followed the same procedure for this implementation's
// units (live-in/out and overlap measured in elements, overlap normalized by
// the tile footprint): w3/w1 is chosen so that fusion stops being profitable
// once redundant recomputation reaches roughly 1/5 of the tile, and w2 acts
// as a load-balance tie-breaker.  The paper's raw values are kept available
// via paper_xeon()/paper_opteron() for reference.
struct CostWeights {
  double w1 = 1.0;    // locality: (livein + liveout) / compute
  double w2 = 0.01;   // parallelism: cleanup-tile bonus term
  double w3 = 15.0;   // redundant computation: relative overlap
  double w4 = 1.5;    // dimension-extent mismatch

  static CostWeights paper_xeon() { return {1.0, 100.0, 46875.0, 1.5}; }
  static CostWeights paper_opteron() { return {0.3, 100.0, 46875.0, 2.0}; }
};

struct MachineModel {
  std::string name;
  std::int64_t l1_bytes = 32 * 1024;
  std::int64_t l2_bytes = 256 * 1024;
  std::int64_t l3_bytes = 20 * 1024 * 1024;
  int cores = 16;
  int vector_width_floats = 8;     // AVX/AVX2: 8 x f32
  std::int64_t innermost_tile = 256;  // INNERMOSTTILESIZE
  CostWeights weights;

  std::int64_t l1_floats() const { return l1_bytes / 4; }
  std::int64_t l2_floats() const { return l2_bytes / 4; }

  // Intel Xeon E5-2630 v3 (Haswell): 32 KB L1, 256 KB L2 per core,
  // IMTS = 256, weights {1.0, 100, 46875, 1.5}.
  static MachineModel xeon_haswell();
  // AMD Opteron 6386 SE: 16 KB L1, 2 MB L2 shared per 2 cores (model uses
  // 1 MB per core), IMTS = 128, weights {0.3, 100, 46875, 2.0}.
  static MachineModel amd_opteron();
  // Whatever this process runs on (cache sizes via sysconf; used by
  // examples so schedules fit the actual machine).
  static MachineModel host();
};

}  // namespace fusedp
