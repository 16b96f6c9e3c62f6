// Cross-backend differential oracle.
//
// Runs a pipeline through every execution backend — scalar-tiled
// evaluator, compiled scalar program, vectorized backend with and without
// superop fusion, OpenMP and work-stealing-pool tile loops — over
// randomized valid groupings, tile sizes (including size-1, oversized and
// non-divisible) and thread counts, and compares every materialized stage
// bit-for-bit against the unfused scalar reference (run_reference).
//
// Each seed of diff_seed/diff_pipeline also draws the row-kernel table its
// runs use (RowKernelIsa: baseline or, on hosts that have it, AVX2), so a
// soak over many seeds covers both builds of the compiled kernels.
//
// On mismatch the result carries a minimized DivergenceRecord: the earliest
// diverging stage in topo order, the exact coordinate, both bit patterns,
// the active ExecOptions, row-kernel table and schedule text, and the
// generator seed — everything needed for a one-line replay
// (`fusedp_verify --replay SEED`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/compile.hpp"
#include "runtime/executor.hpp"
#include "verify/pipegen.hpp"

namespace fusedp::verify {

struct DivergenceRecord {
  std::uint64_t seed = 0;
  std::string pipeline;   // generated pipeline name ("gen<seed>")
  std::string backend;    // diverging backend config label
  std::string stage;      // earliest diverging stage (topo order)
  int rank = 0;
  std::int64_t coord[kMaxDims] = {0, 0, 0, 0};
  std::uint32_t want_bits = 0;  // scalar reference
  std::uint32_t got_bits = 0;
  float want = 0.0f;
  float got = 0.0f;
  ExecOptions opts;       // full options of the diverging run
  RowKernelIsa row_kernels = RowKernelIsa::kBaseline;  // table that ran
  std::string schedule;   // grouping_to_text of the diverging grouping
  // Non-empty when the run threw instead of producing wrong bits; the
  // record then localizes the failure, not a coordinate.
  std::string error;

  // Multi-line human-readable report incl. the replay command.
  std::string to_string() const;
};

struct DifferOptions {
  int groupings_per_seed = 3;  // random groupings beyond the singleton one
  int max_threads = 3;
  PipeGenOptions gen;
};

struct DiffResult {
  bool diverged = false;
  DivergenceRecord record;  // valid only when diverged
  int runs = 0;             // executor configurations exercised
  RowKernelIsa row_kernels = RowKernelIsa::kBaseline;  // table every run used
};

// Generates pipeline + inputs for `seed` and cross-checks all backends.
DiffResult diff_seed(std::uint64_t seed, const DifferOptions& opts = {});

// Same oracle over a caller-provided pipeline; `seed` only labels the
// record and seeds config randomization.
DiffResult diff_pipeline(const Pipeline& pl,
                         const std::vector<Buffer>& inputs,
                         std::uint64_t seed, const DifferOptions& opts = {});

// Cross-checks one specific schedule (all backend configs, no random
// groupings) on the row-kernel table this process runs — fusedp_cli
// --verify runs its chosen grouping through this.
DiffResult diff_grouping(const Pipeline& pl, const Grouping& grouping,
                         const std::vector<Buffer>& inputs,
                         std::uint64_t seed, const DifferOptions& opts = {});

}  // namespace fusedp::verify
