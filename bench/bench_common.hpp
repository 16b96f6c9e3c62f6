// Shared infrastructure for the table/figure reproduction benches.
//
// Environment knobs (also settable as --flags on each bench binary):
//   FUSEDP_SCALE    image-size divisor vs. the paper's sizes (default 2)
//   FUSEDP_SAMPLES  timing samples (paper: 5, default 2)
//   FUSEDP_RUNS     runs per sample (paper: 500, default 2)
//   FUSEDP_THREADS  the "16 cores" column's thread count (default 16)
//   FUSEDP_TUNE     PolyMage-A tuner grid: "small" (default) or "paper"
// `--pool-backend=1` routes timed runs through the persistent work-stealing
// pool instead of the OpenMP region (same outputs, different executor).
#pragma once

#include <string>
#include <vector>

#include "fusion/grouping.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "support/cli.hpp"

namespace fusedp::bench {

struct BenchConfig {
  std::int64_t scale = 2;
  int samples = 2;
  int runs = 2;
  int threads = 16;
  std::string tune = "small";
  MachineModel machine;
  // The executor configuration every timed run uses, set explicitly (and
  // recorded in each bench's JSON artifact) so table numbers are never at
  // the mercy of drifting ExecOptions defaults.  --mode/--pool-backend
  // override the defaults.
  ExecOptions exec;

  static BenchConfig from_cli(const Cli& cli, MachineModel machine);
  void print_header(const char* what) const;
};

// The paper's four compared schedulers.
enum class Scheduler { kPolyMageDp, kPolyMageA, kHAuto, kHManual };
const char* scheduler_name(Scheduler s);

// Builds the grouping a scheduler chooses for this pipeline/machine.
// PolyMage-A runs its auto-tuning loop (timing real executions with
// `tune_threads` threads).
Grouping schedule(Scheduler which, const PipelineSpec& spec,
                  const CostModel& model, const BenchConfig& cfg,
                  int tune_threads);

// min-of-averages execution time (ms) of `g` at `threads`.  `base` fixes
// the executor configuration being measured (mode, backend, ...);
// `threads` overrides base.num_threads.
double time_grouping_ms(const Pipeline& pl, const Grouping& g,
                        const std::vector<Buffer>& inputs, int threads,
                        int samples, int runs, ExecOptions base = {});

// Resolves the `--out` flag (FUSEDP_OUT env fallback).  Unset, BENCH_*.json
// artifacts land in the repository root — the canonical home of trajectory
// files — rather than wherever the binary happens to run.
std::string bench_out_path(const Cli& cli, const char* default_filename);

// The ExecOptions fields as JSON members (no surrounding braces), one
// per line prefixed with `indent`, trailing comma included — ready to
// splice into a bench's result object so every artifact records exactly
// which executor configuration produced its numbers.
std::string exec_options_json(const ExecOptions& opts, const char* indent);

// A complete `"provenance": {...},` JSON member (prefixed with `indent`,
// trailing comma included) recording where the artifact's numbers came
// from: the git commit the build was configured at, the row-kernel table
// the process runs (avx2 or baseline), the full MachineModel
// (cache sizes, IMTS, cost weights), and the resolved executor options
// (`"executor": null` when `exec` is null — scheduling-only benches).
// Every BENCH_*.json carries this block so a number can always be traced
// back to the code and configuration that produced it.
std::string provenance_json(const MachineModel& machine,
                            const ExecOptions* exec, const char* indent);

}  // namespace fusedp::bench
