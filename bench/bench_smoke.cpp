// Smoke benchmark for the executor: times all seven registered pipelines
// under the PolyMageDP schedule and writes a machine-readable
// BENCH_smoke.json (ns/pixel per pipeline + machine parameters).  CI runs
// this in Release and uploads the JSON as an artifact; no gating.
//
// A/B lever:
//   --mode=scalar           per-point scalar evaluator instead of the
//                           compiled row kernels
//
// --overhead-ab runs the request-governance overhead A/B instead: each
// pipeline timed ungoverned (no deadline, unlimited budget) and governed
// (far-future deadline armed + large finite budget — the full bookkeeping
// path with nothing ever tripping), writing BENCH_overhead.json and
// asserting the governed/ungoverned geomean ratio stays within
// --tolerance (default 1%).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fusion/incremental.hpp"
#include "model/cost.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "runtime/governor.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/timing.hpp"

using namespace fusedp;

namespace {

struct PipelineResult {
  std::string name;
  double ms = 0.0;
  std::int64_t output_pixels = 0;
  double ns_per_pixel = 0.0;
};

std::int64_t output_pixels_of(const Pipeline& pl) {
  std::int64_t px = 0;
  for (int s : pl.outputs()) px += pl.stage(s).domain.volume();
  return px;
}

// In-process governance-overhead A/B.  Both arms run the identical executor
// configuration; the governed arm adds exactly what a real governed request
// pays when nothing trips: one armed (but far-future) deadline sampled per
// tile, plus governor bookkeeping on every workspace/arena growth under a
// budget that always admits.
int run_overhead_ab(const Cli& cli, const ExecOptions& opts,
                    std::int64_t scale, int samples, int runs,
                    const MachineModel& machine) {
  const double tolerance = cli.get_double("tolerance", 0.01);
  const std::string out_path =
      bench::bench_out_path(cli, "BENCH_overhead.json");

  struct AbResult {
    std::string name;
    double base_ms = 0.0;
    double governed_ms = 0.0;
    double ratio = 0.0;
  };
  std::vector<AbResult> results;
  double log_sum = 0.0;

  const char* keys[] = {"blur", "unsharp", "harris", "pyramid"};
  ResourceGovernor& gov = ResourceGovernor::instance();
  for (const char* key : keys) {
    const PipelineSpec spec = make_benchmark(key, scale);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, machine);
    IncFusion inc(pl, model);
    const Grouping g = inc.run();
    const std::vector<Buffer> inputs = spec.make_inputs();
    Executor ex(pl, g, opts);
    Workspace ws;

    // Ungoverned arm: no deadline pointer, unlimited budget.
    gov.set_budget(0);
    ex.run(inputs, ws);  // warm-up
    const RunStats base = measure_min_of_averages(
        [&] { ex.run(inputs, ws); }, samples, runs);

    // Governed arm: far-future deadline + a budget that always admits.
    gov.set_budget(std::int64_t{1} << 40);
    const Deadline dl = Deadline::after(3600.0);
    ex.run(inputs, ws, nullptr, &dl);  // warm-up
    const RunStats governed = measure_min_of_averages(
        [&] { ex.run(inputs, ws, nullptr, &dl); }, samples, runs);
    gov.set_budget(0);

    AbResult r;
    r.name = key;
    r.base_ms = base.min_avg_ms;
    r.governed_ms = governed.min_avg_ms;
    r.ratio = r.governed_ms / r.base_ms;
    log_sum += std::log(r.ratio);
    results.push_back(r);
    std::fprintf(stderr, "  %-12s base %9.3f ms  governed %9.3f ms  x%.4f\n",
                 key, r.base_ms, r.governed_ms, r.ratio);
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(results.size()));
  const bool pass = geomean <= 1.0 + tolerance;
  std::fprintf(stderr,
               "  governance overhead geomean: x%.4f (tolerance x%.4f) -> "
               "%s\n",
               geomean, 1.0 + tolerance, pass ? "PASS" : "FAIL");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_smoke: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"governance_overhead_ab\",\n"
      << bench::provenance_json(machine, &opts, "  ")
      << "  \"scale\": " << scale << ",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"runs\": " << runs << ",\n"
      << "  \"tolerance\": " << tolerance << ",\n"
      << "  \"pipelines\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AbResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"base_ms\": " << r.base_ms
        << ", \"governed_ms\": " << r.governed_ms
        << ", \"ratio\": " << r.ratio << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"geomean_ratio\": " << geomean << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n"
      << "}\n";
  std::fprintf(stderr, "bench_smoke: wrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::int64_t scale = cli.get_int_env("scale", 2);
  const int samples = static_cast<int>(cli.get_int_env("samples", 3));
  const int runs = static_cast<int>(cli.get_int_env("runs", 3));
  const MachineModel machine = MachineModel::host();
  const int threads =
      static_cast<int>(cli.get_int_env("threads", machine.cores));
  const std::string out_path =
      bench::bench_out_path(cli, "BENCH_smoke.json");
  const std::string mode_str = cli.get_env("mode", "row");
  const std::string only = cli.get_env("only", "");

  ExecOptions opts;
  opts.num_threads = threads;
  opts.mode = mode_str == "scalar" ? EvalMode::kScalar : EvalMode::kRow;

  std::fprintf(stderr,
               "bench_smoke: scale=%lld threads=%d samples=%d runs=%d "
               "mode=%s\n",
               static_cast<long long>(scale), threads, samples, runs,
               mode_str.c_str());

  if (cli.has("overhead-ab"))
    return run_overhead_ab(cli, opts, scale, samples, runs, machine);

  const char* keys[] = {"blur",        "unsharp", "harris", "bilateral",
                        "interpolate", "campipe", "pyramid"};
  std::vector<PipelineResult> results;
  double log_sum = 0.0;
  for (const char* key : keys) {
    if (!only.empty() && only != key) continue;
    const PipelineSpec spec = make_benchmark(key, scale);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, machine);
    IncFusion inc(pl, model);
    const Grouping g = inc.run();
    const std::vector<Buffer> inputs = spec.make_inputs();
    Executor ex(pl, g, opts);
    Workspace ws;
    ex.run(inputs, ws);  // warm-up (allocations, page faults)
    const RunStats stats = measure_min_of_averages(
        [&] { ex.run(inputs, ws); }, samples, runs);

    PipelineResult r;
    r.name = key;
    r.ms = stats.min_avg_ms;
    r.output_pixels = output_pixels_of(pl);
    r.ns_per_pixel =
        r.ms * 1e6 / static_cast<double>(std::max<std::int64_t>(r.output_pixels, 1));
    log_sum += std::log(r.ns_per_pixel);
    results.push_back(r);
    std::fprintf(stderr, "  %-12s %10.3f ms  %8.3f ns/px\n", key, r.ms,
                 r.ns_per_pixel);
  }
  if (results.empty()) {
    std::fprintf(stderr, "bench_smoke: no pipeline matched --only=%s\n",
                 only.c_str());
    return 1;
  }
  const double geomean =
      std::exp(log_sum / static_cast<double>(results.size()));
  std::fprintf(stderr, "  geomean: %.3f ns/px\n", geomean);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_smoke: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"smoke\",\n"
      << bench::provenance_json(machine, &opts, "  ")
      << "  \"schedule_source\": \"PolyMageDP\",\n"
      << "  \"backend\": \""
      << (opts.mode == EvalMode::kScalar ? "scalar" : "vector")
      << "\",\n"
      << bench::exec_options_json(opts, "  ")
      << "  \"scale\": " << scale << ",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"runs\": " << runs << ",\n"
      << "  \"machine\": {\n"
      << "    \"name\": \"" << machine.name << "\",\n"
      << "    \"cores\": " << machine.cores << ",\n"
      << "    \"l1_bytes\": " << machine.l1_bytes << ",\n"
      << "    \"l2_bytes\": " << machine.l2_bytes << ",\n"
      << "    \"vector_width_floats\": " << machine.vector_width_floats
      << ",\n"
      << "    \"innermost_tile\": " << machine.innermost_tile << "\n"
      << "  },\n"
      << "  \"pipelines\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PipelineResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"ms\": " << r.ms
        << ", \"output_pixels\": " << r.output_pixels
        << ", \"ns_per_pixel\": " << r.ns_per_pixel << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"geomean_ns_per_pixel\": " << geomean << "\n"
      << "}\n";
  std::fprintf(stderr, "bench_smoke: wrote %s\n", out_path.c_str());
  return 0;
}
