// A/B benchmark for the vectorized row-kernel backend: times all seven
// registered pipelines under the PolyMageDP schedule with the compiled
// executor, once with ExecOptions::vector_backend off (the plain
// one-row-per-op program — the prior executor's shape) and once with it on
// (superop fusion + row-register allocation + SIMD kernels + zero-copy load
// forwarding).  Writes BENCH_vector.json with per-pipeline ns/pixel for
// both variants and the geomean speedup.  Outputs of the two variants are
// bit-identical (asserted continuously by tests/test_compile.cpp); this
// bench only measures the execution-strategy difference.
//
// Besides the whole-pipeline numbers, the artifact carries a per-group
// breakdown (observer-measured wall time per fused group, min over
// `samples` observed runs) so a regression like campipe's vector slowdown
// is attributable to the specific group that causes it instead of hiding
// in the pipeline total.
//
// Groups that measure slower under the vector backend additionally land in
// a machine-readable `regressions` array with a suspected cause
// (libm-fallback / gather-bound / fusion-pessimized) from the static
// benefit profile (runtime/benefit.hpp), so CI and tools/bench_compare.py
// can gate on them without re-deriving the attribution.
//
//   --scale/--samples/--runs/--threads   as bench_smoke
//   --fma=1          additionally contract fused mul-adds into real FMA
//                    (changes rounding; pair with -DFUSEDP_NATIVE=ON)
//   --fastmath=1     enable ExecOptions::fast_transcendentals (approximate
//                    exp/log/pow; not bit-exact against libm)
//   --out=PATH       artifact path (default: <repo root>/BENCH_vector.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fusion/incremental.hpp"
#include "model/cost.hpp"
#include "observe/observe.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

using namespace fusedp;

namespace {

struct GroupDelta {
  std::string stages;      // comma-joined member stage names
  double scalar_ms = 0.0;  // min observed group wall time, scalar-compiled
  double vector_ms = 0.0;  // min observed group wall time, vector backend
  double speedup() const { return scalar_ms / vector_ms; }
};

// One entry of the machine-readable `regressions` array: a group that
// measured slower under the vector backend, attributed to a suspected
// cause so the artifact names the mechanism, not just the number.
struct Regression {
  std::string pipeline;
  std::string stages;
  double speedup = 0.0;
  double delta_ms = 0.0;  // vector_ms - scalar_ms (positive = loss)
  BenefitCause cause = BenefitCause::kNone;
};

struct Row {
  std::string name;
  std::int64_t output_pixels = 0;
  double scalar_ns = 0.0;  // vector_backend = false
  double vector_ns = 0.0;  // vector_backend = true
  double speedup() const { return scalar_ns / vector_ns; }
  std::vector<GroupDelta> groups;  // per-group attribution of the delta
};

// Per-group wall time (ms) of one executor configuration: min over
// `samples` observed runs, in the plan's group execution order.  Observed
// separately from the timed runs above so observation cost never pollutes
// the headline numbers.
std::vector<std::pair<std::string, double>> observed_group_ms(
    const Pipeline& pl, const Grouping& g, const std::vector<Buffer>& inputs,
    const ExecOptions& opts, int samples) {
  Executor ex(pl, g, opts);
  Workspace ws;
  ex.run(inputs, ws);  // warm-up
  std::vector<std::pair<std::string, double>> best;
  observe::TraceCollector tc(/*keep_tiles=*/false);
  for (int s = 0; s < samples; ++s) {
    tc.clear();
    ex.run(inputs, ws, &tc, nullptr);
    const observe::RunTrace* tr = tc.last();
    if (tr == nullptr) continue;
    if (best.empty())
      for (const observe::GroupRecord& gr : tr->groups)
        best.emplace_back(gr.stages, gr.seconds * 1e3);
    else
      for (std::size_t i = 0; i < tr->groups.size() && i < best.size(); ++i)
        best[i].second = std::min(best[i].second, tr->groups[i].seconds * 1e3);
  }
  return best;
}

std::int64_t output_pixels_of(const Pipeline& pl) {
  std::int64_t px = 0;
  for (int s : pl.outputs()) px += pl.stage(s).domain.volume();
  return px;
}

std::string joined_names(const Pipeline& pl, const GroupPlan& g) {
  std::string names;
  for (int s : g.stage_order) {
    if (!names.empty()) names += ",";
    names += pl.stage(s).name;
  }
  return names;
}

// Attributes a regressed group: the vector plan's static benefit cause, or
// (measured slower with no static excuse) fusion-pessimized.
Regression attribute(const Pipeline& pl, const ExecutablePlan& plan,
                     const char* pipeline, const GroupDelta& d) {
  Regression reg;
  reg.pipeline = pipeline;
  reg.stages = d.stages;
  reg.speedup = d.speedup();
  reg.delta_ms = d.vector_ms - d.scalar_ms;
  reg.cause = BenefitCause::kFusionPessimized;
  for (const GroupPlan& g : plan.groups) {
    if (joined_names(pl, g) != d.stages) continue;
    if (g.benefit_cause != BenefitCause::kNone) reg.cause = g.benefit_cause;
    break;
  }
  return reg;
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
  const bool allow_fma = cli.get_int_env("fma", 0) != 0;
  const bool fastmath = cli.get_int_env("fastmath", 0) != 0;
  const std::string only = cli.get_env("only", "");
  const std::string out_path =
      bench::bench_out_path(cli, "BENCH_vector.json");

  ExecOptions base;
  base.num_threads = threads;
  base.mode = EvalMode::kRow;

  ExecOptions scalar_opts = base;
  scalar_opts.vector_backend = false;
  ExecOptions vector_opts = base;
  vector_opts.vector_backend = true;
  vector_opts.allow_fma = allow_fma;
  vector_opts.fast_transcendentals = fastmath;

  std::fprintf(stderr,
               "bench_vector: scale=%lld threads=%d samples=%d runs=%d "
               "fma=%d fastmath=%d\n",
               static_cast<long long>(scale), threads, samples, runs,
               allow_fma ? 1 : 0, fastmath ? 1 : 0);

  const char* keys[] = {"blur",        "unsharp", "harris", "bilateral",
                        "interpolate", "campipe", "pyramid"};
  std::vector<Row> rows;
  std::vector<Regression> regressions;
  double log_speedup = 0.0;
  for (const char* key : keys) {
    if (!only.empty() && only != key) continue;
    const PipelineSpec spec = make_benchmark(key, scale);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, machine);
    IncFusion inc(pl, model);
    const Grouping g = inc.run();
    const std::vector<Buffer> inputs = spec.make_inputs();

    Row r;
    r.name = key;
    r.output_pixels = output_pixels_of(pl);
    const double px = static_cast<double>(
        std::max<std::int64_t>(r.output_pixels, 1));
    r.scalar_ns = bench::time_grouping_ms(pl, g, inputs, threads, samples,
                                          runs, scalar_opts) *
                  1e6 / px;
    r.vector_ns = bench::time_grouping_ms(pl, g, inputs, threads, samples,
                                          runs, vector_opts) *
                  1e6 / px;
    log_speedup += std::log(r.speedup());

    // Per-group attribution: the same grouping's fused groups, timed under
    // both backends (min of `samples` observed runs each).
    ExecOptions so = scalar_opts;
    so.num_threads = threads;
    ExecOptions vo = vector_opts;
    vo.num_threads = threads;
    const auto sg = observed_group_ms(pl, g, inputs, so, samples);
    const auto vg = observed_group_ms(pl, g, inputs, vo, samples);
    for (std::size_t i = 0; i < sg.size() && i < vg.size(); ++i) {
      GroupDelta d;
      d.stages = sg[i].first;
      d.scalar_ms = sg[i].second;
      d.vector_ms = vg[i].second;
      r.groups.push_back(std::move(d));
    }

    rows.push_back(r);
    std::fprintf(stderr,
                 "  %-12s scalar-compiled %8.3f ns/px   vector %8.3f ns/px "
                 "  %.2fx\n",
                 key, r.scalar_ns, r.vector_ns, r.speedup());
    // Regression attribution reads the vector executor's plan: its static
    // benefit causes name a suspected cause for every group that measured
    // slower.
    const Executor vex(pl, g, vo);
    for (const GroupDelta& d : r.groups) {
      if (d.speedup() >= 1.0) continue;
      Regression reg = attribute(pl, vex.plan(), key, d);
      std::fprintf(stderr,
                   "    regressed group [%s]: scalar %8.3f ms  vector "
                   "%8.3f ms  %.2fx  (%s)\n",
                   d.stages.c_str(), d.scalar_ms, d.vector_ms, d.speedup(),
                   benefit_cause_name(reg.cause));
      regressions.push_back(std::move(reg));
    }
  }
  if (rows.empty()) {
    std::fprintf(stderr, "bench_vector: no pipeline matched --only=%s\n",
                 only.c_str());
    return 1;
  }
  const double geo_speedup =
      std::exp(log_speedup / static_cast<double>(rows.size()));
  std::fprintf(stderr, "  geomean speedup: %.2fx\n", geo_speedup);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_vector: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"vector\",\n"
      << bench::provenance_json(machine, &vector_opts, "  ")
      << "  \"schedule_source\": \"PolyMageDP\",\n"
      << "  \"baseline\": \"scalar-compiled\",\n"
      << "  \"variant\": \"" << (allow_fma ? "vector+fma" : "vector")
      << "\",\n"
      << bench::exec_options_json(vector_opts, "  ")
      << "  \"scale\": " << scale << ",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"runs\": " << runs << ",\n"
      << "  \"machine\": {\n"
      << "    \"name\": \"" << machine.name << "\",\n"
      << "    \"cores\": " << machine.cores << ",\n"
      << "    \"vector_width_floats\": " << machine.vector_width_floats
      << "\n"
      << "  },\n"
      << "  \"pipelines\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"" << r.name
        << "\", \"output_pixels\": " << r.output_pixels
        << ", \"scalar_compiled_ns_per_pixel\": " << r.scalar_ns
        << ", \"vector_ns_per_pixel\": " << r.vector_ns
        << ", \"speedup\": " << r.speedup() << ", \"groups\": [\n";
    for (std::size_t j = 0; j < r.groups.size(); ++j) {
      const GroupDelta& d = r.groups[j];
      out << "      {\"stages\": \"" << d.stages
          << "\", \"scalar_ms\": " << d.scalar_ms
          << ", \"vector_ms\": " << d.vector_ms
          << ", \"speedup\": " << d.speedup() << "}"
          << (j + 1 < r.groups.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"regressions\": [\n";
  for (std::size_t i = 0; i < regressions.size(); ++i) {
    const Regression& reg = regressions[i];
    out << "    {\"pipeline\": \"" << reg.pipeline << "\", \"stages\": \""
        << reg.stages << "\", \"speedup\": " << reg.speedup
        << ", \"delta_ms\": " << reg.delta_ms << ", \"cause\": \""
        << benefit_cause_name(reg.cause) << "\"}"
        << (i + 1 < regressions.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"geomean_speedup\": " << geo_speedup << "\n"
      << "}\n";
  std::fprintf(stderr, "bench_vector: wrote %s\n", out_path.c_str());
  return 0;
}
