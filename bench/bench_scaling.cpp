// Thread-scaling sweep through the persistent work-stealing pool: the six
// paper benchmarks (Table 2) under the PolyMageDP schedule, timed at 1, 2,
// 4 and 8 threads on BOTH executors — the per-run OpenMP parallel region
// (the baseline every other bench uses) and the process-wide WorkPool
// (ExecOptions::pool_backend).  Outputs of the two are bit-identical
// (tests/test_pool.cpp, the differ's vector-pool rung); this bench measures
// only the execution-strategy difference, per thread count.
//
// Writes BENCH_scaling.json: per pipeline and thread count, ms for both
// backends, each backend's self-relative speedup over its own 1-thread run,
// and the pool/OpenMP ratio, plus the pool's cross-lane steal counters.
// Numbers above the hardware core count are oversubscription, not scaling —
// the artifact records `hardware_cores` so readers can tell which is which.
//
//   --scale/--samples/--runs     as bench_smoke (defaults 2/2/2)
//   --only=KEY                   run a single pipeline
//   --max-threads=N              clip the 1/2/4/8 ladder (default 8)
//   --out=PATH                   default: <repo root>/BENCH_scaling.json
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fusion/incremental.hpp"
#include "model/cost.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "runtime/pool.hpp"
#include "support/cli.hpp"

using namespace fusedp;

namespace {

struct Cell {
  int threads = 0;
  double openmp_ms = 0.0;
  double pool_ms = 0.0;
  std::uint64_t pool_steals = 0;  // cross-lane steal events during the pool runs
};

struct Row {
  std::string key;
  std::string title;
  std::int64_t output_pixels = 0;
  std::vector<Cell> cells;  // one per thread count, ascending
};

std::int64_t output_pixels_of(const Pipeline& pl) {
  std::int64_t px = 0;
  for (int s : pl.outputs()) px += pl.stage(s).domain.volume();
  return px;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::int64_t scale = cli.get_int_env("scale", 2);
  const int samples = static_cast<int>(cli.get_int_env("samples", 2));
  const int runs = static_cast<int>(cli.get_int_env("runs", 2));
  const int max_threads = static_cast<int>(cli.get_int_env("max-threads", 8));
  const std::string only = cli.get_env("only", "");
  const std::string out_path = bench::bench_out_path(cli, "BENCH_scaling.json");
  const MachineModel machine = MachineModel::host();
  const int hw_cores =
      static_cast<int>(std::thread::hardware_concurrency());

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  ExecOptions openmp_opts;
  openmp_opts.mode = EvalMode::kRow;
  ExecOptions pool_opts = openmp_opts;
  pool_opts.pool_backend = true;

  std::fprintf(stderr,
               "bench_scaling: scale=%lld samples=%d runs=%d threads up to "
               "%d (hardware cores: %d)\n",
               static_cast<long long>(scale), samples, runs, max_threads,
               hw_cores);
  if (hw_cores < max_threads)
    std::fprintf(stderr,
                 "# thread counts above %d are oversubscribed on this "
                 "machine; their numbers measure scheduling overhead, not "
                 "parallel speedup\n",
                 hw_cores);

  std::vector<Row> rows;
  for (const BenchmarkInfo& info : benchmark_list()) {
    if (!only.empty() && only != info.key) continue;
    const PipelineSpec spec = make_benchmark(info.key, scale);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, machine);
    IncFusion inc(pl, model);
    const Grouping g = inc.run();
    const std::vector<Buffer> inputs = spec.make_inputs();

    Row r;
    r.key = info.key;
    r.title = info.title;
    r.output_pixels = output_pixels_of(pl);
    for (int t : thread_counts) {
      Cell c;
      c.threads = t;
      c.openmp_ms = bench::time_grouping_ms(pl, g, inputs, t, samples, runs,
                                            openmp_opts);
      const PoolStats before = WorkPool::instance().stats();
      c.pool_ms =
          bench::time_grouping_ms(pl, g, inputs, t, samples, runs, pool_opts);
      c.pool_steals =
          WorkPool::instance().stats().steal_events - before.steal_events;
      r.cells.push_back(c);
      std::fprintf(stderr,
                   "  %-12s %d thr  openmp %9.3f ms  pool %9.3f ms  "
                   "(ratio %.3f, %llu steals)\n",
                   info.key.c_str(), t, c.openmp_ms, c.pool_ms,
                   c.openmp_ms / c.pool_ms,
                   static_cast<unsigned long long>(c.pool_steals));
    }
    rows.push_back(std::move(r));
  }
  if (rows.empty()) {
    std::fprintf(stderr, "bench_scaling: no pipeline matched --only=%s\n",
                 only.c_str());
    return 1;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_scaling: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"scaling\",\n"
      << bench::provenance_json(machine, &pool_opts, "  ")
      << "  \"schedule_source\": \"PolyMageDP\",\n"
      << "  \"backends\": [\"openmp\", \"pool\"],\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"samples\": " << samples << ",\n"
      << "  \"runs\": " << runs << ",\n"
      << "  \"hardware_cores\": " << hw_cores << ",\n"
      << "  \"note\": \"speedups are self-relative (each backend vs its own "
         "1-thread run); thread counts above hardware_cores are "
         "oversubscribed and measure overhead, not parallelism\",\n"
      << "  \"pipelines\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double o1 = r.cells.front().openmp_ms;
    const double p1 = r.cells.front().pool_ms;
    out << "    {\"name\": \"" << r.key
        << "\", \"output_pixels\": " << r.output_pixels << ", \"cells\": [\n";
    for (std::size_t j = 0; j < r.cells.size(); ++j) {
      const Cell& c = r.cells[j];
      out << "      {\"threads\": " << c.threads
          << ", \"openmp_ms\": " << c.openmp_ms
          << ", \"pool_ms\": " << c.pool_ms
          << ", \"openmp_speedup\": " << (o1 / c.openmp_ms)
          << ", \"pool_speedup\": " << (p1 / c.pool_ms)
          << ", \"pool_vs_openmp\": " << (c.openmp_ms / c.pool_ms)
          << ", \"pool_steals\": " << c.pool_steals << "}"
          << (j + 1 < r.cells.size() ? "," : "") << "\n";
    }
    out << "    ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
  std::fprintf(stderr, "bench_scaling: wrote %s\n", out_path.c_str());
  return 0;
}
