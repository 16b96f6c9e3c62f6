// Compares the four schedulers of the paper on one benchmark:
//   PolyMageDP (this paper), PolyMage-A (greedy + auto-tuning),
//   H-auto (Halide auto-scheduler model), H-manual (expert schedule).
//
//   ./scheduler_compare [--bench=harris] [--scale=8] [--threads=4]
//                       [--machine=xeon|opteron|host]
#include <cstdio>

#include "api/session.hpp"
#include "fusion/dp.hpp"
#include "fusion/halide_auto.hpp"
#include "fusion/incremental.hpp"
#include "fusion/polymage_greedy.hpp"
#include "pipelines/pipelines.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

using namespace fusedp;

namespace {

MachineModel machine_by_name(const std::string& name) {
  if (name == "xeon") return MachineModel::xeon_haswell();
  if (name == "opteron") return MachineModel::amd_opteron();
  return MachineModel::host();
}

// Each candidate grouping is timed through its own Session (warm plan +
// workspace, repeated execute()).
double time_grouping(const Pipeline& pl, const Grouping& g,
                     const std::vector<Buffer>& inputs, int threads,
                     int runs) {
  Options opts;
  opts.num_threads = threads;
  Result<Session> opened = Session::open(pl, g, opts);
  FUSEDP_CHECK(opened.ok(), "Session::open failed in time_grouping");
  Session session = std::move(opened).value();
  session.execute(inputs);  // warmup + allocation
  const RunStats st = measure_min_of_averages(
      [&] { session.execute(inputs); }, /*samples=*/1, runs);
  return st.min_avg_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string bench = cli.get("bench", "harris");
  const std::int64_t scale = cli.get_int("scale", 8);
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  const int runs = static_cast<int>(cli.get_int("runs", 3));
  const MachineModel machine = machine_by_name(cli.get("machine", "host"));

  const PipelineSpec spec = make_benchmark(bench, scale);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, machine);
  const std::vector<Buffer> inputs = spec.make_inputs();

  std::printf("benchmark %s (%d stages), machine model %s, %d threads\n\n",
              pl.name().c_str(), pl.num_stages(), machine.name.c_str(),
              threads);

  struct Row {
    const char* name;
    Grouping g;
  };
  std::vector<Row> rows;

  // PolyMageDP: bounded incremental DP (Algorithm 3).
  IncFusion inc(pl, model);
  rows.push_back({"PolyMageDP", inc.run()});
  std::printf("PolyMageDP: %llu states, %d iterations, %.1f ms grouping\n",
              static_cast<unsigned long long>(inc.stats().groupings_enumerated),
              inc.stats().iterations, inc.stats().seconds * 1e3);

  // PolyMage-A: greedy + auto-tuned (reduced grid for the example).
  PolyMageOptions popt;
  popt.tile_candidates = {32, 64, 128};
  PolyMageGreedy greedy(pl, model, popt);
  PolyMageTuneResult tuned;
  rows.push_back({"PolyMage-A", greedy.tune(
                                    [&](const Grouping& g) {
                                      return time_grouping(pl, g, inputs,
                                                           threads, 1);
                                    },
                                    &tuned)});
  std::printf("PolyMage-A: %d configs tried, best %lldx%lld tol %.1f\n",
              tuned.configs_tried, static_cast<long long>(tuned.best_t1),
              static_cast<long long>(tuned.best_t2), tuned.best_tolerance);

  // H-auto.
  HalideAuto hauto(pl, model);
  rows.push_back({"H-auto", hauto.run()});

  // H-manual.
  rows.push_back({"H-manual", spec.manual_grouping(model)});

  // Correctness: all schedules must match the scalar reference bit-for-bit.
  const std::vector<Buffer> ref = run_reference(pl, inputs);
  for (const Row& row : rows) {
    Options opts;
    opts.num_threads = 1;
    Result<Session> opened = Session::open(pl, row.g, opts);
    FUSEDP_CHECK(opened.ok(),
                 std::string(row.name) + ": Session::open failed");
    Session session = std::move(opened).value();
    Result<std::vector<Buffer>> got = session.run(inputs);
    FUSEDP_CHECK(got.ok(), std::string(row.name) + ": execute failed");
    const std::vector<Buffer>& outs = got.value();
    for (std::size_t o = 0; o < outs.size(); ++o) {
      const Buffer& expect =
          ref[static_cast<std::size_t>(pl.outputs()[o])];
      for (std::int64_t i = 0; i < outs[o].volume(); ++i)
        FUSEDP_CHECK(outs[o].data()[i] == expect.data()[i],
                     std::string(row.name) + " output mismatch");
    }
  }
  std::printf("\nall schedules verified against the scalar reference\n\n");

  std::printf("%-12s %8s %10s   grouping\n", "scheduler", "groups",
              "time(ms)");
  for (const Row& row : rows) {
    const double ms = time_grouping(pl, row.g, inputs, threads, runs);
    std::printf("%-12s %8zu %10.2f   ", row.name, row.g.groups.size(), ms);
    for (const GroupSchedule& gs : row.g.groups)
      if (gs.stages.size() > 1) std::printf("%s", gs.stages.to_string().c_str());
    std::printf("\n");
  }
  return 0;
}
