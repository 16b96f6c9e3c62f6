// google-benchmark micro-benchmarks of the substrates: partition
// enumeration, reachability, region propagation, cost evaluation, the DP
// grouper, and the row evaluator.  Not tied to a paper table; useful for
// tracking substrate regressions.
#include <benchmark/benchmark.h>

#include "analysis/regions.hpp"
#include "fusion/dp.hpp"
#include "graph/partitions.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"

namespace fusedp {
namespace {

void BM_PartitionEnumeration(benchmark::State& state) {
  NodeSet s;
  for (int i = 0; i < state.range(0); ++i) s = s.with(i);
  for (auto _ : state) {
    std::uint64_t count = 0;
    for_each_partition(s, [&](std::span<const NodeSet> parts) {
      count += parts.size();
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PartitionEnumeration)->Arg(4)->Arg(6)->Arg(8);

void BM_ReachabilityClosure(benchmark::State& state) {
  const PipelineSpec spec = make_benchmark("interpolate", 16);
  const Pipeline& base = *spec.pipeline;
  for (auto _ : state) {
    Digraph g(base.num_stages());
    for (int i = 0; i < base.num_stages(); ++i)
      base.graph().successors(i).for_each([&](int t) { g.add_edge(i, t); });
    g.finalize();
    benchmark::DoNotOptimize(g.reachable_from(0).bits());
  }
}
BENCHMARK(BM_ReachabilityClosure);

void BM_RegionPropagation(benchmark::State& state) {
  const PipelineSpec spec = make_benchmark("harris", 8);
  const Pipeline& pl = *spec.pipeline;
  NodeSet group;
  for (int i = 0; i < pl.num_stages(); ++i) group = group.with(i);
  const AlignResult align = solve_alignment(pl, group);
  Box tile;
  tile.rank = align.num_classes;
  for (int d = 0; d < tile.rank; ++d) {
    tile.lo[d] = 32;
    tile.hi[d] = 95;
  }
  for (auto _ : state) {
    const GroupRegions r =
        compute_group_regions(pl, group, align, tile, true);
    benchmark::DoNotOptimize(r.overlap_volume);
  }
}
BENCHMARK(BM_RegionPropagation);

void BM_CostEvaluation(benchmark::State& state) {
  const PipelineSpec spec = make_benchmark("harris", 8);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  NodeSet group;
  for (int i = 0; i < pl.num_stages(); ++i) group = group.with(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.cost(group).cost);
  }
}
BENCHMARK(BM_CostEvaluation);

void BM_DpGrouping(benchmark::State& state) {
  const PipelineSpec spec = make_benchmark("harris", 8);
  const CostModel model(*spec.pipeline, MachineModel::xeon_haswell());
  for (auto _ : state) {
    DpFusion dp(*spec.pipeline, model);
    benchmark::DoNotOptimize(dp.run().total_cost);
  }
}
BENCHMARK(BM_DpGrouping);

void BM_CompiledExecutorThroughput(benchmark::State& state) {
  const PipelineSpec spec = make_blur(512, 512);
  const Pipeline& pl = *spec.pipeline;
  const CostModel model(pl, MachineModel::xeon_haswell());
  DpFusion dp(pl, model);
  const Grouping g = dp.run();
  const std::vector<Buffer> inputs = spec.make_inputs();
  ExecOptions opts;
  opts.num_threads = 1;
  Executor ex(pl, g, opts);
  Workspace ws;
  ex.run(inputs, ws);
  for (auto _ : state) ex.run(inputs, ws);
  state.SetItemsProcessed(state.iterations() * pl.total_volume());
}
BENCHMARK(BM_CompiledExecutorThroughput);

}  // namespace
}  // namespace fusedp

BENCHMARK_MAIN();
