// Supports the paper's Section 3.3 complexity claim: on a linear n-stage
// pipeline the DP evaluates exactly n(n+1)/2 states — effectively covering
// all 2^(n-1) groupings — in O(n^2) time.  Prints states and wall time as n
// grows, plus the greedy baselines' times for contrast.
#include <cstdio>

#include "bench_common.hpp"
#include "fusion/dp.hpp"
#include "fusion/halide_auto.hpp"
#include "fusion/polymage_greedy.hpp"
#include "support/timing.hpp"

using namespace fusedp;
using namespace fusedp::bench;

namespace {

std::unique_ptr<Pipeline> linear_pipeline(int n, std::int64_t hw) {
  auto pl = std::make_unique<Pipeline>("linear" + std::to_string(n));
  const int img = pl->add_input("img", {hw, hw});
  const Stage* prev = nullptr;
  for (int i = 0; i < n; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    StageBuilder b(*pl, pl->add_stage(name, {hw, hw}));
    b.define((prev == nullptr
                  ? b.in(img, {0, -1}) + b.in(img, {0, 1})
                  : b.at(*prev, {0, -1}) + b.at(*prev, {0, 1})) *
             0.5f);
    prev = &b.stage();
  }
  pl->finalize();
  return pl;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const BenchConfig cfg =
      BenchConfig::from_cli(cli, MachineModel::xeon_haswell());
  cfg.print_header(
      "Section 3.3: DP state count / time on linear n-stage pipelines");

  std::printf("%6s %12s %12s %12s | %10s %10s %10s\n", "n", "states",
              "n(n+1)/2", "groupings", "DP ms", "greedy ms", "H-auto ms");
  for (int n : {4, 8, 16, 24, 32, 48, 63}) {
    const auto pl = linear_pipeline(n, 512);
    const CostModel model(*pl, cfg.machine);
    DpFusion dp(*pl, model);
    WallTimer t;
    dp.run();
    const double dp_ms = t.millis();

    t.restart();
    const PolyMageGreedy greedy(*pl, model);
    greedy.run(64, 128, 0.4);
    const double greedy_ms = t.millis();

    t.restart();
    const HalideAuto hauto(*pl, model);
    hauto.run();
    const double hauto_ms = t.millis();

    const std::string coverage =
        n <= 40 ? std::to_string(1ull << (n - 1)) : ">=2^40";
    std::printf("%6d %12llu %12d %12s | %10.2f %10.2f %10.2f\n", n,
                static_cast<unsigned long long>(
                    dp.stats().groupings_enumerated),
                n * (n + 1) / 2, coverage.c_str(), dp_ms, greedy_ms,
                hauto_ms);
  }
  std::printf(
      "\n# 'groupings' = 2^(n-1) valid groupings the DP effectively covers\n"
      "# with only n(n+1)/2 memoized states (paper Section 2.4/3.3).\n");
  return 0;
}
