// bench_chaos: the standard chaos-soak configuration as a committed
// artifact (BENCH_chaos.json).
//
// Runs the ISSUE-6 acceptance soak — 8 concurrent Sessions, 5000 requests,
// ~30% fault injection, random per-request deadlines, constrained memory
// budget — and records every terminal-state counter plus the clean/dirty
// verdict with full provenance.  Exit code 0 iff the soak was clean.
//
//   bench_chaos [--sessions=8] [--requests=5000] [--fault-rate=0.3]
//               [--deadline-rate=0.3] [--budget-kb=192] [--seconds=0]
//               [--seed=1] [--out=BENCH_chaos.json]
//
// The default budget is 192 KB — deliberately *below* the soak's
// unconstrained high-water mark (~380 KB across 8 workers), so the
// governor genuinely queues and rejects during the acceptance run rather
// than idling under a budget nothing ever reaches.
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "verify/chaos.hpp"

int main(int argc, char** argv) {
  using namespace fusedp;
  Cli cli(argc, argv);

  verify::ChaosOptions opts;
  opts.sessions = static_cast<int>(cli.get_int("sessions", 8));
  opts.requests = static_cast<int>(cli.get_int("requests", 5000));
  opts.fault_rate = cli.get_double("fault-rate", 0.3);
  opts.deadline_rate = cli.get_double("deadline-rate", 0.3);
  opts.memory_budget_bytes = cli.has("budget-mb")
                                 ? cli.get_int("budget-mb", 0) * (1 << 20)
                                 : cli.get_int("budget-kb", 192) * 1024;
  opts.max_seconds = cli.get_double("seconds", 0.0);
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  std::printf(
      "bench_chaos: %d sessions x %d requests, fault-rate %.2f, "
      "deadline-rate %.2f, budget %lld KB\n",
      opts.sessions, opts.requests, opts.fault_rate, opts.deadline_rate,
      static_cast<long long>(opts.memory_budget_bytes >> 10));

  verify::ChaosStats stats = verify::run_chaos(opts);
  std::printf("%s\n", stats.summary().c_str());

  const std::string path = bench::bench_out_path(cli, "BENCH_chaos.json");
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_chaos: cannot write %s\n", path.c_str());
    return 2;
  }
  f << "{\n";
  f << "  \"bench\": \"chaos_soak\",\n";
  f << bench::provenance_json(MachineModel::host(), nullptr, "  ");
  f << "  \"config\": {\n";
  f << "    \"sessions\": " << opts.sessions << ",\n";
  f << "    \"requests\": " << opts.requests << ",\n";
  f << "    \"fault_rate\": " << opts.fault_rate << ",\n";
  f << "    \"deadline_rate\": " << opts.deadline_rate << ",\n";
  f << "    \"memory_budget_bytes\": " << opts.memory_budget_bytes << ",\n";
  f << "    \"pipeline_pool\": " << opts.pipeline_pool << ",\n";
  f << "    \"seed\": " << opts.seed << "\n";
  f << "  },\n";
  f << "  \"result\": " << stats.to_json(4) << "\n";
  f << "}\n";
  std::printf("wrote %s\n", path.c_str());
  return stats.clean() ? 0 : 1;
}
