// fusedp_chaos: the chaos soak as a standalone tool.
//
//   fusedp_chaos [--sessions=8] [--requests=5000] [--fault-rate=0.3]
//                [--deadline-rate=0.3] [--pool-backend=0.25] [--budget-mb=64]
//                [--seconds=0] [--seed=1] [--pool=12]
//                [--cache=DIR] [--cache-rate=0.7] [--cache-corrupt-rate=0.2]
//                [--cache-fault-rate=0.1]
//                [--no-verify] [--out=chaos.json]
//
// --cache=DIR additionally soaks the persistent schedule cache: requests
// share the directory in readwrite mode while the harness corrupts records,
// kills writers mid-commit (fault injection) and races stores — every cache
// failure must resolve to a coded event plus a fresh autoschedule.
//
// Soaks N concurrent Sessions over randomly generated pipelines under
// injected faults, random per-request deadlines and a constrained memory
// budget, then prints a one-line summary.  Exit code 0 iff the soak is
// clean: every request terminated in a coded state and every success was
// bit-identical to the scalar reference.
#include <cstdio>
#include <fstream>

#include "support/cli.hpp"
#include "verify/chaos.hpp"

int main(int argc, char** argv) {
  fusedp::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: fusedp_chaos [--sessions=N] [--requests=N] [--fault-rate=F]\n"
        "                    [--deadline-rate=F] [--budget-mb=N | "
        "--budget-kb=N]\n"
        "                    [--seconds=F] [--seed=N] [--pool=N]\n"
        "                    [--pool-backend=F]\n"
        "                    [--cache=DIR] [--cache-rate=F]\n"
        "                    [--cache-corrupt-rate=F] [--cache-fault-rate=F]\n"
        "                    [--no-verify] [--out=PATH]\n");
    return 0;
  }

  fusedp::verify::ChaosOptions opts;
  opts.sessions = static_cast<int>(cli.get_int("sessions", 8));
  opts.requests = static_cast<int>(cli.get_int("requests", 5000));
  opts.fault_rate = cli.get_double("fault-rate", 0.3);
  opts.deadline_rate = cli.get_double("deadline-rate", 0.3);
  // Fraction of requests on the work-stealing pool backend (--pool is the
  // generated-pipeline pool size, a different knob).
  opts.pool_backend_rate = cli.get_double("pool-backend", 0.25);
  // --budget-kb exists because the generated-pipeline pool is small: a
  // budget that actually binds is well under 1 MB.
  opts.memory_budget_bytes = cli.has("budget-kb")
                                 ? cli.get_int("budget-kb", 0) * 1024
                                 : cli.get_int("budget-mb", 64) * (1 << 20);
  opts.max_seconds = cli.get_double("seconds", 0.0);
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.pipeline_pool = static_cast<int>(cli.get_int("pool", 12));
  opts.verify_outputs = !cli.has("no-verify");
  opts.cache_dir = cli.get("cache", "");
  opts.cache_rate = cli.get_double("cache-rate", 0.7);
  opts.cache_corrupt_rate = cli.get_double("cache-corrupt-rate", 0.2);
  opts.cache_fault_rate = cli.get_double("cache-fault-rate", 0.1);

  fusedp::verify::ChaosStats stats = fusedp::verify::run_chaos(opts);
  std::printf("%s\n", stats.summary().c_str());

  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    std::ofstream f(out);
    if (!f) {
      std::fprintf(stderr, "fusedp_chaos: cannot write %s\n", out.c_str());
      return 2;
    }
    f << stats.to_json() << "\n";
    std::printf("wrote %s\n", out.c_str());
  }
  return stats.clean() ? 0 : 1;
}
