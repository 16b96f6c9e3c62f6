// fusedp_verify — differential verification driver.
//
//   fusedp_verify --seed=N              cross-check one generated pipeline
//   fusedp_verify --seeds=N [--start=S] cross-check a range of seeds
//   fusedp_verify --replay=N            re-run a recorded seed verbosely
//   fusedp_verify --replay=N --trace=F  also execute the seed's pipeline
//                                       through a Session and export the
//                                       Chrome trace for post-mortems
//
// Every seed deterministically generates a random pipeline, runs it through
// all execution backends over randomized schedules, and bit-compares every
// materialized stage against the scalar reference.  Each seed also draws
// the row-kernel table (avx2 or baseline) its runs use.  On divergence the
// full record (stage, coordinate, bit patterns, options, row-kernel table,
// schedule) is printed and the exit code is 1; the usual fusedp exit-code
// map covers errors (2 usage, 3 invalid input, 4 budget, 5 internal).
#include <cstdio>
#include <string>

#include "api/session.hpp"
#include "support/cli.hpp"
#include "support/status.hpp"
#include "verify/differ.hpp"

using namespace fusedp;

namespace {

void usage() {
  std::printf(
      "usage: fusedp_verify (--seed=N | --seeds=N [--start=S] | --replay=N)\n"
      "                     [--groupings=G] [--threads=T] [--max-stages=M]\n"
      "                     [--max-extent=E] [--trace=F (with --replay)]\n"
      "exit codes: 0 all seeds clean, 1 divergence found, 2 usage,\n"
      "            3 invalid input, 4 budget/deadline exhausted, 5 internal,\n"
      "            6 resource budget exhausted\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  try {
    verify::DifferOptions opts;
    opts.groupings_per_seed = static_cast<int>(cli.get_int("groupings", 3));
    opts.max_threads = static_cast<int>(cli.get_int("threads", 3));
    opts.gen.max_stages = static_cast<int>(
        cli.get_int("max-stages", opts.gen.max_stages));
    opts.gen.max_extent = cli.get_int("max-extent", opts.gen.max_extent);

    std::uint64_t start = 0;
    std::uint64_t count = 0;
    bool replay = false;
    if (cli.has("replay")) {
      start = static_cast<std::uint64_t>(cli.get_int("replay", 0));
      count = 1;
      replay = true;
    } else if (cli.has("seed")) {
      start = static_cast<std::uint64_t>(cli.get_int("seed", 0));
      count = 1;
    } else if (cli.has("seeds")) {
      start = static_cast<std::uint64_t>(cli.get_int("start", 0));
      count = static_cast<std::uint64_t>(cli.get_int("seeds", 0));
    } else {
      usage();
      return 2;
    }

    int total_runs = 0;
    std::uint64_t avx2_seeds = 0;
    for (std::uint64_t s = start; s < start + count; ++s) {
      const verify::DiffResult res = verify::diff_seed(s, opts);
      total_runs += res.runs;
      if (res.row_kernels == RowKernelIsa::kAvx2) ++avx2_seeds;
      if (res.diverged) {
        std::printf("%s\n", res.record.to_string().c_str());
        return 1;
      }
      if (replay) {
        std::printf(
            "seed %llu clean: %d executor configs, %s row kernels\n",
            static_cast<unsigned long long>(s), res.runs,
            row_kernel_isa_name(res.row_kernels));
        // Post-mortem timeline: re-execute the seed's pipeline through the
        // Session facade with the trace collector attached and export it.
        const std::string trace_path = cli.get("trace", "");
        if (!trace_path.empty()) {
          const auto pl = verify::generate_pipeline(s, opts.gen);
          const auto inputs = verify::generate_inputs(*pl, s);
          const detail::ScopedRowKernels kernels(res.row_kernels);
          Options sopts;
          sopts.num_threads = opts.max_threads;
          sopts.collect_trace = true;
          Result<Session> opened = Session::open(*pl, sopts);
          if (!opened.ok()) throw opened.error();
          Session session = std::move(opened).value();
          if (Result<double> r = session.execute(inputs); !r.ok())
            throw r.error();
          Result<int> wrote = session.write_trace(trace_path);
          if (!wrote.ok()) throw wrote.error();
          std::printf("wrote %d trace events to %s\n", wrote.value(),
                      trace_path.c_str());
        }
      }
      else if ((s - start + 1) % 50 == 0)
        std::printf("  ...%llu/%llu seeds clean\n",
                    static_cast<unsigned long long>(s - start + 1),
                    static_cast<unsigned long long>(count));
    }
    std::printf(
        "%llu seed(s) clean: %d executor configs, zero divergences "
        "(row kernels: %llu seed(s) avx2, %llu baseline)\n",
        static_cast<unsigned long long>(count), total_runs,
        static_cast<unsigned long long>(avx2_seeds),
        static_cast<unsigned long long>(count - avx2_seeds));
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error [%s]: %s\n", error_code_name(e.code()),
                 e.what());
    return exit_code(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 5;
  }
}
