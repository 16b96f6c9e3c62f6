#include "bench_common.hpp"

#include <cstdio>

#include "fusion/halide_auto.hpp"
#include "fusion/incremental.hpp"
#include "fusion/polymage_greedy.hpp"
#include "runtime/compile.hpp"
#include "runtime/executor.hpp"
#include "support/fingerprint.hpp"
#include "support/stats.hpp"

namespace fusedp::bench {

BenchConfig BenchConfig::from_cli(const Cli& cli, MachineModel machine) {
  BenchConfig cfg;
  cfg.scale = cli.get_int_env("scale", 2);
  cfg.samples = static_cast<int>(cli.get_int_env("samples", 2));
  cfg.runs = static_cast<int>(cli.get_int_env("runs", 2));
  cfg.threads = static_cast<int>(cli.get_int_env("threads", 16));
  cfg.tune = cli.get_env("tune", "small");
  cfg.machine = std::move(machine);
  cfg.exec.num_threads = cfg.threads;
  cfg.exec.mode = cli.get_env("mode", "row") == "scalar" ? EvalMode::kScalar
                                                         : EvalMode::kRow;
  cfg.exec.pool_backend = cli.get_int_env("pool-backend", 0) != 0;
  return cfg;
}

void BenchConfig::print_header(const char* what) const {
  std::printf("# %s\n", what);
  std::printf(
      "# machine model: %s (L1 %lld KB, L2 %lld KB, %d cores, IMTS %lld, "
      "weights w1=%g w2=%g w3=%g w4=%g)\n",
      machine.name.c_str(), static_cast<long long>(machine.l1_bytes / 1024),
      static_cast<long long>(machine.l2_bytes / 1024), machine.cores,
      static_cast<long long>(machine.innermost_tile), machine.weights.w1,
      machine.weights.w2, machine.weights.w3, machine.weights.w4);
  std::printf(
      "# images: paper sizes / %lld; timing: min of %d sample averages, %d "
      "runs each (paper: 5 x 500 at full size)\n",
      static_cast<long long>(scale), samples, runs);
  std::printf("# PolyMage-A tuner grid: %s\n", tune.c_str());
  std::printf("# executor: %s backend\n\n",
              exec.mode == EvalMode::kScalar ? "scalar" : "vector");
}

const char* scheduler_name(Scheduler s) {
  switch (s) {
    case Scheduler::kPolyMageDp: return "PolyMageDP";
    case Scheduler::kPolyMageA: return "PolyMage-A";
    case Scheduler::kHAuto: return "H-auto";
    case Scheduler::kHManual: return "H-manual";
  }
  return "?";
}

double time_grouping_ms(const Pipeline& pl, const Grouping& g,
                        const std::vector<Buffer>& inputs, int threads,
                        int samples, int runs, ExecOptions base) {
  base.num_threads = threads;
  Executor ex(pl, g, base);
  Workspace ws;
  ex.run(inputs, ws);  // warm-up (allocations, page faults)
  const RunStats st =
      measure_min_of_averages([&] { ex.run(inputs, ws); }, samples, runs);
  return st.min_avg_ms;
}

std::string bench_out_path(const Cli& cli, const char* default_filename) {
#ifdef FUSEDP_REPO_ROOT
  const std::string def = std::string(FUSEDP_REPO_ROOT) + "/" + default_filename;
#else
  const std::string def = default_filename;
#endif
  return cli.get_env("out", def);
}

std::string exec_options_json(const ExecOptions& opts, const char* indent) {
  std::string s;
  auto field = [&](const char* key, const std::string& val) {
    s += indent;
    s += "\"";
    s += key;
    s += "\": ";
    s += val;
    s += ",\n";
  };
  field("threads", std::to_string(opts.num_threads));
  field("eval_mode",
        opts.mode == EvalMode::kRow ? "\"row\"" : "\"scalar\"");
  field("pooled_storage", opts.pooled_storage ? "true" : "false");
  field("pool_backend", opts.pool_backend ? "true" : "false");
  return s;
}

std::string provenance_json(const MachineModel& machine,
                            const ExecOptions* exec, const char* indent) {
  // Same source of truth as the persistent schedule cache's records:
  // build_git_sha() and the machine fingerprint come from
  // support/fingerprint, so an artifact and a cache entry produced by the
  // same build are directly comparable.
  std::string in(indent);
  std::string s;
  s += in + "\"provenance\": {\n";
  s += in + "  \"git_sha\": \"" + std::string(build_git_sha()) + "\",\n";
  s += in + "  \"row_kernels\": \"" +
       std::string(row_kernel_isa_name(active_row_kernels())) + "\",\n";
  s += in + "  \"machine_fingerprint\": \"" + hex64(fingerprint(machine)) +
       "\",\n";
  s += in + "  \"machine\": {\n";
  s += in + "    \"name\": \"" + machine.name + "\",\n";
  s += in + "    \"l1_bytes\": " + std::to_string(machine.l1_bytes) + ",\n";
  s += in + "    \"l2_bytes\": " + std::to_string(machine.l2_bytes) + ",\n";
  s += in + "    \"l3_bytes\": " + std::to_string(machine.l3_bytes) + ",\n";
  s += in + "    \"cores\": " + std::to_string(machine.cores) + ",\n";
  s += in + "    \"vector_width_floats\": " +
       std::to_string(machine.vector_width_floats) + ",\n";
  s += in + "    \"innermost_tile\": " +
       std::to_string(machine.innermost_tile) + ",\n";
  s += in + "    \"weights\": [" + std::to_string(machine.weights.w1) + ", " +
       std::to_string(machine.weights.w2) + ", " +
       std::to_string(machine.weights.w3) + ", " +
       std::to_string(machine.weights.w4) + "]\n";
  s += in + "  },\n";
  if (exec != nullptr) {
    s += in + "  \"executor\": {\n";
    std::string eo = exec_options_json(*exec, (in + "    ").c_str());
    // exec_options_json ends every member with ",\n"; the last member of
    // the nested object must not have the trailing comma.
    if (eo.size() >= 2 && eo[eo.size() - 2] == ',')
      eo.erase(eo.size() - 2, 1);
    s += eo;
    s += in + "  }\n";
  } else {
    s += in + "  \"executor\": null\n";
  }
  s += in + "},\n";
  return s;
}

Grouping schedule(Scheduler which, const PipelineSpec& spec,
                  const CostModel& model, const BenchConfig& cfg,
                  int tune_threads) {
  const Pipeline& pl = *spec.pipeline;
  switch (which) {
    case Scheduler::kPolyMageDp: {
      IncFusion inc(pl, model);
      return inc.run();
    }
    case Scheduler::kPolyMageA: {
      PolyMageOptions opts;
      if (cfg.tune == "paper") {
        opts.tile_candidates = {8, 16, 32, 64, 128, 256};
        opts.tolerances = {0.2, 0.4, 0.5};
      } else {
        opts.tile_candidates = {32, 64, 128, 256};
        opts.tolerances = {0.2, 0.5};
      }
      const PolyMageGreedy greedy(pl, model, opts);
      const std::vector<Buffer> inputs = spec.make_inputs();
      return greedy.tune([&](const Grouping& g) {
        return time_grouping_ms(pl, g, inputs, tune_threads, 1, 1, cfg.exec);
      });
    }
    case Scheduler::kHAuto: {
      const HalideAuto h(pl, model);
      return h.run();
    }
    case Scheduler::kHManual:
      return spec.manual_grouping(model);
  }
  FUSEDP_CHECK(false, "unknown scheduler");
  return {};
}

}  // namespace fusedp::bench
