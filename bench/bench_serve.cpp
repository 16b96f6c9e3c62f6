// Serving-scale traffic generator for the PipelineService front door: the
// first bench that measures the system as a multi-tenant server rather than
// a single-run executor.  Four phases; 1-3 land in BENCH_serve.json, 0 in
// its own BENCH_warmstart.json:
//
//  0. Warm-start A/B (gates the exit code): cold Session::open (empty
//     schedule cache, full kAuto search under perfbench's 150,000-state
//     budget and a deadline) vs. warm open
//     (schedule served from the persistent find-db).  Asserts every warm
//     open actually skipped the search (warm_start(), zero ladder
//     attempts) and that warm-open p50 is under --warm-tolerance (default
//     10%) of cold-open p50 per pipeline.
//
//  1. Overhead A/B (gates the exit code): each pipeline timed at ONE thread
//     on the OpenMP executor vs. the work-stealing pool backend — the pool's
//     serial fast path must stay within --tolerance (default 2%) geomean of
//     the per-run parallel region it replaces for serving.
//
//  2. Closed loop: N client threads issue back-to-back synchronous call()s
//     against one shared service, per worker count (1/2/4/8) and per
//     execution mode — coalesced (each frame a single-lane pool task; many
//     frames concurrent) and sharded (each frame fanned across all lanes).
//     Reports p50/p99 client-observed latency, requests/sec and pixels/sec.
//
//  3. Open loop: requests submitted asynchronously at a fixed arrival rate
//     (1.25x the best closed-loop throughput, so the service is driven just
//     past saturation) against a deliberately small admission bound —
//     exercising the kResourceExhausted shed path.  Latency here is the
//     sojourn approximation queue_wait + execution from the reply itself.
//
// On this container every worker count above `hardware_cores` is
// oversubscription; the artifact records the core count so throughput
// numbers read as what they are (scheduling behaviour, not parallel
// speedup).
//
//   --scale=N            image-size divisor (default 4: serving-sized frames)
//   --clients=N          closed-loop client threads (default 8)
//   --requests=N         closed-loop requests per client per cell (default 12)
//   --max-workers=N      clip the 1/2/4/8 worker ladder (default 8)
//   --open-requests=N    open-loop submissions per pipeline (default 120)
//   --samples/--runs     overhead A/B timing (defaults 3/3)
//   --tolerance=F        overhead A/B gate (default 0.02)
//   --only=KEY           serve a single pipeline
//   --out=PATH           default: <repo root>/BENCH_serve.json
//   --warm-out=PATH      default: <repo root>/BENCH_warmstart.json
//   --warm-cold-reps=N   cold opens per pipeline (default 5)
//   --warm-reps=N        warm opens per pipeline (default 15)
//   --warm-tolerance=F   warm/cold open-latency gate (default 0.10)
//   --warm-deadline=F    cold-open schedule-search deadline, s (default 1.0)
//   --warmstart-only     run phase 0 alone (CI's warm-start leg)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>
#include <unistd.h>

#include "api/serve.hpp"
#include "api/session.hpp"
#include "bench_common.hpp"
#include "fusion/incremental.hpp"
#include "model/cost.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/timing.hpp"

using namespace fusedp;

namespace {

std::int64_t output_pixels_of(const Pipeline& pl) {
  std::int64_t px = 0;
  for (int s : pl.outputs()) px += pl.stage(s).domain.volume();
  return px;
}

// p-th percentile of a latency sample (sorts in place, nearest-rank).
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

struct AbPair {
  std::string name;
  double openmp_ms = 0.0;
  double pool_ms = 0.0;
  double ratio() const { return pool_ms / openmp_ms; }
};

struct ClosedCell {
  std::string pipeline;
  std::string mode;  // "coalesced" | "sharded"
  int workers = 0;
  int clients = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  double wall_seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_queue_wait_ms = 0.0;
  double requests_per_sec = 0.0;
  double pixels_per_sec = 0.0;
};

struct OpenCell {
  std::string pipeline;
  int workers = 0;
  double offered_rps = 0.0;
  std::int64_t submitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct WarmCell {
  std::string pipeline;
  double cold_p50_ms = 0.0;
  double cold_p99_ms = 0.0;
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
  int warm_hits = 0;   // warm opens that actually served from the cache
  int warm_reps = 0;
  bool zero_search = true;  // every warm open had no ladder attempts/states
  double ratio() const {
    return cold_p50_ms > 0.0 ? warm_p50_ms / cold_p50_ms : 1.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::int64_t scale = cli.get_int_env("scale", 4);
  const int clients = static_cast<int>(cli.get_int_env("clients", 8));
  const int requests = static_cast<int>(cli.get_int_env("requests", 12));
  const int max_workers = static_cast<int>(cli.get_int_env("max-workers", 8));
  const int open_requests =
      static_cast<int>(cli.get_int_env("open-requests", 120));
  const int samples = static_cast<int>(cli.get_int_env("samples", 3));
  const int runs = static_cast<int>(cli.get_int_env("runs", 3));
  const double tolerance = cli.get_double("tolerance", 0.02);
  const std::string only = cli.get_env("only", "");
  const std::string out_path = bench::bench_out_path(cli, "BENCH_serve.json");
  const MachineModel machine = MachineModel::host();
  const int hw_cores = static_cast<int>(std::thread::hardware_concurrency());

  const int warm_cold_reps =
      static_cast<int>(cli.get_int("warm-cold-reps", 5));
  const int warm_reps = static_cast<int>(cli.get_int("warm-reps", 15));
  const double warm_tolerance = cli.get_double("warm-tolerance", 0.10);
  const double warm_deadline = cli.get_double("warm-deadline", 1.0);
  const bool warmstart_only = cli.has("warmstart-only");
#ifdef FUSEDP_REPO_ROOT
  const std::string warm_out_path = cli.get(
      "warm-out", std::string(FUSEDP_REPO_ROOT) + "/BENCH_warmstart.json");
#else
  const std::string warm_out_path =
      cli.get("warm-out", "BENCH_warmstart.json");
#endif

  std::fprintf(stderr,
               "bench_serve: scale=%lld clients=%d requests=%d "
               "max-workers=%d (hardware cores: %d)\n",
               static_cast<long long>(scale), clients, requests, max_workers,
               hw_cores);

  // ---- Phase 0: cold-open vs warm-open A/B through the schedule cache. ----
  // Cold = empty cache directory, full kAuto ladder under perfbench's
  // 150,000-state budget, with --warm-deadline as a backstop.  The budget,
  // not the deadline, must end the ladder: a deadline-cut search is never
  // stored (the deadline is not in the cache key), so it would leave
  // nothing to warm-start from.
  // Warm = the very same Options against the record the cold open stored.
  // The memory tier is off so warm opens measure the cross-process path
  // (shared lock + disk read + re-validation), not the in-process LRU.
  std::vector<WarmCell> warm_cells;
  bool warm_pass = true;
  {
    char dirbuf[] = "/tmp/fusedp_warmstart_XXXXXX";
    const char* cache_dir = ::mkdtemp(dirbuf);
    if (cache_dir == nullptr) {
      std::fprintf(stderr, "bench_serve: mkdtemp failed\n");
      return 1;
    }
    const char* warm_keys[] = {"harris", "campipe", "pyramid"};
    for (const char* key : warm_keys) {
      const PipelineSpec spec = make_benchmark(key, scale);
      const Pipeline& pl = *spec.pipeline;
      Options o;
      o.scheduler = fusedp::Scheduler::kAuto;
      o.max_states = 150'000;
      o.deadline_seconds = warm_deadline;
      o.cache_mode = findb::CacheMode::kReadWrite;
      o.cache_dir = cache_dir;
      o.cache_memory_entries = 0;

      WarmCell cell;
      cell.pipeline = key;
      cell.warm_reps = warm_reps;
      std::vector<double> cold_ms, warm_ms;
      for (int rep = 0; rep < warm_cold_reps; ++rep) {
        {
          findb::FindDb db(o.findb_options());
          (void)db.evict_all();
        }
        findb::FindDb::clear_memory_tier();
        WallTimer t;
        auto s = Session::open(pl, o);
        const double ms = t.millis();
        if (!s.ok()) {
          std::fprintf(stderr, "bench_serve: cold open %s failed: %s\n", key,
                       s.error().what());
          warm_pass = false;
          break;
        }
        if (s.value().warm_start()) warm_pass = false;  // cache was not empty
        cold_ms.push_back(ms);
      }
      // The last cold open left its schedule in the cache; time warm opens
      // against it and assert each one truly skipped the search.
      for (int rep = 0; rep < warm_reps && warm_pass; ++rep) {
        findb::FindDb::clear_memory_tier();
        WallTimer t;
        auto s = Session::open(pl, o);
        const double ms = t.millis();
        if (!s.ok()) {
          std::fprintf(stderr, "bench_serve: warm open %s failed: %s\n", key,
                       s.error().what());
          warm_pass = false;
          break;
        }
        if (s.value().warm_start()) ++cell.warm_hits;
        if (!s.value().diagnostics().attempts.empty() ||
            s.value().diagnostics().total_states != 0)
          cell.zero_search = false;
        warm_ms.push_back(ms);
      }
      cell.cold_p50_ms = percentile(cold_ms, 0.50);
      cell.cold_p99_ms = percentile(cold_ms, 0.99);
      cell.warm_p50_ms = percentile(warm_ms, 0.50);
      cell.warm_p99_ms = percentile(warm_ms, 0.99);
      const bool cell_pass = cell.warm_hits == warm_reps && cell.zero_search &&
                             cell.ratio() < warm_tolerance;
      if (!cell_pass) warm_pass = false;
      std::fprintf(stderr,
                   "  warmstart %-8s cold p50 %9.2f ms  warm p50 %7.3f ms  "
                   "ratio %.4f  hits %d/%d%s -> %s\n",
                   key, cell.cold_p50_ms, cell.warm_p50_ms, cell.ratio(),
                   cell.warm_hits, warm_reps,
                   cell.zero_search ? "" : "  (SEARCH RAN ON WARM OPEN)",
                   cell_pass ? "PASS" : "FAIL");
      warm_cells.push_back(std::move(cell));
    }
    const std::string cleanup = std::string("rm -rf '") + cache_dir + "'";
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
  }

  {
    std::ofstream wout(warm_out_path);
    if (!wout) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   warm_out_path.c_str());
      return 1;
    }
    wout << "{\n"
         << "  \"bench\": \"warmstart\",\n"
         << bench::provenance_json(machine, nullptr, "  ")
         << "  \"scale\": " << scale << ",\n"
         << "  \"cold_reps\": " << warm_cold_reps << ",\n"
         << "  \"warm_reps\": " << warm_reps << ",\n"
         << "  \"tolerance\": " << warm_tolerance << ",\n"
         << "  \"cold_deadline_seconds\": " << warm_deadline << ",\n"
         << "  \"note\": \"cold = Session::open with an empty schedule "
            "cache (full kAuto ladder under the deadline); warm = same "
            "options against the stored record, memory tier off so the "
            "number is the cross-process disk path; hit counts require "
            "warm_start() with zero ladder attempts and zero DP states\",\n"
         << "  \"pipelines\": [\n";
    for (std::size_t i = 0; i < warm_cells.size(); ++i) {
      const WarmCell& c = warm_cells[i];
      wout << "    {\"name\": \"" << c.pipeline
           << "\", \"cold_open_p50_ms\": " << c.cold_p50_ms
           << ", \"cold_open_p99_ms\": " << c.cold_p99_ms
           << ", \"warm_open_p50_ms\": " << c.warm_p50_ms
           << ", \"warm_open_p99_ms\": " << c.warm_p99_ms
           << ", \"warm_cold_ratio\": " << c.ratio()
           << ", \"warm_hits\": " << c.warm_hits
           << ", \"warm_reps\": " << c.warm_reps << ", \"hit_rate\": "
           << (c.warm_reps > 0
                   ? static_cast<double>(c.warm_hits) /
                         static_cast<double>(c.warm_reps)
                   : 0.0)
           << ", \"zero_search\": " << (c.zero_search ? "true" : "false")
           << "}" << (i + 1 < warm_cells.size() ? "," : "") << "\n";
    }
    wout << "  ],\n"
         << "  \"pass\": " << (warm_pass ? "true" : "false") << "\n"
         << "}\n";
    std::fprintf(stderr, "bench_serve: wrote %s (%s)\n",
                 warm_out_path.c_str(), warm_pass ? "PASS" : "FAIL");
  }
  if (warmstart_only) return warm_pass ? 0 : 1;

  // ---- Phase 1: single-thread pool-vs-OpenMP overhead A/B. ----------------
  ExecOptions openmp_opts;
  openmp_opts.num_threads = 1;
  openmp_opts.mode = EvalMode::kRow;
  ExecOptions pool_opts = openmp_opts;
  pool_opts.pool_backend = true;

  std::vector<AbPair> ab;
  double ab_log_sum = 0.0;
  const char* ab_keys[] = {"unsharp", "harris", "campipe"};
  for (const char* key : ab_keys) {
    const PipelineSpec spec = make_benchmark(key, scale);
    const Pipeline& pl = *spec.pipeline;
    const CostModel model(pl, machine);
    IncFusion inc(pl, model);
    const Grouping g = inc.run();
    const std::vector<Buffer> inputs = spec.make_inputs();
    AbPair p;
    p.name = key;
    p.openmp_ms =
        bench::time_grouping_ms(pl, g, inputs, 1, samples, runs, openmp_opts);
    p.pool_ms =
        bench::time_grouping_ms(pl, g, inputs, 1, samples, runs, pool_opts);
    ab_log_sum += std::log(p.ratio());
    std::fprintf(stderr,
                 "  ab %-12s openmp %9.3f ms  pool %9.3f ms  x%.4f\n", key,
                 p.openmp_ms, p.pool_ms, p.ratio());
    ab.push_back(std::move(p));
  }
  const double ab_geomean =
      std::exp(ab_log_sum / static_cast<double>(ab.size()));
  const bool ab_pass = ab_geomean <= 1.0 + tolerance;
  std::fprintf(stderr,
               "  1-thread pool overhead geomean: x%.4f (tolerance x%.4f) -> "
               "%s\n",
               ab_geomean, 1.0 + tolerance, ab_pass ? "PASS" : "FAIL");

  // ---- Phase 2: closed-loop client sweep. ---------------------------------
  const char* serve_keys[] = {"unsharp", "campipe"};
  std::vector<ClosedCell> closed;
  std::vector<OpenCell> open;

  for (const char* key : serve_keys) {
    if (!only.empty() && only != key) continue;
    const PipelineSpec spec = make_benchmark(key, scale);
    const Pipeline& pl = *spec.pipeline;
    const std::vector<Buffer> inputs = spec.make_inputs();
    const std::int64_t out_px = output_pixels_of(pl);
    double best_rps = 0.0;  // best coalesced throughput, feeds the open loop

    for (int workers = 1; workers <= max_workers; workers *= 2) {
      for (const bool shard : {false, true}) {
        if (shard && workers == 1) continue;  // sharding needs >1 lane
        ServeOptions so;
        so.workers = workers;
        so.max_queue = 2 * clients + 4;  // closed loop never bounces
        // Force the mode rather than relying on frame size vs. the default
        // threshold, so both serve paths are measured at every width.
        so.shard_threshold_pixels =
            shard ? 1 : std::numeric_limits<std::int64_t>::max();
        auto svc_r = PipelineService::create(pl, so);
        if (!svc_r.ok()) {
          std::fprintf(stderr, "bench_serve: create failed: %s\n",
                       svc_r.error().what());
          return 1;
        }
        auto svc = std::move(svc_r).value();

        // Warm-up: plan touch + workspace allocations.
        for (int i = 0; i < 2; ++i) {
          ServeRequest req;
          req.inputs = inputs;
          (void)svc->call(std::move(req));
        }

        std::vector<std::vector<double>> lat_ms(
            static_cast<std::size_t>(clients));
        std::vector<std::vector<double>> qw_ms(
            static_cast<std::size_t>(clients));
        std::vector<std::int64_t> ok(static_cast<std::size_t>(clients), 0);
        std::vector<std::int64_t> bad(static_cast<std::size_t>(clients), 0);
        WallTimer wall;
        std::vector<std::thread> threads;
        for (int c = 0; c < clients; ++c) {
          threads.emplace_back([&, c] {
            const std::size_t ci = static_cast<std::size_t>(c);
            for (int r = 0; r < requests; ++r) {
              ServeRequest req;
              req.inputs = inputs;  // copy outside the timed window
              WallTimer t;
              Result<ServeReply> reply = svc->call(std::move(req));
              const double ms = t.millis();
              if (reply.ok()) {
                ++ok[ci];
                lat_ms[ci].push_back(ms);
                qw_ms[ci].push_back(reply.value().queue_wait_seconds * 1e3);
              } else {
                ++bad[ci];
              }
            }
          });
        }
        for (std::thread& t : threads) t.join();

        ClosedCell cell;
        cell.pipeline = key;
        cell.mode = shard ? "sharded" : "coalesced";
        cell.workers = workers;
        cell.clients = clients;
        cell.wall_seconds = wall.seconds();
        std::vector<double> all_lat;
        double qw_sum = 0.0;
        std::int64_t qw_n = 0;
        for (int c = 0; c < clients; ++c) {
          const std::size_t ci = static_cast<std::size_t>(c);
          cell.completed += ok[ci];
          cell.failed += bad[ci];
          all_lat.insert(all_lat.end(), lat_ms[ci].begin(), lat_ms[ci].end());
          for (double q : qw_ms[ci]) qw_sum += q;
          qw_n += static_cast<std::int64_t>(qw_ms[ci].size());
        }
        cell.p50_ms = percentile(all_lat, 0.50);
        cell.p99_ms = percentile(all_lat, 0.99);
        cell.mean_queue_wait_ms =
            qw_n > 0 ? qw_sum / static_cast<double>(qw_n) : 0.0;
        cell.requests_per_sec =
            static_cast<double>(cell.completed) / cell.wall_seconds;
        cell.pixels_per_sec =
            static_cast<double>(cell.completed * out_px) / cell.wall_seconds;
        if (!shard) best_rps = std::max(best_rps, cell.requests_per_sec);
        std::fprintf(stderr,
                     "  %-8s %-9s %d workers  p50 %8.2f ms  p99 %8.2f ms  "
                     "%7.1f req/s  %.3g px/s  (%lld ok, %lld failed)\n",
                     key, cell.mode.c_str(), workers, cell.p50_ms, cell.p99_ms,
                     cell.requests_per_sec, cell.pixels_per_sec,
                     static_cast<long long>(cell.completed),
                     static_cast<long long>(cell.failed));
        closed.push_back(std::move(cell));
      }
    }

    // ---- Phase 3: open loop just past saturation, small admission bound. --
    {
      ServeOptions so;
      so.workers = max_workers;
      so.max_queue = 2 * max_workers + 2;  // small on purpose: shed under load
      so.shard_threshold_pixels = std::numeric_limits<std::int64_t>::max();
      auto svc_r = PipelineService::create(pl, so);
      if (!svc_r.ok()) {
        std::fprintf(stderr, "bench_serve: create failed: %s\n",
                     svc_r.error().what());
        return 1;
      }
      auto svc = std::move(svc_r).value();
      for (int i = 0; i < 2; ++i) {
        ServeRequest req;
        req.inputs = inputs;
        (void)svc->call(std::move(req));
      }

      OpenCell cell;
      cell.pipeline = key;
      cell.workers = max_workers;
      cell.offered_rps = std::max(1.0, 1.25 * best_rps);
      const auto interarrival = std::chrono::duration<double>(
          1.0 / cell.offered_rps);
      std::vector<PipelineService::Ticket> tickets;
      tickets.reserve(static_cast<std::size_t>(open_requests));
      for (int i = 0; i < open_requests; ++i) {
        ServeRequest req;
        req.inputs = inputs;
        Result<PipelineService::Ticket> t = svc->submit(std::move(req));
        ++cell.submitted;
        if (t.ok())
          tickets.push_back(std::move(t).value());
        else if (t.code() == ErrorCode::kResourceExhausted)
          ++cell.rejected;
        else
          ++cell.failed;
        std::this_thread::sleep_for(interarrival);
      }
      // Sojourn = queue wait + execution, from the reply itself (the
      // submitter cannot clock each completion without a waiter per ticket).
      std::vector<double> sojourn_ms;
      for (PipelineService::Ticket& t : tickets) {
        Result<ServeReply> reply = t.wait();
        if (reply.ok()) {
          ++cell.completed;
          sojourn_ms.push_back(
              (reply.value().queue_wait_seconds + reply.value().seconds) * 1e3);
        } else {
          ++cell.failed;
        }
      }
      cell.p50_ms = percentile(sojourn_ms, 0.50);
      cell.p99_ms = percentile(sojourn_ms, 0.99);
      std::fprintf(stderr,
                   "  %-8s open loop @ %.1f req/s: %lld submitted, %lld "
                   "rejected, %lld ok, %lld failed; sojourn p50 %8.2f ms "
                   "p99 %8.2f ms\n",
                   key, cell.offered_rps,
                   static_cast<long long>(cell.submitted),
                   static_cast<long long>(cell.rejected),
                   static_cast<long long>(cell.completed),
                   static_cast<long long>(cell.failed), cell.p50_ms,
                   cell.p99_ms);
      open.push_back(std::move(cell));
    }
  }
  if (closed.empty()) {
    std::fprintf(stderr, "bench_serve: no pipeline matched --only=%s\n",
                 only.c_str());
    return 1;
  }

  // ---- Artifact. ----------------------------------------------------------
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"serve\",\n"
      << bench::provenance_json(machine, &pool_opts, "  ")
      << "  \"scale\": " << scale << ",\n"
      << "  \"clients\": " << clients << ",\n"
      << "  \"requests_per_client\": " << requests << ",\n"
      << "  \"hardware_cores\": " << hw_cores << ",\n"
      << "  \"note\": \"worker counts above hardware_cores are "
         "oversubscribed: throughput there measures pool scheduling under "
         "contention, not parallel speedup; open-loop latency is the "
         "queue_wait+execution sojourn reported by the reply\",\n"
      << "  \"overhead_ab\": {\n"
      << "    \"threads\": 1,\n"
      << "    \"samples\": " << samples << ",\n"
      << "    \"runs\": " << runs << ",\n"
      << "    \"tolerance\": " << tolerance << ",\n"
      << "    \"pipelines\": [\n";
  for (std::size_t i = 0; i < ab.size(); ++i) {
    out << "      {\"name\": \"" << ab[i].name
        << "\", \"openmp_ms\": " << ab[i].openmp_ms
        << ", \"pool_ms\": " << ab[i].pool_ms
        << ", \"ratio\": " << ab[i].ratio() << "}"
        << (i + 1 < ab.size() ? "," : "") << "\n";
  }
  out << "    ],\n"
      << "    \"geomean_ratio\": " << ab_geomean << ",\n"
      << "    \"pass\": " << (ab_pass ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"closed_loop\": [\n";
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const ClosedCell& c = closed[i];
    out << "    {\"pipeline\": \"" << c.pipeline << "\", \"mode\": \""
        << c.mode << "\", \"workers\": " << c.workers
        << ", \"clients\": " << c.clients
        << ", \"completed\": " << c.completed << ", \"failed\": " << c.failed
        << ", \"wall_seconds\": " << c.wall_seconds
        << ", \"p50_ms\": " << c.p50_ms << ", \"p99_ms\": " << c.p99_ms
        << ", \"mean_queue_wait_ms\": " << c.mean_queue_wait_ms
        << ", \"requests_per_sec\": " << c.requests_per_sec
        << ", \"pixels_per_sec\": " << c.pixels_per_sec << "}"
        << (i + 1 < closed.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"open_loop\": [\n";
  for (std::size_t i = 0; i < open.size(); ++i) {
    const OpenCell& c = open[i];
    out << "    {\"pipeline\": \"" << c.pipeline
        << "\", \"workers\": " << c.workers
        << ", \"offered_rps\": " << c.offered_rps
        << ", \"submitted\": " << c.submitted
        << ", \"rejected\": " << c.rejected
        << ", \"completed\": " << c.completed << ", \"failed\": " << c.failed
        << ", \"sojourn_p50_ms\": " << c.p50_ms
        << ", \"sojourn_p99_ms\": " << c.p99_ms << "}"
        << (i + 1 < open.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
  std::fprintf(stderr, "bench_serve: wrote %s\n", out_path.c_str());
  return (ab_pass && warm_pass) ? 0 : 1;
}
