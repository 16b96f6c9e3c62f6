#include "verify/chaos.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "api/session.hpp"
#include "runtime/executor.hpp"
#include "runtime/governor.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"
#include "verify/pipegen.hpp"

namespace fusedp::verify {

namespace {

// Throwing fault points only: a corrupt fault would (correctly) break the
// bit-identity invariant this harness enforces on successes.
const char* const kFaultPoints[] = {
    "executor.tile_eval",
    "executor.scratch_alloc",
    "workspace.prepare",
};
constexpr std::size_t kNumFaultPoints =
    sizeof(kFaultPoints) / sizeof(kFaultPoints[0]);

// Cache-layer fault points: a failing disk read, a writer dying before the
// temp file is written, and a writer killed at the commit fence (temp fully
// written, rename never happens — the canonical crash-mid-write).  All must
// resolve to coded probe/store outcomes, never a failed open.
const char* const kCacheFaultPoints[] = {
    "findb.read",
    "findb.write",
    "findb.commit",
    "lock.acquire",
};
constexpr std::size_t kNumCacheFaultPoints =
    sizeof(kCacheFaultPoints) / sizeof(kCacheFaultPoints[0]);

// Hostile record damage: flip a byte or truncate a random *.fdb in `dir`,
// deliberately without taking the directory lock — a crashed or byzantine
// writer does not honor locks either; the CRC/byte-count headers are what
// keep readers safe.
void corrupt_random_record(const std::string& dir, Rng& rng) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> files;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".fdb") == 0)
      files.push_back(name);
  }
  ::closedir(d);
  if (files.empty()) return;
  const std::string path =
      dir + "/" +
      files[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(files.size())))];
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || st.st_size == 0) return;
  if (rng.next_bool()) {
    ::truncate(path.c_str(),
               static_cast<off_t>(rng.next_below(
                   static_cast<std::uint64_t>(st.st_size))));
  } else {
    const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (fd < 0) return;
    const off_t off = static_cast<off_t>(
        rng.next_below(static_cast<std::uint64_t>(st.st_size)));
    unsigned char b = 0;
    if (::pread(fd, &b, 1, off) == 1) {
      b ^= 0xFFu;
      (void)!::pwrite(fd, &b, 1, off);
    }
    ::close(fd);
  }
}

struct PoolEntry {
  std::unique_ptr<Pipeline> pl;
  std::vector<Buffer> inputs;
  std::vector<Buffer> ref_outputs;  // scalar golden, pl->outputs() order
};

bool outputs_match(const Session& s, const PoolEntry& e) {
  for (std::size_t i = 0; i < e.ref_outputs.size(); ++i) {
    const Buffer& got = s.output(static_cast<int>(i));
    const Buffer& want = e.ref_outputs[i];
    if (got.volume() != want.volume()) return false;
    if (std::memcmp(got.data(), want.data(),
                    static_cast<std::size_t>(want.volume()) *
                        sizeof(float)) != 0)
      return false;
  }
  return true;
}

void merge(ChaosStats& into, const ChaosStats& from) {
  into.requests += from.requests;
  into.successes += from.successes;
  into.deadline_exceeded += from.deadline_exceeded;
  into.resource_exhausted += from.resource_exhausted;
  into.fault_injected += from.fault_injected;
  into.allocation_failed += from.allocation_failed;
  into.other_coded += from.other_coded;
  into.cache_requests += from.cache_requests;
  into.cache_hits += from.cache_hits;
  into.cache_faults += from.cache_faults;
  into.cache_stores += from.cache_stores;
  into.mismatches += from.mismatches;
  into.uncoded += from.uncoded;
}

}  // namespace

ChaosStats run_chaos(const ChaosOptions& opts) {
  ChaosStats total;
  const int nworkers = opts.sessions < 1 ? 1 : opts.sessions;
  const int pool_n = opts.pipeline_pool < 1 ? 1 : opts.pipeline_pool;

  // Phase 1 (un-governed, serial): build the pipeline pool and its scalar
  // golden references.  The reference path is deliberately outside the
  // budget so a tight soak budget cannot starve the oracle itself.
  std::vector<PoolEntry> pool;
  pool.reserve(static_cast<std::size_t>(pool_n));
  PipeGenOptions pg;
  for (int i = 0; i < pool_n; ++i) {
    PoolEntry e;
    const std::uint64_t seed = opts.seed * 1000003u + static_cast<std::uint64_t>(i);
    e.pl = generate_pipeline(seed, pg);
    e.inputs = generate_inputs(*e.pl, seed ^ 0xabcdefu);
    std::vector<Buffer> all = run_reference(*e.pl, e.inputs);
    for (int s : e.pl->outputs())
      e.ref_outputs.push_back(std::move(all[static_cast<std::size_t>(s)]));
    pool.push_back(std::move(e));
  }

  // Phase 2: arm the budget and soak.
  ResourceGovernor& gov = ResourceGovernor::instance();
  gov.reset_for_test();  // re-baseline high-water to live charges
  gov.set_budget(opts.memory_budget_bytes);

  std::atomic<int> next_request{0};
  std::atomic<bool> stop{false};
  WallTimer clock;
  std::mutex stats_mu;

  auto worker = [&](int wid) {
    ChaosStats local;
    Rng rng(opts.seed ^ (0x51ed2701u + static_cast<std::uint64_t>(wid) * 0x9e37u));
    for (;;) {
      const int req = next_request.fetch_add(1, std::memory_order_relaxed);
      if (req >= opts.requests) break;
      if (stop.load(std::memory_order_relaxed)) break;
      if (opts.max_seconds > 0.0 && clock.seconds() > opts.max_seconds) {
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      const PoolEntry& e =
          pool[static_cast<std::size_t>(rng.next_below(
              static_cast<std::uint64_t>(pool.size())))];
      try {
        // Random per-request configuration.
        Options o;
        o.num_threads = rng.next_bool(0.25) ? 2 : 1;
        // Route a fraction of requests through the work-stealing pool, at
        // >= 2 lanes so stealing and cross-request pool sharing both soak.
        o.pool_backend = rng.next_bool(opts.pool_backend_rate);
        if (o.pool_backend) o.num_threads = 2;
        o.scheduler = Scheduler::kGreedy;
        o.superop_fusion = !rng.next_bool(0.2);
        o.pooled_storage = rng.next_bool(0.3);
        o.guard_arena = rng.next_bool(0.25);
        if (rng.next_bool(opts.deadline_rate))
          // Tight enough that a fraction genuinely expires mid-run, long
          // enough that another fraction finishes: both paths soak.
          o.run_deadline_seconds = 2e-5 + rng.next_double() * 3e-3;

        // Cache soak: route through the shared directory, then damage it.
        const bool use_cache =
            !opts.cache_dir.empty() && rng.next_bool(opts.cache_rate);
        if (use_cache) {
          o.cache_mode = findb::CacheMode::kReadWrite;
          o.cache_dir = opts.cache_dir;
          // Half the requests bypass the in-process hot tier so corrupted
          // bytes actually reach the decoder instead of being shadowed by
          // a previously validated memory copy.
          if (rng.next_bool(0.5)) o.cache_memory_entries = 0;
          // Short lock wait: contention must degrade, not serialize.
          o.cache_lock_timeout_seconds = 0.05;
          if (rng.next_bool(opts.cache_corrupt_rate))
            corrupt_random_record(opts.cache_dir, rng);
          if (rng.next_bool(opts.cache_fault_rate))
            FaultInjector::arm(
                kCacheFaultPoints[rng.next_below(kNumCacheFaultPoints)],
                ErrorCode::kFaultInjected,
                static_cast<int>(rng.next_below(8)));
        }

        // Concurrent fault arming: the injector is global and thread-safe;
        // the armed point may well fire in another worker's request, which
        // is exactly the cross-request interference the soak wants.
        if (rng.next_bool(opts.fault_rate)) {
          FaultInjector::arm(
              kFaultPoints[rng.next_below(kNumFaultPoints)],
              ErrorCode::kFaultInjected,
              static_cast<int>(rng.next_below(24)));
        }

        ++local.requests;
        if (use_cache) ++local.cache_requests;
        Result<Session> sr = Session::open(*e.pl, o);
        if (!sr.ok()) {
          // Coded open failure (e.g. allocation under a tight budget).
          ++local.other_coded;
          continue;
        }
        Session s = std::move(sr).value();
        if (use_cache) {
          if (s.warm_start()) ++local.cache_hits;
          for (const observe::CacheEvent& ev : s.cache_events()) {
            if (ev.action == "store" && ev.outcome == "stored")
              ++local.cache_stores;
            // Anything that is not a clean hit/miss/bypass is a coded
            // degradation the soak wants to see resolve to fresh search.
            if (ev.action == "probe" && ev.outcome != "hit" &&
                ev.outcome != "miss" && ev.outcome != "bypass")
              ++local.cache_faults;
          }
        }
        Result<double> r = s.execute(e.inputs);
        if (r.ok()) {
          ++local.successes;
          if (opts.verify_outputs && !outputs_match(s, e)) ++local.mismatches;
        } else {
          switch (r.code()) {
            case ErrorCode::kDeadlineExceeded: ++local.deadline_exceeded; break;
            case ErrorCode::kResourceExhausted: ++local.resource_exhausted; break;
            case ErrorCode::kFaultInjected: ++local.fault_injected; break;
            case ErrorCode::kAllocationFailed: ++local.allocation_failed; break;
            default: ++local.other_coded; break;
          }
        }
      } catch (...) {
        // A request must never leak an exception through the facade.
        ++local.uncoded;
      }
    }
    std::lock_guard<std::mutex> lock(stats_mu);
    merge(total, local);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();

  total.seconds = clock.seconds();
  total.governor_high_water = gov.high_water();
  FaultInjector::disarm();
  gov.set_budget(0);  // restore: unlimited
  return total;
}

std::string ChaosStats::summary() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "chaos: %lld requests in %.2f s: %lld ok, %lld deadline, %lld "
      "resource, %lld fault, %lld alloc, %lld other; cache %lld probed / "
      "%lld warm / %lld degraded / %lld stored; %lld mismatches, %lld "
      "uncoded; high-water %lld bytes -> %s",
      static_cast<long long>(requests), seconds,
      static_cast<long long>(successes),
      static_cast<long long>(deadline_exceeded),
      static_cast<long long>(resource_exhausted),
      static_cast<long long>(fault_injected),
      static_cast<long long>(allocation_failed),
      static_cast<long long>(other_coded),
      static_cast<long long>(cache_requests),
      static_cast<long long>(cache_hits),
      static_cast<long long>(cache_faults),
      static_cast<long long>(cache_stores),
      static_cast<long long>(mismatches), static_cast<long long>(uncoded),
      static_cast<long long>(governor_high_water),
      clean() ? "CLEAN" : "DIRTY");
  return buf;
}

std::string ChaosStats::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  auto field = [&](const char* k, std::int64_t v, bool last = false) {
    return pad + "\"" + k + "\": " + std::to_string(v) + (last ? "\n" : ",\n");
  };
  char secs[32];
  std::snprintf(secs, sizeof(secs), "%.3f", seconds);
  std::string out = "{\n";
  out += field("requests", requests);
  out += field("successes", successes);
  out += field("deadline_exceeded", deadline_exceeded);
  out += field("resource_exhausted", resource_exhausted);
  out += field("fault_injected", fault_injected);
  out += field("allocation_failed", allocation_failed);
  out += field("other_coded", other_coded);
  out += field("cache_requests", cache_requests);
  out += field("cache_hits", cache_hits);
  out += field("cache_faults", cache_faults);
  out += field("cache_stores", cache_stores);
  out += field("mismatches", mismatches);
  out += field("uncoded", uncoded);
  out += field("governor_high_water_bytes", governor_high_water);
  out += pad + "\"seconds\": " + secs + ",\n";
  out += pad + std::string("\"clean\": ") + (clean() ? "true" : "false") + "\n";
  out += std::string(static_cast<std::size_t>(indent >= 2 ? indent - 2 : 0),
                     ' ') +
         "}";
  return out;
}

}  // namespace fusedp::verify
