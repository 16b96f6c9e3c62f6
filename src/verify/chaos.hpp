// Chaos soak: many concurrent Sessions under injected faults, random
// per-request deadlines and a constrained process-wide memory budget.
//
// The harness proves the request-governance invariants hold under fire:
// every request terminates in a coded state (success, deadline-exceeded,
// resource-exhausted, fault-injected, ...), no exception ever escapes the
// Session API uncoded, no crash / hang / leak, and every *successful*
// request returns outputs bit-identical to the scalar golden reference.
//
// Fault points armed here are throwing points only (executor.tile_eval,
// executor.scratch_alloc, workspace.prepare); silent-corruption faults are
// the differential verifier's domain and would — correctly — break the
// bit-identity check this harness enforces.
//
// Shared by tools/fusedp_chaos.cpp (CLI, exit code) and
// bench/bench_chaos.cpp (BENCH_chaos.json artifact).
#pragma once

#include <cstdint>
#include <string>

namespace fusedp::verify {

struct ChaosOptions {
  int sessions = 8;         // concurrent worker threads
  int requests = 5000;      // total requests across all workers
  double fault_rate = 0.3;  // chance a request arms a throwing fault point
  double deadline_rate = 0.3;  // chance a request carries a tight deadline
  // Chance a request executes on the work-stealing pool backend (at 2
  // lanes) instead of the OpenMP region; the TSan leg raises this to soak
  // pool parallelism specifically.
  double pool_backend_rate = 0.25;
  // Process-wide Workspace+ScratchArena budget while the soak runs
  // (0 = unlimited).  References are computed before the budget is armed.
  std::int64_t memory_budget_bytes = 0;
  double max_seconds = 0.0;  // wall-clock cap, 0 = none
  std::uint64_t seed = 1;
  int pipeline_pool = 12;    // distinct generated pipelines to cycle over
  bool verify_outputs = true;  // bit-compare successes vs scalar reference

  // Persistent schedule-cache soak (storage/findb).  With a non-empty
  // cache_dir, a fraction of requests open through a shared cache directory
  // in readwrite mode while workers hostilely pre-corrupt records (bit
  // flips, truncation), arm findb fault points (read failures,
  // kill-mid-write at the commit fence) and race stores against probes.
  // Invariants on top of the base soak: every cache failure resolves to a
  // coded event plus a successful fresh autoschedule, and cache-served
  // (warm-start) schedules still produce bit-identical outputs.
  std::string cache_dir;             // empty = cache soak off
  double cache_rate = 0.7;           // chance a request opens via the cache
  double cache_corrupt_rate = 0.2;   // chance of pre-corrupting a record
  double cache_fault_rate = 0.1;     // chance of arming a findb.* fault
};

struct ChaosStats {
  std::int64_t requests = 0;   // requests actually issued
  std::int64_t successes = 0;  // ok, outputs verified (when enabled)
  std::int64_t deadline_exceeded = 0;
  std::int64_t resource_exhausted = 0;
  std::int64_t fault_injected = 0;
  std::int64_t allocation_failed = 0;
  std::int64_t other_coded = 0;  // any other coded terminal state
  // Cache soak counters (0 unless ChaosOptions::cache_dir is set).
  std::int64_t cache_requests = 0;  // requests that probed the cache
  std::int64_t cache_hits = 0;      // warm starts (schedule from cache)
  std::int64_t cache_faults = 0;    // coded degraded probes (corrupt, ...)
  std::int64_t cache_stores = 0;    // fresh schedules persisted
  // Invariant violations: any non-zero entry fails the soak.
  std::int64_t mismatches = 0;  // success whose outputs differ from reference
  std::int64_t uncoded = 0;     // exception escaped the Session API
  double seconds = 0.0;
  std::int64_t governor_high_water = 0;  // bytes, while the soak ran

  // Every request reached a coded terminal state and verified.
  bool clean() const { return mismatches == 0 && uncoded == 0; }
  std::string summary() const;
  std::string to_json(int indent = 2) const;
};

// Runs the soak and restores the governor budget (to unlimited) on return.
ChaosStats run_chaos(const ChaosOptions& opts);

}  // namespace fusedp::verify
