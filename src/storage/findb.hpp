// The persistent schedule cache ("find-db"): compile once, serve forever.
//
// Autoscheduling is the expensive step of the pipeline-optimization flow —
// the full DP under a deadline — and without a cache every Session::open
// pays it again.  FindDb persists the winning schedule keyed by
// (pipeline fingerprint, machine fingerprint, schedule-relevant options
// fingerprint), exactly MIOpen's solver/find-db pattern: re-search is the
// fallback, never the default.
//
// On-disk layout: one record file per key under the cache directory,
//
//   <dir>/<pfp>-<mfp>-<ofp>.fdb        (hex64 fingerprints)
//   <dir>/findb.lock                   (advisory flock; shared=read,
//                                       exclusive=write/evict/compact)
//   <dir>/<stem>.fdb.tmp.<pid>.<seq>   (in-flight writes, ignored by reads)
//
// Record format (all text; documented in docs/robustness.md):
//
//   fusedp-findb v1
//   crc32 <8 hex digits over the payload bytes>
//   bytes <payload byte count>
//   <payload>
//
// The payload carries a provenance header (key fingerprints, git SHA,
// creation time, winning scheduler rung), per-group predicted costs and
// optional measured times, and the schedule text itself (the hardened
// fusedp-schedule v1 format that grouping_from_text re-validates on load).
//
// Trust model: the cache is an *optimization*, never an authority.  Every
// failure mode is a coded, non-fatal ProbeOutcome — checksum mismatch,
// truncated file, unknown version, stale git SHA, key mismatch, lock
// timeout, I/O error — and each degrades to "miss": the caller runs a
// fresh autoschedule.  A hit still re-parses the schedule text through the
// hardened parser and grouping validation before anything executes, so a
// hostile cache file can at worst cost one re-search.  Writes go through a
// temp file + fsync + atomic rename, so a crash mid-write leaves either
// the old record or debris a reader ignores — never a half-record that
// parses.
//
// An in-process LRU memory tier (shared across FindDb instances, keyed by
// dir+stem) serves hot pipelines without touching the filesystem at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/status.hpp"
#include "support/timing.hpp"

namespace fusedp::findb {

// Who may read/write the cache for a given Session (validated Options
// field; kOff callers never construct a FindDb at all).
enum class CacheMode : std::uint8_t {
  kOff = 0,
  kRead,       // probe only; never writes, never evicts
  kReadWrite,  // probe, store fresh results, evict bad entries on sight
};

const char* cache_mode_name(CacheMode mode);

// The cache key: three 64-bit structural fingerprints (support/fingerprint).
struct CacheKey {
  std::uint64_t pipeline_fp = 0;
  std::uint64_t machine_fp = 0;
  std::uint64_t options_fp = 0;

  // "<pfp>-<mfp>-<ofp>" in hex64 — the record's file stem.
  std::string stem() const;
  static bool parse_stem(const std::string& stem, CacheKey* out);
  bool operator==(const CacheKey&) const = default;
};

// One cached result: provenance + the winning schedule.
struct CacheRecord {
  std::string pipeline;   // pipeline name (informational)
  std::string git_sha;    // build that produced the schedule
  std::string rung;       // schedule tier that won ("full-dp", "greedy", ...)
  std::int64_t created_unix = 0;
  std::vector<double> predicted;  // per-group model cost, group order
  // Optional measured per-group wall times (same group order as
  // `predicted`).  Scheduler::kMeasured populates these from the winning
  // candidate's warmup run; `fusedp tune` harvests them as fit samples.
  // Empty for schedules that were never measured.
  std::vector<double> measured_ms;
  std::string schedule_text;        // fusedp-schedule v1 text
};

// Every way a probe can resolve.  Everything except kHit means "search
// fresh"; the distinctions exist for observability and eviction policy.
enum class ProbeOutcome : std::uint8_t {
  kHit = 0,
  kMiss,         // no record on disk (or in memory)
  kCorrupt,      // checksum mismatch / unparseable record
  kTruncated,    // file shorter than its declared payload
  kVersionSkew,  // record written by an unknown format version
  kStaleSha,     // record from a different build of this code
  kKeyMismatch,  // record's embedded key differs from its file name
  kLockTimeout,  // could not take the directory lock in time
  kIoError,      // filesystem trouble (includes injected findb.read faults)
  kBypass,       // cache not consulted (mode off / caller-provided grouping)
};

const char* probe_outcome_name(ProbeOutcome outcome);
// True for the outcomes that indicate a damaged or invalid record that
// read-write mode should evict on sight.
bool outcome_evicts(ProbeOutcome outcome);

struct ProbeResult {
  ProbeOutcome outcome = ProbeOutcome::kMiss;
  bool from_memory = false;  // served by the in-process LRU tier
  CacheRecord record;        // valid iff outcome == kHit
  std::string detail;        // human-readable cause for non-hits
  double seconds = 0.0;      // wall time of the probe
};

struct FindbOptions {
  std::string dir;  // cache directory (created on first write)
  CacheMode mode = CacheMode::kRead;
  // Lock acquisition bound; an armed Deadline passed to probe()/store()
  // tightens it further.  0 disables waiting entirely (single attempt).
  double lock_timeout_seconds = 0.5;
  // Compaction budget: after a store, the oldest records are evicted until
  // both bounds hold.  <= 0 disables that bound.
  std::int64_t max_entries = 256;
  std::int64_t max_bytes = std::int64_t{16} << 20;
  // In-process LRU tier capacity (records); 0 disables the memory tier.
  int memory_entries = 32;
  // Expected build SHA; records carrying a different value are kStaleSha.
  // Empty disables the check (tests, cross-build tooling).
  std::string git_sha;
};

// Running counters for one FindDb handle (monotonic; CLI `cache stats`
// aggregates per-directory truth by scanning instead).  probe() and store()
// may run concurrently on one handle, so the handle counts into atomics
// (relaxed: nothing synchronizes on a statistic) and counters() returns a
// plain CacheCounters snapshot.
template <typename Count>
struct BasicCacheCounters {
  Count hits{0};
  Count memory_hits{0};
  Count misses{0};
  Count bad_records{0};  // corrupt/truncated/skew/stale/mismatch
  Count lock_timeouts{0};
  Count io_errors{0};
  Count stores{0};
  Count store_failures{0};
  Count evictions{0};
};
using CacheCounters = BasicCacheCounters<std::int64_t>;

// A scanned directory entry (CLI stats/verify).
struct EntryInfo {
  std::string file;  // basename
  CacheKey key;
  std::int64_t bytes = 0;
  std::int64_t mtime_unix = 0;
  bool valid = false;
  std::string problem;  // probe-outcome name + detail when !valid
  CacheRecord record;   // filled when valid
};

class FindDb {
 public:
  explicit FindDb(FindbOptions opts);

  // Looks `key` up: memory tier first, then disk under a shared lock.
  // Never throws; every failure is a coded outcome that callers treat as a
  // miss.  An armed `deadline` bounds lock wait and is checked before the
  // disk read, so a slow disk or a wedged lock cannot blow a caller's
  // schedule-search deadline.
  ProbeResult probe(const CacheKey& key, const Deadline* deadline = nullptr);

  // kReadWrite only: atomically persists `rec` under `key` (temp + fsync +
  // rename), refreshes the memory tier, then compacts the directory to the
  // entry/byte budget.  Returns the outcome as a coded Result; failures
  // (lock timeout, injected faults, full disk) leave any previous record
  // intact.
  Result<bool> store(const CacheKey& key, const CacheRecord& rec,
                     const Deadline* deadline = nullptr);

  // Removes one record / every record (+ temp debris).  Returns the number
  // of files removed.
  Result<int> evict(const CacheKey& key);
  Result<int> evict_all();

  // Scans the directory, validating every record (CLI stats/verify).
  // With `repair`, invalid records and temp debris are deleted (requires
  // kReadWrite).
  Result<std::vector<EntryInfo>> scan(bool repair = false);

  // Concurrent calls keep counting while this reads, so the snapshot's
  // fields need not be mutually consistent.
  CacheCounters counters() const;
  const FindbOptions& options() const { return opts_; }

  // Drops the process-wide memory tier (tests; also `cache evict`).
  static void clear_memory_tier();

 private:
  ProbeResult probe_disk(const CacheKey& key, const Deadline* deadline);
  void note(ProbeOutcome outcome);
  // Best-effort removal of a bad record (kReadWrite only), so it stops
  // costing a probe each open.
  void evict_bad_record(const CacheKey& key);
  // Enforces max_entries/max_bytes, oldest-mtime-first; also sweeps stale
  // temp files.  Caller holds the exclusive lock.
  void compact_locked();

  FindbOptions opts_;
  BasicCacheCounters<std::atomic<std::int64_t>> counters_;
};

// --- Record wire format (exposed for tests and fuzzing) -------------------

// Serializes a full record file (header + checksummed payload).
std::string encode_record(const CacheKey& key, const CacheRecord& rec);

// Parses the bytes of a record file.  On success fills `rec`; on failure
// returns the coded outcome with a human-readable `detail`.  When
// `expect_key` is non-null, the embedded key must match (kKeyMismatch).
ProbeOutcome decode_record(const std::string& bytes,
                           const CacheKey* expect_key, CacheRecord* rec,
                           std::string* detail);

}  // namespace fusedp::findb
