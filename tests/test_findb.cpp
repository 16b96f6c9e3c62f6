// storage/findb unit tests: record wire format, the corruption matrix at
// the decode layer, FindDb probe/store/evict/scan semantics, the memory
// tier, compaction budgets, lock timeouts and injected fault points.
//
// Every case drives the cache through a private temp directory and asserts
// the *coded* outcome: the cache must never throw, never serve damaged
// bytes, and never leave the directory in a state a later open cannot
// recover from.
#include "storage/findb.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "storage/lock.hpp"
#include "support/fault.hpp"
#include "support/fingerprint.hpp"

namespace fusedp {
namespace {

using findb::CacheKey;
using findb::CacheMode;
using findb::CacheRecord;
using findb::FindDb;
using findb::FindbOptions;
using findb::ProbeOutcome;
using findb::ProbeResult;

// A scoped temp directory; recursively removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/fusedp_findb_test_XXXXXX";
    char* p = ::mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    path = p ? p : "";
  }
  ~TempDir() {
    if (!path.empty()) {
      std::string cmd = "rm -rf '" + path + "'";
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
};

CacheKey test_key(std::uint64_t salt = 0) {
  return CacheKey{0x1111111111111111ull + salt, 0x2222222222222222ull,
                  0x3333333333333333ull};
}

CacheRecord test_record() {
  CacheRecord rec;
  rec.pipeline = "blur";
  rec.git_sha = "abcdef123456";
  rec.rung = "full-dp";
  rec.created_unix = 1700000000;
  rec.predicted = {1.5, 2.25, 0.125};
  rec.measured_ms = {0.4, 0.9};
  rec.schedule_text =
      "fusedp-schedule v1\n"
      "groups 1\n"
      "group 0 tile 32 256\n"
      "  stage blurx\n";
  return rec;
}

FindbOptions rw_options(const std::string& dir) {
  FindbOptions fo;
  fo.dir = dir;
  fo.mode = CacheMode::kReadWrite;
  fo.memory_entries = 0;  // exercise the disk path unless a test opts in
  return fo;
}

std::string record_path(const std::string& dir, const CacheKey& key) {
  return dir + "/" + key.stem() + ".fdb";
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

TEST(CacheKeyTest, StemRoundTrip) {
  const CacheKey key = test_key();
  const std::string stem = key.stem();
  EXPECT_EQ(stem.size(), 50u);  // 16 + '-' + 16 + '-' + 16
  CacheKey back;
  ASSERT_TRUE(CacheKey::parse_stem(stem, &back));
  EXPECT_EQ(back, key);

  CacheKey out;
  EXPECT_FALSE(CacheKey::parse_stem("", &out));
  EXPECT_FALSE(CacheKey::parse_stem("not-a-stem", &out));
  // Right length, wrong separator positions.
  std::string bad = stem;
  bad[16] = '0';
  EXPECT_FALSE(CacheKey::parse_stem(bad, &out));
}

TEST(RecordFormatTest, EncodeDecodeRoundTrip) {
  const CacheKey key = test_key();
  const CacheRecord rec = test_record();
  const std::string bytes = findb::encode_record(key, rec);

  CacheRecord back;
  std::string detail;
  ASSERT_EQ(findb::decode_record(bytes, &key, &back, &detail),
            ProbeOutcome::kHit)
      << detail;
  EXPECT_EQ(back.pipeline, rec.pipeline);
  EXPECT_EQ(back.git_sha, rec.git_sha);
  EXPECT_EQ(back.rung, rec.rung);
  EXPECT_EQ(back.created_unix, rec.created_unix);
  EXPECT_EQ(back.predicted, rec.predicted);    // %.17g: bit-exact doubles
  EXPECT_EQ(back.measured_ms, rec.measured_ms);
  EXPECT_EQ(back.schedule_text, rec.schedule_text);
}

// The corruption matrix at the decode layer: each damage class must map to
// its own coded outcome, never a crash or a false kHit.
TEST(RecordFormatTest, CorruptionMatrix) {
  const CacheKey key = test_key();
  const std::string bytes = findb::encode_record(key, test_record());
  CacheRecord rec;
  std::string detail;

  // Truncation anywhere in the payload -> kTruncated (checked before CRC,
  // so a crash-partial write is distinguishable from a bit flip).
  for (std::size_t keep : {bytes.size() - 1, bytes.size() / 2}) {
    EXPECT_EQ(findb::decode_record(bytes.substr(0, keep), &key, &rec, &detail),
              ProbeOutcome::kTruncated)
        << "keep=" << keep << ": " << detail;
  }

  // A flipped bit in the payload -> kCorrupt (CRC catches it).
  {
    std::string flipped = bytes;
    flipped[bytes.size() - 2] ^= 0x40;
    EXPECT_EQ(findb::decode_record(flipped, &key, &rec, &detail),
              ProbeOutcome::kCorrupt)
        << detail;
  }

  // Unknown format version -> kVersionSkew.
  {
    std::string skewed = bytes;
    const std::size_t v = skewed.find(" v1\n");
    ASSERT_NE(v, std::string::npos);
    skewed.replace(v, 4, " v9\n");
    EXPECT_EQ(findb::decode_record(skewed, &key, &rec, &detail),
              ProbeOutcome::kVersionSkew)
        << detail;
  }

  // Wrong magic / arbitrary garbage -> kCorrupt.
  EXPECT_EQ(findb::decode_record("not a record at all\n", &key, &rec, &detail),
            ProbeOutcome::kCorrupt);
  EXPECT_EQ(findb::decode_record("", &key, &rec, &detail),
            ProbeOutcome::kTruncated);

  // Strict framing: bytes past the declared payload (concatenated records,
  // appended junk) must not ride in on a clean hit.
  EXPECT_EQ(findb::decode_record(bytes + "\n", &key, &rec, &detail),
            ProbeOutcome::kCorrupt)
      << detail;
  EXPECT_EQ(findb::decode_record(bytes + bytes, &key, &rec, &detail),
            ProbeOutcome::kCorrupt)
      << detail;

  // A record stored under a different key -> kKeyMismatch (detects renamed
  // / copied files).
  {
    const CacheKey other = test_key(99);
    EXPECT_EQ(findb::decode_record(bytes, &other, &rec, &detail),
              ProbeOutcome::kKeyMismatch)
        << detail;
  }
}

TEST(FindDbTest, StoreProbeRoundTrip) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  const CacheKey key = test_key();

  ProbeResult miss = db.probe(key);
  EXPECT_EQ(miss.outcome, ProbeOutcome::kMiss);

  auto stored = db.store(key, test_record());
  ASSERT_TRUE(stored.ok()) << stored.error().what();

  ProbeResult hit = db.probe(key);
  ASSERT_EQ(hit.outcome, ProbeOutcome::kHit) << hit.detail;
  EXPECT_FALSE(hit.from_memory);
  EXPECT_EQ(hit.record.schedule_text, test_record().schedule_text);
  EXPECT_EQ(db.counters().hits, 1);
  EXPECT_EQ(db.counters().misses, 1);
  EXPECT_EQ(db.counters().stores, 1);

  // No temp debris survives a clean store.
  std::string out = slurp(record_path(dir.path, key));
  EXPECT_FALSE(out.empty());
}

TEST(FindDbTest, ReadModeNeverWrites) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindbOptions fo = rw_options(dir.path);
  fo.mode = CacheMode::kRead;
  FindDb db(fo);
  auto stored = db.store(test_key(), test_record());
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.error().code(), ErrorCode::kInvalidArgument);
  // The directory was never even created.
  EXPECT_EQ(db.probe(test_key()).outcome, ProbeOutcome::kMiss);
}

TEST(FindDbTest, OffModeBypasses) {
  TempDir dir;
  FindbOptions fo = rw_options(dir.path);
  fo.mode = CacheMode::kOff;
  FindDb db(fo);
  EXPECT_EQ(db.probe(test_key()).outcome, ProbeOutcome::kBypass);
}

TEST(FindDbTest, MemoryTierServesWithoutDisk) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindbOptions fo = rw_options(dir.path);
  fo.memory_entries = 8;
  FindDb db(fo);
  const CacheKey key = test_key();
  ASSERT_TRUE(db.store(key, test_record()).ok());

  // The store primed the memory tier: delete the file underneath and the
  // probe must still hit, from memory.
  ASSERT_EQ(std::remove(record_path(dir.path, key).c_str()), 0);
  ProbeResult hit = db.probe(key);
  ASSERT_EQ(hit.outcome, ProbeOutcome::kHit) << hit.detail;
  EXPECT_TRUE(hit.from_memory);
  EXPECT_EQ(db.counters().memory_hits, 1);

  // Clearing the tier exposes the missing file.
  FindDb::clear_memory_tier();
  EXPECT_EQ(db.probe(key).outcome, ProbeOutcome::kMiss);
}

TEST(FindDbTest, MemoryTierIsLru) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindbOptions fo = rw_options(dir.path);
  fo.memory_entries = 2;
  fo.max_entries = 0;  // no disk compaction in this test
  FindDb db(fo);
  ASSERT_TRUE(db.store(test_key(0), test_record()).ok());
  ASSERT_TRUE(db.store(test_key(1), test_record()).ok());
  // Touch key 0 so key 1 is the LRU victim when key 2 arrives.
  EXPECT_EQ(db.probe(test_key(0)).outcome, ProbeOutcome::kHit);
  ASSERT_TRUE(db.store(test_key(2), test_record()).ok());

  // Remove all files: only memory-tier residents can still hit.
  for (std::uint64_t s : {0u, 1u, 2u})
    std::remove(record_path(dir.path, test_key(s)).c_str());
  EXPECT_EQ(db.probe(test_key(0)).outcome, ProbeOutcome::kHit);
  EXPECT_EQ(db.probe(test_key(2)).outcome, ProbeOutcome::kHit);
  EXPECT_EQ(db.probe(test_key(1)).outcome, ProbeOutcome::kMiss);
  FindDb::clear_memory_tier();
}

// The FindDb-level corruption matrix: damage on disk -> coded outcome, and
// in readwrite mode the bad record is evicted on sight.
TEST(FindDbTest, CorruptRecordsAreCodedAndEvicted) {
  struct Case {
    const char* name;
    void (*damage)(const std::string& path);
    ProbeOutcome want;
  };
  const Case cases[] = {
      {"truncate",
       [](const std::string& p) {
         std::string b = slurp(p);
         spit(p, b.substr(0, b.size() / 2));
       },
       ProbeOutcome::kTruncated},
      {"bit-flip",
       [](const std::string& p) {
         std::string b = slurp(p);
         b[b.size() - 3] ^= 0x10;
         spit(p, b);
       },
       ProbeOutcome::kCorrupt},
      {"version-skew",
       [](const std::string& p) {
         std::string b = slurp(p);
         const std::size_t v = b.find(" v1\n");
         ASSERT_NE(v, std::string::npos);
         b.replace(v, 4, " v9\n");
         spit(p, b);
       },
       ProbeOutcome::kVersionSkew},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    FindDb::clear_memory_tier();
    FindDb db(rw_options(dir.path));
    const CacheKey key = test_key();
    ASSERT_TRUE(db.store(key, test_record()).ok());
    c.damage(record_path(dir.path, key));

    ProbeResult pr = db.probe(key);
    EXPECT_EQ(pr.outcome, c.want) << pr.detail;
    EXPECT_TRUE(findb::outcome_evicts(pr.outcome));
    EXPECT_GE(db.counters().bad_records, 1);
    // The kReadWrite probe evicted the damaged file; the next probe is a
    // clean miss.
    EXPECT_EQ(db.probe(key).outcome, ProbeOutcome::kMiss);
  }
}

TEST(FindDbTest, StaleGitShaInvalidates) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindbOptions writer = rw_options(dir.path);
  writer.git_sha = "";  // writer accepts anything
  FindDb dbw(writer);
  ASSERT_TRUE(dbw.store(test_key(), test_record()).ok());

  FindbOptions reader = rw_options(dir.path);
  reader.git_sha = "feedfacecafe";  // != record's abcdef123456
  reader.mode = CacheMode::kRead;   // never evicts: keep the record
  FindDb dbr(reader);
  ProbeResult pr = dbr.probe(test_key());
  EXPECT_EQ(pr.outcome, ProbeOutcome::kStaleSha) << pr.detail;

  // A reader built at the recorded SHA still hits.
  FindbOptions match = rw_options(dir.path);
  match.git_sha = "abcdef123456";
  FindDb dbm(match);
  EXPECT_EQ(dbm.probe(test_key()).outcome, ProbeOutcome::kHit);
}

TEST(FindDbTest, CompactionEnforcesEntryBudget) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindbOptions fo = rw_options(dir.path);
  fo.max_entries = 3;
  FindDb db(fo);
  for (std::uint64_t s = 0; s < 6; ++s)
    ASSERT_TRUE(db.store(test_key(s), test_record()).ok());

  auto scan = db.scan();
  ASSERT_TRUE(scan.ok()) << scan.error().what();
  EXPECT_LE(static_cast<std::int64_t>(scan.value().size()), fo.max_entries);
  // The newest record always survives its own store's compaction.
  bool newest_alive = false;
  for (const auto& e : scan.value())
    if (e.key == test_key(5)) newest_alive = true;
  EXPECT_TRUE(newest_alive);
  EXPECT_GE(db.counters().evictions, 3);
}

TEST(FindDbTest, CompactionEnforcesByteBudget) {
  TempDir dir;
  FindDb::clear_memory_tier();
  const std::int64_t one = static_cast<std::int64_t>(
      findb::encode_record(test_key(), test_record()).size());
  FindbOptions fo = rw_options(dir.path);
  fo.max_entries = 0;       // entry bound off
  fo.max_bytes = 2 * one;   // room for two records
  FindDb db(fo);
  for (std::uint64_t s = 0; s < 5; ++s)
    ASSERT_TRUE(db.store(test_key(s), test_record()).ok());
  auto scan = db.scan();
  ASSERT_TRUE(scan.ok());
  std::int64_t total = 0;
  for (const auto& e : scan.value()) total += e.bytes;
  EXPECT_LE(total, fo.max_bytes);
}

TEST(FindDbTest, EvictAndEvictAll) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  ASSERT_TRUE(db.store(test_key(0), test_record()).ok());
  ASSERT_TRUE(db.store(test_key(1), test_record()).ok());

  auto one = db.evict(test_key(0));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value(), 1);
  EXPECT_EQ(db.probe(test_key(0)).outcome, ProbeOutcome::kMiss);
  EXPECT_EQ(db.probe(test_key(1)).outcome, ProbeOutcome::kHit);

  auto all = db.evict_all();
  ASSERT_TRUE(all.ok());
  EXPECT_GE(all.value(), 1);
  EXPECT_EQ(db.probe(test_key(1)).outcome, ProbeOutcome::kMiss);
}

// The memory tier is shared process-wide across cache directories, but
// evict_all() must only drop the entries belonging to *its* directory —
// a concurrent session on another cache_dir keeps its hot tier.
TEST(FindDbTest, EvictAllScopesMemoryTierToOwnDir) {
  TempDir dir_a, dir_b;
  FindDb::clear_memory_tier();
  FindbOptions fa = rw_options(dir_a.path);
  FindbOptions fb = rw_options(dir_b.path);
  fa.memory_entries = fb.memory_entries = 8;
  FindDb db_a(fa), db_b(fb);
  const CacheKey key = test_key();
  ASSERT_TRUE(db_a.store(key, test_record()).ok());
  ASSERT_TRUE(db_b.store(key, test_record()).ok());

  auto all = db_a.evict_all();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(db_a.probe(key).outcome, ProbeOutcome::kMiss);

  // db_b still hits, and from *memory*: delete its file underneath first,
  // so a hit can only come from a hot tier evict_all left alone.
  ASSERT_EQ(std::remove(record_path(dir_b.path, key).c_str()), 0);
  ProbeResult hit = db_b.probe(key);
  ASSERT_EQ(hit.outcome, ProbeOutcome::kHit) << hit.detail;
  EXPECT_TRUE(hit.from_memory);
}

TEST(FindDbTest, ScanReportsAndRepairs) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  ASSERT_TRUE(db.store(test_key(0), test_record()).ok());
  ASSERT_TRUE(db.store(test_key(1), test_record()).ok());
  // Damage one record and drop an orphan temp file.
  {
    const std::string p = record_path(dir.path, test_key(1));
    std::string b = slurp(p);
    b[b.size() - 2] ^= 0x01;
    spit(p, b);
  }
  spit(dir.path + "/" + test_key(2).stem() + ".fdb.tmp.999.1", "debris");

  auto scan = db.scan();
  ASSERT_TRUE(scan.ok());
  int valid = 0, invalid = 0;
  for (const auto& e : scan.value()) (e.valid ? valid : invalid)++;
  EXPECT_EQ(valid, 1);
  EXPECT_EQ(invalid, 1);

  auto repaired = db.scan(/*repair=*/true);
  ASSERT_TRUE(repaired.ok());
  auto after = db.scan();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), 1u);
  for (const auto& e : after.value()) EXPECT_TRUE(e.valid);
}

TEST(FindDbTest, LockTimeoutIsCoded) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb seed(rw_options(dir.path));
  ASSERT_TRUE(seed.store(test_key(), test_record()).ok());

  // Hold the directory lock exclusively (flock coordinates across open
  // file descriptions, so this conflicts even within one process); a prober
  // with a tiny timeout must resolve to kLockTimeout, not block or throw.
  auto held = storage::FileLock::acquire(dir.path + "/findb.lock",
                                         storage::FileLock::Type::kExclusive,
                                         1.0);
  ASSERT_TRUE(held.ok()) << held.error().what();

  FindbOptions fo = rw_options(dir.path);
  fo.lock_timeout_seconds = 0.02;
  FindDb db(fo);
  ProbeResult pr = db.probe(test_key());
  EXPECT_EQ(pr.outcome, ProbeOutcome::kLockTimeout) << pr.detail;
  EXPECT_EQ(db.counters().lock_timeouts, 1);

  auto stored = db.store(test_key(7), test_record());
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.error().code(), ErrorCode::kDeadlineExceeded);
}

TEST(FindDbTest, ExpiredDeadlineShortCircuitsProbe) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  ASSERT_TRUE(db.store(test_key(), test_record()).ok());

  Deadline dl = Deadline::after(0.0);  // already expired
  ProbeResult pr = db.probe(test_key(), &dl);
  EXPECT_EQ(pr.outcome, ProbeOutcome::kLockTimeout) << pr.detail;
}

TEST(FindDbFaultTest, ReadFaultIsCodedIoError) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  ASSERT_TRUE(db.store(test_key(), test_record()).ok());

  FaultInjector::arm("findb.read");
  ProbeResult pr = db.probe(test_key());
  FaultInjector::disarm();
  EXPECT_EQ(pr.outcome, ProbeOutcome::kIoError) << pr.detail;
  // The record itself is untouched; the next probe hits.
  EXPECT_EQ(db.probe(test_key()).outcome, ProbeOutcome::kHit);
}

TEST(FindDbFaultTest, WriteFaultLeavesNoRecord) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));

  FaultInjector::arm("findb.write");
  auto stored = db.store(test_key(), test_record());
  FaultInjector::disarm();
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.error().code(), ErrorCode::kFaultInjected);
  EXPECT_EQ(db.probe(test_key()).outcome, ProbeOutcome::kMiss);
  EXPECT_EQ(db.counters().store_failures, 1);
}

// Kill-mid-write: the fault fires after the temp file is fully written and
// fsynced but before the rename — the canonical crash window.  The failed
// store must leave only ignorable debris, and overwrite of an existing
// record must keep the OLD record intact.
TEST(FindDbFaultTest, CommitFaultPreservesOldRecord) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  const CacheKey key = test_key();
  CacheRecord v1 = test_record();
  v1.rung = "greedy";
  ASSERT_TRUE(db.store(key, v1).ok());
  FindDb::clear_memory_tier();  // force the disk path below

  CacheRecord v2 = test_record();
  v2.rung = "full-dp";
  FaultInjector::arm("findb.commit");
  auto stored = db.store(key, v2);
  FaultInjector::disarm();
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(stored.error().code(), ErrorCode::kFaultInjected);

  ProbeResult pr = db.probe(key);
  ASSERT_EQ(pr.outcome, ProbeOutcome::kHit) << pr.detail;
  EXPECT_EQ(pr.record.rung, "greedy");  // the old record, not the new one
}

TEST(FindDbFaultTest, LockFaultIsCoded) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  ASSERT_TRUE(db.store(test_key(), test_record()).ok());

  FaultInjector::arm("lock.acquire");
  ProbeResult pr = db.probe(test_key());
  FaultInjector::disarm();
  // The injected lock failure degrades to a coded non-hit (io-error or
  // lock-timeout depending on where it lands) — never an exception.
  EXPECT_NE(pr.outcome, ProbeOutcome::kHit);
  EXPECT_EQ(db.probe(test_key()).outcome, ProbeOutcome::kHit);
}

TEST(FindDbTest, OversizedRecordRejected) {
  TempDir dir;
  FindDb::clear_memory_tier();
  FindDb db(rw_options(dir.path));
  CacheRecord rec = test_record();
  rec.schedule_text.assign(5u << 20, 'x');  // > kMaxRecordBytes
  auto stored = db.store(test_key(), rec);
  ASSERT_FALSE(stored.ok());
  EXPECT_EQ(db.probe(test_key()).outcome, ProbeOutcome::kMiss);
}

}  // namespace
}  // namespace fusedp
