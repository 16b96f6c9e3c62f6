// Session::open through the persistent schedule cache (storage/findb):
// warm starts must be bit-identical to cache-off opens and skip the search
// entirely, and every injected cache failure — corruption, version skew,
// stale build, hostile schedule text, a wedged lock — must resolve to a
// coded CacheEvent plus a successful fresh autoschedule.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "api/session.hpp"
#include "fusion/serialize.hpp"
#include "pipelines/pipelines.hpp"
#include "storage/lock.hpp"
#include "support/fault.hpp"
#include "support/fingerprint.hpp"
#include "support/timing.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

using testing::buffers_equal;

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/fusedp_session_cache_XXXXXX";
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

Options cache_options(const std::string& dir,
                      findb::CacheMode mode = findb::CacheMode::kReadWrite) {
  Options o;
  o.scheduler = Scheduler::kGreedy;  // deterministic and fast
  o.cache_mode = mode;
  o.cache_dir = dir;
  o.cache_memory_entries = 0;  // disk path: corruption must reach the decoder
  return o;
}

// The cache key Session::open computes for (pl, opts) — used to damage the
// record file a session wrote.
findb::CacheKey session_key(const Pipeline& pl, const Options& opts) {
  return findb::CacheKey{fingerprint(pl), fingerprint(opts.machine),
                         opts.schedule_fingerprint()};
}

std::string record_path(const std::string& dir, const findb::CacheKey& key) {
  return dir + "/" + key.stem() + ".fdb";
}

const observe::CacheEvent* first_probe(const Session& s) {
  for (const auto& ev : s.cache_events())
    if (ev.action == "probe") return &ev;
  return nullptr;
}

bool has_event(const Session& s, const std::string& action,
               const std::string& outcome) {
  for (const auto& ev : s.cache_events())
    if (ev.action == action && ev.outcome == outcome) return true;
  return false;
}

TEST(SessionCacheValidationTest, RejectsInconsistentCacheOptions) {
  PipelineSpec spec = make_benchmark("unsharp", 32);

  Options no_dir;
  no_dir.cache_mode = findb::CacheMode::kRead;  // mode on, dir missing
  auto r1 = Session::open(*spec.pipeline, no_dir);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().code(), ErrorCode::kInvalidArgument);

  Options bad_timeout = cache_options("/tmp/x");
  bad_timeout.cache_lock_timeout_seconds = -1.0;
  auto r2 = Session::open(*spec.pipeline, bad_timeout);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().code(), ErrorCode::kInvalidArgument);

  Options bad_mem = cache_options("/tmp/x");
  bad_mem.cache_memory_entries = -1;
  auto r3 = Session::open(*spec.pipeline, bad_mem);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.error().code(), ErrorCode::kInvalidArgument);

  // With the cache ON, a deadline composes with any scheduler (it bounds
  // the probe); with the cache OFF that combination stays rejected.
  Options dl_cache = cache_options("/tmp/x");
  dl_cache.deadline_seconds = 1.0;
  EXPECT_TRUE(validate_options(dl_cache).ok());
  Options dl_off;
  dl_off.scheduler = Scheduler::kGreedy;
  dl_off.deadline_seconds = 1.0;
  EXPECT_FALSE(validate_options(dl_off).ok());
}

TEST(SessionCacheTest, WarmStartIsBitIdenticalToCacheOff) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("harris", 16);
  const std::vector<Buffer> inputs = spec.make_inputs();

  // Reference: no cache at all.
  Options off;
  off.scheduler = Scheduler::kGreedy;
  auto ref = Session::open(*spec.pipeline, off);
  ASSERT_TRUE(ref.ok()) << ref.error().what();
  Session ref_s = std::move(ref).value();
  auto ref_out = ref_s.run(inputs);
  ASSERT_TRUE(ref_out.ok()) << ref_out.error().what();

  // Cold open: miss, fresh search, record stored.
  auto cold = Session::open(*spec.pipeline, cache_options(dir.path));
  ASSERT_TRUE(cold.ok()) << cold.error().what();
  EXPECT_FALSE(cold.value().warm_start());
  ASSERT_NE(first_probe(cold.value()), nullptr);
  EXPECT_EQ(first_probe(cold.value())->outcome, "miss");
  EXPECT_TRUE(has_event(cold.value(), "store", "stored"));

  // Warm open: hit, zero search, same grouping, same pixels.
  auto warm = Session::open(*spec.pipeline, cache_options(dir.path));
  ASSERT_TRUE(warm.ok()) << warm.error().what();
  Session warm_s = std::move(warm).value();
  EXPECT_TRUE(warm_s.warm_start());
  EXPECT_EQ(first_probe(warm_s)->outcome, "hit");
  EXPECT_EQ(warm_s.grouping().to_string(*spec.pipeline),
            cold.value().grouping().to_string(*spec.pipeline));
  EXPECT_EQ(warm_s.diagnostics().total_states, 0u);
  EXPECT_TRUE(warm_s.diagnostics().attempts.empty());

  auto warm_out = warm_s.run(inputs);
  ASSERT_TRUE(warm_out.ok()) << warm_out.error().what();
  ASSERT_EQ(warm_out.value().size(), ref_out.value().size());
  for (std::size_t i = 0; i < warm_out.value().size(); ++i)
    EXPECT_TRUE(buffers_equal(warm_out.value()[i], ref_out.value()[i]))
        << "output " << i << " differs from the cache-off reference";

  // The warm grouping kept the record's predicted costs.
  EXPECT_GT(warm_s.grouping().total_cost, 0.0);

  // RunReport surfaces the warm start.
  EXPECT_TRUE(warm_s.last_report().warm_start);
  EXPECT_EQ(warm_s.last_report().cache_outcome, "hit");
}

TEST(SessionCacheTest, WarmAutoOpenSkipsTheSearch) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  auto pl = testing::random_pipeline(6, 96, 96, 7);
  std::vector<Buffer> inputs;
  inputs.push_back(make_synthetic_image(pl->input(0).domain.extents(), 7));

  Options o = cache_options(dir.path);
  o.scheduler = Scheduler::kAuto;

  auto cold = Session::open(*pl, o);
  ASSERT_TRUE(cold.ok()) << cold.error().what();
  Session cold_s = std::move(cold).value();
  EXPECT_FALSE(cold_s.warm_start());
  // The ladder actually ran.
  EXPECT_FALSE(cold_s.diagnostics().attempts.empty());

  auto warm = Session::open(*pl, o);
  ASSERT_TRUE(warm.ok()) << warm.error().what();
  Session warm_s = std::move(warm).value();
  EXPECT_TRUE(warm_s.warm_start());
  // Zero DP search on the warm path: no ladder attempts, no states.
  EXPECT_TRUE(warm_s.diagnostics().attempts.empty());
  EXPECT_EQ(warm_s.diagnostics().total_states, 0u);
  EXPECT_EQ(warm_s.grouping().to_string(*pl),
            cold_s.grouping().to_string(*pl));

  auto a = cold_s.run(inputs);
  auto b = warm_s.run(inputs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(buffers_equal(a.value()[0], b.value()[0]));
}

// The corruption matrix through the full Session path: every damage class
// degrades to a coded probe event plus a fresh search whose outputs match
// the cache-off reference bit for bit.
TEST(SessionCacheTest, CorruptRecordsDegradeToFreshSearch) {
  struct Case {
    const char* name;
    void (*damage)(const std::string& path);
    const char* want_outcome;
  };
  const Case cases[] = {
      {"truncate",
       [](const std::string& p) {
         std::ifstream in(p, std::ios::binary);
         std::ostringstream ss;
         ss << in.rdbuf();
         std::string b = ss.str();
         std::ofstream out(p, std::ios::binary | std::ios::trunc);
         out << b.substr(0, b.size() / 2);
       },
       "truncated"},
      {"bit-flip",
       [](const std::string& p) {
         std::ifstream in(p, std::ios::binary);
         std::ostringstream ss;
         ss << in.rdbuf();
         std::string b = ss.str();
         b[b.size() - 3] = static_cast<char>(b[b.size() - 3] ^ 0x20);
         std::ofstream out(p, std::ios::binary | std::ios::trunc);
         out << b;
       },
       "corrupt"},
      {"version-skew",
       [](const std::string& p) {
         std::ifstream in(p, std::ios::binary);
         std::ostringstream ss;
         ss << in.rdbuf();
         std::string b = ss.str();
         const std::size_t v = b.find(" v1\n");
         ASSERT_NE(v, std::string::npos);
         b.replace(v, 4, " v9\n");
         std::ofstream out(p, std::ios::binary | std::ios::trunc);
         out << b;
       },
       "version-skew"},
  };

  PipelineSpec spec = make_benchmark("unsharp", 16);
  const std::vector<Buffer> inputs = spec.make_inputs();
  Options off;
  off.scheduler = Scheduler::kGreedy;
  auto ref = Session::open(*spec.pipeline, off);
  ASSERT_TRUE(ref.ok());
  Session ref_s = std::move(ref).value();
  auto ref_out = ref_s.run(inputs);
  ASSERT_TRUE(ref_out.ok());

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempDir dir;
    findb::FindDb::clear_memory_tier();
    const Options opts = cache_options(dir.path);

    auto cold = Session::open(*spec.pipeline, opts);
    ASSERT_TRUE(cold.ok()) << cold.error().what();
    c.damage(record_path(dir.path, session_key(*spec.pipeline, opts)));

    auto opened = Session::open(*spec.pipeline, opts);
    ASSERT_TRUE(opened.ok()) << opened.error().what();
    Session s = std::move(opened).value();
    EXPECT_FALSE(s.warm_start());
    ASSERT_NE(first_probe(s), nullptr);
    EXPECT_EQ(first_probe(s)->outcome, c.want_outcome)
        << first_probe(s)->detail;
    // readwrite evicted the bad record and re-stored a fresh one.
    EXPECT_TRUE(has_event(s, "store", "stored"));

    auto out = s.run(inputs);
    ASSERT_TRUE(out.ok()) << out.error().what();
    for (std::size_t i = 0; i < out.value().size(); ++i)
      EXPECT_TRUE(buffers_equal(out.value()[i], ref_out.value()[i]));

    // And the re-stored record serves the next open warm.
    auto again = Session::open(*spec.pipeline, opts);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again.value().warm_start());
  }
}

TEST(SessionCacheTest, StaleBuildShaInvalidates) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);
  const Options opts = cache_options(dir.path);
  const findb::CacheKey key = session_key(*spec.pipeline, opts);

  // Plant a well-formed record claiming a different build.
  auto cold = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(cold.ok());
  findb::FindDb db(opts.findb_options());
  findb::ProbeResult pr = db.probe(key);
  ASSERT_EQ(pr.outcome, findb::ProbeOutcome::kHit) << pr.detail;
  findb::CacheRecord rec = pr.record;
  rec.git_sha = "0000000000000000";
  {
    std::ofstream f(record_path(dir.path, key),
                    std::ios::binary | std::ios::trunc);
    f << findb::encode_record(key, rec);
  }
  findb::FindDb::clear_memory_tier();

  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok()) << s.error().what();
  EXPECT_FALSE(s.value().warm_start());
  EXPECT_EQ(first_probe(s.value())->outcome, "stale-sha")
      << first_probe(s.value())->detail;
  EXPECT_TRUE(has_event(s.value(), "store", "stored"));
}

// A record that passes every integrity check but whose schedule text names
// stages this pipeline does not have: the hardened parser must reject it,
// the session must emit "invalid-schedule", evict, and search fresh.
TEST(SessionCacheTest, HostileScheduleTextIsRejected) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);
  const Options opts = cache_options(dir.path);
  const findb::CacheKey key = session_key(*spec.pipeline, opts);

  auto cold = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(cold.ok());
  findb::FindDb db(opts.findb_options());
  findb::ProbeResult pr = db.probe(key);
  ASSERT_EQ(pr.outcome, findb::ProbeOutcome::kHit);
  findb::CacheRecord rec = pr.record;
  rec.schedule_text =
      "fusedp-schedule v1\n"
      "groups 1\n"
      "group 0 tile 32 256\n"
      "  stage no_such_stage\n";
  {
    std::ofstream f(record_path(dir.path, key),
                    std::ios::binary | std::ios::trunc);
    f << findb::encode_record(key, rec);
  }
  findb::FindDb::clear_memory_tier();

  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok()) << s.error().what();
  EXPECT_FALSE(s.value().warm_start());
  EXPECT_TRUE(has_event(s.value(), "probe", "invalid-schedule"));
  // The hostile record was evicted and replaced by a valid fresh one.
  auto again = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().warm_start());
}

// Regression: a cached schedule that parses cleanly but whose *plan
// construction* throws (footprint checks, lowering) must fall back to a
// fresh search with the open-scoped state intact.  The old fallback read
// moved-from Options and a dangling observer pointer — with collect_trace
// on, ASan flags the use-after-free and the trace was silently lost.
TEST(SessionCacheTest, WarmPlanFailureFallsBackWithTraceIntact) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);
  const std::vector<Buffer> inputs = spec.make_inputs();
  Options opts = cache_options(dir.path);
  opts.collect_trace = true;  // the dangling-observer half of the old bug

  auto cold = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(cold.ok()) << cold.error().what();
  ASSERT_TRUE(has_event(cold.value(), "store", "stored"));

  // The next open hits the cache and parses the schedule, then the armed
  // fault makes plan construction throw at the warm-start site.
  FaultInjector::arm("session.warm_plan", ErrorCode::kInternal, /*skip=*/0);
  auto s = Session::open(*spec.pipeline, opts);
  FaultInjector::disarm();
  ASSERT_TRUE(s.ok()) << s.error().what();
  Session sess = std::move(s).value();
  EXPECT_FALSE(sess.warm_start());
  EXPECT_TRUE(has_event(sess, "probe", "invalid-schedule"));
  // The fallback re-stored a fresh record (proof the fresh-search path saw
  // intact, not moved-from, Options).
  EXPECT_TRUE(has_event(sess, "store", "stored"));
  // The trace collector survived the fallback: a run still produces a trace.
  auto out = sess.run(inputs);
  ASSERT_TRUE(out.ok()) << out.error().what();
  EXPECT_NE(sess.trace(), nullptr);

  // And the re-stored record warm-starts the next open as usual.
  auto again = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(again.ok()) << again.error().what();
  EXPECT_TRUE(again.value().warm_start());
}

// Satellite 2: one deadline bounds the probe AND the search — a wedged
// cache directory (lock held elsewhere) cannot stall Session::open past
// the schedule-search deadline even when the lock timeout is much larger.
TEST(SessionCacheTest, DeadlineBoundsCacheProbe) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);

  // Seed a record so the probe actually reaches the lock.
  const Options seed = cache_options(dir.path);
  ASSERT_TRUE(Session::open(*spec.pipeline, seed).ok());
  findb::FindDb::clear_memory_tier();

  auto held = storage::FileLock::acquire(dir.path + "/findb.lock",
                                         storage::FileLock::Type::kExclusive,
                                         1.0);
  ASSERT_TRUE(held.ok()) << held.error().what();

  Options opts = cache_options(dir.path, findb::CacheMode::kRead);
  opts.deadline_seconds = 0.2;          // the real bound
  opts.cache_lock_timeout_seconds = 30.0;  // would stall without the fix
  WallTimer timer;
  auto s = Session::open(*spec.pipeline, opts);
  const double elapsed = timer.seconds();
  ASSERT_TRUE(s.ok()) << s.error().what();
  EXPECT_FALSE(s.value().warm_start());
  EXPECT_EQ(first_probe(s.value())->outcome, "lock-timeout")
      << first_probe(s.value())->detail;
  // Probe + greedy search both fit comfortably under a few seconds; 30 s
  // of lock wait would blow straight through this.
  EXPECT_LT(elapsed, 10.0);
}

TEST(SessionCacheTest, ReadModeNeverStores) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);
  const Options opts = cache_options(dir.path, findb::CacheMode::kRead);

  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(first_probe(s.value())->outcome, "miss");
  for (const auto& ev : s.value().cache_events())
    EXPECT_NE(ev.action, "store");
  // Nothing was written: a second read-mode open still misses.
  auto again = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first_probe(again.value())->outcome, "miss");
}

TEST(SessionCacheTest, CallerProvidedGroupingBypasses) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);
  const Options opts = cache_options(dir.path);

  auto base = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(base.ok());
  auto s = Session::open(*spec.pipeline, base.value().grouping(), opts);
  ASSERT_TRUE(s.ok()) << s.error().what();
  EXPECT_FALSE(s.value().warm_start());
  ASSERT_EQ(s.value().cache_events().size(), 1u);
  EXPECT_EQ(s.value().cache_events()[0].outcome, "bypass");
}

TEST(SessionCacheTest, MemoryTierServesSecondSessionInProcess) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);
  Options opts = cache_options(dir.path);
  opts.cache_memory_entries = 8;  // memory tier ON for this test

  ASSERT_TRUE(Session::open(*spec.pipeline, opts).ok());
  // Remove the file: only the in-process tier can serve the second open.
  ASSERT_EQ(std::remove(
                record_path(dir.path, session_key(*spec.pipeline, opts))
                    .c_str()),
            0);
  auto warm = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().warm_start());
  EXPECT_TRUE(first_probe(warm.value())->from_memory);
  findb::FindDb::clear_memory_tier();
}

// Different schedule-relevant options must key different records: a greedy
// record must never serve a kUnfused open.
TEST(SessionCacheTest, OptionsChangeMissesTheCache) {
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);

  ASSERT_TRUE(Session::open(*spec.pipeline, cache_options(dir.path)).ok());
  Options unfused = cache_options(dir.path);
  unfused.scheduler = Scheduler::kUnfused;
  auto s = Session::open(*spec.pipeline, unfused);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(s.value().warm_start());
  EXPECT_EQ(first_probe(s.value())->outcome, "miss");
  // But execution knobs are not schedule-relevant: same record, warm.
  Options threads = cache_options(dir.path);
  threads.num_threads = 2;
  auto t = Session::open(*spec.pipeline, threads);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t.value().warm_start());
}

// The machine fingerprint as it was before kCostModelRevision joined it:
// the key under which a schedule picked by the earlier cost model sits.
std::uint64_t pre_revision_machine_fingerprint(const MachineModel& m) {
  Fnv64 h;
  h.add_str("fusedp-machine-v1");
  h.add_str(m.name);
  h.add_i64(m.l1_bytes);
  h.add_i64(m.l2_bytes);
  h.add_i64(m.l3_bytes);
  h.add_i32(m.cores);
  h.add_i32(m.vector_width_floats);
  h.add_i64(m.innermost_tile);
  h.add_f64(m.weights.w1);
  h.add_f64(m.weights.w2);
  h.add_f64(m.weights.w3);
  h.add_f64(m.weights.w4);
  return h.digest();
}

TEST(SessionCacheTest, EarlierCostModelRecordIsNotServed) {
  // A record the earlier cost model chose, with this very build's SHA so
  // the stale-SHA check cannot catch it (nor could it at all in a build
  // whose SHA is empty): only the revision in the key keeps it from being
  // served.
  TempDir dir;
  findb::FindDb::clear_memory_tier();
  PipelineSpec spec = make_benchmark("unsharp", 16);
  const Options opts = cache_options(dir.path);
  findb::CacheKey old_key = session_key(*spec.pipeline, opts);
  old_key.machine_fp = pre_revision_machine_fingerprint(opts.machine);
  ASSERT_NE(old_key, session_key(*spec.pipeline, opts));

  findb::FindDb db(opts.findb_options());
  findb::CacheRecord rec;
  rec.pipeline = spec.pipeline->name();
  rec.git_sha = build_git_sha();
  rec.rung = "full-dp";
  const CostModel model(*spec.pipeline, opts.machine);
  rec.schedule_text =
      grouping_to_text(*spec.pipeline, singleton_grouping(*spec.pipeline, model));
  ASSERT_TRUE(db.store(old_key, rec).ok());
  ASSERT_EQ(db.probe(old_key).outcome, findb::ProbeOutcome::kHit);
  findb::FindDb::clear_memory_tier();

  auto s = Session::open(*spec.pipeline, opts);
  ASSERT_TRUE(s.ok()) << s.error().what();
  EXPECT_FALSE(s.value().warm_start());
  EXPECT_EQ(first_probe(s.value())->outcome, "miss");
}

}  // namespace
}  // namespace fusedp
