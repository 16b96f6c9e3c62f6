// support/fingerprint: the hashes the persistent schedule cache keys on.
//
// The cache's correctness story leans on three properties proven here:
// determinism (same structure -> same fingerprint, across separate
// constructions), sensitivity (any schedule-relevant change -> different
// fingerprint, so stale records cannot be served), and deliberate
// *insensitivity* (knobs that cannot change which grouping wins — deadlines,
// thread counts — must NOT perturb the key, or the cache would never hit).
#include "support/fingerprint.hpp"

#include <iterator>
#include <utility>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "model/machine.hpp"
#include "pipelines/pipelines.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value: CRC-32 of "123456789".
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0u);
  // One flipped bit anywhere must change the checksum.
  std::string s = "the quick brown fox";
  const std::uint32_t base = crc32(s);
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::string t = s;
    t[i] = static_cast<char>(t[i] ^ 0x01);
    EXPECT_NE(crc32(t), base) << "bit flip at byte " << i << " undetected";
  }
}

TEST(Crc32Test, SeedChainsPartialBlocks) {
  const std::string s = "123456789";
  std::uint32_t chained = 0;
  chained = crc32(s.data(), 3, chained);
  chained = crc32(s.data() + 3, s.size() - 3, chained);
  EXPECT_EQ(chained, crc32(s));
}

TEST(Hex64Test, RoundTrip) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{0xdeadbeefcafef00d},
                          ~std::uint64_t{0}}) {
    const std::string h = hex64(v);
    EXPECT_EQ(h.size(), 16u);
    std::uint64_t back = 1;
    ASSERT_TRUE(parse_hex64(h, &back)) << h;
    EXPECT_EQ(back, v);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(parse_hex64("", &out));
  EXPECT_FALSE(parse_hex64("123", &out));                   // too short
  EXPECT_FALSE(parse_hex64("00000000000000000", &out));     // too long
  EXPECT_FALSE(parse_hex64("000000000000000g", &out));      // non-hex digit
}

TEST(Fnv64Test, DeterministicAndStructural) {
  Fnv64 a, b;
  a.add_str("harris");
  a.add_i64(42);
  b.add_str("harris");
  b.add_i64(42);
  EXPECT_EQ(a.digest(), b.digest());

  // Length prefixes: ("ab","c") must not collide with ("a","bc").
  Fnv64 c, d;
  c.add_str("ab");
  c.add_str("c");
  d.add_str("a");
  d.add_str("bc");
  EXPECT_NE(c.digest(), d.digest());

  // Type tags: the same bytes as i64 vs f64 bit pattern differ.
  Fnv64 e, f;
  e.add_i64(0);
  f.add_f64(0.0);
  EXPECT_NE(e.digest(), f.digest());
}

TEST(PipelineFingerprintTest, DeterministicAcrossConstructions) {
  PipelineSpec a = make_benchmark("harris", 16);
  PipelineSpec b = make_benchmark("harris", 16);
  EXPECT_EQ(fingerprint(*a.pipeline), fingerprint(*b.pipeline));
}

TEST(PipelineFingerprintTest, SensitiveToStructure) {
  PipelineSpec harris = make_benchmark("harris", 16);
  PipelineSpec unsharp = make_benchmark("unsharp", 16);
  EXPECT_NE(fingerprint(*harris.pipeline), fingerprint(*unsharp.pipeline));
  // Same pipeline at a different extent is a different schedule problem.
  PipelineSpec harris8 = make_benchmark("harris", 8);
  EXPECT_NE(fingerprint(*harris.pipeline), fingerprint(*harris8.pipeline));
  // Distinct random pipelines (different seeds) fingerprint apart.
  auto p1 = testing::random_pipeline(5, 64, 64, 101);
  auto p2 = testing::random_pipeline(5, 64, 64, 202);
  auto p1again = testing::random_pipeline(5, 64, 64, 101);
  EXPECT_NE(fingerprint(*p1), fingerprint(*p2));
  EXPECT_EQ(fingerprint(*p1), fingerprint(*p1again));
}

TEST(MachineFingerprintTest, SensitiveToModelParameters) {
  MachineModel m = MachineModel::host();
  const std::uint64_t base = fingerprint(m);
  EXPECT_EQ(fingerprint(MachineModel::host()), base);

  MachineModel l2 = m;
  l2.l2_bytes *= 2;
  EXPECT_NE(fingerprint(l2), base);

  MachineModel cores = m;
  cores.cores += 1;
  EXPECT_NE(fingerprint(cores), base);
}

TEST(OptionsFingerprintTest, CoversScheduleKnobsOnly) {
  Options base;
  const std::uint64_t fp = base.schedule_fingerprint();
  EXPECT_EQ(Options{}.schedule_fingerprint(), fp);

  // Schedule-relevant knobs perturb the key.
  Options sched = base;
  sched.scheduler = Scheduler::kGreedy;
  EXPECT_NE(sched.schedule_fingerprint(), fp);
  Options t1 = base;
  t1.greedy_t1 = 32;
  EXPECT_NE(t1.schedule_fingerprint(), fp);
  Options states = base;
  states.max_states = 1000;
  EXPECT_NE(states.schedule_fingerprint(), fp);

  // Deliberately excluded knobs must NOT perturb it: a different deadline
  // or thread count would otherwise make every warm start a miss.
  Options deadline = base;
  deadline.deadline_seconds = 1.5;
  EXPECT_EQ(deadline.schedule_fingerprint(), fp);
  Options threads = base;
  threads.num_threads = 7;
  threads.run_deadline_seconds = 0.25;
  EXPECT_EQ(threads.schedule_fingerprint(), fp);
  Options cache = base;
  cache.cache_mode = findb::CacheMode::kReadWrite;
  cache.cache_dir = "/tmp/x";
  EXPECT_EQ(cache.schedule_fingerprint(), fp);
}

// The cache key of a default Options under every scheduler, pinned to the
// digests already stored in existing find-db directories: a change here
// orphans every cached record, so it must be deliberate, never a side effect
// of refactoring the option structs.
TEST(OptionsFingerprintTest, DefaultKeysArePinned) {
  const std::pair<Scheduler, std::uint64_t> pinned[] = {
      {Scheduler::kAuto, 0x599035fad2d77dedull},
      {Scheduler::kDp, 0xfe6b597f8286526aull},
      {Scheduler::kGreedy, 0xd614532187ec46ebull},
      {Scheduler::kHalideAuto, 0x38d2476163611f10ull},
      {Scheduler::kUnfused, 0xcc42a4d30d3fab49ull},
      {Scheduler::kMeasured, 0xaa48b052b12a01e8ull},
      {Scheduler::kIncremental, 0x269f687fa90068e7ull},
  };
  ASSERT_EQ(std::size(pinned), std::size(kSchedulers));
  for (const auto& [which, digest] : pinned) {
    Options o;
    o.scheduler = which;
    EXPECT_EQ(o.schedule_fingerprint(), digest) << scheduler_name(which);
  }
}

// Under kMeasured the winner is a wall-clock verdict, so each execution
// knob that changes wall clock must split the key; under every other
// scheduler the key stays byte-stable across that knob.
void expect_measured_only(const char* field, void (*perturb)(Options&)) {
  for (Scheduler which : {Scheduler::kMeasured, Scheduler::kAuto,
                          Scheduler::kDp, Scheduler::kGreedy}) {
    Options base;
    base.scheduler = which;
    Options changed = base;
    perturb(changed);
    if (which == Scheduler::kMeasured)
      EXPECT_NE(changed.schedule_fingerprint(), base.schedule_fingerprint())
          << field;
    else
      EXPECT_EQ(changed.schedule_fingerprint(), base.schedule_fingerprint())
          << field << " under " << scheduler_name(which);
  }
}

TEST(OptionsFingerprintTest, MeasuredKeyCoversNumThreads) {
  expect_measured_only("num_threads", [](Options& o) { o.num_threads = 8; });
}

TEST(OptionsFingerprintTest, MeasuredKeyCoversPoolBackend) {
  expect_measured_only("pool_backend",
                       [](Options& o) { o.pool_backend = !o.pool_backend; });
}

TEST(BuildShaTest, NonEmpty) {
  const char* sha = build_git_sha();
  ASSERT_NE(sha, nullptr);
  EXPECT_NE(std::string(sha), "");
}

}  // namespace
}  // namespace fusedp
