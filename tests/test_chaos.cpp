// Small in-process chaos soak: concurrent Sessions under injected faults,
// random deadlines and a tight memory budget.  Every request must end in a
// coded state (no uncoded escapes) and every successful request must be
// bit-identical to the scalar reference.  The full-size acceptance soak
// lives in bench/bench_chaos.cpp; this keeps a scaled-down version in the
// tier-1 suite.
#include <gtest/gtest.h>

#include "runtime/governor.hpp"
#include "verify/chaos.hpp"

namespace fusedp {
namespace {

TEST(ChaosTest, SmallSoakIsCleanUnderFaultsDeadlinesAndBudget) {
  verify::ChaosOptions opts;
  opts.sessions = 4;
  opts.requests = 150;
  opts.fault_rate = 0.5;
  opts.deadline_rate = 0.5;
  // Below the unconstrained high-water mark so the governor actually
  // queues/rejects during the soak instead of idling.
  opts.memory_budget_bytes = 128 * 1024;
  opts.max_seconds = 60.0;  // safety valve on slow CI machines
  opts.seed = 7;
  opts.pipeline_pool = 6;

  const verify::ChaosStats stats = verify::run_chaos(opts);
  SCOPED_TRACE(stats.summary());

  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.mismatches, 0);
  EXPECT_EQ(stats.uncoded, 0);
  EXPECT_GT(stats.requests, 0);
  EXPECT_GT(stats.successes, 0);
  // Every issued request lands in exactly one bucket.
  EXPECT_EQ(stats.successes + stats.deadline_exceeded +
                stats.resource_exhausted + stats.fault_injected +
                stats.allocation_failed + stats.other_coded + stats.uncoded,
            stats.requests);
  // The soak must leave the process governor unlimited for later tests.
  EXPECT_EQ(ResourceGovernor::instance().budget(), 0);
}

TEST(ChaosTest, FaultFreeSoakSucceedsEverywhere) {
  verify::ChaosOptions opts;
  opts.sessions = 2;
  opts.requests = 40;
  opts.fault_rate = 0.0;
  opts.deadline_rate = 0.0;
  opts.memory_budget_bytes = 0;  // unlimited
  opts.seed = 11;
  opts.pipeline_pool = 4;

  const verify::ChaosStats stats = verify::run_chaos(opts);
  SCOPED_TRACE(stats.summary());
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.successes, stats.requests);
  EXPECT_EQ(stats.deadline_exceeded, 0);
  EXPECT_EQ(stats.resource_exhausted, 0);
  EXPECT_EQ(stats.fault_injected, 0);
}

TEST(ChaosTest, StatsSerializeToJson) {
  verify::ChaosStats stats;
  stats.requests = 10;
  stats.successes = 8;
  stats.deadline_exceeded = 2;
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"requests\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"successes\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
}

}  // namespace
}  // namespace fusedp
