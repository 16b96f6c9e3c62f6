// The serving front door: option validation, bit-identical replies on both
// execution modes (coalesced and sharded), concurrent clients, bounded
// admission, per-request deadlines, governor admission under concurrent
// services, and drain-on-destruction.  Everything coded, nothing thrown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/serve.hpp"
#include "fusion/incremental.hpp"
#include "pipelines/pipelines.hpp"
#include "runtime/executor.hpp"
#include "runtime/governor.hpp"
#include "test_util.hpp"

namespace fusedp {
namespace {

struct Fixture {
  PipelineSpec spec;
  std::vector<Buffer> inputs;
  std::vector<Buffer> want;  // reference outputs, pl.outputs() order

  explicit Fixture(const char* key, std::int64_t scale)
      : spec(make_benchmark(key, scale)) {
    inputs = spec.make_inputs();
    const CostModel model(*spec.pipeline, MachineModel::host());
    IncFusion inc(*spec.pipeline, model);
    want = run_pipeline(*spec.pipeline, inc.run(), inputs, ExecOptions{});
  }
};

bool reply_matches(const ServeReply& reply, const std::vector<Buffer>& want) {
  if (reply.outputs.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (!testing::buffers_equal(reply.outputs[i], want[i])) return false;
  return true;
}

TEST(Serve, CreateValidatesOptions) {
  const PipelineSpec spec = make_benchmark("unsharp", 16);
  struct Bad {
    const char* what;
    ServeOptions opts;
  };
  std::vector<Bad> cases(3);
  cases[0].what = "workers";
  cases[0].opts.workers = 0;
  cases[1].what = "max_queue";
  cases[1].opts.max_queue = 0;
  cases[2].what = "shard_threshold_pixels";
  cases[2].opts.shard_threshold_pixels = -1;
  for (const Bad& b : cases) {
    auto r = PipelineService::create(*spec.pipeline, b.opts);
    ASSERT_FALSE(r.ok()) << b.what;
    EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument) << b.what;
    EXPECT_NE(std::string(r.error().what()).find(b.what), std::string::npos)
        << r.error().what();
  }
}

TEST(Serve, CoalescedReplyBitIdenticalToReference) {
  const Fixture f("unsharp", 16);
  ServeOptions so;
  so.workers = 2;
  so.shard_threshold_pixels = std::int64_t{1} << 60;  // force coalesced
  auto svc = PipelineService::create(*f.spec.pipeline, so);
  ASSERT_TRUE(svc.ok()) << svc.error().what();
  EXPECT_FALSE(svc.value()->sharded());

  ServeRequest req;
  req.inputs = f.inputs;
  Result<ServeReply> reply = svc.value()->call(std::move(req));
  ASSERT_TRUE(reply.ok()) << reply.error().what();
  EXPECT_TRUE(reply_matches(reply.value(), f.want));
  EXPECT_GE(reply.value().seconds, 0.0);
  EXPECT_GE(reply.value().queue_wait_seconds, 0.0);

  const ServeStats st = svc.value()->stats();
  EXPECT_EQ(st.accepted, 1);
  EXPECT_EQ(st.completed, 1);
  EXPECT_EQ(st.coalesced, 1);
  EXPECT_EQ(st.sharded, 0);
  EXPECT_EQ(st.rejected, 0);
}

TEST(Serve, ShardedReplyBitIdenticalToReference) {
  const Fixture f("unsharp", 16);
  ServeOptions so;
  so.workers = 3;
  so.shard_threshold_pixels = 1;  // force sharding
  auto svc = PipelineService::create(*f.spec.pipeline, so);
  ASSERT_TRUE(svc.ok()) << svc.error().what();
  EXPECT_TRUE(svc.value()->sharded());

  ServeRequest req;
  req.inputs = f.inputs;
  Result<ServeReply> reply = svc.value()->call(std::move(req));
  ASSERT_TRUE(reply.ok()) << reply.error().what();
  EXPECT_TRUE(reply_matches(reply.value(), f.want));
  const ServeStats st = svc.value()->stats();
  EXPECT_EQ(st.sharded, 1);
  EXPECT_EQ(st.coalesced, 0);
}

// A buffer with the declared volume but another shape is a coded
// kInvalidArgument naming the input, and the service keeps serving.
TEST(Serve, WrongShapeInputIsCoded) {
  const Fixture f("unsharp", 16);
  ServeOptions so;
  so.workers = 2;
  so.shard_threshold_pixels = std::int64_t{1} << 60;  // force coalesced
  auto svc_r = PipelineService::create(*f.spec.pipeline, so);
  ASSERT_TRUE(svc_r.ok()) << svc_r.error().what();
  PipelineService* svc = svc_r.value().get();

  ServeRequest req;
  req.inputs.emplace_back(
      std::vector<std::int64_t>{1, 1, f.inputs[0].volume()});
  Result<ServeReply> reply = svc->call(std::move(req));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.code(), ErrorCode::kInvalidArgument);
  const std::string msg = reply.error().what();
  EXPECT_NE(msg.find(f.spec.pipeline->input(0).name), std::string::npos)
      << msg;

  ServeRequest again;
  again.inputs = f.inputs;
  Result<ServeReply> clean = svc->call(std::move(again));
  ASSERT_TRUE(clean.ok()) << clean.error().what();
  EXPECT_TRUE(reply_matches(clean.value(), f.want));
}

TEST(Serve, ConcurrentClientsAllVerify) {
  const Fixture f("unsharp", 16);
  ServeOptions so;
  so.workers = 2;
  so.max_queue = 64;
  auto svc_r = PipelineService::create(*f.spec.pipeline, so);
  ASSERT_TRUE(svc_r.ok()) << svc_r.error().what();
  PipelineService* svc = svc_r.value().get();

  constexpr int kClients = 4;
  constexpr int kRequests = 5;
  std::atomic<int> ok{0}, mismatched{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequests; ++r) {
        ServeRequest req;
        req.inputs = f.inputs;
        // Mix the dispatch classes: priority must never change results.
        req.priority = (c + r) % 2 == 0 ? TaskPriority::kInteractive
                                        : TaskPriority::kBulk;
        Result<ServeReply> reply = svc->call(std::move(req));
        if (!reply.ok())
          failed.fetch_add(1);
        else if (reply_matches(reply.value(), f.want))
          ok.fetch_add(1);
        else
          mismatched.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(failed.load(), 0);
  const ServeStats st = svc->stats();
  EXPECT_EQ(st.accepted, kClients * kRequests);
  EXPECT_EQ(st.completed, kClients * kRequests);
}

TEST(Serve, AdmissionBoundRejectsWhenFull) {
  const Fixture f("campipe", 8);  // a few ms per frame: requests pile up
  ServeOptions so;
  so.workers = 1;
  so.max_queue = 2;
  auto svc_r = PipelineService::create(*f.spec.pipeline, so);
  ASSERT_TRUE(svc_r.ok()) << svc_r.error().what();
  PipelineService* svc = svc_r.value().get();

  constexpr int kBurst = 8;
  std::vector<PipelineService::Ticket> tickets;
  int rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    ServeRequest req;
    req.inputs = f.inputs;
    Result<PipelineService::Ticket> t = svc->submit(std::move(req));
    if (t.ok()) {
      tickets.push_back(std::move(t).value());
    } else {
      ++rejected;
      EXPECT_EQ(t.code(), ErrorCode::kResourceExhausted);
      EXPECT_NE(std::string(t.error().what()).find("serve queue full"),
                std::string::npos);
    }
  }
  // The burst outruns a single worker: with at most 2 in flight and frames
  // taking milliseconds, most of the 8 back-to-back submissions must bounce.
  EXPECT_GE(rejected, 1);
  int completed = 0;
  for (PipelineService::Ticket& t : tickets) {
    Result<ServeReply> reply = t.wait();
    ASSERT_TRUE(reply.ok()) << reply.error().what();
    EXPECT_TRUE(reply_matches(reply.value(), f.want));
    ++completed;
  }
  const ServeStats st = svc->stats();
  EXPECT_EQ(st.accepted + st.rejected, kBurst);
  EXPECT_EQ(st.rejected, rejected);
  EXPECT_EQ(st.completed, completed);
  EXPECT_EQ(st.failed, 0);
}

TEST(Serve, PerRequestDeadlineIsCoded) {
  const Fixture f("harris", 8);
  ServeOptions so;
  so.workers = 2;
  auto svc_r = PipelineService::create(*f.spec.pipeline, so);
  ASSERT_TRUE(svc_r.ok()) << svc_r.error().what();
  PipelineService* svc = svc_r.value().get();

  ServeRequest req;
  req.inputs = f.inputs;
  req.deadline_seconds = 1e-6;  // expires during queue wait / first tiles
  Result<ServeReply> reply = svc->call(std::move(req));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(svc->stats().failed, 1);

  // The same service keeps serving cleanly afterwards (pooled workspace
  // survived the cancelled run).
  ServeRequest again;
  again.inputs = f.inputs;
  Result<ServeReply> clean = svc->call(std::move(again));
  ASSERT_TRUE(clean.ok()) << clean.error().what();
  EXPECT_TRUE(reply_matches(clean.value(), f.want));
}

TEST(Serve, GovernorAdmissionUnderConcurrentServices) {
  // Two services (distinct pipelines) sharing the process-wide governor
  // under a budget far below one workspace: every request must terminate
  // coded kResourceExhausted — never a crash, never an uncoded throw — and
  // lifting the budget afterwards restores full verified service.
  const Fixture a("unsharp", 16);
  const Fixture b("harris", 16);
  ServeOptions so;
  so.workers = 2;
  auto sa = PipelineService::create(*a.spec.pipeline, so);
  auto sb = PipelineService::create(*b.spec.pipeline, so);
  ASSERT_TRUE(sa.ok()) << sa.error().what();
  ASSERT_TRUE(sb.ok()) << sb.error().what();

  ResourceGovernor& gov = ResourceGovernor::instance();
  gov.reset_for_test();
  gov.set_budget(16 * 1024);  // far below any workspace here

  std::atomic<int> coded{0}, wrong{0};
  auto hammer = [&](PipelineService* svc, const Fixture* f) {
    for (int i = 0; i < 4; ++i) {
      ServeRequest req;
      req.inputs = f->inputs;
      Result<ServeReply> reply = svc->call(std::move(req));
      if (!reply.ok() && reply.code() == ErrorCode::kResourceExhausted)
        coded.fetch_add(1);
      else
        wrong.fetch_add(1);
    }
  };
  std::thread ta(hammer, sa.value().get(), &a);
  std::thread tb(hammer, sb.value().get(), &b);
  ta.join();
  tb.join();
  gov.set_budget(0);  // restore: unlimited

  EXPECT_EQ(coded.load(), 8);
  EXPECT_EQ(wrong.load(), 0);

  // With the budget lifted both services serve verified replies again.
  for (auto* pair : {&a, &b}) {
    PipelineService* svc = (pair == &a ? sa : sb).value().get();
    ServeRequest req;
    req.inputs = pair->inputs;
    Result<ServeReply> reply = svc->call(std::move(req));
    ASSERT_TRUE(reply.ok()) << reply.error().what();
    EXPECT_TRUE(reply_matches(reply.value(), pair->want));
  }
}

// Four services built at once: their schedule searches, plan builds and
// first runs overlap.  Run under TSan in CI.
TEST(Serve, ConcurrentCreatesReplyBitExact) {
  const Fixture f("bilateral", 28);
  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<PipelineService>> services(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      auto r = PipelineService::create(*f.spec.pipeline);
      if (r.ok()) services[static_cast<std::size_t>(t)] = std::move(r).value();
    });
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    PipelineService* svc = services[static_cast<std::size_t>(t)].get();
    ASSERT_NE(svc, nullptr) << "service " << t;
    ServeRequest req;
    req.inputs = f.inputs;
    Result<ServeReply> reply = svc->call(std::move(req));
    ASSERT_TRUE(reply.ok()) << reply.error().what();
    EXPECT_TRUE(reply_matches(reply.value(), f.want)) << "service " << t;
  }
}

TEST(Serve, DestructorDrainsInFlightRequests) {
  const Fixture f("unsharp", 16);
  std::vector<PipelineService::Ticket> tickets;
  {
    ServeOptions so;
    so.workers = 2;
    so.max_queue = 16;
    auto svc_r = PipelineService::create(*f.spec.pipeline, so);
    ASSERT_TRUE(svc_r.ok()) << svc_r.error().what();
    for (int i = 0; i < 6; ++i) {
      ServeRequest req;
      req.inputs = f.inputs;
      Result<PipelineService::Ticket> t = svc_r.value()->submit(std::move(req));
      ASSERT_TRUE(t.ok()) << t.error().what();
      tickets.push_back(std::move(t).value());
    }
    // Service destroyed here with requests still in flight: the destructor
    // must block until every admitted request has been fulfilled.
  }
  for (PipelineService::Ticket& t : tickets) {
    Result<ServeReply> reply = t.wait();  // must not hang or crash
    ASSERT_TRUE(reply.ok()) << reply.error().what();
    EXPECT_TRUE(reply_matches(reply.value(), f.want));
  }
}

}  // namespace
}  // namespace fusedp
