// The serving front door: compile-once / execute-many for concurrent
// clients over the persistent work-stealing pool.
//
//   fusedp::ServeOptions so;
//   so.workers = 4;                       // pool lanes for this service
//   auto svc = fusedp::PipelineService::create(pl, so);
//   fusedp::ServeRequest req;
//   req.inputs = ...;
//   auto t = svc.value()->submit(std::move(req));   // async, admission-checked
//   auto reply = t.value().wait();                  // p50/p99 material
//
// A PipelineService schedules and compiles its pipeline exactly once
// (MIOpen's find-once/execute-many serving lifecycle), then serves
// requests against a pool of reusable Workspaces:
//
//  * Bounded admission: at most ServeOptions::max_queue requests may be
//    in flight (queued + executing).  The next submission is rejected
//    immediately with kResourceExhausted — callers shed load instead of
//    queueing unboundedly.  Memory stays governor-charged exactly as in
//    direct Executor use: each pooled Workspace holds its GovernedCharge
//    across checkouts, so the ResourceGovernor budget bounds the service's
//    total footprint too.
//
//  * Coalescing: a pipeline whose frames are below
//    ServeOptions::shard_threshold_pixels executes each request as ONE
//    single-lane pool task, so many small frames run concurrently on the
//    shared worker set — one pool epoch amortized over the batch, instead
//    of a parallel region (or a lane fan-out) per tiny frame.
//
//  * Sharding: frames at/above the threshold fan their tile grid across
//    all workers via the pool's work-stealing parallel_for.
//
//  * Priority: each request carries a TaskPriority; interactive requests
//    are dequeued ahead of bulk ones (preemption in the steal order, never
//    mid-tile), so a latency-sensitive frame overtakes queued bulk work.
//
// Every failure is a coded Result (admission bounce, governor rejection,
// deadline expiry, tile fault); nothing throws across this API.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>

#include "api/session.hpp"
#include "runtime/pool.hpp"

namespace fusedp {

struct ServeOptions {
  // Pool lanes this service uses: sharded frames split across this many
  // lanes; coalesced frames run up to this many concurrently.  The service
  // also holds this many reusable Workspaces: a request beyond them blocks
  // (inside its queue wait) until one frees.
  int workers = 1;
  // Admission bound: maximum requests in flight (queued + executing).
  // Submissions beyond it are rejected immediately with
  // kResourceExhausted, never queued.
  int max_queue = 64;
  // Frames with at least this many output pixels are sharded across all
  // workers; smaller frames coalesce as single-lane tasks.  The pipeline's
  // output domains are fixed at finalize time, so the decision is made
  // once, at create().
  std::int64_t shard_threshold_pixels = std::int64_t{1} << 20;
  // Execution/scheduling options for the shared plan.  pool_backend is
  // forced on and num_threads is set to `workers` by create().
  Options session;
};

struct ServeRequest {
  std::vector<Buffer> inputs;  // pipeline input order
  TaskPriority priority = TaskPriority::kInteractive;
  // Seconds from submit (queue wait counts against it); <= 0: no deadline.
  double deadline_seconds = 0.0;
};

struct ServeReply {
  std::vector<Buffer> outputs;      // pipeline output order (copies)
  double seconds = 0.0;             // execution wall time
  double queue_wait_seconds = 0.0;  // admission -> execution start
};

struct ServeStats {
  std::int64_t accepted = 0;   // requests admitted
  std::int64_t rejected = 0;   // admission-control bounces
  std::int64_t completed = 0;  // successful replies
  std::int64_t failed = 0;     // coded failures (deadline, fault, governor)
  std::int64_t sharded = 0;    // executed across all workers
  std::int64_t coalesced = 0;  // executed as a single-lane pool task
};

namespace detail {

// Shared state behind a Ticket: fulfilled exactly once by the pool task,
// consumed exactly once by wait().
struct PendingReply {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::optional<Result<ServeReply>> result;
};

}  // namespace detail

class PipelineService {
 public:
  // Validates options, schedules + compiles the pipeline once (any
  // Session::open failure propagates), allocates the workspace pool and
  // grows the process WorkPool to `workers`.  The service address-pins
  // itself (tasks capture it), hence the unique_ptr.
  static Result<std::unique_ptr<PipelineService>> create(const Pipeline& pl,
                                                         ServeOptions opts = {});

  // Drains: blocks until every admitted request has completed.
  ~PipelineService();

  PipelineService(const PipelineService&) = delete;
  PipelineService& operator=(const PipelineService&) = delete;

  // Handle to an in-flight submission.  wait() blocks for the reply;
  // consume it once.
  class Ticket {
   public:
    Result<ServeReply> wait();

   private:
    friend class PipelineService;
    explicit Ticket(std::shared_ptr<detail::PendingReply> p)
        : p_(std::move(p)) {}
    std::shared_ptr<detail::PendingReply> p_;
  };

  // Asynchronous request: admission check, then a pool task at the
  // request's priority.  Fails fast with kResourceExhausted when the
  // service is at max_queue.  The deadline is armed here, so dispatch-queue
  // wait counts against it.
  Result<Ticket> submit(ServeRequest req);

  // Synchronous request: submit() + wait().  The calling thread blocks;
  // execution still happens on the pool (same path as submit, so small
  // frames coalesce and large frames shard identically).
  Result<ServeReply> call(ServeRequest req);

  ServeStats stats() const;
  // True when this pipeline's frames shard across all workers.
  bool sharded() const { return sharded_; }
  int workers() const { return opts_.workers; }
  const Grouping& grouping() const { return session_.grouping(); }
  const ExecutablePlan& plan() const { return session_.plan(); }

 private:
  PipelineService(const Pipeline& pl, ServeOptions opts, Session session);

  bool try_admit();
  void release_admission();
  // Blocks until a pooled workspace frees.  Progress is guaranteed even
  // with every pool worker blocked here: the requests holding workspaces
  // run their own lane-0 claim loops to completion (work conservation),
  // needing no further pool service.
  std::unique_ptr<Workspace> checkout_workspace();
  void return_workspace(std::unique_ptr<Workspace> ws);
  // The admitted request body: workspace checkout, pool execution at the
  // request's lane width/priority, output copy.  Never throws.
  Result<ServeReply> execute_admitted(const ServeRequest& req,
                                      const Deadline& deadline,
                                      const WallTimer& submitted);

  const Pipeline* pl_;
  ServeOptions opts_;
  // Owns the grouping and the compiled executor; its own workspace stays
  // unused (requests run on free_ws_).
  Session session_;
  bool sharded_ = false;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;   // release_admission -> ~PipelineService
  std::condition_variable ws_cv_;      // return_workspace -> checkout
  int in_flight_ = 0;
  std::vector<std::unique_ptr<Workspace>> free_ws_;
  ServeStats stats_;
};

}  // namespace fusedp
