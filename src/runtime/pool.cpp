#include "runtime/pool.hpp"

#include <algorithm>
#include <exception>

#include "support/status.hpp"

namespace fusedp {

namespace detail {

// One lane's deque of tile indices: the contiguous range [next, end).
// Owner pops from the front (next++), thieves take the upper half by
// shrinking `end`.  A plain mutex per lane: lock traffic is one
// uncontended acquire per claim, far below tile-execution cost, and keeps
// the stealing protocol trivially correct under TSan.
struct LaneRange {
  std::mutex mu;
  std::int64_t next = 0;
  std::int64_t end = 0;
};

struct PoolJob {
  PoolJob(std::int64_t total, int lanes, const ParallelForOptions& opts,
          const std::function<void(LaneContext&)>* body_fn)
      : deadline(opts.deadline), external_cancel(opts.cancel), body(body_fn) {
    ranges.reserve(static_cast<std::size_t>(lanes));
    // Block partition; the first `total % lanes` lanes take one extra.
    const std::int64_t base = total / lanes;
    const std::int64_t extra = total % lanes;
    std::int64_t at = 0;
    for (int l = 0; l < lanes; ++l) {
      auto r = std::make_unique<LaneRange>();
      r->next = at;
      at += base + (l < extra ? 1 : 0);
      r->end = at;
      ranges.push_back(std::move(r));
    }
  }

  // Once-latch error capture, shared by every lane: the first exception
  // wins, later ones are dropped (their lanes were doing redundant work the
  // first failure already invalidated), and the cancelled flag turns every
  // remaining claim into a no-op.
  void capture_current_exception() noexcept {
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error == nullptr) first_error = std::current_exception();
    }
    cancelled.store(true, std::memory_order_relaxed);
  }

  void capture_deadline() noexcept {
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error == nullptr)
        first_error = std::make_exception_ptr(
            Error("parallel_for deadline exceeded",
                  ErrorCode::kDeadlineExceeded));
    }
    cancelled.store(true, std::memory_order_relaxed);
  }

  bool should_stop() const {
    if (cancelled.load(std::memory_order_relaxed)) return true;
    return external_cancel != nullptr &&
           external_cancel->load(std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<LaneRange>> ranges;
  const Deadline* deadline;
  const std::atomic<bool>* external_cancel;
  const std::function<void(LaneContext&)>* body;

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::atomic<bool> cancelled{false};

  // Lifecycle: `active` counts lanes currently inside the body; `done`
  // flips once the job joined, so a lane task popped afterwards returns
  // without touching the (by then dead) body closure.
  std::mutex mu;
  std::condition_variable cv;
  int active = 0;
  bool done = false;

  WallTimer submitted;  // queue-wait epoch for lanes 1..L-1
};

}  // namespace detail

namespace {

// Worker-side identity for LaneContext::worker(); -1 on non-pool threads.
thread_local int tl_worker_id = -1;

}  // namespace

std::int64_t LaneContext::claim() {
  last_stolen_ = false;
  if (job_ == nullptr) {
    // Serial fast path: two predictable branches plus a cursor increment —
    // the per-tile cost a 1-lane job pays over a bare loop.
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed))
      return -1;
    if (deadline_ != nullptr && deadline_->expired()) {
      deadline_hit_ = true;
      return -1;
    }
    return next_ < end_ ? next_++ : -1;
  }

  detail::PoolJob& j = *job_;
  if (j.should_stop()) return -1;
  if (j.deadline != nullptr && j.deadline->expired()) {
    j.capture_deadline();
    return -1;
  }

  detail::LaneRange& own = *j.ranges[static_cast<std::size_t>(lane_)];
  {
    std::lock_guard<std::mutex> lock(own.mu);
    if (own.next < own.end) return own.next++;
  }

  // Own deque empty: steal the upper half of the first victim (round-robin
  // from the right neighbor) with remaining work.  Never holds two lane
  // locks at once: the stolen range is detached under the victim's lock,
  // then installed under our own — a concurrent thief scanning us in
  // between sees an empty deque and moves on, which only costs it a retry.
  const int nlanes = static_cast<int>(j.ranges.size());
  for (int i = 1; i < nlanes; ++i) {
    detail::LaneRange& victim =
        *j.ranges[static_cast<std::size_t>((lane_ + i) % nlanes)];
    std::int64_t start = -1;
    std::int64_t count = 0;
    {
      std::lock_guard<std::mutex> lock(victim.mu);
      const std::int64_t rem = victim.end - victim.next;
      if (rem <= 0) continue;
      count = (rem + 1) / 2;
      victim.end -= count;
      start = victim.end;
    }
    {
      std::lock_guard<std::mutex> lock(own.mu);
      own.next = start + 1;
      own.end = start + count;
    }
    ++steals_;
    last_stolen_ = true;
    WorkPool& pool = WorkPool::instance();
    pool.steal_events_.fetch_add(1, std::memory_order_relaxed);
    pool.tiles_stolen_.fetch_add(static_cast<std::uint64_t>(count),
                                 std::memory_order_relaxed);
    return start;
  }
  return -1;
}

WorkPool& WorkPool::instance() {
  // Leaky singleton (never destroyed): workers may still be parked on the
  // dispatch condvar during static destruction, so the pool must outlive
  // every other static.  Reachable through this pointer, so not a leak.
  static WorkPool* pool = new WorkPool();
  return *pool;
}

void WorkPool::ensure_workers(int n) {
  if (n <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < n) {
    const int id = static_cast<int>(threads_.size());
    threads_.emplace_back([this, id] { worker_main(id); });
  }
}

int WorkPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

PoolStats WorkPool::stats() const {
  PoolStats s;
  s.workers = workers();
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steal_events = steal_events_.load(std::memory_order_relaxed);
  s.tiles_stolen = tiles_stolen_.load(std::memory_order_relaxed);
  return s;
}

bool WorkPool::pop_task(std::function<void()>* fn) {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock,
                [&] { return !queues_[0].empty() || !queues_[1].empty(); });
  std::deque<std::function<void()>>& q =
      !queues_[0].empty() ? queues_[0] : queues_[1];
  *fn = std::move(q.front());
  q.pop_front();
  ++busy_;
  return true;
}

void WorkPool::worker_main(int id) {
  tl_worker_id = id;
  for (;;) {
    std::function<void()> fn;
    if (!pop_task(&fn)) return;
    fn();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
    }
    idle_cv_.notify_all();
  }
}

void WorkPool::submit(TaskPriority priority, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[static_cast<std::size_t>(priority)].push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void WorkPool::quiesce() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] {
    return queues_[0].empty() && queues_[1].empty() && busy_ == 0;
  });
}

void WorkPool::parallel_for(std::int64_t total,
                            const ParallelForOptions& opts,
                            const std::function<void(LaneContext&)>& body) {
  jobs_.fetch_add(1, std::memory_order_relaxed);
  const int lanes =
      static_cast<int>(std::min<std::int64_t>(
          std::max(1, opts.lanes), std::max<std::int64_t>(total, 1)));
  if (lanes == 1) {
    // Serial fast path: no job object, no locks, no worker traffic.
    LaneContext lc(nullptr, /*lane=*/0, /*worker=*/-1, /*queue_wait=*/0.0);
    lc.end_ = std::max<std::int64_t>(total, 0);
    lc.deadline_ = opts.deadline;
    lc.cancel_ = opts.cancel;
    body(lc);
    if (lc.deadline_hit_)
      throw Error("parallel_for deadline exceeded",
                  ErrorCode::kDeadlineExceeded);
    return;
  }

  ensure_workers(lanes - 1);
  auto job = std::make_shared<detail::PoolJob>(total, lanes, opts, &body);

  auto run_lane = [](const std::shared_ptr<detail::PoolJob>& j, int lane,
                     int worker, double queue_wait) {
    {
      std::lock_guard<std::mutex> lock(j->mu);
      if (j->done) return;  // job already joined; tiles were stolen
      ++j->active;
    }
    LaneContext lc(j.get(), lane, worker, queue_wait);
    try {
      (*j->body)(lc);
    } catch (...) {
      j->capture_current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(j->mu);
      --j->active;
    }
    j->cv.notify_all();
  };

  for (int l = 1; l < lanes; ++l) {
    submit(opts.priority, [job, l, run_lane] {
      run_lane(job, l, tl_worker_id, job->submitted.seconds());
    });
  }
  run_lane(job, /*lane=*/0, /*worker=*/tl_worker_id, /*queue_wait=*/0.0);

  // Join: every lane that started has finished.  A lane exits only once
  // its claim() scan finds all deques empty (or the job cancelled), and a
  // lane never exits holding work in its own deque — so at active == 0 no
  // unclaimed tile remains, including the initial ranges of lane tasks
  // still sitting in the dispatch queue (their work was stolen).  `done`
  // flips under the same lock acquisition the final wait holds, closing
  // the race against a straggler task starting after the join.  The error
  // moves out of the job under that lock too: a straggler may drop the last
  // reference to the job on its worker, and the job's destructor must then
  // not release the exception this thread is rethrowing.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] { return job->active == 0; });
    job->done = true;
    error = std::move(job->first_error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace fusedp
