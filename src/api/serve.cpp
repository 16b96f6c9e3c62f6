#include "api/serve.hpp"

#include <algorithm>
#include <new>
#include <sstream>
#include <utility>

namespace fusedp {

Result<std::unique_ptr<PipelineService>> PipelineService::create(
    const Pipeline& pl, ServeOptions opts) {
  using R = Result<std::unique_ptr<PipelineService>>;
  if (opts.workers < 1) {
    std::ostringstream os;
    os << "ServeOptions::workers must be >= 1 (got " << opts.workers << ")";
    return R::failure(ErrorCode::kInvalidArgument, os.str());
  }
  if (opts.max_queue < 1) {
    std::ostringstream os;
    os << "ServeOptions::max_queue must be >= 1 (got " << opts.max_queue
       << ")";
    return R::failure(ErrorCode::kInvalidArgument, os.str());
  }
  if (opts.shard_threshold_pixels < 0)
    return R::failure(ErrorCode::kInvalidArgument,
                      "ServeOptions::shard_threshold_pixels must be >= 0");

  // The service always executes on the pool, at `workers` wide.
  opts.session.pool_backend = true;
  opts.session.num_threads = opts.workers;

  // Reuse the session facade's validation, scheduling and plan build (one
  // search, one compile, one coded failure path).  The service runs the
  // session's executor on its own pooled workspaces, since Session's single
  // internal workspace cannot serve concurrent requests.
  Result<Session> opened = Session::open(pl, opts.session);
  if (!opened.ok()) return R(opened.error());

  try {
    std::unique_ptr<PipelineService> svc(new PipelineService(
        pl, std::move(opts), std::move(opened).value()));
    return R(std::move(svc));
  } catch (const Error& e) {
    return R(e);
  } catch (const std::bad_alloc&) {
    return R::failure(ErrorCode::kAllocationFailed,
                      "PipelineService::create: allocation failed");
  }
}

PipelineService::PipelineService(const Pipeline& pl, ServeOptions opts,
                                 Session session)
    : pl_(&pl), opts_(std::move(opts)), session_(std::move(session)) {
  std::int64_t output_pixels = 0;
  for (int s : pl.outputs()) output_pixels += pl.stage(s).domain.volume();
  sharded_ =
      opts_.workers > 1 && output_pixels >= opts_.shard_threshold_pixels;

  free_ws_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    free_ws_.push_back(std::make_unique<Workspace>());

  // Coalesced tasks need live workers to run at all (the pool starts
  // empty); sharded parallel_for would grow it lazily, but growing here
  // keeps first-request latency flat.
  WorkPool::instance().ensure_workers(opts_.workers);
}

PipelineService::~PipelineService() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

bool PipelineService::try_admit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (in_flight_ >= opts_.max_queue) {
    ++stats_.rejected;
    return false;
  }
  ++in_flight_;
  ++stats_.accepted;
  return true;
}

// Notifies under the lock: ~PipelineService waits on drain_cv_ and then
// destroys it, so an unlocked notify could still be inside the broadcast
// when the destructor, woken by the count alone, tears the service down.
void PipelineService::release_admission() {
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_;
  drain_cv_.notify_all();
}

std::unique_ptr<Workspace> PipelineService::checkout_workspace() {
  std::unique_lock<std::mutex> lock(mu_);
  ws_cv_.wait(lock, [&] { return !free_ws_.empty(); });
  std::unique_ptr<Workspace> ws = std::move(free_ws_.back());
  free_ws_.pop_back();
  return ws;
}

void PipelineService::return_workspace(std::unique_ptr<Workspace> ws) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_ws_.push_back(std::move(ws));
  }
  ws_cv_.notify_one();
}

Result<ServeReply> PipelineService::execute_admitted(
    const ServeRequest& req, const Deadline& deadline,
    const WallTimer& submitted) {
  std::unique_ptr<Workspace> ws = checkout_workspace();
  ServeReply reply;
  reply.queue_wait_seconds = submitted.seconds();

  RunKnobs knobs;
  knobs.lanes = sharded_ ? opts_.workers : 1;
  knobs.priority = req.priority;
  if (deadline.armed()) knobs.deadline = &deadline;

  Result<ServeReply> out = Result<ServeReply>::failure(
      ErrorCode::kInternal, "serve: request not executed");
  WallTimer run_timer;
  try {
    session_.executor().run(req.inputs, *ws, knobs);
    reply.seconds = run_timer.seconds();
    reply.outputs.reserve(pl_->outputs().size());
    // Copy outputs out of the pooled workspace: the workspace returns to
    // the pool (buffers intact, still governor-charged) for the next
    // checkout.
    for (int s : pl_->outputs())
      reply.outputs.push_back(ws->stage_buffer(s));
    out = Result<ServeReply>(std::move(reply));
  } catch (const Error& e) {
    out = Result<ServeReply>(e);
  } catch (const std::bad_alloc&) {
    out = Result<ServeReply>::failure(ErrorCode::kAllocationFailed,
                                      "serve: allocation failed");
  } catch (const std::exception& e) {
    out = Result<ServeReply>::failure(
        ErrorCode::kInternal, std::string("serve: ") + e.what());
  }
  return_workspace(std::move(ws));

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (out.ok())
      ++stats_.completed;
    else
      ++stats_.failed;
    if (sharded_)
      ++stats_.sharded;
    else
      ++stats_.coalesced;
  }
  return out;
}

Result<PipelineService::Ticket> PipelineService::submit(ServeRequest req) {
  using R = Result<Ticket>;
  if (!try_admit()) {
    std::ostringstream os;
    os << "serve queue full (" << opts_.max_queue << " requests in flight)";
    return R::failure(ErrorCode::kResourceExhausted, os.str());
  }

  const Deadline deadline = req.deadline_seconds > 0.0
                               ? Deadline::after(req.deadline_seconds)
                               : Deadline();

  auto pending = std::make_shared<detail::PendingReply>();
  auto request = std::make_shared<ServeRequest>(std::move(req));
  const WallTimer submitted;
  // The task owns the admission slot: release happens after fulfillment,
  // so ~PipelineService cannot return while any task still references
  // `this`.
  WorkPool::instance().submit(
      request->priority, [this, request, pending, deadline, submitted] {
        Result<ServeReply> r = Result<ServeReply>::failure(
            ErrorCode::kInternal, "serve: task failed before execution");
        try {
          r = execute_admitted(*request, deadline, submitted);
        } catch (...) {
          // execute_admitted is nothrow by construction; belt and braces
          // because an exception escaping a pool task is std::terminate.
          r = Result<ServeReply>::failure(ErrorCode::kInternal,
                                          "serve: unexpected task failure");
        }
        {
          std::lock_guard<std::mutex> lock(pending->mu);
          pending->result.emplace(std::move(r));
          pending->done = true;
        }
        pending->cv.notify_all();
        release_admission();
      });
  return R(Ticket(std::move(pending)));
}

Result<ServeReply> PipelineService::call(ServeRequest req) {
  Result<Ticket> t = submit(std::move(req));
  if (!t.ok()) return Result<ServeReply>(t.error());
  return std::move(t).value().wait();
}

Result<ServeReply> PipelineService::Ticket::wait() {
  FUSEDP_CHECK(p_ != nullptr, "Ticket::wait: empty or already-consumed ticket");
  std::unique_lock<std::mutex> lock(p_->mu);
  p_->cv.wait(lock, [&] { return p_->done; });
  FUSEDP_CHECK(p_->result.has_value(), "Ticket::wait: reply already consumed");
  Result<ServeReply> r = std::move(*p_->result);
  p_->result.reset();
  return r;
}

ServeStats PipelineService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace fusedp
