#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <mutex>
#include <new>

#include "runtime/benefit.hpp"
#include "support/fault.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fusedp {

namespace {

// A dense row-major view of `region` over `data`.
BufferView view_of_region(float* data, const Box& region) {
  BufferView v;
  v.data = data;
  v.rank = region.rank;
  std::int64_t stride = 1;
  for (int d = region.rank - 1; d >= 0; --d) {
    v.origin[d] = region.lo[d];
    v.extent[d] = region.extent(d);
    v.stride[d] = stride;
    stride *= region.extent(d);
  }
  return v;
}

// Iterates the outer dims of `box` (all but the last); calls fn(coords) with
// coords[last] set to box.lo[last].
template <typename Fn>
void for_each_row(const Box& box, Fn&& fn) {
  std::int64_t c[kMaxDims];
  for (int d = 0; d < box.rank; ++d) c[d] = box.lo[d];
  const int last = box.rank - 1;
  for (;;) {
    fn(c);
    int d = last - 1;
    for (; d >= 0; --d) {
      if (++c[d] <= box.hi[d]) break;
      c[d] = box.lo[d];
    }
    if (d < 0) break;
  }
}

// Reuses `b` when it already matches `extents`, else allocates a fresh
// buffer and moves it in.  The temporary keeps `b` intact if the
// allocation throws, so a failed prepare() never leaves a buffer in a
// moved-from or reallocated-but-unzeroed state.
void ensure_buffer(Buffer& b, const std::vector<std::int64_t>& extents) {
  bool match = !b.empty() && b.rank() == static_cast<int>(extents.size());
  for (int d = 0; match && d < b.rank(); ++d)
    if (b.extent(d) != extents[static_cast<std::size_t>(d)]) match = false;
  if (match) return;
  FUSEDP_FAULT_POINT("workspace.prepare");
  Buffer fresh(extents);
  b = std::move(fresh);
}

std::string joined_stage_names(const Pipeline& pl, const GroupPlan& g) {
  std::string names;
  for (int s : g.stage_order) {
    if (!names.empty()) names += ",";
    names += pl.stage(s).name;
  }
  return names;
}

// Serial-side deadline probe, used before reduction groups (which have no
// tile boundaries to sample at).
void check_deadline(const Deadline* deadline) {
  if (deadline != nullptr && deadline->expired())
    throw Error("run deadline exceeded", ErrorCode::kDeadlineExceeded);
}

// Translates a captured worker exception into a coded fusedp::Error on the
// serial side.  fusedp errors pass through unchanged.
[[noreturn]] void rethrow_tile_error(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const Error&) {
    throw;
  } catch (const std::bad_alloc&) {
    throw Error("tile execution failed: allocation failed",
                ErrorCode::kAllocationFailed);
  } catch (const std::exception& e) {
    throw Error(std::string("tile execution failed: ") + e.what(),
                ErrorCode::kInternal);
  }
}

// Per-thread observability log: appended to without synchronization inside
// the parallel region (one slot per thread), merged serially at group end.
struct ThreadLog {
  std::vector<observe::TileEvent> tiles;
  std::int64_t tiles_run = 0;
  std::int64_t interior_tiles = 0;
  std::int64_t computed_elems = 0;
  std::int64_t owned_elems = 0;
  std::int64_t scratch_bytes = 0;
  std::int64_t steals = 0;    // pool backend: cross-lane steals by this lane
  double queue_wait = 0.0;    // pool backend: dispatch-queue wait (seconds)
};

}  // namespace

// Charges the governor for what prepare() is about to hold.  `target_floats`
// is the simulated post-prepare footprint; the delta over the current charge
// is admitted before a single float is allocated, so a budget rejection
// propagates with the workspace bit-for-bit unchanged.
void Workspace::admit(std::int64_t target_floats) {
  const std::int64_t current =
      allocated_floats() * static_cast<std::int64_t>(sizeof(float));
  const std::int64_t target =
      target_floats * static_cast<std::int64_t>(sizeof(float));
  // Admission only ever grows the charge here; shrinks are settled by
  // resync_charge() after the allocations have actually happened.
  charge_.adjust_to(std::max(current, std::max(target, charge_.bytes())));
}

// Settles the charge to the bytes actually held — after a successful
// prepare (simulation and reality agree, but re-deriving is cheap and
// self-correcting) and after a failed one (part-done allocations).  Only
// ever shrinks or holds the charge post-admit, so it cannot throw.
void Workspace::resync_charge() noexcept {
  try {
    charge_.adjust_to(allocated_floats() *
                      static_cast<std::int64_t>(sizeof(float)));
  } catch (...) {
    // Unreachable growth rejection; keep the (over-)charge rather than leak
    // accounting.
  }
}

// Exception safety: views_ are invalidated up front and only re-published
// after every allocation has succeeded, so a bad_alloc mid-prepare leaves
// the workspace with no half-initialized (dangling or stale) views — it
// stays destructible and a later prepare()/run() starts from a clean slate.
void Workspace::prepare(const ExecutablePlan& plan,
                        const StorageAssignment& storage) {
  const Pipeline& pl = *plan.pipeline;
  const std::size_t n = static_cast<std::size_t>(pl.num_stages());
  // An empty assignment gives every materialized stage its own buffer.
  const auto slot_of = [&storage](std::size_t s) {
    return storage.slot.empty() ? -1 : storage.slot[s];
  };
  // Simulate the post-prepare footprint: slots grow to their assigned
  // capacity, materialized unpooled stages end up at their domain volume
  // (reused or freshly allocated), and every other buffer — stale ones
  // from a previous plan — is kept as-is.
  std::int64_t target = 0;
  for (std::size_t i = 0; i < storage.slot_floats.size(); ++i) {
    const std::int64_t have = i < slots_.size() ? slots_[i].volume() : 0;
    target += std::max(have, storage.slot_floats[i]);
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (plan.materialized[s] && slot_of(s) < 0)
      target += pl.stage(static_cast<int>(s)).domain.volume();
    else if (s < buffers_.size())
      target += buffers_[s].volume();
  }
  admit(target);  // throws kResourceExhausted before any allocation

  views_.assign(n, BufferView{});
  buffers_.resize(n);
  slots_.resize(storage.slot_floats.size());
  try {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].empty() || slots_[i].volume() < storage.slot_floats[i]) {
        FUSEDP_FAULT_POINT("workspace.prepare");
        Buffer fresh({storage.slot_floats[i]});
        slots_[i] = std::move(fresh);
      }
    for (std::size_t s = 0; s < n; ++s)
      if (plan.materialized[s] && slot_of(s) < 0)
        ensure_buffer(buffers_[s],
                      pl.stage(static_cast<int>(s)).domain.extents());
  } catch (...) {
    resync_charge();
    throw;
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (!plan.materialized[s]) continue;
    const int slot = slot_of(s);
    views_[s] = slot < 0
                    ? buffers_[s].view()
                    : view_of_region(
                          slots_[static_cast<std::size_t>(slot)].data(),
                          pl.stage(static_cast<int>(s)).domain);
  }
  resync_charge();
}

std::int64_t Workspace::allocated_floats() const {
  std::int64_t total = 0;
  for (const Buffer& b : buffers_) total += b.volume();
  for (const Buffer& b : slots_) total += b.volume();
  return total;
}

Executor::Executor(const Pipeline& pl, const Grouping& grouping,
                   ExecOptions opts)
    : pl_(&pl), opts_(opts) {
  const CompileOptions copts{
      /*fuse_superops=*/opts_.vector_backend && opts_.superop_fusion,
      /*vector=*/opts_.vector_backend};
  plan_ = lower(pl, grouping, copts);
  FUSEDP_CHECK_CODE(opts_.num_threads >= 1, ErrorCode::kInvalidArgument,
                    "need at least one thread");
  // Cost-aware never-pessimize gate: vector-backend groups whose static
  // profile casts doubt on the vector benefit are micro-measured and demoted
  // back to the plain compiled form when they lose (runtime/benefit.hpp).
  if (opts_.never_pessimize && opts_.vector_backend &&
      opts_.mode == EvalMode::kRow) {
    apply_never_pessimize(plan_, copts, opts_.allow_fma,
                          opts_.fast_transcendentals);
  }
  if (opts_.pooled_storage) storage_ = assign_storage(plan_);
}

void Executor::run(const std::vector<Buffer>& inputs, Workspace& ws,
                   observe::Observer* obs, const Deadline* deadline) const {
  RunKnobs knobs;
  knobs.obs = obs;
  knobs.deadline = deadline;
  run(inputs, ws, knobs);
}

void Executor::run(const std::vector<Buffer>& inputs, Workspace& ws,
                   const RunKnobs& knobs) const {
  observe::Observer* obs = knobs.obs;
  const Deadline* deadline = knobs.deadline;
  const int lanes = knobs.lanes > 0 ? knobs.lanes : opts_.num_threads;
  FUSEDP_CHECK_CODE(static_cast<int>(inputs.size()) == pl_->num_inputs(),
                    ErrorCode::kInvalidArgument, "input count mismatch");
  for (int i = 0; i < pl_->num_inputs(); ++i)
    FUSEDP_CHECK_CODE(inputs[static_cast<std::size_t>(i)].volume() ==
                          pl_->input(i).domain.volume(),
                      ErrorCode::kInvalidArgument,
                      "input " + pl_->input(i).name + " extent mismatch");
  ws.prepare(plan_, storage_);

  if (obs == nullptr) {
    // Unobserved fast path: no clock reads, no records, bit-identical work.
    for (const GroupPlan& g : plan_.groups) {
      if (g.is_reduction) {
        check_deadline(deadline);
        run_reduction(g, inputs, ws);
      } else {
        run_group(g, inputs, ws, nullptr, nullptr, false, deadline, lanes,
                  knobs.priority);
      }
    }
    return;
  }

  observe::RunMeta meta;
  meta.pipeline = pl_->name();
  meta.num_groups = static_cast<int>(plan_.groups.size());
  meta.num_threads = lanes;
  obs->on_run_begin(meta);
  const bool want_tiles = obs->want_tile_events();

  WallTimer epoch;
  int gi = 0;
  for (const GroupPlan& g : plan_.groups) {
    observe::GroupRecord rec;
    rec.index = gi++;
    rec.stages = joined_stage_names(*pl_, g);
    rec.stage_bits = g.stages.bits();
    rec.is_reduction = g.is_reduction;
    rec.total_tiles = g.total_tiles;
    rec.predicted_cost = g.model_cost;
    for (int s : g.stage_order) {
      const CompiledStage& cs = plan_.compiled[static_cast<std::size_t>(s)];
      if (!cs.valid()) continue;
      rec.row_registers += cs.num_regs;
      rec.fused_superops += cs.fused;
    }
    rec.t_begin = epoch.seconds();
    if (g.is_reduction) {
      check_deadline(deadline);
      run_reduction(g, inputs, ws);
      const std::int64_t vol = pl_->stage(g.stages.first()).domain.volume();
      rec.tiles_run = 1;
      rec.computed_elems = vol;
      rec.owned_elems = vol;
    } else {
      run_group(g, inputs, ws, &rec, &epoch, want_tiles, deadline, lanes,
                knobs.priority);
    }
    rec.t_end = epoch.seconds();
    rec.seconds = rec.t_end - rec.t_begin;
    obs->on_group_end(rec);
  }

  observe::RunRecord rr;
  rr.meta = std::move(meta);
  rr.seconds = epoch.seconds();
  obs->on_run_end(rr);
}

void Executor::run_reduction(const GroupPlan& g,
                             const std::vector<Buffer>& inputs,
                             Workspace& ws) const {
  const int sid = g.stages.first();
  const Stage& st = pl_->stage(sid);
  ReductionCtx ctx;
  for (const Access& a : st.loads) {
    if (a.producer.is_input) {
      ctx.inputs.push_back(inputs[static_cast<std::size_t>(a.producer.id)].view());
    } else {
      FUSEDP_CHECK(ws.has(a.producer.id),
                   "reduction input not materialized");
      ctx.inputs.push_back(ws.stage_view(a.producer.id));
    }
  }
  const BufferView out = ws.stage_view(sid);
  std::fill(out.data, out.data + out.volume(), 0.0f);
  ctx.out = out;
  ctx.num_threads = opts_.num_threads;
  st.reduction(ctx);
}

void Executor::run_group(const GroupPlan& g, const std::vector<Buffer>& inputs,
                         Workspace& ws, observe::GroupRecord* rec,
                         const WallTimer* epoch, bool want_tiles,
                         const Deadline* deadline, int lanes,
                         TaskPriority priority) const {
  const Pipeline& pl = *pl_;
  const int ncls = g.align.num_classes;
  const std::int64_t total = g.total_tiles;
  const bool observing = rec != nullptr;
  const bool compiled = opts_.mode == EvalMode::kRow;
  const int nlanes = std::max(1, lanes);
  std::vector<ThreadLog> logs;
  if (observing) logs.resize(static_cast<std::size_t>(nlanes));

  // An exception escaping an OpenMP structured block is std::terminate, so
  // nothing may propagate out of the parallel region or the worksharing
  // loop body.  Instead: a once-latch captures the first exception, a
  // cancellation flag makes the remaining tiles no-ops (the loop itself
  // must still run to completion on every thread), and the serial side
  // rethrows after the region joins.
  std::exception_ptr first_error = nullptr;
  std::mutex error_mu;
  std::atomic<bool> cancelled{false};
  auto capture_current_exception = [&]() noexcept {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error == nullptr) first_error = std::current_exception();
    }
    cancelled.store(true, std::memory_order_relaxed);
  };

  std::size_t max_loads = 0;
  for (int s : g.stage_order)
    max_loads = std::max(max_loads, pl.stage(s).loads.size());

  // One lane's whole life, shared verbatim by the OpenMP worksharing path
  // and the pool claim loop: construct per-lane state, run tiles handed out
  // by `drive` (which owns the iteration policy), record arena high-water.
  // The tile body is identical on both paths, so outputs are bit-identical
  // by construction — only who hands out the indices differs.
  auto lane_main = [&](int tid, auto&& drive) {
    ThreadLog* log =
        observing && tid < static_cast<int>(logs.size())
            ? &logs[static_cast<std::size_t>(tid)]
            : nullptr;
    // Per-thread state: scratch per stage + evaluators + reused region
    // storage.  Construction allocates, so it is guarded too; a thread
    // whose state failed to initialize simply skips its tiles.
    std::vector<ScratchArena> scratch;
    std::vector<char> in_global;
    std::vector<BufferView> tile_view;
    std::vector<StageRegions> regions;
    std::vector<unsigned char> load_clamped;
    CompiledRowEvaluator crowev;
    crowev.set_guard_arena(opts_.guard_arena);
    StageEvalCtx ctx;
    bool thread_ok = true;
    try {
      scratch.resize(static_cast<std::size_t>(pl.num_stages()));
      in_global.assign(static_cast<std::size_t>(pl.num_stages()), 0);
      tile_view.resize(static_cast<std::size_t>(pl.num_stages()));
      regions.resize(static_cast<std::size_t>(pl.num_stages()));
      load_clamped.assign(max_loads, 1);
    } catch (...) {
      capture_current_exception();
      thread_ok = false;
    }

    auto run_tile = [&](std::int64_t t, int worker, bool stolen,
                        double queue_wait) {
      if (!thread_ok || cancelled.load(std::memory_order_relaxed)) return;
      const double t_begin = log != nullptr ? epoch->seconds() : 0.0;
      try {
        // Cooperative cancellation: one steady_clock read per tile when a
        // deadline is armed.  The throw rides the same latch as any tile
        // fault — remaining tiles become no-ops, the region joins, and the
        // serial side rethrows the coded error with the workspace intact.
        if (deadline != nullptr && deadline->expired())
          throw Error("run deadline exceeded at tile " + std::to_string(t),
                      ErrorCode::kDeadlineExceeded);
        FUSEDP_FAULT_POINT("executor.tile_eval");
        // Decode tile index into a reference-space box.
        Box tile;
        tile.rank = ncls;
        bool full = true;
        std::int64_t rem = t;
        for (int d = ncls - 1; d >= 0; --d) {
          const std::int64_t nd = g.tiles_per_dim[static_cast<std::size_t>(d)];
          const std::int64_t idx = rem % nd;
          rem /= nd;
          const std::int64_t ts = g.tile_sizes[static_cast<std::size_t>(d)];
          tile.lo[d] = idx * ts;
          const std::int64_t nominal_hi = tile.lo[d] + ts - 1;
          const std::int64_t edge =
              g.align.class_extent[static_cast<std::size_t>(d)] - 1;
          tile.hi[d] = std::min(nominal_hi, edge);
          if (nominal_hi > edge) full = false;  // cleanup tile
        }

        // Interior fast path: full tiles of a translatable group shift the
        // plan-time region template instead of re-deriving the regions —
        // unless the shifted footprint pokes past a stage domain (boundary
        // tile), which falls back to the exact clamped computation.  The
        // scalar reference mode always derives regions exactly.
        bool interior = false;
        if (compiled && full && g.region_template.translatable) {
          interior = true;
          for (int s : g.stage_order) {
            const Stage& st = pl.stage(s);
            const StageAlign& sa =
                g.align.stages[static_cast<std::size_t>(s)];
            const StageRegions& tr =
                g.region_template.stages[static_cast<std::size_t>(s)];
            StageRegions& r = regions[static_cast<std::size_t>(s)];
            r.owned.rank = r.required.rank = st.rank();
            for (int d = 0; d < st.rank(); ++d) {
              const DimAlign& da = sa.dim[static_cast<std::size_t>(d)];
              // Exactly divisible: translatability proved it at plan time.
              const std::int64_t delta =
                  (da.cls >= 0 && da.cls < ncls)
                      ? tile.lo[da.cls] * da.sd / da.sn
                      : 0;
              r.owned.lo[d] = tr.owned.lo[d] + delta;
              r.owned.hi[d] = tr.owned.hi[d] + delta;
              r.required.lo[d] = tr.required.lo[d] + delta;
              r.required.hi[d] = tr.required.hi[d] + delta;
            }
            if (!st.domain.contains(r.required)) {
              interior = false;
              break;
            }
          }
        }
        if (!interior)
          compute_region_boxes(pl, g.stages, g.align, tile, /*clamp=*/true,
                               g.stage_order, regions.data());

        for (int s : g.stage_order) {
          const StageRegions& reg = regions[static_cast<std::size_t>(s)];
          const Box& req = reg.required;
          if (req.empty()) continue;
          const Stage& st = pl.stage(s);
          const bool materialized =
              plan_.materialized[static_cast<std::size_t>(s)];
          // Write directly into the global buffer when the computed region is
          // exactly the owned slice (no halo): avoids a scratch copy.
          const bool direct = materialized && req == reg.owned;

          BufferView out_view;
          if (direct) {
            out_view = ws.stage_view(s);
          } else {
            auto& mem = scratch[static_cast<std::size_t>(s)];
            const std::size_t need = static_cast<std::size_t>(req.volume());
            if (need > mem.capacity()) {
              FUSEDP_FAULT_POINT("executor.scratch_alloc");
            }
            out_view = view_of_region(mem.ensure(need), req);
          }
          in_global[static_cast<std::size_t>(s)] = direct ? 1 : 0;
          tile_view[static_cast<std::size_t>(s)] = out_view;

          // Resolve loads.
          ctx.stage = &st;
          ctx.srcs.clear();
          ctx.srcs.reserve(st.loads.size());
          for (const Access& a : st.loads) {
            LoadSrc src;
            if (a.producer.is_input) {
              src.view = inputs[static_cast<std::size_t>(a.producer.id)].view();
              src.domain = pl.input(a.producer.id).domain;
            } else if (g.stages.contains(a.producer.id) &&
                       !in_global[static_cast<std::size_t>(a.producer.id)]) {
              src.view = tile_view[static_cast<std::size_t>(a.producer.id)];
              src.domain = pl.stage(a.producer.id).domain;
            } else {
              FUSEDP_DCHECK(ws.has(a.producer.id),
                            "producer not materialized");
              src.view = ws.stage_view(a.producer.id);
              src.domain = pl.stage(a.producer.id).domain;
            }
            ctx.srcs.push_back(std::move(src));
          }

          // Evaluate over the required box, row by row.
          const int last = st.rank() - 1;
          if (compiled) {
            const CompiledStage& cs =
                plan_.compiled[static_cast<std::size_t>(s)];
            // Per-load border mask: a load skips all border handling when
            // its unclamped access box over `req` provably stays inside the
            // producer's domain and inside the data this tile actually has
            // (an in-group producer's scratch only covers its required
            // region).  Boundary and cleanup tiles keep every load exact.
            const std::size_t nloads = st.loads.size();
            if (interior) {
              for (std::size_t li = 0; li < nloads; ++li) {
                const Access& a = st.loads[li];
                bool clamped = cs.loads[li].any_dynamic;
                if (!clamped) {
                  const Box need = map_access_box(pl, a, req);
                  clamped = !pl.producer_domain(a.producer).contains(need);
                  if (!clamped && !a.producer.is_input &&
                      g.stages.contains(a.producer.id) &&
                      !in_global[static_cast<std::size_t>(a.producer.id)])
                    clamped =
                        !regions[static_cast<std::size_t>(a.producer.id)]
                             .required.contains(need);
                }
                load_clamped[li] = clamped ? 1 : 0;
              }
            } else {
              std::fill_n(load_clamped.begin(), nloads,
                          static_cast<unsigned char>(1));
            }
            for_each_row(req, [&](std::int64_t* c) {
              float* out = &out_view.at(c);
              crowev.eval_row(cs, ctx, load_clamped.data(), c, req.lo[last],
                              req.hi[last], out, opts_.allow_fma,
                              opts_.fast_transcendentals);
            });
          } else {
            for_each_row(req, [&](std::int64_t* c) {
              float* out = &out_view.at(c);
              for (std::int64_t y = req.lo[last]; y <= req.hi[last]; ++y) {
                c[last] = y;
                out[y - req.lo[last]] = eval_scalar_at(ctx, st.body, c);
              }
              c[last] = req.lo[last];
            });
          }

          // Publish the owned slice of live-outs computed in scratch.
          if (materialized && !direct) {
            const Box owned = reg.owned;
            if (!owned.empty()) {
              BufferView dst = ws.stage_view(s);
              for_each_row(owned, [&](std::int64_t* c) {
                const float* srcp = &out_view.at(c);
                float* dstp = &dst.at(c);
                std::copy(srcp, srcp + owned.extent(last), dstp);
              });
            }
          }
        }

        // Guarded execution: sweep the canary lines around every row
        // register after the tile.  A smash throws a coded Error naming the
        // evaluator and register, captured like any other tile failure.
        if (opts_.guard_arena) crowev.check_guards();

        if (log != nullptr) {
          std::int64_t computed = 0, owned = 0;
          for (int s : g.stage_order) {
            const StageRegions& r = regions[static_cast<std::size_t>(s)];
            if (!r.required.empty()) computed += r.required.volume();
            if (!r.owned.empty()) owned += r.owned.volume();
          }
          ++log->tiles_run;
          if (interior) ++log->interior_tiles;
          log->computed_elems += computed;
          log->owned_elems += owned;
          if (want_tiles) {
            observe::TileEvent ev;
            ev.index = t;
            ev.thread = tid;
            ev.t_begin = t_begin;
            ev.t_end = epoch->seconds();
            ev.computed_elems = computed;
            ev.owned_elems = owned;
            ev.interior = interior;
            ev.worker = worker;
            ev.stolen = stolen;
            ev.queue_wait = queue_wait;
            log->tiles.push_back(std::move(ev));
          }
        }
      } catch (...) {
        capture_current_exception();
      }
    };

    drive(run_tile);

    // Arena high-water per thread, read after the tile loop so growth-only
    // reallocation has settled.  No clock, no lock: each thread owns its
    // slot.
    if (log != nullptr) {
      std::int64_t floats = 0;
      for (const ScratchArena& a : scratch)
        floats += static_cast<std::int64_t>(a.capacity());
      floats += static_cast<std::int64_t>(crowev.arena_floats());
      log->scratch_bytes =
          floats * static_cast<std::int64_t>(sizeof(float));
    }
  };

  if (opts_.pool_backend) {
    // Persistent work-stealing pool: one lane per logical thread, lane 0
    // inline on this thread.  The executor keeps its own per-tile deadline
    // probe (inside run_tile, same error text as the OpenMP path) and only
    // hands the pool its cancellation latch, so a tile fault or deadline on
    // any lane turns every remaining claim — own or stolen — into a no-op.
    ParallelForOptions pfo;
    pfo.lanes = nlanes;
    pfo.priority = priority;
    pfo.cancel = &cancelled;
    WorkPool::instance().parallel_for(total, pfo, [&](LaneContext& lc) {
      lane_main(lc.lane(), [&](auto& run_tile) {
        for (std::int64_t t = lc.claim(); t >= 0; t = lc.claim())
          run_tile(t, lc.worker(), lc.last_claim_stolen(),
                   lc.queue_wait_seconds());
        if (observing && lc.lane() < static_cast<int>(logs.size())) {
          ThreadLog& l = logs[static_cast<std::size_t>(lc.lane())];
          l.steals += lc.steals();
          l.queue_wait += lc.queue_wait_seconds();
        }
      });
    });
  } else {
#ifdef _OPENMP
#pragma omp parallel num_threads(nlanes)
    {
      const int tid = omp_get_thread_num();
      lane_main(tid, [&](auto& run_tile) {
        // Dynamic worksharing absorbs boundary/cleanup-tile imbalance.
        // Orphaned `omp for` binds to the enclosing parallel region.
#pragma omp for schedule(dynamic)
        for (std::int64_t t = 0; t < total; ++t) run_tile(t, -1, false, 0.0);
      });
    }
#else
    lane_main(0, [&](auto& run_tile) {
      for (std::int64_t t = 0; t < total; ++t) run_tile(t, -1, false, 0.0);
    });
#endif
  }

  if (first_error != nullptr) rethrow_tile_error(first_error);

  if (observing) {
    for (ThreadLog& l : logs) {
      rec->tiles_run += l.tiles_run;
      rec->interior_tiles += l.interior_tiles;
      rec->computed_elems += l.computed_elems;
      rec->owned_elems += l.owned_elems;
      rec->scratch_bytes += l.scratch_bytes;
      rec->steals += l.steals;
      rec->queue_wait_seconds += l.queue_wait;
      rec->tiles.insert(rec->tiles.end(),
                        std::make_move_iterator(l.tiles.begin()),
                        std::make_move_iterator(l.tiles.end()));
    }
  }
}

std::vector<Buffer> run_reference(const Pipeline& pl,
                                  const std::vector<Buffer>& inputs) {
  Grouping g;
  for (int i = 0; i < pl.num_stages(); ++i) {
    GroupSchedule gs;
    gs.stages = NodeSet::single(i);
    g.groups.push_back(gs);
  }
  ExecOptions opts;
  opts.num_threads = 1;
  // Golden purity: the reference never takes the compiled/template path.
  opts.mode = EvalMode::kScalar;
  Executor ex(pl, g, opts);
  Workspace ws;
  ex.run(inputs, ws);
  std::vector<Buffer> out;
  out.reserve(static_cast<std::size_t>(pl.num_stages()));
  for (int s = 0; s < pl.num_stages(); ++s)
    out.push_back(std::move(ws.stage_buffer(s)));
  return out;
}

std::vector<Buffer> run_pipeline(const Pipeline& pl, const Grouping& grouping,
                                 const std::vector<Buffer>& inputs,
                                 ExecOptions opts) {
  Executor ex(pl, grouping, opts);
  Workspace ws;
  ex.run(inputs, ws);
  std::vector<Buffer> out;
  out.reserve(pl.outputs().size());
  for (int s : pl.outputs()) out.push_back(std::move(ws.stage_buffer(s)));
  return out;
}

}  // namespace fusedp
