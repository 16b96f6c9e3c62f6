// The overlapped-tiling execution engine.
//
// Executes an ExecutablePlan: groups in topological order; within a group,
// the tile grid is traversed by an OpenMP schedule(dynamic) loop or the
// work-stealing pool (tiles are independent thanks to redundant
// recomputation of the overlap, paper Figure 2); within a tile, member
// stages run in topological order into per-thread scratch buffers sized to
// their required regions, and live-out stages write their owned slice to
// full-size global buffers.  This is the loop structure of the code
// PolyMage generates (paper Figure 3).
#pragma once

#include "observe/observe.hpp"
#include "runtime/eval.hpp"
#include "runtime/governor.hpp"
#include "runtime/plan.hpp"
#include "runtime/pool.hpp"
#include "storage/liveness.hpp"
#include "support/timing.hpp"

namespace fusedp {

enum class EvalMode : std::uint8_t {
  // The plan-time compiled row kernels (runtime/compile.hpp) plus the
  // interior-tile fast path: translated region template, unclamped loads.
  kRow,
  // Per-point eval_scalar_at with every tile's regions derived exactly:
  // the golden reference configuration run_reference uses.  Outputs are
  // bit-identical to kRow.
  kScalar,
};

struct ExecOptions {
  int num_threads = 1;  // must be >= 1
  EvalMode mode = EvalMode::kRow;
  // Superop (peephole) fusion in the compiled row backend: multiply-
  // accumulate and compare-and-blend passes over the register-allocated
  // program.  Outputs are bit-identical either way (superops perform the
  // same rounded operations in the same order as the ops they replace);
  // the differential verifier and the degradation ladder's
  // no-superops rung turn it off.
  bool superop_fusion = true;
  // Share allocations between materialized intermediates with disjoint live
  // intervals (PolyMage-style storage optimization; see storage/liveness).
  bool pooled_storage = false;
  // Guarded execution: canary words around every evaluator row register,
  // checked after each tile.  Catches row-kernel overruns and regalloc
  // aliasing that ASan cannot see inside one arena allocation; a smash
  // surfaces as a coded Error (kInternal) naming the register.  Costs one
  // cache line per register plus a canary sweep per tile.
  bool guard_arena = false;
  // Run tile loops on the persistent process-wide WorkPool (work-stealing
  // lanes, runtime/pool.hpp) instead of a per-run OpenMP parallel region.
  // Outputs are bit-identical either way — tiles write disjoint owned
  // slices, so execution order is irrelevant — and PR 6's cooperative
  // deadline/cancellation and once-latch error semantics carry over exactly
  // (the executor keeps its own per-tile deadline probe and error text).
  // Off keeps the OpenMP region, which remains the A/B baseline.
  bool pool_backend = false;
};

// Per-run overrides for Executor::run.  The serving front door varies these
// per request (lanes and priority) over one shared Executor, which
// ExecOptions — fixed at plan time — cannot express.
struct RunKnobs {
  observe::Observer* obs = nullptr;
  const Deadline* deadline = nullptr;
  // Parallelism width for this run (pool lanes or OpenMP team size);
  // 0 means ExecOptions::num_threads.
  int lanes = 0;
  // Dispatch class for this run's pool tasks (pool backend only):
  // interactive lanes are dequeued ahead of bulk lanes.
  TaskPriority priority = TaskPriority::kInteractive;
};

// Holds the full-size buffers of materialized stages.  With pooling,
// non-output intermediates become dense views into shared slot storage;
// pipeline outputs always keep dedicated buffers.
//
// The workspace's full footprint is admitted at the ResourceGovernor
// *before* prepare() allocates anything: a budget rejection surfaces as a
// coded kResourceExhausted error with the workspace unchanged — still
// holding (and still charged for) whatever it allocated previously, still
// reusable for a leaner retry.
class Workspace {
 public:
  // Allocates (or reuses) storage for `plan`.  An empty `storage` gives
  // every materialized stage its own buffer; otherwise stages with
  // storage.slot[s] >= 0 become views into the shared slots.
  void prepare(const ExecutablePlan& plan,
               const StorageAssignment& storage = {});

  // Resolved view of a materialized stage (dedicated or pooled).
  BufferView stage_view(int id) const {
    return views_[static_cast<std::size_t>(id)];
  }
  // Dedicated buffer; only valid for unpooled stages (e.g. outputs).
  Buffer& stage_buffer(int id) { return buffers_[static_cast<std::size_t>(id)]; }
  const Buffer& stage_buffer(int id) const {
    return buffers_[static_cast<std::size_t>(id)];
  }
  bool has(int id) const {
    return views_[static_cast<std::size_t>(id)].data != nullptr;
  }
  std::int64_t allocated_floats() const;

 private:
  // Charges the governor for the post-prepare footprint (throws
  // kResourceExhausted on rejection, leaving the workspace untouched) and
  // re-syncs the charge to the true allocation afterwards.
  void admit(std::int64_t target_floats);
  void resync_charge() noexcept;

  std::vector<Buffer> buffers_;  // dedicated, indexed by stage id
  std::vector<Buffer> slots_;    // pooled storage
  std::vector<BufferView> views_;
  GovernedCharge charge_;  // this workspace's bytes held at the governor
};

class Executor {
 public:
  Executor(const Pipeline& pl, const Grouping& grouping, ExecOptions opts);

  // Runs the whole pipeline.  `inputs[i]` must match pipeline input i's
  // domain in rank and every extent; a wrong count or shape throws a coded
  // kInvalidArgument naming the input before anything runs.  Results land
  // in `ws` (prepare()d automatically).
  //
  // With an observer attached, per-tile wall time and work counters are
  // recorded into per-thread logs, merged lock-free at group end, and
  // delivered as observe::GroupRecord / RunRecord callbacks on this
  // (serial) thread.  With `obs == nullptr` no clock is read and no log is
  // allocated — the tile loop pays one pointer test — and outputs are
  // bit-identical either way (instrumentation never touches the compute).
  //
  // A non-null armed `deadline` is sampled cooperatively at every tile
  // boundary (and before each reduction group): once expired, remaining
  // tiles become no-ops via the cancellation latch and the run terminates
  // with a coded kDeadlineExceeded error.  The deadline is deliberately NOT
  // checked at entry, so even an already-expired request prepares `ws` and
  // fails through the tile path — the workspace stays reusable and an
  // immediate re-run without the deadline is bit-identical to an
  // undisturbed run.
  void run(const std::vector<Buffer>& inputs, Workspace& ws,
           observe::Observer* obs = nullptr,
           const Deadline* deadline = nullptr) const;

  // As above, with per-run overrides (lanes, priority) on top of the
  // observer and deadline.  Thread-safe for concurrent calls on one
  // Executor as long as each call uses a distinct Workspace.
  void run(const std::vector<Buffer>& inputs, Workspace& ws,
           const RunKnobs& knobs) const;

  const ExecutablePlan& plan() const { return plan_; }

  // Storage assignment used when opts.pooled_storage is set.
  const StorageAssignment& storage() const { return storage_; }

 private:
  // `rec`, when non-null, receives the merged per-thread measurements;
  // `epoch` is the run-relative clock (non-null iff rec is).
  void run_group(const GroupPlan& g, const std::vector<Buffer>& inputs,
                 Workspace& ws, observe::GroupRecord* rec,
                 const WallTimer* epoch, bool want_tiles,
                 const Deadline* deadline, int lanes,
                 TaskPriority priority) const;
  // `lanes` is the run's width (RunKnobs::lanes), passed on to the
  // reduction as ReductionCtx::num_threads.
  void run_reduction(const GroupPlan& g, const std::vector<Buffer>& inputs,
                     Workspace& ws, int lanes) const;

  const Pipeline* pl_;
  ExecutablePlan plan_;
  ExecOptions opts_;
  StorageAssignment storage_;
};

// Convenience: executes the pipeline completely unfused and untiled with the
// scalar evaluator — the golden reference every schedule must match
// bit-for-bit.  Returns one buffer per stage.
std::vector<Buffer> run_reference(const Pipeline& pl,
                                  const std::vector<Buffer>& inputs);

// Runs `pl` under `grouping` and returns the buffers of the pipeline's
// output stages (in pl.outputs() order).
std::vector<Buffer> run_pipeline(const Pipeline& pl, const Grouping& grouping,
                                 const std::vector<Buffer>& inputs,
                                 ExecOptions opts = {});

}  // namespace fusedp
