// Plan-time stage compilation for the overlapped-tiling executor.  The
// compiled row kernels are FuseDP's stand-in for the C++ PolyMage generates
// (paper §2.1, Figure 3; see DESIGN.md).
//
// The per-tile costs of interpreting a stage body — re-walking the raw
// expression DAG with memoization stamps, re-classifying every load's axes
// per row, and clamp-to-edge bounds checks on every load even for tiles that
// never touch a border — are paid once per ExecutablePlan here instead:
//
//  * compile_stage() lowers a stage body into a CompiledStage: a
//    topologically linearized op program with constant folding,
//    common-subexpression elimination and dead-node elimination, plus a
//    load table whose per-axis structure (fixed / row-varying / dynamic,
//    scale, offsets) is classified up front.
//  * A superop fusion pass peephole-fuses adjacent ops into wider kernels:
//    a single-use binary op from {add, sub, mul, min, max} feeding another
//    becomes one fused two-op pass (SuperOp::kBinChain — the canonical
//    instance is mul feeding add: a multiply-accumulate), and a single-use
//    comparison feeding a kSelect condition becomes one compare-and-blend
//    pass (SuperOp::kCmpBlend).  Superops are IEEE-bit-identical to the
//    unfused ops (the multiply and the accumulate stay two rounded
//    operations; the whole build compiles with -ffp-contract=off).
//  * Linear-scan row-register allocation maps op results onto a small
//    reusable pool of 64-byte-aligned, cache-line-padded row registers
//    carved from one arena, instead of one full row per op.  The per-row
//    working set of a stage shrinks to a handful of L1-resident rows.
//    Constant rows and the innermost coordinate ramp are pinned (their
//    registers are never recycled) so they can be filled once per tile.
//  * build_region_template() precomputes a group's per-tile regions once:
//    all full (non-cleanup) tiles of a group have identical owned/required
//    shapes up to translation whenever every member dimension's tile step
//    maps to an integral stage-coordinate step.  The executor translates
//    the template per tile and falls back to the exact clamped computation
//    only for boundary and cleanup tiles.
//  * CompiledRowEvaluator executes the linear program one innermost-dim row
//    at a time.  Each load dispatches on a per-tile mask to either the
//    exact border-folding kernel or an unclamped interior kernel with no
//    per-element min/max; unclamped stride-1 identity loads are forwarded
//    as direct pointers into the producer's data (no copy at all).  The
//    row code is built per instruction set (runtime/row_kernels.hpp) and
//    dispatched on the CPU's feature bits (RowKernelIsa).
//
// Everything here is bit-identical to eval_scalar_at by construction
// (folding uses the same apply_unary/apply_binary the interpreter uses);
// tests/test_compile.cpp asserts this on every registered pipeline.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "analysis/regions.hpp"
#include "runtime/eval.hpp"
#include "support/vec.hpp"

namespace fusedp {

// Fused two-op kernels formed by the peephole pass over the linear program.
enum class SuperOp : std::uint8_t {
  kNone = 0,
  // Fused binary chain: dst = m ⊕ z (super_side 1) or z ⊕ m (super_side
  // 2), where ⊕ is `op` and m is the fused inner binary `op2` of `a` with
  // `b` (row) or `imm` (imm_side relative to the inner op).  z is row `c`,
  // or the immediate `imm2` when c < 0.  Both ops come from {add, sub, mul,
  // min, max}; the canonical instance is the multiply-accumulate
  // (op2 = mul, op = add/sub).
  kBinChain,
  // Fused pair-pair: dst = (a op2 b) op (c op3 d) — super_side 2 swaps the
  // outer operands.  Formed by upgrading a row-row kBinChain whose
  // remaining row operand is itself a single-use row-row binary (e.g.
  // Sxx*Syy - Sxy*Sxy evaluates in one pass).
  kChainPair,
  // Fused weighted pair: dst = (a*imm) op (b*imm2), each multiply's
  // immediate side in imm_side / imm2_side.  The backbone of weighted taps
  // (c1*u + c2*v) in pyramid/interpolate-style stages.
  kWeighted,
  // Compare-and-blend: dst = cmp(l, r) ? c : d, where cmp is `op2` (kLt /
  // kLe / kEq) over row `a` and row `b` or `imm` (imm_side relative to the
  // comparison).
  kCmpBlend,
};

// One op of a linearized stage program.  Operand fields `a`/`b`/`c`/`d` are
// op slots (indices into CompiledStage::ops), not ExprRefs.
//
// Binary ops with one constant operand are emitted in immediate form: the
// row operand sits in `a`, the constant in `imm`, and `imm_side` records
// which side of the operator the constant occupies (operand order is
// preserved exactly — float ops are not bit-commutative for NaN payloads).
// This skips materializing a whole row per constant and halves the row
// reads of such ops.
struct CompiledOp {
  Op op = Op::kConst;
  Op op2 = Op::kConst;  // kBinChain: inner op; kCmpBlend: the comparison
  Op op3 = Op::kConst;  // kChainPair: the second pair's op
  SuperOp super = SuperOp::kNone;
  float imm = 0.0f;
  float imm2 = 0.0f;  // kBinChain: immediate outer operand (c < 0);
                      // kWeighted: the second multiply's immediate
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;
  std::int32_t d = -1;        // kCmpBlend: false arm
  std::int32_t dim = -1;      // kCoord: dimension index
  std::int32_t load_id = -1;  // kLoad: index into CompiledStage::loads
  std::uint8_t imm_side = 0;  // 0: none, 1: dst = a op imm, 2: dst = imm op a
  std::uint8_t imm2_side = 0;   // kWeighted: imm side of the second multiply
  std::uint8_t super_side = 0;  // kBinChain: which side the inner op occupies
};

// Compile-time classification of one producer axis of a load.
struct CompiledAxis {
  AxisMap::Kind kind = AxisMap::Kind::kAffine;
  std::int32_t src_dim = 0;
  std::int32_t num = 1;
  std::int32_t den = 1;
  std::int64_t pre = 0;
  std::int64_t offset = 0;
  std::int32_t dyn_slot = -1;  // kDynamic: op slot holding the index row
  bool varies_row = false;     // affine on the innermost consumer dim
};

// A load with its axes pre-classified so the row kernel does no per-row
// axis dispatch.
struct CompiledLoad {
  std::int32_t prank = 0;
  Border border = Border::kClamp;
  bool any_dynamic = false;   // has a data-dependent axis: never unclamped
  std::int32_t vary_axis = -1;  // unique affine axis varying along the row
  bool vary_identity = false;   // vary axis is num==1, den==1, pre==0
  std::array<CompiledAxis, kMaxDims> axes;
};

struct CompiledStage {
  std::int32_t stage_id = -1;
  std::vector<CompiledOp> ops;  // topological: evaluate in order
  std::int32_t root = -1;       // slot producing the stage value
  // Indexed like Stage::loads; entries for loads unreachable from the body
  // stay default-initialized and are never evaluated.
  std::vector<CompiledLoad> loads;
  // Row-register assignment: reg[i] is the register op i writes, -1 for the
  // root (it writes the caller's row).  num_regs is the pool size.
  std::vector<std::int32_t> reg;
  std::int32_t num_regs = 0;

  // Compilation statistics (tests + plan printing).
  std::int32_t source_nodes = 0;  // arena nodes before lowering
  std::int32_t folded = 0;        // ops removed by constant folding
  std::int32_t cse_hits = 0;      // ops removed as common subexpressions
  std::int32_t fused = 0;         // superops formed by the peephole pass

  int num_slots() const { return static_cast<int>(ops.size()); }
  bool valid() const { return root >= 0; }
};

// Options for compile_stage/lower.  Every program gets row-register
// allocation, forwarding of unclamped stride-1 loads and closed-form
// interior gathers; `fuse_superops` adds the peephole superop pass.
// Outputs are bit-identical either way.
struct CompileOptions {
  bool fuse_superops = true;
};

// Lowers `s` (kMap only; reductions have no body and yield an invalid
// CompiledStage).
CompiledStage compile_stage(const Stage& s, const CompileOptions& opts = {});

// Per-group template of the overlapped-tiling regions, computed once at
// plan time for the nominal full tile at the grid origin (unclamped).
struct RegionTemplate {
  // True when every full tile's owned/required boxes are exact translates
  // of `stages`: every member stage dimension advances by the integral step
  // (tile_size * sd / sn) per tile, and every in-group access map commutes
  // with that translation.
  bool translatable = false;
  // Indexed by stage id; valid only for group members.
  std::vector<StageRegions> stages;
};

RegionTemplate build_region_template(const Pipeline& pl, NodeSet stages,
                                     const AlignResult& align,
                                     const std::vector<int>& order,
                                     const std::vector<std::int64_t>& tile_sizes,
                                     const std::vector<std::int64_t>& tiles_per_dim);

// Instruction-set builds of the row kernels CompiledRowEvaluator runs (see
// runtime/row_kernels.hpp).  Every x86-64 build carries a baseline table
// and an AVX2+FMA table; other targets carry the baseline table only.  The
// process runs the widest table the CPU supports, chosen once from its
// feature bits; both produce bit-identical outputs.
enum class RowKernelIsa : std::uint8_t { kBaseline, kAvx2 };

// "baseline" or "avx2".
const char* row_kernel_isa_name(RowKernelIsa isa);
// True when this build contains `isa`'s table and this CPU can run it.
bool row_kernels_supported(RowKernelIsa isa);
// The table an evaluator constructed now resolves: the detail:: override
// while one is active, else the widest supported table.
RowKernelIsa active_row_kernels();

namespace detail {

// Test-only table override, process-wide like FaultInjector arming: while
// an instance lives, every CompiledRowEvaluator constructed anywhere in the
// process (executor lanes on pool threads included) runs `isa`.  An `isa`
// this host cannot run selects the baseline table instead, so no override
// can execute instructions the CPU lacks.  Scopes nest; the destructor
// restores the previous selection.  Evaluators constructed before the
// scope keep their table.
class ScopedRowKernels {
 public:
  explicit ScopedRowKernels(RowKernelIsa isa);
  ~ScopedRowKernels();
  ScopedRowKernels(const ScopedRowKernels&) = delete;
  ScopedRowKernels& operator=(const ScopedRowKernels&) = delete;

 private:
  int prev_;
};

}  // namespace detail

namespace row_kernels {
struct RowFrame;
}  // namespace row_kernels

// Executes a CompiledStage one innermost-dimension row at a time.
// `load_clamped[i]` selects, per load, the exact border-folding kernel (1)
// or the unclamped interior kernel (0); the executor passes 0 only when the
// load's access box over the evaluated region provably stays inside the
// producer's domain, so both kernels read identical data.  Results are
// bit-identical to eval_scalar_at.
class CompiledRowEvaluator {
 public:
  // Resolves the row-kernel table (active_row_kernels()) once, here.
  CompiledRowEvaluator();

  // Evaluates over {base[0..rank-2] fixed, last dim in [y0, y1]} (inclusive)
  // and writes the y1-y0+1 results to `out`.  `ctx.srcs` holds one resolved
  // LoadSrc per stage load, as for eval_scalar_at.
  void eval_row(const CompiledStage& cs, const StageEvalCtx& ctx,
                const unsigned char* load_clamped, const std::int64_t* base,
                std::int64_t y0, std::int64_t y1, float* out);

  // Guard-arena mode (ExecOptions::guard_arena): canary lines around every
  // row register; check_guards() throws a coded Error on a smash — the
  // regalloc-aliasing/overrun class ASan cannot see inside one arena block.
  void set_guard_arena(bool on) { guard_.set_enabled(on); }
  void check_guards() const { guard_.check("CompiledRowEvaluator"); }

  // Arena high-water (floats) for the observability layer's scratch-bytes
  // accounting.
  std::size_t arena_floats() const { return arena_.capacity(); }

  // The row-kernel table this evaluator runs.
  RowKernelIsa isa() const { return isa_; }

 private:
  ScratchArena arena_;  // num_regs x padded-row-length registers
  RowGuard guard_;
  std::vector<const float*> rowp_;  // per-slot result row (register or
                                    // forwarded producer pointer)
  std::vector<std::int64_t> offs_;  // dynamic-gather flat-offset scratch row
  RowKernelIsa isa_;
  void (*run_row_)(const row_kernels::RowFrame&);

  // Row-reuse key: consecutive eval_row calls for the same stage, arena,
  // span and innermost range (every row of one tile) can skip refilling
  // registers whose contents do not depend on the outer coordinates —
  // constant rows and the innermost-dim coordinate ramp.  Those registers
  // are pinned by the allocator, so no other op recycles them mid-tile.
  const CompiledStage* last_cs_ = nullptr;
  float* last_rows_ = nullptr;
  std::int64_t last_y0_ = 0;
  std::size_t last_n_ = 0;
};

}  // namespace fusedp
