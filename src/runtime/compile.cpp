#include "runtime/compile.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>
#include <utility>

#include "ir/box.hpp"
#include "runtime/fastmath.hpp"
#include "support/fault.hpp"

namespace fusedp {

namespace {

std::int64_t clamp_i64(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

// Incremental floor_div(y * num + pre, den) + offset for y = y0, y0+1, ...
// Each step is one add plus a carry test instead of an integer division;
// the running value is exactly the closed form at every step (den > 0, any
// sign of num), so scaled gathers stay bit-identical to the direct formula.
class AffineStepper {
 public:
  AffineStepper(std::int64_t y0, std::int64_t num, std::int64_t den,
                std::int64_t pre, std::int64_t offset)
      : den_(den), dq_(floor_div(num, den)), dr_(num - dq_ * den) {
    const std::int64_t nmr = y0 * num + pre;
    const std::int64_t q = floor_div(nmr, den);
    r_ = nmr - q * den;  // in [0, den)
    q_ = q + offset;
  }
  std::int64_t value() const { return q_; }
  void step() {
    q_ += dq_;
    r_ += dr_;  // dr_ in [0, den): at most one carry
    if (r_ >= den_) {
      r_ -= den_;
      ++q_;
    }
  }

 private:
  std::int64_t den_, dq_, dr_, q_ = 0, r_ = 0;
};

// Value-numbering key: op + operand slots + the op-specific payload.  Two
// ops with equal keys compute identical rows, so the second one is
// eliminated.  Constants key on their bit pattern (so +0.0f and -0.0f stay
// distinct and bit-identity is preserved).
using VnKey = std::tuple<int, std::int32_t, std::int32_t, std::int32_t,
                         std::int32_t, std::int32_t, std::uint32_t>;

class StageCompiler {
 public:
  StageCompiler(const Stage& s, const CompileOptions& opts)
      : s_(s), opts_(opts) {
    cs_.stage_id = s.id;
    cs_.source_nodes = static_cast<std::int32_t>(s.nodes.size());
    cs_.loads.resize(s.loads.size());
    slot_.assign(s.nodes.size(), -1);
  }

  CompiledStage run() {
    if (s_.kind != StageKind::kMap || s_.body == kNoExpr) return std::move(cs_);
    lower(s_.body);
    cs_.root = slot_[static_cast<std::size_t>(s_.body)];
    compact();
    if (opts_.fuse_superops) {
      fuse_superops();
      compact();  // the fused-away inner ops are now dead
      fuse_pairs();
      compact();
    }
    allocate_registers();
    cs_.vector_loads = opts_.vector;
    return std::move(cs_);
  }

 private:
  // Children of `n` in evaluation order (dynamic axis exprs for loads).
  int children(const ExprNode& n, ExprRef* out) const {
    switch (n.op) {
      case Op::kConst:
      case Op::kCoord:
        return 0;
      case Op::kLoad: {
        int cnt = 0;
        const Access& a = s_.loads[static_cast<std::size_t>(n.load_id)];
        for (const AxisMap& m : a.axes)
          if (m.kind == AxisMap::Kind::kDynamic && m.dyn != kNoExpr)
            out[cnt++] = m.dyn;
        return cnt;
      }
      case Op::kSelect:
        out[0] = n.a;
        out[1] = n.b;
        out[2] = n.c;
        return 3;
      default:
        out[0] = n.a;
        if (op_is_unary(n.op)) return 1;
        out[1] = n.b;
        return 2;
    }
  }

  // Iterative post-order DFS: children lowered before their parent.
  void lower(ExprRef root) {
    struct Frame {
      ExprRef r;
      int next = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({root});
    ExprRef kids[kMaxDims];
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (slot_[static_cast<std::size_t>(f.r)] >= 0) {
        stack.pop_back();
        continue;
      }
      const ExprNode& n = s_.nodes[static_cast<std::size_t>(f.r)];
      const int nkids = children(n, kids);
      if (f.next < nkids) {
        const ExprRef child = kids[f.next++];
        if (slot_[static_cast<std::size_t>(child)] < 0)
          stack.push_back({child});
        continue;
      }
      slot_[static_cast<std::size_t>(f.r)] = emit(n);
      stack.pop_back();
    }
  }

  std::int32_t intern(const VnKey& key, const CompiledOp& op) {
    auto [it, inserted] = vn_.try_emplace(key, -1);
    if (!inserted) {
      ++cs_.cse_hits;
      return it->second;
    }
    cs_.ops.push_back(op);
    it->second = static_cast<std::int32_t>(cs_.ops.size()) - 1;
    return it->second;
  }

  std::int32_t emit_const(float v) {
    CompiledOp op;
    op.op = Op::kConst;
    op.imm = v;
    return intern({static_cast<int>(Op::kConst), -1, -1, -1, -1, -1,
                   std::bit_cast<std::uint32_t>(v)},
                  op);
  }

  bool is_const(std::int32_t slot) const {
    return cs_.ops[static_cast<std::size_t>(slot)].op == Op::kConst;
  }
  float const_of(std::int32_t slot) const {
    return cs_.ops[static_cast<std::size_t>(slot)].imm;
  }

  std::int32_t emit(const ExprNode& n) {
    switch (n.op) {
      case Op::kConst:
        return emit_const(n.imm);
      case Op::kCoord: {
        CompiledOp op;
        op.op = Op::kCoord;
        op.dim = n.dim;
        return intern(
            {static_cast<int>(Op::kCoord), -1, -1, -1, n.dim, -1, 0}, op);
      }
      case Op::kLoad: {
        CompiledOp op;
        op.op = Op::kLoad;
        op.load_id = n.load_id;
        const std::int32_t slot = intern(
            {static_cast<int>(Op::kLoad), -1, -1, -1, -1, n.load_id, 0}, op);
        fill_load(n.load_id);
        return slot;
      }
      case Op::kSelect: {
        const std::int32_t a = slot_[static_cast<std::size_t>(n.a)];
        const std::int32_t b = slot_[static_cast<std::size_t>(n.b)];
        const std::int32_t c = slot_[static_cast<std::size_t>(n.c)];
        // A constant condition picks one arm; both arms are pure, so
        // skipping the dead one is unobservable.
        if (is_const(a)) {
          ++cs_.folded;
          return const_of(a) != 0.0f ? b : c;
        }
        CompiledOp op;
        op.op = Op::kSelect;
        op.a = a;
        op.b = b;
        op.c = c;
        return intern({static_cast<int>(Op::kSelect), a, b, c, -1, -1, 0}, op);
      }
      default: {
        const std::int32_t a = slot_[static_cast<std::size_t>(n.a)];
        if (op_is_unary(n.op)) {
          if (is_const(a)) {
            ++cs_.folded;
            return emit_const(apply_unary(n.op, const_of(a)));
          }
          CompiledOp op;
          op.op = n.op;
          op.a = a;
          return intern({static_cast<int>(n.op), a, -1, -1, -1, -1, 0}, op);
        }
        const std::int32_t b = slot_[static_cast<std::size_t>(n.b)];
        if (is_const(a) && is_const(b)) {
          ++cs_.folded;
          return emit_const(apply_binary(n.op, const_of(a), const_of(b)));
        }
        CompiledOp op;
        op.op = n.op;
        if (is_const(b)) {  // dst = a op imm
          op.a = a;
          op.imm = const_of(b);
          op.imm_side = 1;
          return intern({static_cast<int>(n.op), a, -1, -1, 1, -1,
                         std::bit_cast<std::uint32_t>(op.imm)},
                        op);
        }
        if (is_const(a)) {  // dst = imm op b
          op.a = b;
          op.imm = const_of(a);
          op.imm_side = 2;
          return intern({static_cast<int>(n.op), b, -1, -1, 2, -1,
                         std::bit_cast<std::uint32_t>(op.imm)},
                        op);
        }
        op.a = a;
        op.b = b;
        return intern({static_cast<int>(n.op), a, b, -1, -1, -1, 0}, op);
      }
    }
  }

  // Reference counts per slot, counting every operand field, load dynamic
  // axes, and the root (the caller reads it).
  std::vector<std::int32_t> count_uses() const {
    std::vector<std::int32_t> uses(cs_.ops.size(), 0);
    auto touch = [&](std::int32_t s) {
      if (s >= 0) ++uses[static_cast<std::size_t>(s)];
    };
    for (const CompiledOp& op : cs_.ops) {
      touch(op.a);
      touch(op.b);
      touch(op.c);
      touch(op.d);
      if (op.op == Op::kLoad) {
        const CompiledLoad& cl =
            cs_.loads[static_cast<std::size_t>(op.load_id)];
        for (std::int32_t k = 0; k < cl.prank; ++k)
          touch(cl.axes[static_cast<std::size_t>(k)].dyn_slot);
      }
    }
    if (cs_.root >= 0) ++uses[static_cast<std::size_t>(cs_.root)];
    return uses;
  }

  // Peephole fusion over the linear program.  A single-use binary op from
  // {add, sub, mul, min, max} feeding another collapses into one fused
  // chain op (kBinChain — mul feeding add is the classic
  // multiply-accumulate; pure add chains are the bread and butter of box
  // stencils); a single-use comparison feeding a kSelect condition
  // collapses into one compare-and-blend.  Fused ops perform the same
  // rounded float operations in the same order as the pair they replace
  // (contraction into a real FMA only happens at execution time under
  // allow_fma, and only for mul→add/sub), so default-mode results are
  // bit-identical.  The fused-away inner op loses its only reference; the
  // compact() that follows removes it.
  void fuse_superops() {
    const std::vector<std::int32_t> uses = count_uses();
    const std::int32_t n = cs_.num_slots();
    auto chainable = [](Op op) {
      return op == Op::kAdd || op == Op::kSub || op == Op::kMul ||
             op == Op::kMin || op == Op::kMax;
    };
    auto fusable_as = [&](std::int32_t s, bool chain) -> bool {
      if (s < 0) return false;
      const CompiledOp& m = cs_.ops[static_cast<std::size_t>(s)];
      if (m.super != SuperOp::kNone ||
          uses[static_cast<std::size_t>(s)] != 1)
        return false;
      return chain ? chainable(m.op)
                   : m.op == Op::kLt || m.op == Op::kLe || m.op == Op::kEq;
    };
    auto is_mul = [&](std::int32_t s) {
      return cs_.ops[static_cast<std::size_t>(s)].op == Op::kMul;
    };
    for (std::int32_t i = 0; i < n; ++i) {
      CompiledOp& o = cs_.ops[static_cast<std::size_t>(i)];
      if (o.super != SuperOp::kNone) continue;
      if (chainable(o.op)) {
        // Which operand becomes the fused inner op, and what is the other
        // operand z?  super_side records the inner op's side so operand
        // order (and with it NaN-payload propagation) is preserved exactly.
        // When both operands qualify, prefer a multiply so allow_fma can
        // contract the result.
        std::int32_t mslot = -1, zslot = -1;
        float zimm = 0.0f;
        std::uint8_t side = 0;
        if (o.imm_side == 0) {
          const bool fa = fusable_as(o.a, /*chain=*/true);
          const bool fb = fusable_as(o.b, /*chain=*/true);
          if (fa && (!fb || is_mul(o.a) || !is_mul(o.b))) {
            mslot = o.a;
            zslot = o.b;
            side = 1;  // dst = m op b
          } else if (fb) {
            mslot = o.b;
            zslot = o.a;
            side = 2;  // dst = a op m
          }
        } else if (fusable_as(o.a, /*chain=*/true)) {
          zimm = o.imm;
          mslot = o.a;
          side = o.imm_side == 1 ? 1 : 2;  // dst = m op imm / imm op m
        }
        if (mslot < 0) continue;
        const CompiledOp m = cs_.ops[static_cast<std::size_t>(mslot)];
        o.super = SuperOp::kBinChain;
        o.super_side = side;
        o.op2 = m.op;
        o.a = m.a;
        o.b = m.b;
        o.imm = m.imm;
        o.imm_side = m.imm_side;
        o.c = zslot;
        o.imm2 = zimm;
        ++cs_.fused;
      } else if (o.op == Op::kSelect && fusable_as(o.a, /*chain=*/false)) {
        const CompiledOp m = cs_.ops[static_cast<std::size_t>(o.a)];
        const std::int32_t t_arm = o.b;
        const std::int32_t f_arm = o.c;
        o.super = SuperOp::kCmpBlend;
        o.op2 = m.op;
        o.a = m.a;
        o.b = m.b;
        o.imm = m.imm;
        o.imm_side = m.imm_side;
        o.c = t_arm;
        o.d = f_arm;
        ++cs_.fused;
      }
    }
  }

  // Second fusion round: widens kBinChain ops whose remaining row operand z
  // is itself a single-use binary, folding a third op into the pass.  Two
  // shapes (both preserve every rounded operation and its operand order):
  //   * row-row chain + row-row z      -> kChainPair  (m op (c op3 d))
  //   * imm-mul chain + imm-mul z      -> kWeighted   ((a*i1) op (b*i2))
  // Runs on the compacted program so count_uses reflects the first round's
  // rewiring.
  void fuse_pairs() {
    const std::vector<std::int32_t> uses = count_uses();
    const std::int32_t n = cs_.num_slots();
    for (std::int32_t i = 0; i < n; ++i) {
      CompiledOp& o = cs_.ops[static_cast<std::size_t>(i)];
      if (o.super != SuperOp::kBinChain || o.c < 0) continue;
      const std::int32_t zs = o.c;
      if (uses[static_cast<std::size_t>(zs)] != 1) continue;
      const CompiledOp& z = cs_.ops[static_cast<std::size_t>(zs)];
      if (z.super != SuperOp::kNone) continue;
      if (o.imm_side == 0 && o.b >= 0) {
        // Row-row inner pair; z must be a row-row fusable binary.
        if (z.op != Op::kAdd && z.op != Op::kSub && z.op != Op::kMul &&
            z.op != Op::kMin && z.op != Op::kMax)
          continue;
        if (z.imm_side != 0 || z.b < 0) continue;
        o.super = SuperOp::kChainPair;
        o.op3 = z.op;
        o.c = z.a;
        o.d = z.b;
        ++cs_.fused;
      } else if (o.op2 == Op::kMul && o.imm_side != 0 && o.b < 0) {
        // Immediate-multiply inner; z must be an immediate multiply too.
        if (z.op != Op::kMul || z.imm_side == 0) continue;
        o.super = SuperOp::kWeighted;
        o.b = z.a;
        o.imm2 = z.imm;
        o.imm2_side = z.imm_side;
        o.c = -1;
        ++cs_.fused;
      }
    }
  }

  // Drops ops unreachable from the root (folding interns operand slots
  // before the parent collapses, leaving dead constants behind; superop
  // fusion orphans the inner op it absorbed) and renumbers the survivors.
  // Ops only reference smaller slots — fusion preserves this, since a fused
  // op inherits the inner op's operands, which are smaller still — so one
  // decreasing marking pass suffices.
  void compact() {
    const std::size_t n = cs_.ops.size();
    std::vector<char> live(n, 0);
    live[static_cast<std::size_t>(cs_.root)] = 1;
    for (std::int32_t i = static_cast<std::int32_t>(n) - 1; i >= 0; --i) {
      if (!live[static_cast<std::size_t>(i)]) continue;
      const CompiledOp& op = cs_.ops[static_cast<std::size_t>(i)];
      if (op.a >= 0) live[static_cast<std::size_t>(op.a)] = 1;
      if (op.b >= 0) live[static_cast<std::size_t>(op.b)] = 1;
      if (op.c >= 0) live[static_cast<std::size_t>(op.c)] = 1;
      if (op.d >= 0) live[static_cast<std::size_t>(op.d)] = 1;
      if (op.op == Op::kLoad) {
        const CompiledLoad& cl = cs_.loads[static_cast<std::size_t>(op.load_id)];
        for (std::int32_t k = 0; k < cl.prank; ++k)
          if (cl.axes[static_cast<std::size_t>(k)].dyn_slot >= 0)
            live[static_cast<std::size_t>(
                cl.axes[static_cast<std::size_t>(k)].dyn_slot)] = 1;
      }
    }
    std::vector<std::int32_t> remap(n, -1);
    std::vector<CompiledOp> kept;
    kept.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!live[i]) continue;
      remap[i] = static_cast<std::int32_t>(kept.size());
      kept.push_back(cs_.ops[i]);
    }
    if (kept.size() == n) return;
    for (CompiledOp& op : kept) {
      if (op.a >= 0) op.a = remap[static_cast<std::size_t>(op.a)];
      if (op.b >= 0) op.b = remap[static_cast<std::size_t>(op.b)];
      if (op.c >= 0) op.c = remap[static_cast<std::size_t>(op.c)];
      if (op.d >= 0) op.d = remap[static_cast<std::size_t>(op.d)];
    }
    for (CompiledLoad& cl : cs_.loads)
      for (std::int32_t k = 0; k < cl.prank; ++k) {
        std::int32_t& ds = cl.axes[static_cast<std::size_t>(k)].dyn_slot;
        if (ds >= 0) ds = remap[static_cast<std::size_t>(ds)];
      }
    cs_.ops = std::move(kept);
    cs_.root = remap[static_cast<std::size_t>(cs_.root)];
  }

  // Maps op results onto a reusable pool of row registers via linear scan
  // over the (topological) program order.  The destination register is
  // allocated before the op's dying operands are released, so an op's
  // output never aliases any of its inputs — kernels stay safe to annotate
  // with `omp simd`.
  //
  // Constant rows and the innermost coordinate ramp are pinned: they always
  // take a fresh register and are never released, because the row-reuse
  // skip in eval_row leaves them unwritten after a tile's first row — any
  // other op recycling their register would clobber them mid-tile.
  void allocate_registers() {
    const std::int32_t n = cs_.num_slots();
    cs_.reg.assign(static_cast<std::size_t>(n), -1);
    if (!opts_.vector) {
      // Identity assignment: one row per op, the PR-baseline program shape
      // (the root still writes the caller's row; its slot stays unused so
      // the arena footprint matches the unallocated layout exactly).
      for (std::int32_t i = 0; i < n; ++i)
        if (i != cs_.root) cs_.reg[static_cast<std::size_t>(i)] = i;
      cs_.num_regs = n;
      return;
    }
    const std::int32_t last_dim = s_.rank() - 1;
    std::vector<std::int32_t> last_use(static_cast<std::size_t>(n), -1);
    std::vector<char> pinned(static_cast<std::size_t>(n), 0);
    for (std::int32_t i = 0; i < n; ++i) {
      const CompiledOp& o = cs_.ops[static_cast<std::size_t>(i)];
      pinned[static_cast<std::size_t>(i)] =
          o.op == Op::kConst || (o.op == Op::kCoord && o.dim == last_dim);
    }
    // Operands of op i, deduplicated (a slot used twice dies once).
    std::int32_t opnd[2 + kMaxDims];
    auto operands_of = [&](const CompiledOp& o) {
      int cnt = 0;
      auto add = [&](std::int32_t s) {
        if (s < 0) return;
        for (int k = 0; k < cnt; ++k)
          if (opnd[k] == s) return;
        opnd[cnt++] = s;
      };
      add(o.a);
      add(o.b);
      add(o.c);
      add(o.d);
      if (o.op == Op::kLoad) {
        const CompiledLoad& cl =
            cs_.loads[static_cast<std::size_t>(o.load_id)];
        for (std::int32_t k = 0; k < cl.prank; ++k)
          add(cl.axes[static_cast<std::size_t>(k)].dyn_slot);
      }
      return cnt;
    };
    for (std::int32_t i = 0; i < n; ++i) {
      const int cnt = operands_of(cs_.ops[static_cast<std::size_t>(i)]);
      for (int k = 0; k < cnt; ++k)
        last_use[static_cast<std::size_t>(opnd[k])] = i;
    }
    std::vector<std::int32_t> free_regs;
    std::int32_t next = 0;
    for (std::int32_t i = 0; i < n; ++i) {
      if (i != cs_.root) {
        std::int32_t r;
        if (!pinned[static_cast<std::size_t>(i)] && !free_regs.empty()) {
          r = free_regs.back();
          free_regs.pop_back();
        } else {
          r = next++;
        }
        cs_.reg[static_cast<std::size_t>(i)] = r;
      }
      const int cnt = operands_of(cs_.ops[static_cast<std::size_t>(i)]);
      for (int k = 0; k < cnt; ++k) {
        const std::int32_t s = opnd[k];
        if (last_use[static_cast<std::size_t>(s)] == i &&
            !pinned[static_cast<std::size_t>(s)] && s != cs_.root &&
            cs_.reg[static_cast<std::size_t>(s)] >= 0)
          free_regs.push_back(cs_.reg[static_cast<std::size_t>(s)]);
      }
    }
    cs_.num_regs = next;
  }

  void fill_load(std::int32_t load_id) {
    CompiledLoad& cl = cs_.loads[static_cast<std::size_t>(load_id)];
    if (cl.prank > 0) return;  // a CSE'd duplicate already filled it
    const Access& a = s_.loads[static_cast<std::size_t>(load_id)];
    const int last = s_.rank() - 1;
    cl.prank = static_cast<std::int32_t>(a.axes.size());
    cl.border = a.border;
    for (int k = 0; k < cl.prank; ++k) {
      const AxisMap& m = a.axes[static_cast<std::size_t>(k)];
      CompiledAxis& ca = cl.axes[static_cast<std::size_t>(k)];
      ca.kind = m.kind;
      ca.src_dim = m.src_dim;
      ca.num = m.num;
      ca.den = m.den;
      ca.pre = m.pre;
      ca.offset = m.offset;
      if (m.kind == AxisMap::Kind::kDynamic) {
        ca.dyn_slot = slot_[static_cast<std::size_t>(m.dyn)];
        cl.any_dynamic = true;
      } else if (m.kind == AxisMap::Kind::kAffine && m.num != 0 &&
                 m.src_dim == last) {
        ca.varies_row = true;
        cl.vary_axis = k;  // last one wins
      }
    }
    if (cl.vary_axis >= 0) {
      const CompiledAxis& vm = cl.axes[static_cast<std::size_t>(cl.vary_axis)];
      cl.vary_identity = vm.num == 1 && vm.den == 1 && vm.pre == 0;
    }
  }

  const Stage& s_;
  const CompileOptions opts_;
  CompiledStage cs_;
  std::vector<std::int32_t> slot_;
  std::map<VnKey, std::int32_t> vn_;
};

}  // namespace

CompiledStage compile_stage(const Stage& s, const CompileOptions& opts) {
  return StageCompiler(s, opts).run();
}

namespace {

// Stage-coordinate step of (stage, dim) for one grid step `step[cls]`;
// false when the step does not land on an integer coordinate (the group is
// then not translatable).
bool delta_of(const AlignResult& align, const std::int64_t* step, int ncls,
              int stage_id, int d, std::int64_t* out) {
  const DimAlign& da =
      align.stages[static_cast<std::size_t>(stage_id)].dim[static_cast<std::size_t>(d)];
  if (da.cls < 0 || da.cls >= ncls || step[da.cls] == 0) {
    *out = 0;
    return true;
  }
  const std::int64_t scaled = step[da.cls] * da.sd;
  if (scaled % da.sn != 0) return false;
  *out = scaled / da.sn;
  return true;
}

}  // namespace

RegionTemplate build_region_template(
    const Pipeline& pl, NodeSet stages, const AlignResult& align,
    const std::vector<int>& order, const std::vector<std::int64_t>& tile_sizes,
    const std::vector<std::int64_t>& tiles_per_dim) {
  RegionTemplate t;
  t.stages.assign(static_cast<std::size_t>(pl.num_stages()), StageRegions{});
  const int ncls = align.num_classes;
  if (order.empty() || ncls <= 0 || ncls > kMaxDims) return t;

  // Template regions of the nominal full tile at the grid origin,
  // unclamped: boundary effects are the executor's per-tile concern.
  Box t0;
  t0.rank = ncls;
  for (int d = 0; d < ncls; ++d) {
    t0.lo[d] = 0;
    t0.hi[d] = tile_sizes[static_cast<std::size_t>(d)] - 1;
  }
  compute_region_boxes(pl, stages, align, t0, /*clamp_to_domain=*/false, order,
                       t.stages.data());

  // Classes the grid never steps along (a single tile) translate by zero.
  std::int64_t step[kMaxDims] = {0, 0, 0, 0};
  for (int d = 0; d < ncls; ++d)
    if (tiles_per_dim[static_cast<std::size_t>(d)] > 1)
      step[d] = tile_sizes[static_cast<std::size_t>(d)];

  // Every member dimension must advance by an integral stage-coordinate
  // step per grid step...
  for (int s : order) {
    const Stage& st = pl.stage(s);
    for (int d = 0; d < st.rank(); ++d) {
      std::int64_t delta;
      if (!delta_of(align, step, ncls, s, d, &delta)) return t;
    }
  }

  // ...and every in-group access map must commute with that translation:
  // consumer step maps exactly onto the producer step (affine axes), and
  // axes whose footprint does not follow the tile (broadcast planes,
  // constant indices, data-dependent gathers spanning the full extent) may
  // only read producer dimensions that do not move.
  for (int c : order) {
    const Stage& cs = pl.stage(c);
    for (const Access& a : cs.loads) {
      if (a.producer.is_input || !stages.contains(a.producer.id)) continue;
      for (int k = 0; k < static_cast<int>(a.axes.size()); ++k) {
        const AxisMap& m = a.axes[static_cast<std::size_t>(k)];
        std::int64_t dp;
        if (!delta_of(align, step, ncls, a.producer.id, k, &dp)) return t;
        if (m.kind == AxisMap::Kind::kAffine && m.num != 0) {
          std::int64_t dc;
          if (!delta_of(align, step, ncls, c, m.src_dim, &dc)) return t;
          if ((dc * m.num) % m.den != 0 || dc * m.num / m.den != dp) return t;
        } else if (dp != 0) {
          return t;
        }
      }
    }
  }

  t.translatable = true;
  return t;
}

namespace {

// ---- SIMD superop kernels --------------------------------------------------
//
// One instantiation per operand shape, selected through a function-pointer
// table so the hot loop contains no per-element dispatch.  All shape flags
// are template parameters: the compiler sees straight-line loops it can
// vectorize.  Default mode performs exactly the two rounded operations of
// the unfused pair, in the same operand order; FMA instantiations contract
// to one rounding and exist only behind ExecOptions::allow_fma.

// Element operation of a fusable binary: exactly apply_binary's expression
// for that op (std::min/std::max included), so a fused chain produces the
// same bits as the two ops it replaced.
template <Op O>
inline float chain_bin(float a, float b) {
  if constexpr (O == Op::kAdd)
    return a + b;
  else if constexpr (O == Op::kSub)
    return a - b;
  else if constexpr (O == Op::kMul)
    return a * b;
  else if constexpr (O == Op::kMin)
    return std::min(a, b);
  else
    return std::max(a, b);
}

// dst = m op z (side 1) or z op m (side 2), m = inner OP2 of x with y/yimm.
// YI: y is the immediate `yimm` (the inner op was in immediate form); YS2
// mirrors the inner imm_side (imm OP2 x vs x OP2 imm — operand order
// matters for NaN-payload propagation and for kSub).  ZI: z is the
// immediate `zimm`; ZS2 mirrors super_side.  Each instantiation is one
// straight-line loop with no per-element dispatch.
template <Op OP2, bool YI, bool YS2, Op OP, bool ZI, bool ZS2>
void chain_kernel(float* dst, const float* x, const float* y, float yimm,
                  const float* z, float zimm, std::size_t n) {
  FUSEDP_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const float xv = x[j];
    const float yv = YI ? yimm : y[j];
    const float m = YS2 ? chain_bin<OP2>(yv, xv) : chain_bin<OP2>(xv, yv);
    const float zv = ZI ? zimm : z[j];
    dst[j] = ZS2 ? chain_bin<OP>(zv, m) : chain_bin<OP>(m, zv);
  }
}

using ChainFn = void (*)(float*, const float*, const float*, float,
                         const float*, float, std::size_t);

// Fusable chain ops; chain_op_index must agree with this order.
constexpr Op kChainOps[5] = {Op::kAdd, Op::kSub, Op::kMul, Op::kMin,
                             Op::kMax};

inline int chain_op_index(Op op) {
  switch (op) {
    case Op::kAdd: return 0;
    case Op::kSub: return 1;
    case Op::kMul: return 2;
    case Op::kMin: return 3;
    default:       return 4;  // kMax
  }
}

// Index layout: ((inner * 5) + outer) * 16 + bits, bits = YI | YS2<<1 |
// ZI<<2 | ZS2<<3.
template <std::size_t... I>
constexpr std::array<ChainFn, sizeof...(I)> make_chain_table(
    std::index_sequence<I...>) {
  return {{&chain_kernel<kChainOps[I / 80], (I & 1) != 0, (I & 2) != 0,
                         kChainOps[(I / 16) % 5], (I & 4) != 0,
                         (I & 8) != 0>...}};
}

constexpr std::array<ChainFn, 400> kChainKernels =
    make_chain_table(std::make_index_sequence<400>{});

// dst = (x OP2 y) OP (z OP3 w), outer operands swapped under ZS2 — the
// pair-pair superop, all row operands.
template <Op OP2, Op OP, bool ZS2, Op OP3>
void chainpair_kernel(float* dst, const float* x, const float* y,
                      const float* z, const float* w, std::size_t n) {
  FUSEDP_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const float m = chain_bin<OP2>(x[j], y[j]);
    const float p = chain_bin<OP3>(z[j], w[j]);
    dst[j] = ZS2 ? chain_bin<OP>(p, m) : chain_bin<OP>(m, p);
  }
}

using ChainPairFn = void (*)(float*, const float*, const float*,
                             const float*, const float*, std::size_t);

// Index layout: ((inner * 5 + outer) * 5 + second) * 2 + ZS2.
template <std::size_t... I>
constexpr std::array<ChainPairFn, sizeof...(I)> make_chainpair_table(
    std::index_sequence<I...>) {
  return {{&chainpair_kernel<kChainOps[I / 50], kChainOps[(I / 10) % 5],
                             (I & 1) != 0, kChainOps[(I / 2) % 5]>...}};
}

constexpr std::array<ChainPairFn, 250> kChainPairKernels =
    make_chainpair_table(std::make_index_sequence<250>{});

// dst = (x*i1) OP (y*i2) with each multiply's immediate side (MS1/MS2: imm
// on the left) preserved for NaN-payload order; S2 swaps the outer
// operands.
template <Op OP, bool MS1, bool MS2, bool S2>
void weighted_kernel(float* dst, const float* x, float i1, const float* y,
                     float i2, std::size_t n) {
  FUSEDP_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const float m = MS1 ? i1 * x[j] : x[j] * i1;
    const float w = MS2 ? i2 * y[j] : y[j] * i2;
    dst[j] = S2 ? chain_bin<OP>(w, m) : chain_bin<OP>(m, w);
  }
}

using WeightedFn = void (*)(float*, const float*, float, const float*, float,
                            std::size_t);

// Index layout: outer * 8 + (MS1 | MS2<<1 | S2<<2).
template <std::size_t... I>
constexpr std::array<WeightedFn, sizeof...(I)> make_weighted_table(
    std::index_sequence<I...>) {
  return {{&weighted_kernel<kChainOps[I / 8], (I & 1) != 0, (I & 2) != 0,
                            (I & 4) != 0>...}};
}

constexpr std::array<WeightedFn, 40> kWeightedKernels =
    make_weighted_table(std::make_index_sequence<40>{});

// allow_fma contraction of a mul→add/sub chain: one rounding instead of
// two.  The inner operand order (YS2) cannot affect the fma value, so only
// YI/ZI/ZS2/SUB instantiate.
template <bool YI, bool ZI, bool ZS2, bool SUB>
void fma_kernel(float* dst, const float* x, const float* y, float yimm,
                const float* z, float zimm, std::size_t n) {
  FUSEDP_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const float xv = x[j];
    const float yv = YI ? yimm : y[j];
    const float zv = ZI ? zimm : z[j];
    if constexpr (!SUB)
      dst[j] = std::fma(xv, yv, zv);
    else if constexpr (!ZS2)
      dst[j] = std::fma(xv, yv, -zv);  // m - z
    else
      dst[j] = std::fma(-xv, yv, zv);  // z - m
  }
}

template <std::size_t... I>
constexpr std::array<ChainFn, sizeof...(I)> make_fma_table(
    std::index_sequence<I...>) {
  return {{&fma_kernel<(I & 1) != 0, (I & 2) != 0, (I & 4) != 0,
                       (I & 8) != 0>...}};
}

constexpr std::array<ChainFn, 16> kFmaKernels =
    make_fma_table(std::make_index_sequence<16>{});

// dst = cmp(l, r) ? t : f.  IS mirrors imm_side of the fused comparison:
// 0 row-row, 1 row-imm, 2 imm-row.  Selecting on the comparison directly is
// bit-identical to materializing the 0/1 row and testing != 0.
template <Op CMP, int IS>
void blend_kernel(float* dst, const float* a, const float* b, float imm,
                  const float* t, const float* f, std::size_t n) {
  FUSEDP_SIMD
  for (std::size_t j = 0; j < n; ++j) {
    const float l = IS == 2 ? imm : a[j];
    const float r = IS == 1 ? imm : (IS == 2 ? a[j] : b[j]);
    bool c;
    if constexpr (CMP == Op::kLt)
      c = l < r;
    else if constexpr (CMP == Op::kLe)
      c = l <= r;
    else
      c = l == r;
    dst[j] = c ? t[j] : f[j];
  }
}

template <Op CMP>
void blend_dispatch(int is, float* dst, const float* a, const float* b,
                    float imm, const float* t, const float* f, std::size_t n) {
  if (is == 0)
    blend_kernel<CMP, 0>(dst, a, b, imm, t, f, n);
  else if (is == 1)
    blend_kernel<CMP, 1>(dst, a, b, imm, t, f, n);
  else
    blend_kernel<CMP, 2>(dst, a, b, imm, t, f, n);
}

}  // namespace

const float* CompiledRowEvaluator::eval_load(const CompiledLoad& cl,
                                             const LoadSrc& src, bool clamped,
                                             float* out, bool may_forward) {
  const int prank = cl.prank;

  if (!clamped) {
    // Interior kernel: every coordinate is provably inside src.domain and
    // the backing view, so border folding is skipped entirely.
    std::int64_t c[kMaxDims] = {0, 0, 0, 0};
    for (int k = 0; k < prank; ++k) {
      const CompiledAxis& m = cl.axes[static_cast<std::size_t>(k)];
      if (m.varies_row) continue;
      c[k] = (m.kind == AxisMap::Kind::kConstant || m.num == 0)
                 ? m.offset
                 : floor_div(base_[m.src_dim] * m.num + m.pre, m.den) +
                       m.offset;
    }
    if (cl.vary_axis < 0) {
      const float v = src.view.at(c);
      FUSEDP_SIMD
      for (std::size_t i = 0; i < n_; ++i) out[i] = v;
      return out;
    }
    const CompiledAxis& vm = cl.axes[static_cast<std::size_t>(cl.vary_axis)];
    const std::int64_t stride = src.view.stride[cl.vary_axis];
    if (cl.vary_identity) {
      c[cl.vary_axis] = y0_ + vm.offset;
      const float* p = src.view.data + src.view.offset_of(c);
      if (stride == 1) {
        // Contiguous interior row: forward the producer's storage directly
        // — consumers read through the per-slot row pointer, so no copy is
        // needed at all (the root still copies: it must write `out`).
        if (may_forward) return p;
        std::memcpy(out, p, n_ * sizeof(float));
      } else {
        FUSEDP_SIMD
        for (std::size_t i = 0; i < n_; ++i)
          out[i] = p[static_cast<std::int64_t>(i) * stride];
      }
      return out;
    }
    // Scaled gather: the varying coordinate is factored out of the flat
    // offset and advanced without per-element division.
    c[cl.vary_axis] = 0;
    const float* p0 = src.view.data + src.view.offset_of(c);
    if (vec_) {
      // Closed-form index kernels for the dominant scalings: the element
      // index is a direct function of i, so the loop has no carried state
      // and vectorizes.  The integer indices are exactly the stepper's.
      if (vm.den == 1) {
        // Pure stride: index = y*num + pre + offset.
        const float* p = p0 + (y0_ * vm.num + vm.pre + vm.offset) * stride;
        const std::int64_t st = vm.num * stride;
        FUSEDP_SIMD
        for (std::size_t i = 0; i < n_; ++i)
          out[i] = p[static_cast<std::int64_t>(i) * st];
        return out;
      }
      if (vm.num == 1 && vm.den == 2) {
        // Halving (pyramid downscale taps): index = floor((y+pre)/2)+offset
        // = q0 + (i + r0)/2 with r0 in {0, 1}.
        const std::int64_t t0 = y0_ + vm.pre;
        const std::int64_t q0 = floor_div(t0, 2);
        const std::size_t r0 = static_cast<std::size_t>(t0 - 2 * q0);
        const float* p = p0 + (q0 + vm.offset) * stride;
        FUSEDP_SIMD
        for (std::size_t i = 0; i < n_; ++i)
          out[i] = p[static_cast<std::int64_t>((i + r0) >> 1) * stride];
        return out;
      }
      if (vm.num == 1 && vm.den > 2) {
        // General upsampling (the bilateral slice's den=8 grid axes): the
        // index floor((y+pre)/den)+offset is piecewise constant over runs
        // of `den` elements, so the row is a sequence of broadcast fills
        // (the first run is den-r0 long, the rest full).  Each fill
        // vectorizes; the indices are exactly the stepper's.
        const std::int64_t t0 = y0_ + vm.pre;
        std::int64_t q = floor_div(t0, vm.den);
        std::size_t run = static_cast<std::size_t>(vm.den - (t0 - q * vm.den));
        const float* p = p0 + vm.offset * stride;
        std::size_t i = 0;
        while (i < n_) {
          const std::size_t end = std::min(n_, i + run);
          const float v = p[q * stride];
          FUSEDP_SIMD
          for (std::size_t j = i; j < end; ++j) out[j] = v;
          i = end;
          run = static_cast<std::size_t>(vm.den);
          ++q;
        }
        return out;
      }
    }
    AffineStepper coord(y0_, vm.num, vm.den, vm.pre, vm.offset);
    for (std::size_t i = 0; i < n_; ++i, coord.step())
      out[i] = p0[coord.value() * stride];
    return out;
  }

  if (cl.border != Border::kClamp) {
    // Non-clamp borders take a fully general gather (they are rare and only
    // differ near domain edges).
    const float* dyn[kMaxDims] = {nullptr, nullptr, nullptr, nullptr};
    for (int k = 0; k < prank; ++k)
      if (cl.axes[static_cast<std::size_t>(k)].kind == AxisMap::Kind::kDynamic)
        dyn[k] = row(cl.axes[static_cast<std::size_t>(k)].dyn_slot);
    std::int64_t c[kMaxDims];
    for (std::size_t i = 0; i < n_; ++i) {
      const std::int64_t y = y0_ + static_cast<std::int64_t>(i);
      bool zero = false;
      for (int k = 0; k < prank && !zero; ++k) {
        const CompiledAxis& m = cl.axes[static_cast<std::size_t>(k)];
        std::int64_t v;
        if (m.kind == AxisMap::Kind::kConstant || m.num == 0)
          v = m.offset;
        else if (m.kind == AxisMap::Kind::kDynamic)
          v = static_cast<std::int64_t>(std::floor(dyn[k][i]));
        else
          v = floor_div((m.varies_row ? y : base_[m.src_dim]) * m.num + m.pre,
                        m.den) +
              m.offset;
        if (cl.border == Border::kZero &&
            (v < src.domain.lo[k] || v > src.domain.hi[k])) {
          zero = true;
          break;
        }
        c[k] = fold_coord(v, src.domain.lo[k], src.domain.hi[k], cl.border);
      }
      out[i] = zero ? 0.0f : src.view.at(c);
    }
    return out;
  }

  // Clamp-to-edge: fixed coordinates once per row, then the varying /
  // dynamic axes per element.
  std::int64_t fixed[kMaxDims] = {0, 0, 0, 0};
  const float* dyn_rows[kMaxDims] = {nullptr, nullptr, nullptr, nullptr};
  for (int k = 0; k < prank; ++k) {
    const CompiledAxis& m = cl.axes[static_cast<std::size_t>(k)];
    switch (m.kind) {
      case AxisMap::Kind::kConstant:
        fixed[k] = clamp_i64(m.offset, src.domain.lo[k], src.domain.hi[k]);
        break;
      case AxisMap::Kind::kDynamic:
        dyn_rows[k] = row(m.dyn_slot);
        break;
      case AxisMap::Kind::kAffine:
        if (!m.varies_row) {
          const std::int64_t v =
              m.num == 0
                  ? m.offset
                  : floor_div(base_[m.src_dim] * m.num + m.pre, m.den) +
                        m.offset;
          fixed[k] = clamp_i64(v, src.domain.lo[k], src.domain.hi[k]);
        }
        break;
    }
  }

  if (!cl.any_dynamic && cl.vary_axis >= 0) {
    const CompiledAxis& vm = cl.axes[static_cast<std::size_t>(cl.vary_axis)];
    if (cl.vary_identity) {
      // Contiguous-in-producer along the row, clamped at the edges.
      std::int64_t c[kMaxDims];
      for (int k = 0; k < prank; ++k) c[k] = fixed[k];
      const std::int64_t plo = src.domain.lo[cl.vary_axis];
      const std::int64_t phi = src.domain.hi[cl.vary_axis];
      const std::int64_t stride = src.view.stride[cl.vary_axis];
      const std::int64_t first = y0_ + vm.offset;
      const std::int64_t pre = std::clamp<std::int64_t>(
          plo - first, 0, static_cast<std::int64_t>(n_));
      const std::int64_t post_start = std::clamp<std::int64_t>(
          phi - first + 1, 0, static_cast<std::int64_t>(n_));
      if (pre > 0) {
        c[cl.vary_axis] = plo;
        const float lo_val = src.view.at(c);
        for (std::int64_t i = 0; i < pre; ++i) out[i] = lo_val;
      }
      if (post_start > pre) {
        c[cl.vary_axis] = first + pre;
        const float* p = src.view.data + src.view.offset_of(c);
        const std::size_t body = static_cast<std::size_t>(post_start - pre);
        if (stride == 1) {
          std::memcpy(out + pre, p, body * sizeof(float));
        } else {
          FUSEDP_SIMD
          for (std::size_t i = 0; i < body; ++i)
            out[static_cast<std::size_t>(pre) + i] =
                p[static_cast<std::int64_t>(i) * stride];
        }
      }
      if (post_start < static_cast<std::int64_t>(n_)) {
        c[cl.vary_axis] = phi;
        const float hi_val = src.view.at(c);
        for (std::int64_t i = post_start; i < static_cast<std::int64_t>(n_);
             ++i)
          out[i] = hi_val;
      }
      return out;
    }
    // Scaled gather along the row (up/down-sampling): factor the varying
    // coordinate out of the flat offset and advance it division-free.
    std::int64_t c[kMaxDims];
    for (int k = 0; k < prank; ++k) c[k] = fixed[k];
    const std::int64_t plo = src.domain.lo[cl.vary_axis];
    const std::int64_t phi = src.domain.hi[cl.vary_axis];
    const std::int64_t stride = src.view.stride[cl.vary_axis];
    c[cl.vary_axis] = 0;
    const float* p0 = src.view.data + src.view.offset_of(c);
    if (vec_ && vm.num > 0) {
      // The index is non-decreasing in i, so the row splits into a
      // clamped-to-lo prefix, a clamp-free interior and a clamped-to-hi
      // suffix; the interior takes the same closed-form kernels as the
      // unclamped path.  Segment bounds invert the exact index formula, so
      // every element reads the same producer cell the clamping loop would.
      std::int64_t i_lo = 0, i_hi1 = 0;
      bool closed = false;
      if (vm.den == 1) {
        const std::int64_t k0 = vm.pre + vm.offset;
        i_lo = ceil_div(plo - k0, vm.num) - y0_;
        i_hi1 = floor_div(phi - k0, vm.num) - y0_ + 1;
        closed = true;
      } else if (vm.num == 1 && vm.den >= 2) {
        // floor((y0+i+pre)/den)+offset crosses plo at the first i with
        // y0+i+pre >= den*(plo-offset) and exceeds phi at the first i with
        // y0+i+pre >= den*(phi-offset+1); for den = 2 this is exactly the
        // former specialized bound.
        i_lo = vm.den * (plo - vm.offset) - y0_ - vm.pre;
        i_hi1 = vm.den * (phi - vm.offset + 1) - y0_ - vm.pre;
        closed = true;
      }
      if (closed) {
        const std::int64_t nn = static_cast<std::int64_t>(n_);
        i_lo = std::clamp<std::int64_t>(i_lo, 0, nn);
        i_hi1 = std::clamp<std::int64_t>(i_hi1, i_lo, nn);
        if (i_lo > 0) {
          const float lo_val = p0[plo * stride];
          for (std::int64_t i = 0; i < i_lo; ++i) out[i] = lo_val;
        }
        if (vm.den == 1) {
          const float* p =
              p0 + ((y0_ + i_lo) * vm.num + vm.pre + vm.offset) * stride;
          const std::int64_t st = vm.num * stride;
          const std::int64_t body = i_hi1 - i_lo;
          float* outb = out + i_lo;
          FUSEDP_SIMD
          for (std::int64_t i = 0; i < body; ++i) outb[i] = p[i * st];
        } else if (vm.den == 2) {
          const std::int64_t t0 = y0_ + i_lo + vm.pre;
          const std::int64_t q0 = floor_div(t0, 2);
          const std::int64_t r0 = t0 - 2 * q0;
          const float* p = p0 + (q0 + vm.offset) * stride;
          const std::int64_t body = i_hi1 - i_lo;
          float* outb = out + i_lo;
          FUSEDP_SIMD
          for (std::int64_t i = 0; i < body; ++i)
            outb[i] = p[((i + r0) >> 1) * stride];
        } else {
          // den > 2 interior: run-segmented broadcast fills, as in the
          // unclamped kernel (the interior is clamp-free by construction).
          const std::int64_t t0 = y0_ + i_lo + vm.pre;
          std::int64_t q = floor_div(t0, vm.den);
          std::size_t run =
              static_cast<std::size_t>(vm.den - (t0 - q * vm.den));
          const float* p = p0 + vm.offset * stride;
          const std::size_t body = static_cast<std::size_t>(i_hi1 - i_lo);
          float* outb = out + i_lo;
          std::size_t i = 0;
          while (i < body) {
            const std::size_t end = std::min(body, i + run);
            const float v = p[q * stride];
            FUSEDP_SIMD
            for (std::size_t j = i; j < end; ++j) outb[j] = v;
            i = end;
            run = static_cast<std::size_t>(vm.den);
            ++q;
          }
        }
        if (i_hi1 < nn) {
          const float hi_val = p0[phi * stride];
          for (std::int64_t i = i_hi1; i < nn; ++i) out[i] = hi_val;
        }
        return out;
      }
    }
    AffineStepper coord(y0_, vm.num, vm.den, vm.pre, vm.offset);
    for (std::size_t i = 0; i < n_; ++i, coord.step())
      out[i] = p0[clamp_i64(coord.value(), plo, phi) * stride];
    return out;
  }

  if (!cl.any_dynamic) {
    // Every axis fixed: broadcast one element.
    const float v = src.view.at(fixed);
    FUSEDP_SIMD
    for (std::size_t i = 0; i < n_; ++i) out[i] = v;
    return out;
  }

  // General gather with dynamic axes.  The fixed axes are folded into one
  // base pointer; only dynamic and row-varying axes contribute per element.
  struct ActiveAxis {
    const float* dyn;  // null for an affine row-varying axis
    std::int64_t num, den, pre, offset;
    std::int64_t stride, lo, hi;
  };
  ActiveAxis act[kMaxDims];
  int nact = 0;
  std::int64_t c[kMaxDims] = {0, 0, 0, 0};
  for (int k = 0; k < prank; ++k) {
    const CompiledAxis& m = cl.axes[static_cast<std::size_t>(k)];
    if (m.kind == AxisMap::Kind::kDynamic || m.varies_row) {
      ActiveAxis& a = act[nact++];
      a.dyn = m.kind == AxisMap::Kind::kDynamic ? dyn_rows[k] : nullptr;
      a.num = m.num;
      a.den = m.den;
      a.pre = m.pre;
      a.offset = m.offset;
      a.stride = src.view.stride[k];
      a.lo = src.domain.lo[k];
      a.hi = src.domain.hi[k];
      c[k] = 0;
    } else {
      c[k] = fixed[k];
    }
  }
  const float* p0 = src.view.data + src.view.offset_of(c);
  if (vec_) {
    // Loop interchange: one branchless pass per active axis accumulates the
    // flat offsets into a scratch row, then a single tight gather reads the
    // producer.  Index math (floor, clamp, strides) is element-for-element
    // the same as the fallback loop below.
    offs_.resize(n_);
    std::int64_t* off = offs_.data();
    for (int t = 0; t < nact; ++t) {
      const ActiveAxis& a = act[t];
      const std::int64_t lo = a.lo, hi = a.hi, st = a.stride;
      if (a.dyn) {
        const float* d = a.dyn;
        FUSEDP_SIMD
        for (std::size_t i = 0; i < n_; ++i) {
          std::int64_t v = static_cast<std::int64_t>(std::floor(d[i]));
          v = v < lo ? lo : (v > hi ? hi : v);
          off[i] = (t == 0 ? 0 : off[i]) + v * st;
        }
      } else if (a.den == 1) {
        const std::int64_t k0 = a.pre + a.offset;
        FUSEDP_SIMD
        for (std::size_t i = 0; i < n_; ++i) {
          std::int64_t v = (y0_ + static_cast<std::int64_t>(i)) * a.num + k0;
          v = v < lo ? lo : (v > hi ? hi : v);
          off[i] = (t == 0 ? 0 : off[i]) + v * st;
        }
      } else if (a.num == 1) {
        // Upsampled axis (the bilateral slice reads its den=8 grid axes
        // here): floor((y+pre)/den)+offset is constant over runs of `den`
        // elements, so clamp once per run and fill with a vectorizable
        // inner loop instead of the serial stepper.  Index math matches
        // the fallback element for element.
        const std::int64_t t0 = y0_ + a.pre;
        std::int64_t q = floor_div(t0, a.den);
        std::size_t run = static_cast<std::size_t>(a.den - (t0 - q * a.den));
        std::size_t i = 0;
        while (i < n_) {
          const std::size_t end = std::min(n_, i + run);
          const std::int64_t v = clamp_i64(q + a.offset, lo, hi) * st;
          if (t == 0) {
            FUSEDP_SIMD
            for (std::size_t j = i; j < end; ++j) off[j] = v;
          } else {
            FUSEDP_SIMD
            for (std::size_t j = i; j < end; ++j) off[j] += v;
          }
          i = end;
          run = static_cast<std::size_t>(a.den);
          ++q;
        }
      } else {
        AffineStepper coord(y0_, a.num, a.den, a.pre, a.offset);
        for (std::size_t i = 0; i < n_; ++i, coord.step()) {
          const std::int64_t v = clamp_i64(coord.value(), lo, hi);
          off[i] = (t == 0 ? 0 : off[i]) + v * st;
        }
      }
    }
    for (std::size_t i = 0; i < n_; ++i) out[i] = p0[off[i]];
    return out;
  }
  for (std::size_t i = 0; i < n_; ++i) {
    const std::int64_t y = y0_ + static_cast<std::int64_t>(i);
    std::int64_t off = 0;
    for (int t = 0; t < nact; ++t) {
      const ActiveAxis& a = act[t];
      const std::int64_t v =
          a.dyn ? static_cast<std::int64_t>(std::floor(a.dyn[i]))
                : floor_div(y * a.num + a.pre, a.den) + a.offset;
      off += clamp_i64(v, a.lo, a.hi) * a.stride;
    }
    out[i] = p0[off];
  }
  return out;
}

void CompiledRowEvaluator::eval_row(const CompiledStage& cs,
                                    const StageEvalCtx& ctx,
                                    const unsigned char* load_clamped,
                                    const std::int64_t* base, std::int64_t y0,
                                    std::int64_t y1, float* out,
                                    bool allow_fma,
                                    bool fast_transcendentals) {
  n_ = static_cast<std::size_t>(y1 - y0 + 1);
  base_ = base;
  y0_ = y0;
  vec_ = cs.vector_loads;
  rows_ = guard_.carve(arena_, static_cast<std::size_t>(cs.num_regs),
                       pad_row_floats(n_), stride_);
  rowp_.resize(cs.ops.size());
  // Test-only synthetic overrun: scribbles into register 0's guard line,
  // proving the post-tile canary check catches an in-arena smash.
  if (guard_.enabled() && cs.num_regs > 0)
    FUSEDP_FAULT_CORRUPT("eval.guard_overrun", rows_[stride_ - 1]);

  // Constant rows and the innermost coordinate ramp only depend on (stage,
  // n, y0): within one tile they are identical for every row, so fill them
  // once on the tile's first row and skip them afterwards.  Their registers
  // are pinned by the allocator, so nothing overwrites them mid-tile; a
  // different stage running in between invalidates the key (last_cs_).
  const bool reuse = &cs == last_cs_ && rows_ == last_rows_ &&
                     n_ == last_n_ && y0 == last_y0_;
  last_cs_ = &cs;
  last_rows_ = rows_;
  last_n_ = n_;
  last_y0_ = y0;

  const std::int32_t nops = cs.num_slots();
  const std::int32_t root = cs.root;
  const int last = ctx.stage->rank() - 1;
  for (std::int32_t i = 0; i < nops; ++i) {
    const CompiledOp& o = cs.ops[static_cast<std::size_t>(i)];
    // The root writes straight into the caller's row; no reachable op
    // consumes the root's value (it would have to be its own ancestor).
    float* dst =
        i == root
            ? out
            : rows_ + static_cast<std::size_t>(cs.reg[static_cast<std::size_t>(
                          i)]) * stride_;
    rowp_[static_cast<std::size_t>(i)] = dst;

    if (o.super == SuperOp::kBinChain) {
      const float* x = row(o.a);
      const float* y = o.b >= 0 ? row(o.b) : nullptr;
      const float* z = o.c >= 0 ? row(o.c) : nullptr;
      if (allow_fma && o.op2 == Op::kMul &&
          (o.op == Op::kAdd || o.op == Op::kSub)) {
        const unsigned key = (o.b < 0 ? 1u : 0u) | (o.c < 0 ? 2u : 0u) |
                             (o.super_side == 2 ? 4u : 0u) |
                             (o.op == Op::kSub ? 8u : 0u);
        kFmaKernels[key](dst, x, y, o.imm, z, o.imm2, n_);
      } else {
        const unsigned key =
            static_cast<unsigned>(
                (chain_op_index(o.op2) * 5 + chain_op_index(o.op)) * 16) |
            (o.b < 0 ? 1u : 0u) | (o.imm_side == 2 ? 2u : 0u) |
            (o.c < 0 ? 4u : 0u) | (o.super_side == 2 ? 8u : 0u);
        kChainKernels[key](dst, x, y, o.imm, z, o.imm2, n_);
      }
      continue;
    }
    if (o.super == SuperOp::kChainPair) {
      const unsigned key =
          static_cast<unsigned>(((chain_op_index(o.op2) * 5 +
                                  chain_op_index(o.op)) *
                                     5 +
                                 chain_op_index(o.op3)) *
                                2) |
          (o.super_side == 2 ? 1u : 0u);
      kChainPairKernels[key](dst, row(o.a), row(o.b), row(o.c), row(o.d),
                             n_);
      continue;
    }
    if (o.super == SuperOp::kWeighted) {
      const unsigned key =
          static_cast<unsigned>(chain_op_index(o.op) * 8) |
          (o.imm_side == 2 ? 1u : 0u) | (o.imm2_side == 2 ? 2u : 0u) |
          (o.super_side == 2 ? 4u : 0u);
      kWeightedKernels[key](dst, row(o.a), o.imm, row(o.b), o.imm2, n_);
      continue;
    }
    if (o.super == SuperOp::kCmpBlend) {
      const float* a = row(o.a);
      const float* b = o.b >= 0 ? row(o.b) : nullptr;
      const float* t = row(o.c);
      const float* f = row(o.d);
      const int is = o.imm_side;
      if (o.op2 == Op::kLt)
        blend_dispatch<Op::kLt>(is, dst, a, b, o.imm, t, f, n_);
      else if (o.op2 == Op::kLe)
        blend_dispatch<Op::kLe>(is, dst, a, b, o.imm, t, f, n_);
      else
        blend_dispatch<Op::kEq>(is, dst, a, b, o.imm, t, f, n_);
      continue;
    }

    switch (o.op) {
      case Op::kConst:
        if (reuse && i != root) break;
        FUSEDP_SIMD
        for (std::size_t j = 0; j < n_; ++j) dst[j] = o.imm;
        break;
      case Op::kCoord:
        if (o.dim == last) {
          if (reuse && i != root) break;
          FUSEDP_SIMD
          for (std::size_t j = 0; j < n_; ++j)
            dst[j] = static_cast<float>(y0 + static_cast<std::int64_t>(j));
        } else {
          const float v = static_cast<float>(base[o.dim]);
          FUSEDP_SIMD
          for (std::size_t j = 0; j < n_; ++j) dst[j] = v;
        }
        break;
      case Op::kLoad:
        rowp_[static_cast<std::size_t>(i)] =
            eval_load(cs.loads[static_cast<std::size_t>(o.load_id)],
                      ctx.srcs[static_cast<std::size_t>(o.load_id)],
                      load_clamped[o.load_id] != 0, dst,
                      /*may_forward=*/cs.vector_loads && i != root);
        break;
      case Op::kSelect: {
        const float* a = row(o.a);
        const float* b = row(o.b);
        const float* c = row(o.c);
        FUSEDP_SIMD
        for (std::size_t j = 0; j < n_; ++j)
          dst[j] = a[j] != 0.0f ? b[j] : c[j];
        break;
      }
// SIMD-safe unary ops.  kExp/kLog default to unannotated scalar libm loops
// (bit-exactness policy: no vector math library); with the opt-in
// fast_transcendentals flag they dispatch to the branch-free polynomial
// kernels in runtime/fastmath.hpp, which inline into omp-simd loops.
#define FUSEDP_UNARY_CASE(OP)                                              \
  case Op::OP: {                                                           \
    const float* a = row(o.a);                                             \
    FUSEDP_SIMD                                                            \
    for (std::size_t j = 0; j < n_; ++j)                                   \
      dst[j] = apply_unary(Op::OP, a[j]);                                  \
  } break;
#define FUSEDP_UNARY_CASE_LIBM(OP, FAST)                                   \
  case Op::OP: {                                                           \
    const float* a = row(o.a);                                             \
    if (fast_transcendentals) {                                            \
      FUSEDP_SIMD                                                          \
      for (std::size_t j = 0; j < n_; ++j) dst[j] = FAST(a[j]);            \
    } else {                                                               \
      for (std::size_t j = 0; j < n_; ++j)                                 \
        dst[j] = apply_unary(Op::OP, a[j]);                                \
    }                                                                      \
  } break;
      FUSEDP_UNARY_CASE(kNeg)
      FUSEDP_UNARY_CASE(kAbs)
      FUSEDP_UNARY_CASE(kSqrt)
      FUSEDP_UNARY_CASE_LIBM(kExp, fastmath::fast_exp)
      FUSEDP_UNARY_CASE_LIBM(kLog, fastmath::fast_log)
      FUSEDP_UNARY_CASE(kFloor)
#undef FUSEDP_UNARY_CASE
#undef FUSEDP_UNARY_CASE_LIBM
#define FUSEDP_BINARY_BODY(OP, SIMD_PRAGMA)                                \
  case Op::OP: {                                                           \
    const float* a = row(o.a);                                             \
    if (o.imm_side == 0) {                                                 \
      const float* b = row(o.b);                                           \
      SIMD_PRAGMA                                                          \
      for (std::size_t j = 0; j < n_; ++j)                                 \
        dst[j] = apply_binary(Op::OP, a[j], b[j]);                         \
    } else if (o.imm_side == 1) {                                          \
      const float im = o.imm;                                              \
      SIMD_PRAGMA                                                          \
      for (std::size_t j = 0; j < n_; ++j)                                 \
        dst[j] = apply_binary(Op::OP, a[j], im);                           \
    } else {                                                               \
      const float im = o.imm;                                              \
      SIMD_PRAGMA                                                          \
      for (std::size_t j = 0; j < n_; ++j)                                 \
        dst[j] = apply_binary(Op::OP, im, a[j]);                           \
    }                                                                      \
  } break;
#define FUSEDP_BINARY_CASE(OP) FUSEDP_BINARY_BODY(OP, FUSEDP_SIMD)
      FUSEDP_BINARY_CASE(kAdd)
      FUSEDP_BINARY_CASE(kSub)
      FUSEDP_BINARY_CASE(kMul)
      FUSEDP_BINARY_CASE(kDiv)
      FUSEDP_BINARY_CASE(kMin)
      FUSEDP_BINARY_CASE(kMax)
      case Op::kPow: {
        // Scalar libm by default (bit-exactness), vectorizable polynomial
        // kernel under fast_transcendentals — same imm-side forms as the
        // generic binary body.
        const float* a = row(o.a);
        if (fast_transcendentals) {
          if (o.imm_side == 0) {
            const float* b = row(o.b);
            FUSEDP_SIMD
            for (std::size_t j = 0; j < n_; ++j)
              dst[j] = fastmath::fast_pow(a[j], b[j]);
          } else if (o.imm_side == 1) {
            const float im = o.imm;
            FUSEDP_SIMD
            for (std::size_t j = 0; j < n_; ++j)
              dst[j] = fastmath::fast_pow(a[j], im);
          } else {
            const float im = o.imm;
            FUSEDP_SIMD
            for (std::size_t j = 0; j < n_; ++j)
              dst[j] = fastmath::fast_pow(im, a[j]);
          }
        } else {
          if (o.imm_side == 0) {
            const float* b = row(o.b);
            for (std::size_t j = 0; j < n_; ++j)
              dst[j] = apply_binary(Op::kPow, a[j], b[j]);
          } else if (o.imm_side == 1) {
            const float im = o.imm;
            for (std::size_t j = 0; j < n_; ++j)
              dst[j] = apply_binary(Op::kPow, a[j], im);
          } else {
            const float im = o.imm;
            for (std::size_t j = 0; j < n_; ++j)
              dst[j] = apply_binary(Op::kPow, im, a[j]);
          }
        }
      } break;
      FUSEDP_BINARY_CASE(kLt)
      FUSEDP_BINARY_CASE(kLe)
      FUSEDP_BINARY_CASE(kEq)
      FUSEDP_BINARY_CASE(kAnd)
      FUSEDP_BINARY_CASE(kOr)
#undef FUSEDP_BINARY_CASE
#undef FUSEDP_BINARY_BODY
    }
  }

  // Test-only planted miscompile: flips the low mantissa bit of one output
  // element of the compiled backend, exactly once per arming.  The
  // differential verifier must catch it with a full divergence record.
  FUSEDP_FAULT_CORRUPT("compile.row_value", out[0]);
}

}  // namespace fusedp
