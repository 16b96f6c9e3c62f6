#include "runtime/compile.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <map>
#include <tuple>
#include <utility>

#include "ir/box.hpp"
#include "runtime/row_kernels.hpp"
#include "support/fault.hpp"

namespace fusedp {

namespace {

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
  // (never contracted into an FMA), so results are bit-identical.  The
  // fused-away inner op loses its only reference; the compact() that
  // follows removes it.
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
        // When both operands qualify, prefer a multiply (the
        // multiply-accumulate shape); either choice computes the same bits.
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

// ---- Row-kernel table selection --------------------------------------------

namespace {

// The widest table this process can run, probed once.
RowKernelIsa host_row_kernels() {
  static const RowKernelIsa isa = [] {
#if FUSEDP_HAVE_AVX2_ROW_KERNELS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
      return RowKernelIsa::kAvx2;
#endif
    return RowKernelIsa::kBaseline;
  }();
  return isa;
}

// detail::ScopedRowKernels' selection; -1 when no override is active.
std::atomic<int> g_row_kernels_override{-1};

using RunRowFn = void (*)(const row_kernels::RowFrame&);

RunRowFn run_row_for([[maybe_unused]] RowKernelIsa isa) {
#if FUSEDP_HAVE_AVX2_ROW_KERNELS
  if (isa == RowKernelIsa::kAvx2) return &row_kernels_avx2::run_row;
#endif
  return &row_kernels_baseline::run_row;
}

}  // namespace

const char* row_kernel_isa_name(RowKernelIsa isa) {
  return isa == RowKernelIsa::kAvx2 ? "avx2" : "baseline";
}

bool row_kernels_supported(RowKernelIsa isa) {
  return isa == RowKernelIsa::kBaseline || host_row_kernels() == isa;
}

RowKernelIsa active_row_kernels() {
  const int o = g_row_kernels_override.load(std::memory_order_relaxed);
  return o < 0 ? host_row_kernels() : static_cast<RowKernelIsa>(o);
}

namespace detail {

ScopedRowKernels::ScopedRowKernels(RowKernelIsa isa) {
  if (!row_kernels_supported(isa)) isa = RowKernelIsa::kBaseline;
  prev_ = g_row_kernels_override.exchange(static_cast<int>(isa),
                                          std::memory_order_relaxed);
}

ScopedRowKernels::~ScopedRowKernels() {
  g_row_kernels_override.store(prev_, std::memory_order_relaxed);
}

}  // namespace detail

CompiledRowEvaluator::CompiledRowEvaluator()
    : isa_(active_row_kernels()), run_row_(run_row_for(isa_)) {}

void CompiledRowEvaluator::eval_row(const CompiledStage& cs,
                                    const StageEvalCtx& ctx,
                                    const unsigned char* load_clamped,
                                    const std::int64_t* base, std::int64_t y0,
                                    std::int64_t y1, float* out) {
  const std::size_t n = static_cast<std::size_t>(y1 - y0 + 1);
  std::size_t stride = 0;
  float* rows = guard_.carve(arena_, static_cast<std::size_t>(cs.num_regs),
                             pad_row_floats(n), stride);
  rowp_.resize(cs.ops.size());
  if (offs_.size() < n) offs_.resize(n);
  // Test-only synthetic overrun: scribbles into register 0's guard line,
  // proving the post-tile canary check catches an in-arena smash.
  if (guard_.enabled() && cs.num_regs > 0)
    FUSEDP_FAULT_CORRUPT("eval.guard_overrun", rows[stride - 1]);

  // Constant rows and the innermost coordinate ramp only depend on (stage,
  // n, y0): within one tile they are identical for every row, so fill them
  // once on the tile's first row and skip them afterwards.  Their registers
  // are pinned by the allocator, so nothing overwrites them mid-tile; a
  // different stage running in between invalidates the key (last_cs_).
  row_kernels::RowFrame fr;
  fr.reuse = &cs == last_cs_ && rows == last_rows_ && n == last_n_ &&
             y0 == last_y0_;
  last_cs_ = &cs;
  last_rows_ = rows;
  last_n_ = n;
  last_y0_ = y0;

  fr.ops = cs.ops.data();
  fr.nops = cs.num_slots();
  fr.root = cs.root;
  fr.reg = cs.reg.data();
  fr.loads = cs.loads.data();
  fr.srcs = ctx.srcs.data();
  fr.load_clamped = load_clamped;
  fr.rowp = rowp_.data();
  fr.rows = rows;
  fr.stride = stride;
  fr.offs = offs_.data();
  fr.base = base;
  fr.y0 = y0;
  fr.n = n;
  fr.last = ctx.stage->rank() - 1;
  fr.out = out;
  run_row_(fr);

  // Test-only planted miscompile: flips the low mantissa bit of one output
  // element of the compiled backend, exactly once per arming.  The
  // differential verifier must catch it with a full divergence record.
  FUSEDP_FAULT_CORRUPT("compile.row_value", out[0]);
}

}  // namespace fusedp
