#include "runtime/eval.hpp"

#include <cmath>

#include "ir/box.hpp"

namespace fusedp {

float eval_scalar_at(const StageEvalCtx& ctx, ExprRef r,
                     const std::int64_t* c) {
  const Stage& s = *ctx.stage;
  const ExprNode& n = s.nodes[static_cast<std::size_t>(r)];
  switch (n.op) {
    case Op::kConst:
      return n.imm;
    case Op::kCoord:
      return static_cast<float>(c[n.dim]);
    case Op::kLoad: {
      const Access& a = s.loads[static_cast<std::size_t>(n.load_id)];
      const LoadSrc& src = ctx.srcs[static_cast<std::size_t>(n.load_id)];
      std::int64_t pc[kMaxDims];
      for (int k = 0; k < static_cast<int>(a.axes.size()); ++k) {
        const AxisMap& m = a.axes[static_cast<std::size_t>(k)];
        std::int64_t v = 0;
        switch (m.kind) {
          case AxisMap::Kind::kConstant:
            v = m.offset;
            break;
          case AxisMap::Kind::kAffine:
            v = (m.num == 0
                     ? m.offset
                     : floor_div(c[m.src_dim] * m.num + m.pre, m.den) +
                           m.offset);
            break;
          case AxisMap::Kind::kDynamic:
            v = static_cast<std::int64_t>(
                std::floor(eval_scalar_at(ctx, m.dyn, c)));
            break;
        }
        if (a.border == Border::kZero &&
            (v < src.domain.lo[k] || v > src.domain.hi[k]))
          return 0.0f;
        pc[k] = fold_coord(v, src.domain.lo[k], src.domain.hi[k], a.border);
      }
      return src.view.at(pc);
    }
    case Op::kSelect:
      // Both arms are evaluated (no short-circuit) to match the compiled
      // row kernels.
      {
        const float cond = eval_scalar_at(ctx, n.a, c);
        const float t = eval_scalar_at(ctx, n.b, c);
        const float f = eval_scalar_at(ctx, n.c, c);
        return cond != 0.0f ? t : f;
      }
    default:
      if (op_is_unary(n.op))
        return apply_unary(n.op, eval_scalar_at(ctx, n.a, c));
      if (op_is_binary(n.op)) {
        const float a = eval_scalar_at(ctx, n.a, c);
        const float b = eval_scalar_at(ctx, n.b, c);
        return apply_binary(n.op, a, b);
      }
      break;
  }
  FUSEDP_CHECK(false, "unhandled op");
  return 0.0f;
}

}  // namespace fusedp
