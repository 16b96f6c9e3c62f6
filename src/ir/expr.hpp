// Expression AST for stage bodies.
//
// Nodes live in a per-stage arena (std::vector<ExprNode>) and are referenced
// by index, which keeps the tree trivially copyable and cache-friendly for
// the row-vectorized evaluator.  All values are float; comparisons produce
// 0.0f / 1.0f.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace fusedp {

using ExprRef = std::int32_t;
inline constexpr ExprRef kNoExpr = -1;

enum class Op : std::uint8_t {
  kConst,   // imm
  kCoord,   // coordinate of dimension `a` of the current stage, as float
  kLoad,    // loads_[load_id] with AxisMaps; child dyn exprs live in arena
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMin,
  kMax,
  kPow,
  kLt,      // a < b  -> 1.0f : 0.0f
  kLe,
  kEq,
  kAnd,     // logical on 0/1 floats
  kOr,
  kSelect,  // a ? b : c  (a nonzero)
  kNeg,
  kAbs,
  kSqrt,
  kExp,
  kLog,
  kFloor,
};

struct ExprNode {
  Op op = Op::kConst;
  float imm = 0.0f;
  ExprRef a = kNoExpr;  // operands (or dim index for kCoord via `dim`)
  ExprRef b = kNoExpr;
  ExprRef c = kNoExpr;
  std::int32_t dim = -1;      // kCoord: dimension index
  std::int32_t load_id = -1;  // kLoad: index into the stage's load table
};

// Arity / semantics helpers shared by every evaluator (scalar interpreter,
// compiled stage programs, plan-time constant folding) so all
// implementations perform bit-identical float operations.  The compiler
// inlines apply_* with a constant Op down to the single operation, so
// per-op loops still auto-vectorize.
inline bool op_is_unary(Op op) {
  switch (op) {
    case Op::kNeg:
    case Op::kAbs:
    case Op::kSqrt:
    case Op::kExp:
    case Op::kLog:
    case Op::kFloor:
      return true;
    default:
      return false;
  }
}

inline bool op_is_binary(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMin:
    case Op::kMax:
    case Op::kPow:
    case Op::kLt:
    case Op::kLe:
    case Op::kEq:
    case Op::kAnd:
    case Op::kOr:
      return true;
    default:
      return false;
  }
}

inline float apply_unary(Op op, float a) {
  switch (op) {
    case Op::kNeg:   return -a;
    case Op::kAbs:   return std::fabs(a);
    case Op::kSqrt:  return std::sqrt(a);
    case Op::kExp:   return std::exp(a);
    case Op::kLog:   return std::log(a);
    case Op::kFloor: return std::floor(a);
    default:         return a;
  }
}

inline float apply_binary(Op op, float a, float b) {
  switch (op) {
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kMul: return a * b;
    case Op::kDiv: return a / b;
    case Op::kMin: return std::min(a, b);
    case Op::kMax: return std::max(a, b);
    case Op::kPow: return std::pow(a, b);
    case Op::kLt:  return a < b ? 1.0f : 0.0f;
    case Op::kLe:  return a <= b ? 1.0f : 0.0f;
    case Op::kEq:  return a == b ? 1.0f : 0.0f;
    case Op::kAnd: return (a != 0.0f && b != 0.0f) ? 1.0f : 0.0f;
    case Op::kOr:  return (a != 0.0f || b != 0.0f) ? 1.0f : 0.0f;
    default:       return a;
  }
}

// How one producer dimension's index is computed from consumer coordinates:
//   Affine:   idx = floor_div(x[src_dim] * num + pre, den) + offset
//   Constant: idx = offset
//   Dynamic:  idx = clamp(floor(eval(dyn)), domain)   (data-dependent gather)
// `pre` (the intra-floor offset) expresses linear-upsampling taps such as
// floor((y+1)/2); it does not affect scaling/alignment, only the offset.
struct AxisMap {
  enum class Kind : std::uint8_t { kAffine, kConstant, kDynamic };
  Kind kind = Kind::kAffine;
  std::int32_t src_dim = 0;
  std::int32_t num = 1;
  std::int32_t den = 1;
  std::int64_t pre = 0;
  std::int64_t offset = 0;
  ExprRef dyn = kNoExpr;

  static AxisMap affine(int src_dim, std::int64_t offset = 0, int num = 1,
                        int den = 1, std::int64_t pre = 0) {
    AxisMap m;
    m.kind = Kind::kAffine;
    m.src_dim = src_dim;
    m.num = num;
    m.den = den;
    m.pre = pre;
    m.offset = offset;
    return m;
  }
  static AxisMap constant(std::int64_t value) {
    AxisMap m;
    m.kind = Kind::kConstant;
    m.offset = value;
    return m;
  }
  static AxisMap dynamic(ExprRef e) {
    AxisMap m;
    m.kind = Kind::kDynamic;
    m.dyn = e;
    return m;
  }

  bool is_identity() const {
    return kind == Kind::kAffine && num == 1 && den == 1 && offset == 0;
  }
};

// Identifies the producer of a load: either a pipeline input image or
// another stage.
struct ProducerRef {
  bool is_input = false;
  std::int32_t id = -1;
  bool operator==(const ProducerRef&) const = default;
};

// Out-of-domain handling for a load (applied per axis after index
// computation).  kZero yields 0.0f for any out-of-domain coordinate.
enum class Border : std::uint8_t {
  kClamp,   // clamp-to-edge (default; PolyMage's generated-code behaviour)
  kMirror,  // reflect-101: -1 -> 1, D -> D-2
  kWrap,    // periodic
  kZero,    // constant zero outside the domain
};

struct Access {
  ProducerRef producer;
  std::vector<AxisMap> axes;  // one per producer dimension
  Border border = Border::kClamp;
};

// Folds coordinate `v` into [lo, hi] according to `border`.  For kZero the
// caller must test in-range first (fold_coord then behaves like kClamp).
inline std::int64_t fold_coord(std::int64_t v, std::int64_t lo,
                               std::int64_t hi, Border border) {
  if (v >= lo && v <= hi) return v;
  const std::int64_t n = hi - lo + 1;
  switch (border) {
    case Border::kClamp:
    case Border::kZero:
      return v < lo ? lo : hi;
    case Border::kWrap: {
      std::int64_t m = (v - lo) % n;
      if (m < 0) m += n;
      return lo + m;
    }
    case Border::kMirror: {
      if (n == 1) return lo;
      // Reflect-101 has period 2(n-1).
      const std::int64_t period = 2 * (n - 1);
      std::int64_t m = (v - lo) % period;
      if (m < 0) m += period;
      if (m >= n) m = period - m;
      return lo + m;
    }
  }
  return lo;
}

}  // namespace fusedp
