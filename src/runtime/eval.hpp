// The scalar stage-body evaluator and the load sources every evaluator
// reads through.
//
// eval_scalar_at is straightforward per-point AST interpretation: the
// golden reference.  The compiled row kernels (runtime/compile.hpp) are the
// fast path and must match it bit-for-bit (tests assert this).
//
// Loads clamp computed producer coordinates to the producer's domain
// (clamp-to-edge borders).  `LoadSrc::view` must cover every in-domain
// coordinate an access can produce from the evaluated region — the plan
// lowering guarantees this via required-region propagation.
#pragma once

#include <vector>

#include "ir/stage.hpp"
#include "support/buffer.hpp"

namespace fusedp {

struct LoadSrc {
  BufferView view;
  Box domain;  // producer domain, for border clamping
};

struct StageEvalCtx {
  const Stage* stage = nullptr;
  std::vector<LoadSrc> srcs;  // indexed by ExprNode::load_id
};

// Evaluates expression `r` of the stage at point `c` (stage coordinates).
float eval_scalar_at(const StageEvalCtx& ctx, ExprRef r,
                     const std::int64_t* c);

}  // namespace fusedp
