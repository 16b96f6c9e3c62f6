// Stage: one node of the pipeline DAG (the paper's `Function`).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/box.hpp"
#include "ir/expr.hpp"
#include "support/buffer.hpp"

namespace fusedp {

enum class StageKind : std::uint8_t {
  kMap,        // pointwise / stencil / resample: body AST per output element
  kReduction,  // scatter-style reduction (e.g. bilateral-grid histogram)
};

// Execution context handed to a reduction's native implementation.
struct ReductionCtx {
  // Full producer buffers, in the order of Stage::loads.
  std::vector<BufferView> inputs;
  BufferView out;  // zero-initialized output covering the full stage domain
  int num_threads = 1;
};

struct Stage {
  std::string name;
  std::int32_t id = -1;
  Box domain;  // dimension order outermost..innermost (last = contiguous)
  StageKind kind = StageKind::kMap;

  // Body AST (kMap); reductions have no body.
  ExprRef body = kNoExpr;
  std::vector<ExprNode> nodes;  // per-stage expression arena
  std::vector<Access> loads;    // load table (also declared reads for kRed.)

  // Native implementation for kReduction (runs over the whole stage at once,
  // parallelized internally with per-thread partial accumulators).
  std::function<void(const ReductionCtx&)> reduction;

  bool is_output = false;

  int rank() const { return domain.rank; }
  std::int64_t volume() const { return domain.volume(); }
};

}  // namespace fusedp
