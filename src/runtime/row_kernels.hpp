// Per-ISA builds of the compiled row kernels (see runtime/compile.hpp).
//
// runtime/row_kernels.inc holds CompiledRowEvaluator's hot code.  It is
// compiled twice from that one source: row_kernels_baseline.cpp builds it
// for the target's default instruction set (SSE2 on x86-64), and on x86-64
// row_kernels_avx2.cpp builds it with -mavx2 -mfma.  Each build lives in
// its own namespace and exports only run_row; the evaluator resolves one
// of them when it is constructed (compile.cpp picks the table once per
// process from the CPU's feature bits).
//
// Both builds execute the same IEEE operations in the same order: the
// whole project compiles with -ffp-contract=off, so -mfma never contracts
// a multiply and an add into one rounding.  The outputs of the two tables
// are therefore bit-identical.
//
// This header is also the include set of row_kernels.inc: each including
// TU includes it before opening its namespace.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "ir/box.hpp"
#include "runtime/compile.hpp"

namespace fusedp::row_kernels {

// Everything one eval_row call reads and writes, as plain pointers so the
// per-ISA code touches no container or other out-of-line header code.
// CompiledRowEvaluator::eval_row sizes the scratch (rows, rowp, offs)
// before the call.
struct RowFrame {
  const CompiledOp* ops = nullptr;
  std::int32_t nops = 0;
  std::int32_t root = -1;
  const std::int32_t* reg = nullptr;      // CompiledStage::reg
  const CompiledLoad* loads = nullptr;    // CompiledStage::loads
  const LoadSrc* srcs = nullptr;          // StageEvalCtx::srcs
  const unsigned char* load_clamped = nullptr;
  const float** rowp = nullptr;  // per-slot result row, nops entries
  float* rows = nullptr;         // register arena
  std::size_t stride = 0;        // register pitch (floats)
  std::int64_t* offs = nullptr;  // dynamic-gather offset row, n entries
  const std::int64_t* base = nullptr;
  std::int64_t y0 = 0;
  std::size_t n = 0;
  int last = 0;  // innermost stage dimension
  float* out = nullptr;
  bool reuse = false;  // constant rows and the ramp are already filled
};

}  // namespace fusedp::row_kernels

namespace fusedp::row_kernels_baseline {
void run_row(const row_kernels::RowFrame& fr);
}  // namespace fusedp::row_kernels_baseline

namespace fusedp::row_kernels_avx2 {
// Defined only in x86-64 builds (FUSEDP_HAVE_AVX2_ROW_KERNELS).
void run_row(const row_kernels::RowFrame& fr);
}  // namespace fusedp::row_kernels_avx2
