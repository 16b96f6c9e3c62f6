// The row kernels built for AVX2 + FMA (x86-64 only; src/runtime/
// CMakeLists.txt adds -mavx2 -mfma to this file alone).  Nothing here may
// run before compile.cpp has checked the CPU's feature bits.
#include "runtime/row_kernels.hpp"

namespace fusedp::row_kernels_avx2 {

using row_kernels::RowFrame;

#include "runtime/row_kernels.inc"

}  // namespace fusedp::row_kernels_avx2
