// The row kernels built for the target's default instruction set.
#include "runtime/row_kernels.hpp"

namespace fusedp::row_kernels_baseline {

using row_kernels::RowFrame;

#include "runtime/row_kernels.inc"

}  // namespace fusedp::row_kernels_baseline
