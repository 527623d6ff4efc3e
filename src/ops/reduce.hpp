// Reduce op family: sum_all, sum_dim0 (column sums), sum_dim1 (row sums)
// over row-major [rows, cols] arrays (docs/ops.md).
//
// Exactness policy per op:
//  - sum_dim0 is *dispatched and bit-exact*: each output column is a serial
//    chain of float += in row order; vectorizing across columns does not
//    change any column's accumulation order.
//  - sum_all and sum_dim1 are *pinned to the scalar reference at every
//    tier*: the reference accumulates serially in double, and any 8-wide
//    reassociation produces different partial sums.  Pinning keeps every
//    reduction bit-exact across tiers, so a result (and the cross-tier
//    0.0-diff tests) never depends on FASTCHG_SIMD -- the dispatching
//    entry points below always run the scalar kernel.  The avx2:: variants
//    exist only for the differential tests and the bench (tolerance-gated
//    there).
#pragma once

#include <cstdint>

#include "ops/dispatch.hpp"

namespace fastchg::ops::reduce {

using index_t = std::int64_t;

/// Serial double-accumulator sum of x[0..n).  Pinned scalar at all tiers.
double sum_all(index_t n, const float* x);

/// o[c] = sum_r x[r, c].  Dispatched; bit-exact across tiers.
void sum_dim0(index_t rows, index_t cols, const float* x, float* o);

/// o[r] = (float)(double-accumulated sum of row r).  Pinned scalar.
void sum_dim1(index_t rows, index_t cols, const float* x, float* o);

namespace scalar {
double sum_all(index_t n, const float* x);
void sum_dim0(index_t rows, index_t cols, const float* x, float* o);
void sum_dim1(index_t rows, index_t cols, const float* x, float* o);
}  // namespace scalar

namespace avx2 {
/// 4-wide double lanes, horizontally summed at the end.  Reassociates --
/// tolerance-gated, test/bench only; never reachable through the
/// dispatching sum_all/sum_dim1 above.
double sum_all(index_t n, const float* x);
void sum_dim0(index_t rows, index_t cols, const float* x, float* o);
void sum_dim1(index_t rows, index_t cols, const float* x, float* o);
}  // namespace avx2

}  // namespace fastchg::ops::reduce
