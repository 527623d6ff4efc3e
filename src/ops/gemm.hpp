// GEMM op family: C[m,n] = A[m,k] * B[k,n], row-major, beta = 0
// (docs/ops.md).  This family is *tolerance-gated*: the AVX2 tier keeps the
// scalar kernel's k-association (accumulate over kk in order) but uses FMA,
// so products are not rounded before the add and results differ from the
// scalar tier by O(1 ulp) per accumulation step.  Each tier on its own is
// deterministic: rows are partitioned by parallel_for, every output element
// is owned by exactly one task, so results are invariant to thread count.
//
// The scalar reference is byte-for-byte the seed's matmul_loop
// (autograd/ops.cpp): memset, then parallel rows in an i-k-j loop.
//
// matmul_tn computes C = A^T * G, the weight gradient of a linear layer,
// reading A in place.  Every output element accumulates its m products in
// row order exactly as `matmul` would over an explicit transpose of A, so
// at each tier matmul_tn(A, G) is bitwise equal to matmul(A^T, G).
#pragma once

#include <cstdint>

#include "ops/dispatch.hpp"

namespace fastchg::ops::gemm {

using index_t = std::int64_t;

/// Dispatching entry point (tier read per call).
void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o);

/// C[k,n] = A[m,k]^T * G[m,n] without a transposed copy of A.  The long m
/// dimension is blocked (kTnRowBlock rows of A and G stay cache-resident
/// while every output tile of the block accumulates); output rows are
/// partitioned across threads, so results do not depend on the thread count.
void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* g, float* o);

/// Rows of A and G per cache block in matmul_tn.
inline constexpr index_t kTnRowBlock = 64;

namespace scalar {
/// Reference kernel: memset + parallel_for over rows, i-k-j.
void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o);
/// Reference A^T * G: per output row, axpy over the rows of each block.
void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* g, float* o);
}  // namespace scalar

namespace avx2 {
/// Full AVX2 matmul (threads like the scalar kernel).  Forwards to scalar
/// when the toolchain cannot build AVX2.
void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o);
/// Row-range kernel [r0, r1): the non-inline symbol the threaded driver
/// calls, exposed for single-threaded differential tests.
void matmul_rows(index_t r0, index_t r1, index_t k, index_t n, const float* a,
                 const float* b, float* o);
/// Full AVX2 A^T * G: one range of output-row pairs per thread.
void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* g, float* o);
/// Output rows [i0, i1) of A^T * G over rows [r0, r1) of A and G.  With
/// r0 == 0 the tile starts from zero; otherwise it continues the
/// accumulation already in o (the row-block loop of matmul_tn).
void matmul_tn_rows(index_t i0, index_t i1, index_t r0, index_t r1,
                    index_t k, index_t n, const float* a, const float* g,
                    float* o);
}  // namespace avx2

}  // namespace fastchg::ops::gemm
