// AVX2+FMA row-range GEMM kernel.  Keeps the reference k-association --
// for each output row the kk loop is outermost, so every orow[j] sees the
// same sequence of (a[i,kk] * b[kk,j]) contributions in the same order --
// but evaluates them with vfmadd, so the product is not rounded before the
// add.  That makes this family tolerance-gated, not bit-exact.
//
// Register tiling: the hot micro-kernel is 2 rows x 32 columns -- eight
// __m256 accumulators held across the whole k loop (enough independent FMA
// chains to cover the FMA latency) with each b-row load feeding both rows.
// Leftover columns fall to 16-wide, 8-wide, then scalar tiles; a leftover
// row runs the single-row path.  Accumulators start at zero so no memset
// of o is needed.
//
// This TU also defines detail::avx2_kernels_compiled().  On toolchains that
// cannot build AVX2 it degrades to forwarding stubs and reports false, which
// pins ops::avx2_supported() (and therefore the default tier) to scalar.
#include "ops/gemm.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace fastchg::ops::detail {
bool avx2_kernels_compiled() { return true; }
}  // namespace fastchg::ops::detail

namespace fastchg::ops::gemm::avx2 {

namespace {

/// Single-row tail: columns [j0, n) of row `arow` -> `orow`.
void row_tail(index_t j0, index_t k, index_t n, const float* arow,
              const float* b, float* orow) {
  index_t j = j0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (index_t kk = 0; kk < k; ++kk) {
      const __m256 av = _mm256_set1_ps(arow[kk]);
      const float* brow = b + kk * n + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
    }
    _mm256_storeu_ps(orow + j, acc0);
    _mm256_storeu_ps(orow + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (index_t kk = 0; kk < k; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]),
                            _mm256_loadu_ps(b + kk * n + j), acc);
    }
    _mm256_storeu_ps(orow + j, acc);
  }
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (index_t kk = 0; kk < k; ++kk) acc += arow[kk] * b[kk * n + j];
    orow[j] = acc;
  }
}

/// One output row of A^T * G over rows [r0, r1), columns [j0, n): the
/// row_tail of the transposed operand (acol = a + i, stride k).  `first`
/// starts from zero; otherwise it continues the sums already in orow.
void tn_tail(index_t j0, index_t r0, index_t r1, index_t k, index_t n,
             bool first, const float* acol, const float* g, float* orow) {
  index_t j = j0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = first ? _mm256_setzero_ps() : _mm256_loadu_ps(orow + j);
    __m256 acc1 =
        first ? _mm256_setzero_ps() : _mm256_loadu_ps(orow + j + 8);
    for (index_t r = r0; r < r1; ++r) {
      const __m256 av = _mm256_set1_ps(acol[r * k]);
      const float* grow = g + r * n + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(grow), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(grow + 8), acc1);
    }
    _mm256_storeu_ps(orow + j, acc0);
    _mm256_storeu_ps(orow + j + 8, acc1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = first ? _mm256_setzero_ps() : _mm256_loadu_ps(orow + j);
    for (index_t r = r0; r < r1; ++r) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(acol[r * k]),
                            _mm256_loadu_ps(g + r * n + j), acc);
    }
    _mm256_storeu_ps(orow + j, acc);
  }
  for (; j < n; ++j) {
    float acc = first ? 0.0f : orow[j];
    for (index_t r = r0; r < r1; ++r) acc += acol[r * k] * g[r * n + j];
    orow[j] = acc;
  }
}

}  // namespace

void matmul_rows(index_t r0, index_t r1, index_t k, index_t n, const float* a,
                 const float* b, float* o) {
  index_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    float* o0 = o + i * n;
    float* o1 = o0 + n;
    index_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
      __m256 c02 = _mm256_setzero_ps(), c03 = _mm256_setzero_ps();
      __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
      __m256 c12 = _mm256_setzero_ps(), c13 = _mm256_setzero_ps();
      for (index_t kk = 0; kk < k; ++kk) {
        const __m256 av0 = _mm256_set1_ps(a0[kk]);
        const __m256 av1 = _mm256_set1_ps(a1[kk]);
        const float* brow = b + kk * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        const __m256 b3 = _mm256_loadu_ps(brow + 24);
        c00 = _mm256_fmadd_ps(av0, b0, c00);
        c01 = _mm256_fmadd_ps(av0, b1, c01);
        c02 = _mm256_fmadd_ps(av0, b2, c02);
        c03 = _mm256_fmadd_ps(av0, b3, c03);
        c10 = _mm256_fmadd_ps(av1, b0, c10);
        c11 = _mm256_fmadd_ps(av1, b1, c11);
        c12 = _mm256_fmadd_ps(av1, b2, c12);
        c13 = _mm256_fmadd_ps(av1, b3, c13);
      }
      _mm256_storeu_ps(o0 + j, c00);
      _mm256_storeu_ps(o0 + j + 8, c01);
      _mm256_storeu_ps(o0 + j + 16, c02);
      _mm256_storeu_ps(o0 + j + 24, c03);
      _mm256_storeu_ps(o1 + j, c10);
      _mm256_storeu_ps(o1 + j + 8, c11);
      _mm256_storeu_ps(o1 + j + 16, c12);
      _mm256_storeu_ps(o1 + j + 24, c13);
    }
    if (j < n) {
      row_tail(j, k, n, a0, b, o0);
      row_tail(j, k, n, a1, b, o1);
    }
  }
  for (; i < r1; ++i) {
    row_tail(0, k, n, a + i * k, b, o + i * n);
  }
}

// Same tiles and column tails as matmul_rows with A read down its columns:
// every output element sees the FMA chain matmul_rows would give it over an
// explicit transpose, split at row-block boundaries by an exact store and
// reload.
void matmul_tn_rows(index_t i0, index_t i1, index_t r0, index_t r1,
                    index_t k, index_t n, const float* a, const float* g,
                    float* o) {
  const bool first = r0 == 0;
  auto init = [first](const float* p) {
    return first ? _mm256_setzero_ps() : _mm256_loadu_ps(p);
  };
  index_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    float* o0 = o + i * n;
    float* o1 = o0 + n;
    index_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 c00 = init(o0 + j), c01 = init(o0 + j + 8);
      __m256 c02 = init(o0 + j + 16), c03 = init(o0 + j + 24);
      __m256 c10 = init(o1 + j), c11 = init(o1 + j + 8);
      __m256 c12 = init(o1 + j + 16), c13 = init(o1 + j + 24);
      for (index_t r = r0; r < r1; ++r) {
        const float* arow = a + r * k + i;
        const __m256 av0 = _mm256_set1_ps(arow[0]);
        const __m256 av1 = _mm256_set1_ps(arow[1]);
        const float* grow = g + r * n + j;
        const __m256 b0 = _mm256_loadu_ps(grow);
        const __m256 b1 = _mm256_loadu_ps(grow + 8);
        const __m256 b2 = _mm256_loadu_ps(grow + 16);
        const __m256 b3 = _mm256_loadu_ps(grow + 24);
        c00 = _mm256_fmadd_ps(av0, b0, c00);
        c01 = _mm256_fmadd_ps(av0, b1, c01);
        c02 = _mm256_fmadd_ps(av0, b2, c02);
        c03 = _mm256_fmadd_ps(av0, b3, c03);
        c10 = _mm256_fmadd_ps(av1, b0, c10);
        c11 = _mm256_fmadd_ps(av1, b1, c11);
        c12 = _mm256_fmadd_ps(av1, b2, c12);
        c13 = _mm256_fmadd_ps(av1, b3, c13);
      }
      _mm256_storeu_ps(o0 + j, c00);
      _mm256_storeu_ps(o0 + j + 8, c01);
      _mm256_storeu_ps(o0 + j + 16, c02);
      _mm256_storeu_ps(o0 + j + 24, c03);
      _mm256_storeu_ps(o1 + j, c10);
      _mm256_storeu_ps(o1 + j + 8, c11);
      _mm256_storeu_ps(o1 + j + 16, c12);
      _mm256_storeu_ps(o1 + j + 24, c13);
    }
    if (j < n) {
      tn_tail(j, r0, r1, k, n, first, a + i, g, o0);
      tn_tail(j, r0, r1, k, n, first, a + i + 1, g, o1);
    }
  }
  for (; i < i1; ++i) {
    tn_tail(0, r0, r1, k, n, first, a + i, g, o + i * n);
  }
}

}  // namespace fastchg::ops::gemm::avx2

#else  // toolchain cannot build AVX2: forward to the scalar reference

namespace fastchg::ops::detail {
bool avx2_kernels_compiled() { return false; }
}  // namespace fastchg::ops::detail

namespace fastchg::ops::gemm::avx2 {

void matmul_rows(index_t r0, index_t r1, index_t k, index_t n, const float* a,
                 const float* b, float* o) {
  for (index_t i = r0; i < r1; ++i) {
    float* orow = o + i * n;
    const float* arow = a + i * k;
    for (index_t j = 0; j < n; ++j) orow[j] = 0.0f;
    for (index_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + kk * n;
      for (index_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void matmul_tn_rows(index_t i0, index_t i1, index_t r0, index_t r1,
                    index_t k, index_t n, const float* a, const float* g,
                    float* o) {
  for (index_t i = i0; i < i1; ++i) {
    float* orow = o + i * n;
    if (r0 == 0) {
      for (index_t j = 0; j < n; ++j) orow[j] = 0.0f;
    }
    for (index_t r = r0; r < r1; ++r) {
      const float av = a[r * k + i];
      const float* grow = g + r * n;
      for (index_t j = 0; j < n; ++j) orow[j] += av * grow[j];
    }
  }
}

}  // namespace fastchg::ops::gemm::avx2

#endif
