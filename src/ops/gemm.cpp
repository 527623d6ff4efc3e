// Tier-dispatching GEMM.  The scalar reference and the threading driver
// both live in this baseline-ISA TU; the AVX2 TU (gemm_avx2.cpp) exports
// only the non-inline row-range kernel, so no weak symbol compiled with
// AVX2 codegen can leak into the scalar path on a host without AVX2.
#include "ops/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "core/parallel_for.hpp"

namespace fastchg::ops::gemm {

namespace {
/// parallel_rows work units of `macs` multiply-adds.
index_t macs_to_work(index_t macs) { return macs / kMacsPerWorkUnit; }
}  // namespace

namespace scalar {

void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o) {
  std::memset(o, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  parallel_rows(m, macs_to_work(k * n), [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      float* orow = o + i * n;
      const float* arow = a + i * k;
      for (index_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* brow = b + kk * n;
        for (index_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* g, float* o) {
  std::memset(o, 0, static_cast<std::size_t>(k * n) * sizeof(float));
  parallel_rows(k, macs_to_work(m * n), [&](index_t lo, index_t hi) {
    for (index_t r0 = 0; r0 < m; r0 += kTnRowBlock) {
      const index_t r1 = std::min(m, r0 + kTnRowBlock);
      for (index_t i = lo; i < hi; ++i) {
        float* orow = o + i * n;
        for (index_t r = r0; r < r1; ++r) {
          const float av = a[r * k + i];
          const float* grow = g + r * n;
          for (index_t j = 0; j < n; ++j) orow[j] += av * grow[j];
        }
      }
    }
  });
}

}  // namespace scalar

namespace avx2 {

void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o) {
  parallel_rows(m, macs_to_work(k * n), [&](index_t lo, index_t hi) {
    matmul_rows(lo, hi, k, n, a, b, o);
  });
}

void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* g, float* o) {
  if (m == 0) {
    std::memset(o, 0, static_cast<std::size_t>(k * n) * sizeof(float));
    return;
  }
  // One contiguous range of output-row pairs per thread: every range
  // streams all of G once, so fewer, larger ranges mean less G traffic.
  // Pairs keep the 2-row micro-kernel aligned.
  const index_t pairs = (k + 1) / 2;
  const index_t ranges = std::clamp<index_t>(pairs, 1, num_threads());
  const index_t per_range = (pairs + ranges - 1) / ranges;
  parallel_rows(ranges, macs_to_work(2 * per_range * m * n),
                [&](index_t lo, index_t hi) {
    const index_t i0 = std::min(k, 2 * lo * per_range);
    const index_t i1 = std::min(k, 2 * hi * per_range);
    for (index_t r0 = 0; r0 < m; r0 += kTnRowBlock) {
      matmul_tn_rows(i0, i1, r0, std::min(m, r0 + kTnRowBlock), k, n, a, g,
                     o);
    }
  });
}

}  // namespace avx2

void matmul(index_t m, index_t k, index_t n, const float* a, const float* b,
            float* o) {
  if (active_tier() == Tier::kAvx2) {
    avx2::matmul(m, k, n, a, b, o);
    return;
  }
  scalar::matmul(m, k, n, a, b, o);
}

void matmul_tn(index_t m, index_t k, index_t n, const float* a,
               const float* g, float* o) {
  if (active_tier() == Tier::kAvx2) {
    avx2::matmul_tn(m, k, n, a, g, o);
    return;
  }
  scalar::matmul_tn(m, k, n, a, g, o);
}

}  // namespace fastchg::ops::gemm
