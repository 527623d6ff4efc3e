// AVX2 rownorm kernels.  Row statistics run in 4-wide double lanes
// (reassociated vs. the serial scalar reference -- this family is
// tolerance-gated); normalization and the gated activation run 8-wide in
// float, with sigmoids through the Cephes exp256 kernel.  The gated-act
// backward sums its per-row layernorm reductions in 8 float lanes and
// finishes them in double.
#include "ops/rownorm.hpp"

#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "ops/vecmath256.hpp"

namespace fastchg::ops::rownorm::avx2 {

namespace {

inline double hsum_pd(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// Double-accumulated mean and variance of row[0..n), like the scalar
/// reference but with 4-wide lanes.
inline void row_mean_var(const float* row, index_t n, double& mean,
                         double& var) {
  __m256d acc = _mm256_setzero_pd();
  index_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double m = hsum_pd(acc);
  for (; i < n; ++i) m += row[i];
  m /= static_cast<double>(n);

  const __m256d vm = _mm256_set1_pd(m);
  __m256d vacc = _mm256_setzero_pd();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(row + i);
    const __m256d d0 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), vm);
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), vm);
    vacc = _mm256_fmadd_pd(d0, d0, vacc);
    vacc = _mm256_fmadd_pd(d1, d1, vacc);
  }
  double v2 = hsum_pd(vacc);
  for (; i < n; ++i) {
    const double d = row[i] - m;
    v2 += d * d;
  }
  mean = m;
  var = v2 / static_cast<double>(n);
}

/// 8-wide sigmoid(x) = 1 / (1 + e^-x).
inline __m256 sigmoid256(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = vecmath::exp256(
      _mm256_xor_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(
                            static_cast<int>(0x80000000u)))));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

/// Sum of the 8 float lanes, added in double.
inline double hsum_ps(__m256 v) {
  return hsum_pd(_mm256_add_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)),
                               _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1))));
}

}  // namespace

void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o) {
  for (index_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    double mean, var;
    row_mean_var(row, cols, mean, var);
    const float mf = static_cast<float>(mean);
    const float rstd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    float* orow = o + r * cols;
    const __m256 vm = _mm256_set1_ps(mf);
    const __m256 vr = _mm256_set1_ps(rstd);
    index_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const __m256 xh =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + c), vm), vr);
      _mm256_storeu_ps(
          o + r * cols + c,
          _mm256_fmadd_ps(xh, _mm256_loadu_ps(g + c), _mm256_loadu_ps(b + c)));
    }
    for (; c < cols; ++c) {
      orow[c] = (row[c] - mf) * rstd * g[c] + b[c];
    }
  }
}

void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o) {
  for (index_t r = 0; r < rows; ++r) {
    const float* core = x + r * 2 * c;
    const float* gate = core + c;
    double m, v;
    row_mean_var(core, c, m, v);
    const float mc = static_cast<float>(m);
    const float rc = 1.0f / std::sqrt(static_cast<float>(v) + eps);
    row_mean_var(gate, c, m, v);
    const float mg = static_cast<float>(m);
    const float rg = 1.0f / std::sqrt(static_cast<float>(v) + eps);
    float* orow = o + r * c;
    const __m256 vmc = _mm256_set1_ps(mc);
    const __m256 vrc = _mm256_set1_ps(rc);
    const __m256 vmg = _mm256_set1_ps(mg);
    const __m256 vrg = _mm256_set1_ps(rg);
    index_t i = 0;
    for (; i + 8 <= c; i += 8) {
      const __m256 cn = _mm256_fmadd_ps(
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(core + i), vmc), vrc),
          _mm256_loadu_ps(gc + i), _mm256_loadu_ps(bc + i));
      const __m256 gn = _mm256_fmadd_ps(
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(gate + i), vmg), vrg),
          _mm256_loadu_ps(gg + i), _mm256_loadu_ps(bg + i));
      const __m256 sc = sigmoid256(cn);
      const __m256 sg = sigmoid256(gn);
      _mm256_storeu_ps(orow + i,
                       _mm256_mul_ps(sg, _mm256_mul_ps(cn, sc)));
    }
    for (; i < c; ++i) {
      const float cn = (core[i] - mc) * rc * gc[i] + bc[i];
      const float gn = (gate[i] - mg) * rg * gg[i] + bg[i];
      const float sc = 1.0f / (1.0f + std::exp(-cn));
      const float sg = 1.0f / (1.0f + std::exp(-gn));
      orow[i] = sg * (cn * sc);
    }
  }
}

void gated_act_backward_rows(index_t r0, index_t r1, index_t c, float eps,
                             const float* x, const float* gc, const float* bc,
                             const float* gg, const float* bg, const float* dy,
                             float* dx, float* part) {
  float* pgc = part;
  float* pbc = part + c;
  float* pgg = part + 2 * c;
  float* pbg = part + 3 * c;
  for (index_t i = 0; i < 4 * c; ++i) part[i] = 0.0f;
  const __m256 one = _mm256_set1_ps(1.0f);
  for (index_t r = r0; r < r1; ++r) {
    const float* core = x + r * 2 * c;
    const float* gate = core + c;
    const float* dyr = dy + r * c;
    float* dcore = dx + r * 2 * c;
    float* dgate = dcore + c;
    double m, v;
    row_mean_var(core, c, m, v);
    const float mc = static_cast<float>(m);
    const float rc = 1.0f / std::sqrt(static_cast<float>(v) + eps);
    row_mean_var(gate, c, m, v);
    const float mg = static_cast<float>(m);
    const float rg = 1.0f / std::sqrt(static_cast<float>(v) + eps);
    const __m256 vmc = _mm256_set1_ps(mc);
    const __m256 vrc = _mm256_set1_ps(rc);
    const __m256 vmg = _mm256_set1_ps(mg);
    const __m256 vrg = _mm256_set1_ps(rg);
    // Sweep 1: gradients at both layernorm outputs; dx holds
    // h = d(norm) * gamma until sweep 2.
    __m256 s1c = _mm256_setzero_ps(), s2c = _mm256_setzero_ps();
    __m256 s1g = _mm256_setzero_ps(), s2g = _mm256_setzero_ps();
    index_t i = 0;
    for (; i + 8 <= c; i += 8) {
      const __m256 xc =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(core + i), vmc), vrc);
      const __m256 xg =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(gate + i), vmg), vrg);
      const __m256 vgc = _mm256_loadu_ps(gc + i);
      const __m256 vgg = _mm256_loadu_ps(gg + i);
      const __m256 cn = _mm256_fmadd_ps(xc, vgc, _mm256_loadu_ps(bc + i));
      const __m256 gn = _mm256_fmadd_ps(xg, vgg, _mm256_loadu_ps(bg + i));
      const __m256 sc = sigmoid256(cn);
      const __m256 sg = sigmoid256(gn);
      const __m256 silu = _mm256_mul_ps(cn, sc);
      const __m256 d = _mm256_loadu_ps(dyr + i);
      const __m256 dcn = _mm256_mul_ps(
          _mm256_mul_ps(d, sg),
          _mm256_fmadd_ps(silu, _mm256_sub_ps(one, sc), sc));
      const __m256 dgn = _mm256_mul_ps(
          _mm256_mul_ps(d, silu), _mm256_mul_ps(sg, _mm256_sub_ps(one, sg)));
      _mm256_storeu_ps(pgc + i,
                       _mm256_fmadd_ps(dcn, xc, _mm256_loadu_ps(pgc + i)));
      _mm256_storeu_ps(pbc + i, _mm256_add_ps(dcn, _mm256_loadu_ps(pbc + i)));
      _mm256_storeu_ps(pgg + i,
                       _mm256_fmadd_ps(dgn, xg, _mm256_loadu_ps(pgg + i)));
      _mm256_storeu_ps(pbg + i, _mm256_add_ps(dgn, _mm256_loadu_ps(pbg + i)));
      const __m256 hc = _mm256_mul_ps(dcn, vgc);
      const __m256 hg = _mm256_mul_ps(dgn, vgg);
      _mm256_storeu_ps(dcore + i, hc);
      _mm256_storeu_ps(dgate + i, hg);
      s1c = _mm256_add_ps(s1c, hc);
      s2c = _mm256_fmadd_ps(hc, xc, s2c);
      s1g = _mm256_add_ps(s1g, hg);
      s2g = _mm256_fmadd_ps(hg, xg, s2g);
    }
    double t1c = hsum_ps(s1c), t2c = hsum_ps(s2c);
    double t1g = hsum_ps(s1g), t2g = hsum_ps(s2g);
    for (index_t j = i; j < c; ++j) {
      const float xc = (core[j] - mc) * rc;
      const float xg = (gate[j] - mg) * rg;
      const float cn = xc * gc[j] + bc[j];
      const float gn = xg * gg[j] + bg[j];
      const float sc = 1.0f / (1.0f + std::exp(-cn));
      const float sg = 1.0f / (1.0f + std::exp(-gn));
      const float silu = cn * sc;
      const float dcn = dyr[j] * sg * (sc + silu * (1.0f - sc));
      const float dgn = dyr[j] * silu * (sg * (1.0f - sg));
      pgc[j] += dcn * xc;
      pbc[j] += dcn;
      pgg[j] += dgn * xg;
      pbg[j] += dgn;
      const float hc = dcn * gc[j];
      const float hg = dgn * gg[j];
      dcore[j] = hc;
      dgate[j] = hg;
      t1c += hc;
      t2c += hc * xc;
      t1g += hg;
      t2g += hg * xg;
    }
    // Sweep 2: d(input) = rstd * (h - mean(h) - xhat * mean(h * xhat)).
    const double inv_c = 1.0 / static_cast<double>(c);
    const float m1c = static_cast<float>(t1c * inv_c);
    const float m2c = static_cast<float>(t2c * inv_c);
    const float m1g = static_cast<float>(t1g * inv_c);
    const float m2g = static_cast<float>(t2g * inv_c);
    const __m256 vm1c = _mm256_set1_ps(m1c), vm2c = _mm256_set1_ps(m2c);
    const __m256 vm1g = _mm256_set1_ps(m1g), vm2g = _mm256_set1_ps(m2g);
    i = 0;
    for (; i + 8 <= c; i += 8) {
      const __m256 xc =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(core + i), vmc), vrc);
      const __m256 xg =
          _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(gate + i), vmg), vrg);
      const __m256 hc = _mm256_sub_ps(_mm256_loadu_ps(dcore + i), vm1c);
      const __m256 hg = _mm256_sub_ps(_mm256_loadu_ps(dgate + i), vm1g);
      _mm256_storeu_ps(dcore + i,
                       _mm256_mul_ps(vrc, _mm256_fnmadd_ps(xc, vm2c, hc)));
      _mm256_storeu_ps(dgate + i,
                       _mm256_mul_ps(vrg, _mm256_fnmadd_ps(xg, vm2g, hg)));
    }
    for (; i < c; ++i) {
      const float xc = (core[i] - mc) * rc;
      const float xg = (gate[i] - mg) * rg;
      dcore[i] = rc * (dcore[i] - m1c - xc * m2c);
      dgate[i] = rg * (dgate[i] - m1g - xg * m2g);
    }
  }
}

}  // namespace fastchg::ops::rownorm::avx2

#else  // toolchain cannot build AVX2: forward to the scalar reference

namespace fastchg::ops::rownorm::avx2 {

void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o) {
  scalar::layernorm(rows, cols, eps, x, g, b, o);
}

void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o) {
  scalar::gated_act(rows, c, eps, x, gc, bc, gg, bg, o);
}

void gated_act_backward_rows(index_t r0, index_t r1, index_t c, float eps,
                             const float* x, const float* gc, const float* bc,
                             const float* gg, const float* bg, const float* dy,
                             float* dx, float* part) {
  scalar::gated_act_backward_rows(r0, r1, c, eps, x, gc, bc, gg, bg, dy, dx,
                                  part);
}

}  // namespace fastchg::ops::rownorm::avx2

#endif
