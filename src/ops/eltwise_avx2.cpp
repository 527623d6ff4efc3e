// AVX2 kernels for the eltwise family.  Compiled with -mavx2 -mfma
// -ffp-contract=off (src/CMakeLists.txt): every operation below evaluates
// the exact IEEE-754 single-precision expression of its scalar reference
// (vaddps/vsubps/vmulps/vdivps/vsqrtps are correctly rounded; axpy is an
// explicit mul *then* add, never contracted to FMA), so the two tiers are
// bitwise identical -- the property the pool 0.0-diff gates ride on.  Tails run the scalar reference loop, which is per-element
// identical by the same argument.
//
// On toolchains that cannot build AVX2 this TU degrades to forwarding
// stubs and detail::avx2_kernels_compiled() reports false, which pins
// ops::avx2_supported() (and therefore the default tier) to scalar.
#include "ops/eltwise.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace fastchg::ops {

namespace detail {
bool avx2_kernels_compiled() { return true; }
}  // namespace detail

namespace eltwise::avx2 {

namespace {
constexpr index_t kW = 8;
}  // namespace

#define FASTCHG_BIN_OP(name, VEXPR, SEXPR)                            \
  void name(index_t n, const float* a, const float* b, float* o) {    \
    index_t i = 0;                                                    \
    for (; i + kW <= n; i += kW) {                                    \
      const __m256 va = _mm256_loadu_ps(a + i);                       \
      const __m256 vb = _mm256_loadu_ps(b + i);                       \
      _mm256_storeu_ps(o + i, VEXPR);                                 \
    }                                                                 \
    for (; i < n; ++i) o[i] = SEXPR;                                  \
  }

FASTCHG_BIN_OP(add, _mm256_add_ps(va, vb), a[i] + b[i])
FASTCHG_BIN_OP(sub, _mm256_sub_ps(va, vb), a[i] - b[i])
FASTCHG_BIN_OP(mul, _mm256_mul_ps(va, vb), a[i] * b[i])
FASTCHG_BIN_OP(div, _mm256_div_ps(va, vb), a[i] / b[i])
#undef FASTCHG_BIN_OP

#define FASTCHG_SCALARB_OP(name, VEXPR, SEXPR)                        \
  void name(index_t n, const float* a, float s, float* o) {           \
    const __m256 vs = _mm256_set1_ps(s);                              \
    (void)vs;                                                         \
    index_t i = 0;                                                    \
    for (; i + kW <= n; i += kW) {                                    \
      const __m256 va = _mm256_loadu_ps(a + i);                       \
      _mm256_storeu_ps(o + i, VEXPR);                                 \
    }                                                                 \
    for (; i < n; ++i) o[i] = SEXPR;                                  \
  }

FASTCHG_SCALARB_OP(add_s, _mm256_add_ps(va, vs), a[i] + s)
FASTCHG_SCALARB_OP(sub_s, _mm256_sub_ps(va, vs), a[i] - s)
FASTCHG_SCALARB_OP(rsub_s, _mm256_sub_ps(vs, va), s - a[i])
FASTCHG_SCALARB_OP(mul_s, _mm256_mul_ps(va, vs), a[i] * s)
FASTCHG_SCALARB_OP(div_s, _mm256_div_ps(va, vs), a[i] / s)
FASTCHG_SCALARB_OP(rdiv_s, _mm256_div_ps(vs, va), s / a[i])
#undef FASTCHG_SCALARB_OP

void neg(index_t n, const float* a, float* o) {
  const __m256 m =
      _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    _mm256_storeu_ps(o + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), m));
  }
  for (; i < n; ++i) o[i] = -a[i];
}

void abs(index_t n, const float* a, float* o) {
  const __m256 m = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    _mm256_storeu_ps(o + i, _mm256_and_ps(_mm256_loadu_ps(a + i), m));
  }
  for (; i < n; ++i) o[i] = std::fabs(a[i]);
}

void square(index_t n, const float* a, float* o) {
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(o + i, _mm256_mul_ps(va, va));
  }
  for (; i < n; ++i) o[i] = a[i] * a[i];
}

void recip(index_t n, const float* a, float* o) {
  // vdivps, not vrcpps: the dispatched op is bit-exact, approximations are
  // not allowed here.
  const __m256 one = _mm256_set1_ps(1.0f);
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    _mm256_storeu_ps(o + i, _mm256_div_ps(one, _mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) o[i] = 1.0f / a[i];
}

void sqrt(index_t n, const float* a, float* o) {
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    _mm256_storeu_ps(o + i, _mm256_sqrt_ps(_mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) o[i] = std::sqrt(a[i]);
}

void sign(index_t n, const float* a, float* o) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 pone = _mm256_set1_ps(1.0f);
  const __m256 mone = _mm256_set1_ps(-1.0f);
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 pos = _mm256_and_ps(_mm256_cmp_ps(va, zero, _CMP_GT_OQ), pone);
    const __m256 neg_ = _mm256_and_ps(_mm256_cmp_ps(va, zero, _CMP_LT_OQ), mone);
    _mm256_storeu_ps(o + i, _mm256_or_ps(pos, neg_));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? 1.0f : (a[i] < 0.0f ? -1.0f : 0.0f);
}

void clamp(index_t n, const float* a, float lo, float hi, float* o) {
  // Two blends reproduce the scalar ternary exactly, including NaN
  // passthrough (both compares are false for NaN, so v survives).
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 va = _mm256_loadu_ps(a + i);
    __m256 r = _mm256_blendv_ps(va, vlo, _mm256_cmp_ps(va, vlo, _CMP_LT_OQ));
    r = _mm256_blendv_ps(r, vhi, _mm256_cmp_ps(va, vhi, _CMP_GT_OQ));
    _mm256_storeu_ps(o + i, r);
  }
  for (; i < n; ++i) o[i] = a[i] < lo ? lo : (a[i] > hi ? hi : a[i]);
}

void clamp_mask(index_t n, const float* a, float lo, float hi, float* o) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  const __m256 one = _mm256_set1_ps(1.0f);
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 in = _mm256_and_ps(_mm256_cmp_ps(va, vlo, _CMP_GE_OQ),
                                    _mm256_cmp_ps(va, vhi, _CMP_LE_OQ));
    _mm256_storeu_ps(o + i, _mm256_and_ps(in, one));
  }
  for (; i < n; ++i) o[i] = (a[i] >= lo && a[i] <= hi) ? 1.0f : 0.0f;
}

void axpy(index_t n, float s, const float* a, float* o) {
  // Mul then add, deliberately NOT _mm256_fmadd_ps: the scalar reference
  // (built without FMA in the ISA) rounds the product first, and this op
  // is in the bit-exact class.  -ffp-contract=off keeps the compiler from
  // re-fusing the pair.
  const __m256 vs = _mm256_set1_ps(s);
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    const __m256 p = _mm256_mul_ps(vs, _mm256_loadu_ps(a + i));
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(o + i), p));
  }
  for (; i < n; ++i) o[i] += s * a[i];
}

void scale(index_t n, float s, float* o) {
  const __m256 vs = _mm256_set1_ps(s);
  index_t i = 0;
  for (; i + kW <= n; i += kW) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(o + i), vs));
  }
  for (; i < n; ++i) o[i] *= s;
}

}  // namespace eltwise::avx2
}  // namespace fastchg::ops

#else  // !(__AVX2__ && __FMA__): forwarding stubs, tier stays scalar

namespace fastchg::ops {

namespace detail {
bool avx2_kernels_compiled() { return false; }
}  // namespace detail

namespace eltwise::avx2 {

void add(index_t n, const float* a, const float* b, float* o) { scalar::add(n, a, b, o); }
void sub(index_t n, const float* a, const float* b, float* o) { scalar::sub(n, a, b, o); }
void mul(index_t n, const float* a, const float* b, float* o) { scalar::mul(n, a, b, o); }
void div(index_t n, const float* a, const float* b, float* o) { scalar::div(n, a, b, o); }
void add_s(index_t n, const float* a, float s, float* o) { scalar::add_s(n, a, s, o); }
void sub_s(index_t n, const float* a, float s, float* o) { scalar::sub_s(n, a, s, o); }
void rsub_s(index_t n, const float* a, float s, float* o) { scalar::rsub_s(n, a, s, o); }
void mul_s(index_t n, const float* a, float s, float* o) { scalar::mul_s(n, a, s, o); }
void div_s(index_t n, const float* a, float s, float* o) { scalar::div_s(n, a, s, o); }
void rdiv_s(index_t n, const float* a, float s, float* o) { scalar::rdiv_s(n, a, s, o); }
void neg(index_t n, const float* a, float* o) { scalar::neg(n, a, o); }
void abs(index_t n, const float* a, float* o) { scalar::abs(n, a, o); }
void square(index_t n, const float* a, float* o) { scalar::square(n, a, o); }
void recip(index_t n, const float* a, float* o) { scalar::recip(n, a, o); }
void sqrt(index_t n, const float* a, float* o) { scalar::sqrt(n, a, o); }
void sign(index_t n, const float* a, float* o) { scalar::sign(n, a, o); }
void clamp(index_t n, const float* a, float lo, float hi, float* o) { scalar::clamp(n, a, lo, hi, o); }
void clamp_mask(index_t n, const float* a, float lo, float hi, float* o) { scalar::clamp_mask(n, a, lo, hi, o); }
void axpy(index_t n, float s, const float* a, float* o) { scalar::axpy(n, s, a, o); }
void scale(index_t n, float s, float* o) { scalar::scale(n, s, o); }

}  // namespace eltwise::avx2
}  // namespace fastchg::ops

#endif
