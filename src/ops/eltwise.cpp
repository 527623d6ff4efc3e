// Tier-dispatching entry points for the eltwise family.  This TU is
// compiled with the baseline ISA (no -mavx2), so the scalar:: fallbacks
// here can never be auto-vectorized into something the reference loop is
// not; the AVX2 bodies live in eltwise_avx2.cpp.
#include "ops/eltwise.hpp"

namespace fastchg::ops::eltwise {

#define FASTCHG_ELTWISE_DISPATCH(name, params, args)  \
  void name params {                                  \
    if (active_tier() == Tier::kAvx2) {               \
      avx2::name args;                                \
      return;                                         \
    }                                                 \
    scalar::name args;                                \
  }

FASTCHG_ELTWISE_DISPATCH(add, (index_t n, const float* a, const float* b, float* o), (n, a, b, o))
FASTCHG_ELTWISE_DISPATCH(sub, (index_t n, const float* a, const float* b, float* o), (n, a, b, o))
FASTCHG_ELTWISE_DISPATCH(mul, (index_t n, const float* a, const float* b, float* o), (n, a, b, o))
FASTCHG_ELTWISE_DISPATCH(div, (index_t n, const float* a, const float* b, float* o), (n, a, b, o))
FASTCHG_ELTWISE_DISPATCH(add_s, (index_t n, const float* a, float s, float* o), (n, a, s, o))
FASTCHG_ELTWISE_DISPATCH(sub_s, (index_t n, const float* a, float s, float* o), (n, a, s, o))
FASTCHG_ELTWISE_DISPATCH(rsub_s, (index_t n, const float* a, float s, float* o), (n, a, s, o))
FASTCHG_ELTWISE_DISPATCH(mul_s, (index_t n, const float* a, float s, float* o), (n, a, s, o))
FASTCHG_ELTWISE_DISPATCH(div_s, (index_t n, const float* a, float s, float* o), (n, a, s, o))
FASTCHG_ELTWISE_DISPATCH(rdiv_s, (index_t n, const float* a, float s, float* o), (n, a, s, o))
FASTCHG_ELTWISE_DISPATCH(neg, (index_t n, const float* a, float* o), (n, a, o))
FASTCHG_ELTWISE_DISPATCH(abs, (index_t n, const float* a, float* o), (n, a, o))
FASTCHG_ELTWISE_DISPATCH(square, (index_t n, const float* a, float* o), (n, a, o))
FASTCHG_ELTWISE_DISPATCH(recip, (index_t n, const float* a, float* o), (n, a, o))
FASTCHG_ELTWISE_DISPATCH(sqrt, (index_t n, const float* a, float* o), (n, a, o))
FASTCHG_ELTWISE_DISPATCH(sign, (index_t n, const float* a, float* o), (n, a, o))
FASTCHG_ELTWISE_DISPATCH(clamp, (index_t n, const float* a, float lo, float hi, float* o), (n, a, lo, hi, o))
FASTCHG_ELTWISE_DISPATCH(clamp_mask, (index_t n, const float* a, float lo, float hi, float* o), (n, a, lo, hi, o))
FASTCHG_ELTWISE_DISPATCH(axpy, (index_t n, float s, const float* a, float* o), (n, s, a, o))
FASTCHG_ELTWISE_DISPATCH(scale, (index_t n, float s, float* o), (n, s, o))

#undef FASTCHG_ELTWISE_DISPATCH

}  // namespace fastchg::ops::eltwise
