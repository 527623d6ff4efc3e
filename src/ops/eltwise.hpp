// Eltwise op family: dense per-element arithmetic on float arrays
// (docs/ops.md).  Every kernel here is in the *bit-exact* class: the AVX2
// variant evaluates the identical IEEE-754 single-precision expression per
// element (mul-then-add, never FMA; vdivps/vsqrtps are correctly rounded),
// so scalar and AVX2 tiers produce bitwise identical outputs for any input
// including NaN/Inf.  The pool 0.0-diff gates may therefore run under
// either tier.
//
// All entry points tolerate unaligned and aliased pointers (o may equal a
// or b); 64-byte alignment (the arena contract, core/alloc.cpp) is a
// performance property, not a correctness requirement.
//
// The `scalar::` inline loops are the reference kernels -- byte-for-byte
// the arithmetic the seed wrote in autograd/ops.cpp -- and double as the
// fallback tier.  The dispatching wrappers (fastchg::ops::eltwise) read
// ops::active_tier() per call.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "ops/dispatch.hpp"

namespace fastchg::ops::eltwise {

using index_t = std::int64_t;

namespace scalar {

inline void add(index_t n, const float* a, const float* b, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
inline void sub(index_t n, const float* a, const float* b, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
inline void mul(index_t n, const float* a, const float* b, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
inline void div(index_t n, const float* a, const float* b, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}
inline void add_s(index_t n, const float* a, float s, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] + s;
}
inline void sub_s(index_t n, const float* a, float s, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] - s;
}
inline void rsub_s(index_t n, const float* a, float s, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = s - a[i];
}
inline void mul_s(index_t n, const float* a, float s, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
inline void div_s(index_t n, const float* a, float s, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] / s;
}
inline void rdiv_s(index_t n, const float* a, float s, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = s / a[i];
}
inline void neg(index_t n, const float* a, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = -a[i];
}
inline void abs(index_t n, const float* a, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = std::fabs(a[i]);
}
inline void square(index_t n, const float* a, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = a[i] * a[i];
}
inline void recip(index_t n, const float* a, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = 1.0f / a[i];
}
inline void sqrt(index_t n, const float* a, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] = std::sqrt(a[i]);
}
inline void sign(index_t n, const float* a, float* o) {
  for (index_t i = 0; i < n; ++i) {
    o[i] = a[i] > 0.0f ? 1.0f : (a[i] < 0.0f ? -1.0f : 0.0f);
  }
}
inline void clamp(index_t n, const float* a, float lo, float hi, float* o) {
  for (index_t i = 0; i < n; ++i) {
    o[i] = a[i] < lo ? lo : (a[i] > hi ? hi : a[i]);
  }
}
inline void clamp_mask(index_t n, const float* a, float lo, float hi,
                       float* o) {
  for (index_t i = 0; i < n; ++i) {
    o[i] = (a[i] >= lo && a[i] <= hi) ? 1.0f : 0.0f;
  }
}
/// o[i] += s * a[i]  (optimizer / allreduce axpy; mul then add, no FMA)
inline void axpy(index_t n, float s, const float* a, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] += s * a[i];
}
/// o[i] *= s
inline void scale(index_t n, float s, float* o) {
  for (index_t i = 0; i < n; ++i) o[i] *= s;
}

}  // namespace scalar

// Dispatching entry points (tier read per call; see ops/dispatch.hpp).
void add(index_t n, const float* a, const float* b, float* o);
void sub(index_t n, const float* a, const float* b, float* o);
void mul(index_t n, const float* a, const float* b, float* o);
void div(index_t n, const float* a, const float* b, float* o);
void add_s(index_t n, const float* a, float s, float* o);
void sub_s(index_t n, const float* a, float s, float* o);
void rsub_s(index_t n, const float* a, float s, float* o);
void mul_s(index_t n, const float* a, float s, float* o);
void div_s(index_t n, const float* a, float s, float* o);
void rdiv_s(index_t n, const float* a, float s, float* o);
void neg(index_t n, const float* a, float* o);
void abs(index_t n, const float* a, float* o);
void square(index_t n, const float* a, float* o);
void recip(index_t n, const float* a, float* o);
void sqrt(index_t n, const float* a, float* o);
void sign(index_t n, const float* a, float* o);
void clamp(index_t n, const float* a, float lo, float hi, float* o);
void clamp_mask(index_t n, const float* a, float lo, float hi, float* o);
void axpy(index_t n, float s, const float* a, float* o);
void scale(index_t n, float s, float* o);

// AVX2 variants (eltwise_avx2.cpp; forwarding stubs when the toolchain
// cannot build AVX2).  Exposed so the differential tests can pin
// scalar-vs-AVX2 bit-exactness explicitly rather than through the tier.
namespace avx2 {
void add(index_t n, const float* a, const float* b, float* o);
void sub(index_t n, const float* a, const float* b, float* o);
void mul(index_t n, const float* a, const float* b, float* o);
void div(index_t n, const float* a, const float* b, float* o);
void add_s(index_t n, const float* a, float s, float* o);
void sub_s(index_t n, const float* a, float s, float* o);
void rsub_s(index_t n, const float* a, float s, float* o);
void mul_s(index_t n, const float* a, float s, float* o);
void div_s(index_t n, const float* a, float s, float* o);
void rdiv_s(index_t n, const float* a, float s, float* o);
void neg(index_t n, const float* a, float* o);
void abs(index_t n, const float* a, float* o);
void square(index_t n, const float* a, float* o);
void recip(index_t n, const float* a, float* o);
void sqrt(index_t n, const float* a, float* o);
void sign(index_t n, const float* a, float* o);
void clamp(index_t n, const float* a, float lo, float hi, float* o);
void clamp_mask(index_t n, const float* a, float lo, float hi, float* o);
void axpy(index_t n, float s, const float* a, float* o);
void scale(index_t n, float s, float* o);
}  // namespace avx2

}  // namespace fastchg::ops::eltwise
