// Basis op family: the fused sRBF and Fourier expansion loops
// (docs/ops.md).  *Tolerance-gated*: the scalar tier calls libm
// sinf/cosf, the AVX2 tier evaluates Cephes-style polynomial kernels
// (ops/vecmath256.hpp) that agree with libm to a couple of ulps but not
// bitwise.  Each tier is individually deterministic, so same-tier
// comparisons (pool on vs off, thread counts) still read exactly 0.0.
//
// Layering: fastchg_core cannot see basis/envelope.hpp (fastchg_model), so
// the polynomial cutoff envelope arrives as a function pointer.  It is
// evaluated once per edge in scalar code on both tiers.
#pragma once

#include <cstdint>

#include "ops/dispatch.hpp"

namespace fastchg::ops::basis {

using index_t = std::int64_t;

/// Smooth-cutoff envelope u(x) with polynomial order p (basis/envelope.hpp).
using EnvFn = double (*)(double xi, int p);

/// Fused sRBF rows: o[i, n] = c*u(r/rc)/r * sin(freq[n] * r/rc) for each of
/// the e edges; freq has nb entries.
void srbf(index_t e, index_t nb, float rc, float c, int p, EnvFn env,
          const float* r, const float* freq, float* o);

/// Fused Fourier rows over g angles: o[i, 0] = c0;
/// o[i, n] = cos(n*t)*cinv and o[i, order+n] = sin(n*t)*cinv for
/// n = 1..order (row width 2*order+1).
void fourier(index_t g, index_t order, float c0, float cinv, const float* t,
             float* o);

namespace scalar {
void srbf(index_t e, index_t nb, float rc, float c, int p, EnvFn env,
          const float* r, const float* freq, float* o);
void fourier(index_t g, index_t order, float c0, float cinv, const float* t,
             float* o);
}  // namespace scalar

namespace avx2 {
void srbf(index_t e, index_t nb, float rc, float c, int p, EnvFn env,
          const float* r, const float* freq, float* o);
void fourier(index_t g, index_t order, float c0, float cinv, const float* t,
             float* o);
}  // namespace avx2

}  // namespace fastchg::ops::basis
