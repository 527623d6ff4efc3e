// Rownorm op family: fused per-row normalization kernels -- LayerNorm
// forward and the GatedMLP packed gated activation with its first-order
// backward (docs/ops.md).
// *Tolerance-gated*: the scalar tier accumulates mean/variance serially in
// double and calls libm expf for the sigmoids; the AVX2 tier uses 4-wide
// double accumulator lanes (reassociated) and the Cephes exp256 kernel.
// Differences are O(1e-7) relative -- well inside the 1e-5 fused-vs-
// composite gates in test_nn.  Eager kernels and their replay closures
// share one dispatch, so same-tier comparisons are still bitwise.
#pragma once

#include <cstdint>

#include "ops/dispatch.hpp"

namespace fastchg::ops::rownorm {

using index_t = std::int64_t;

/// o[r, c] = (x[r, c] - mean_r) * rstd_r * g[c] + b[c], with mean/var in
/// double and rstd = 1/sqrt((float)var + eps).
void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o);

/// Packed gated activation: rows of x are [core | gate] (width 2c); each
/// half is layer-normalized with its own gamma/beta, then
/// o = sigmoid(gate_n) * silu(core_n)  (width c).
void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o);

/// Rows per parameter-gradient chunk in gated_act_backward.
inline constexpr index_t kGatedBwdChunk = 64;

/// First-order backward of gated_act for the upstream gradient dy [rows, c].
/// Recomputes both half-row layernorms from x and writes dx [rows, 2c] in
/// one pass over the rows, plus the gamma/beta gradients dgc, dbc, dgg, dbg
/// [c].  Rows run in parallel in chunks of kGatedBwdChunk; each chunk sums
/// its rows' parameter gradients in row order and the chunk totals are
/// added in chunk order, so results do not depend on the thread count.
void gated_act_backward(index_t rows, index_t c, float eps, const float* x,
                        const float* gc, const float* bc, const float* gg,
                        const float* bg, const float* dy, float* dx,
                        float* dgc, float* dbc, float* dgg, float* dbg);

namespace scalar {
void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o);
void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o);
void gated_act_backward(index_t rows, index_t c, float eps, const float* x,
                        const float* gc, const float* bc, const float* gg,
                        const float* bg, const float* dy, float* dx,
                        float* dgc, float* dbc, float* dgg, float* dbg);
/// Rows [r0, r1) of the backward: dx rows, and the chunk's parameter
/// gradient sums written (not added) to part = [dgc | dbc | dgg | dbg].
void gated_act_backward_rows(index_t r0, index_t r1, index_t c, float eps,
                             const float* x, const float* gc, const float* bc,
                             const float* gg, const float* bg, const float* dy,
                             float* dx, float* part);
}  // namespace scalar

namespace avx2 {
void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o);
void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o);
void gated_act_backward(index_t rows, index_t c, float eps, const float* x,
                        const float* gc, const float* bc, const float* gg,
                        const float* bg, const float* dy, float* dx,
                        float* dgc, float* dbc, float* dgg, float* dbg);
void gated_act_backward_rows(index_t r0, index_t r1, index_t c, float eps,
                             const float* x, const float* gc, const float* bc,
                             const float* gg, const float* bg, const float* dy,
                             float* dx, float* part);
}  // namespace avx2

}  // namespace fastchg::ops::rownorm
