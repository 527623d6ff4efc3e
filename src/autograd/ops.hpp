// Differentiable primitive operations.
//
// Conventions:
//  * Tensors are 1-D or 2-D throughout the model code; ops enforce this.
//  * Every primitive counts exactly one "kernel launch" in fastchg::perf
//    (Fig. 8b accounting).  Composites (sum_to, mean_dim, ...) count as the
//    primitives they expand to, just like unfused GPU code.
//  * Every backward is built from these same primitives, so gradients are
//    themselves differentiable (double backward; see variable.hpp).
//  * Binary ops broadcast numpy-style but only over the patterns the model
//    needs: same shape, scalar {1}, row [1,C] or [C] vs [N,C], col [N,1] vs
//    [N,C].  Anything else is an error (loudly, not silently).
#pragma once

#include <vector>

#include "autograd/variable.hpp"

namespace fastchg::ag::ops {

/// Wrap a tensor as a constant (requires_grad = false) leaf.
Var constant(Tensor t);
Var ones_like(const Var& x);

// -- elementwise binary (broadcasting) --------------------------------------
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);

// -- scalar ------------------------------------------------------------------
Var add_scalar(const Var& x, float s);
Var mul_scalar(const Var& x, float s);
/// x^p with real exponent (x must stay in the domain of powf).
Var pow_scalar(const Var& x, float p);

// -- elementwise unary --------------------------------------------------------
Var neg(const Var& x);
Var exp_op(const Var& x);
Var log_op(const Var& x);
Var sqrt_op(const Var& x);
Var sin_op(const Var& x);
Var cos_op(const Var& x);
/// arccos; clamp the argument yourself (see clamp) to stay differentiable.
Var acos_op(const Var& x);
Var tanh_op(const Var& x);
Var sigmoid(const Var& x);
Var silu(const Var& x);
Var abs_op(const Var& x);
Var reciprocal(const Var& x);
Var square(const Var& x);
/// Clamp to [lo, hi]; gradient is passed through inside the interval and
/// zero outside (subgradient convention).
Var clamp(const Var& x, float lo, float hi);

// -- linear algebra ------------------------------------------------------------
/// [m,k] @ [k,n] -> [m,n].
Var matmul(const Var& a, const Var& b);
Var transpose2d(const Var& x);

// -- reductions ---------------------------------------------------------------
/// Sum of all elements -> shape {1}.
Var sum_all(const Var& x);
/// Sum a 2-D tensor over `dim` (0 or 1).  keepdim keeps the reduced axis as 1.
Var sum_dim(const Var& x, index_t dim, bool keepdim = true);
Var mean_dim(const Var& x, index_t dim, bool keepdim = true);
Var mean_all(const Var& x);

// -- broadcasting helpers -------------------------------------------------------
/// Explicit broadcast of {1}, [C], [1,C], [N,1] to `shape`.
Var broadcast_to(const Var& x, const Shape& shape);
/// Reduce x back to `shape` (adjoint of broadcast_to); composite.
Var sum_to(const Var& x, const Shape& shape);

// -- indexing -------------------------------------------------------------------
/// Gather rows: out[k] = x[idx[k]].  x is [N,...], idx values in [0,N).
Var index_select0(const Var& x, std::vector<index_t> idx);
/// Scatter-add rows: out has `rows` rows; out[idx[k]] += src[k].
/// This is the message-aggregation primitive of the GNN.
Var index_add0(index_t rows, std::vector<index_t> idx, const Var& src);

// -- shape ------------------------------------------------------------------------
/// View with a new shape; no kernel, storage shared.
Var reshape(const Var& x, Shape shape);
/// Concatenate along dim 0 or 1 (2-D) or dim 0 (1-D).
Var cat(const std::vector<Var>& xs, index_t dim);
/// Contiguous slice [start, start+len) along `dim`.
Var narrow(const Var& x, index_t dim, index_t start, index_t len);
/// Adjoint of narrow: place x into a zero tensor whose `dim` has size
/// `total`, at offset `start`.
Var pad_slice(const Var& x, index_t dim, index_t start, index_t total);

// -- operators ----------------------------------------------------------------------
inline Var operator+(const Var& a, const Var& b) { return add(a, b); }
inline Var operator-(const Var& a, const Var& b) { return sub(a, b); }
inline Var operator*(const Var& a, const Var& b) { return mul(a, b); }
inline Var operator/(const Var& a, const Var& b) { return div(a, b); }
inline Var operator-(const Var& x) { return neg(x); }
inline Var operator+(const Var& a, float s) { return add_scalar(a, s); }
inline Var operator+(float s, const Var& a) { return add_scalar(a, s); }
inline Var operator-(const Var& a, float s) { return add_scalar(a, -s); }
inline Var operator-(float s, const Var& a) {
  return add_scalar(neg(a), s);
}
inline Var operator*(const Var& a, float s) { return mul_scalar(a, s); }
inline Var operator*(float s, const Var& a) { return mul_scalar(a, s); }
inline Var operator/(const Var& a, float s) { return mul_scalar(a, 1.0f / s); }

}  // namespace fastchg::ag::ops
