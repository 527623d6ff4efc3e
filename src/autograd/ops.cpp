#include "autograd/ops.hpp"

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "core/parallel_for.hpp"
#include "ops/eltwise.hpp"
#include "ops/gather_scatter.hpp"
#include "ops/gemm.hpp"
#include "ops/reduce.hpp"
#include "perf/counters.hpp"

// Every kernel here factors its arithmetic into a loop helper.  Pure aliases
// (reshape, same-shape broadcast/sum_to, single-input cat) share storage and
// launch no kernel of their own.
//
// SIMD dispatch (src/ops/): the loop helpers route per-element arithmetic,
// GEMM, row gather/scatter and column sums through the tiered op library.
// Ops in the bit-exact class produce identical bytes at every tier;
// transcendentals and double-accumulated reductions stay pinned to the
// scalar reference (see docs/ops.md), so the pool 0.0-diff gates and the
// cross-tier bit-exactness tests hold under any FASTCHG_SIMD setting.

namespace fastchg::ag::ops {

namespace sops = ::fastchg::ops;

namespace {

/// Which ops::eltwise entry point an elementwise kernel routes through;
/// kLoop runs the kernel's own scalar lambda (transcendentals, pow).
enum class EOp {
  kLoop,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kAddS,
  kMulS,
  kNeg,
  kAbs,
  kSquare,
  kRecip,
  kSqrt,
  kSign,
  kClamp,
  kClampMask,
};

// --------------------------------------------------------------------------
// Broadcast classification.  Only the patterns the model needs are allowed;
// anything else throws so silent shape bugs cannot creep in.
// --------------------------------------------------------------------------
enum class BPat {
  kSame,     // identical shapes
  kAScalar,  // a has numel 1
  kBScalar,  // b has numel 1
  kARow,     // a is [C] or [1,C], b is [N,C]
  kBRow,     // b is [C] or [1,C], a is [N,C]
  kACol,     // a is [N,1], b is [N,C]
  kBCol,     // b is [N,1], a is [N,C]
};

bool is_row_of(const Shape& s, const Shape& full) {
  if (full.size() != 2) return false;
  const index_t c = full[1];
  if (s.size() == 1 && s[0] == c) return true;
  if (s.size() == 2 && s[0] == 1 && s[1] == c) return true;
  return false;
}

bool is_col_of(const Shape& s, const Shape& full) {
  return full.size() == 2 && s.size() == 2 && s[0] == full[0] && s[1] == 1;
}

BPat classify(const Tensor& a, const Tensor& b, Shape& out_shape) {
  if (same_shape(a.shape(), b.shape())) {
    out_shape = a.shape();
    return BPat::kSame;
  }
  if (a.numel() == 1) {
    out_shape = b.shape();
    return BPat::kAScalar;
  }
  if (b.numel() == 1) {
    out_shape = a.shape();
    return BPat::kBScalar;
  }
  if (is_row_of(a.shape(), b.shape())) {
    out_shape = b.shape();
    return BPat::kARow;
  }
  if (is_row_of(b.shape(), a.shape())) {
    out_shape = a.shape();
    return BPat::kBRow;
  }
  if (is_col_of(a.shape(), b.shape())) {
    out_shape = b.shape();
    return BPat::kACol;
  }
  if (is_col_of(b.shape(), a.shape())) {
    out_shape = a.shape();
    return BPat::kBCol;
  }
  FASTCHG_CHECK(false, "unsupported broadcast " << shape_str(a.shape())
                                                << " vs "
                                                << shape_str(b.shape()));
}

/// The arithmetic of every binary op.  rows/cols are only read for the 2-D
/// row/col broadcast patterns.
template <class F>
void binary_loop(BPat pat, index_t rows, index_t cols, index_t n,
                 const float* pa, const float* pb, float* po, F f) {
  switch (pat) {
    case BPat::kSame:
      for (index_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
      break;
    case BPat::kAScalar: {
      const float av = pa[0];
      for (index_t i = 0; i < n; ++i) po[i] = f(av, pb[i]);
      break;
    }
    case BPat::kBScalar: {
      const float bv = pb[0];
      for (index_t i = 0; i < n; ++i) po[i] = f(pa[i], bv);
      break;
    }
    case BPat::kARow:
      for (index_t r = 0; r < rows; ++r)
        for (index_t c = 0; c < cols; ++c)
          po[r * cols + c] = f(pa[c], pb[r * cols + c]);
      break;
    case BPat::kBRow:
      for (index_t r = 0; r < rows; ++r)
        for (index_t c = 0; c < cols; ++c)
          po[r * cols + c] = f(pa[r * cols + c], pb[c]);
      break;
    case BPat::kACol:
      for (index_t r = 0; r < rows; ++r) {
        const float av = pa[r];
        for (index_t c = 0; c < cols; ++c)
          po[r * cols + c] = f(av, pb[r * cols + c]);
      }
      break;
    case BPat::kBCol:
      for (index_t r = 0; r < rows; ++r) {
        const float bv = pb[r];
        for (index_t c = 0; c < cols; ++c)
          po[r * cols + c] = f(pa[r * cols + c], bv);
      }
      break;
  }
}

/// Dispatch-routing wrapper around binary_loop: the four arithmetic EOps
/// run through ops::eltwise (vectorized under the AVX2 tier, per-element
/// bit-exact at every tier); anything else falls back to the reference
/// loop.
template <class F>
void binary_loop_d(EOp eop, BPat pat, index_t rows, index_t cols,
                   index_t n, const float* pa, const float* pb, float* po,
                   F f) {
  if (eop != EOp::kAdd && eop != EOp::kSub && eop != EOp::kMul &&
      eop != EOp::kDiv) {
    binary_loop(pat, rows, cols, n, pa, pb, po, f);
    return;
  }
  namespace ew = sops::eltwise;
  switch (pat) {
    case BPat::kSame:
      switch (eop) {
        case EOp::kAdd: ew::add(n, pa, pb, po); return;
        case EOp::kSub: ew::sub(n, pa, pb, po); return;
        case EOp::kMul: ew::mul(n, pa, pb, po); return;
        default: ew::div(n, pa, pb, po); return;
      }
    case BPat::kAScalar: {
      const float av = pa[0];
      switch (eop) {
        case EOp::kAdd: ew::add_s(n, pb, av, po); return;
        case EOp::kSub: ew::rsub_s(n, pb, av, po); return;
        case EOp::kMul: ew::mul_s(n, pb, av, po); return;
        default: ew::rdiv_s(n, pb, av, po); return;
      }
    }
    case BPat::kBScalar: {
      const float bv = pb[0];
      switch (eop) {
        case EOp::kAdd: ew::add_s(n, pa, bv, po); return;
        case EOp::kSub: ew::sub_s(n, pa, bv, po); return;
        case EOp::kMul: ew::mul_s(n, pa, bv, po); return;
        default: ew::div_s(n, pa, bv, po); return;
      }
    }
    case BPat::kARow:
      for (index_t r = 0; r < rows; ++r) {
        const float* q = pb + r * cols;
        float* d = po + r * cols;
        switch (eop) {
          case EOp::kAdd: ew::add(cols, pa, q, d); break;
          case EOp::kSub: ew::sub(cols, pa, q, d); break;
          case EOp::kMul: ew::mul(cols, pa, q, d); break;
          default: ew::div(cols, pa, q, d); break;
        }
      }
      return;
    case BPat::kBRow:
      for (index_t r = 0; r < rows; ++r) {
        const float* q = pa + r * cols;
        float* d = po + r * cols;
        switch (eop) {
          case EOp::kAdd: ew::add(cols, q, pb, d); break;
          case EOp::kSub: ew::sub(cols, q, pb, d); break;
          case EOp::kMul: ew::mul(cols, q, pb, d); break;
          default: ew::div(cols, q, pb, d); break;
        }
      }
      return;
    case BPat::kACol:
      for (index_t r = 0; r < rows; ++r) {
        const float av = pa[r];
        const float* q = pb + r * cols;
        float* d = po + r * cols;
        switch (eop) {
          case EOp::kAdd: ew::add_s(cols, q, av, d); break;
          case EOp::kSub: ew::rsub_s(cols, q, av, d); break;
          case EOp::kMul: ew::mul_s(cols, q, av, d); break;
          default: ew::rdiv_s(cols, q, av, d); break;
        }
      }
      return;
    case BPat::kBCol:
      for (index_t r = 0; r < rows; ++r) {
        const float bv = pb[r];
        const float* q = pa + r * cols;
        float* d = po + r * cols;
        switch (eop) {
          case EOp::kAdd: ew::add_s(cols, q, bv, d); break;
          case EOp::kSub: ew::sub_s(cols, q, bv, d); break;
          case EOp::kMul: ew::mul_s(cols, q, bv, d); break;
          default: ew::div_s(cols, q, bv, d); break;
        }
      }
      return;
  }
}

template <class F>
Tensor binary_kernel(const char* name, EOp eop, const Tensor& a,
                     const Tensor& b, F f) {
  perf::count_kernel(name);
  Shape out_shape;
  const BPat pat = classify(a, b, out_shape);
  Tensor out = Tensor::empty(out_shape);
  const index_t rows = out_shape.size() == 2 ? out_shape[0] : 0;
  const index_t cols = out_shape.size() == 2 ? out_shape[1] : 0;
  const index_t n = out.numel();
  binary_loop_d(eop, pat, rows, cols, n, a.data(), b.data(), out.data(), f);
  return out;
}

template <class F>
void unary_loop(index_t n, const float* px, float* po, F f) {
  for (index_t i = 0; i < n; ++i) po[i] = f(px[i]);
}

/// Dispatch-routing wrapper around unary_loop.  Pure arithmetic EOps go
/// through ops::eltwise (bit-exact at every tier); the transcendentals
/// (exp/log/sin/cos/acos/tanh/sigmoid/silu/pow) stay pinned to the scalar
/// libm loop so their bytes never depend on the tier.
template <class F>
void unary_loop_d(EOp eop, float s0, float s1, index_t n,
                  const float* px, float* po, F f) {
  namespace ew = sops::eltwise;
  switch (eop) {
    case EOp::kNeg: ew::neg(n, px, po); return;
    case EOp::kAbs: ew::abs(n, px, po); return;
    case EOp::kSquare: ew::square(n, px, po); return;
    case EOp::kRecip: ew::recip(n, px, po); return;
    case EOp::kSqrt: ew::sqrt(n, px, po); return;
    case EOp::kSign: ew::sign(n, px, po); return;
    case EOp::kAddS: ew::add_s(n, px, s0, po); return;
    case EOp::kMulS: ew::mul_s(n, px, s0, po); return;
    case EOp::kClamp: ew::clamp(n, px, s0, s1, po); return;
    case EOp::kClampMask: ew::clamp_mask(n, px, s0, s1, po); return;
    default: unary_loop(n, px, po, f); return;
  }
}

template <class F>
Tensor unary_kernel(const char* name, EOp eop, const Tensor& x, F f,
                    float s0 = 0.0f, float s1 = 0.0f) {
  perf::count_kernel(name);
  Tensor out = Tensor::empty(x.shape());
  const index_t n = x.numel();
  unary_loop_d(eop, s0, s1, n, x.data(), out.data(), f);
  return out;
}

}  // namespace

Var constant(Tensor t) { return Var(std::move(t), /*requires_grad=*/false); }

Var zeros_like(const Var& x) { return constant(Tensor::zeros(x.shape())); }
Var ones_like(const Var& x) { return constant(Tensor::ones(x.shape())); }

// ---------------------------------------------------------------------------
// binary
// ---------------------------------------------------------------------------

Var add(const Var& a, const Var& b) {
  Tensor out = binary_kernel("add", EOp::kAdd, a.value(), b.value(),
                             [](float x, float y) { return x + y; });
  Shape sa = a.shape(), sb = b.shape();
  const bool ra = a.requires_grad(), rb = b.requires_grad();
  return make_op_node("add", std::move(out), {a, b},
                      [sa, sb, ra, rb](const Var& g) -> std::vector<Var> {
                        return {ra ? sum_to(g, sa) : Var(),
                                rb ? sum_to(g, sb) : Var()};
                      });
}

Var sub(const Var& a, const Var& b) {
  Tensor out = binary_kernel("sub", EOp::kSub, a.value(), b.value(),
                             [](float x, float y) { return x - y; });
  Shape sa = a.shape(), sb = b.shape();
  const bool ra = a.requires_grad(), rb = b.requires_grad();
  return make_op_node("sub", std::move(out), {a, b},
                      [sa, sb, ra, rb](const Var& g) -> std::vector<Var> {
                        return {ra ? sum_to(g, sa) : Var(),
                                rb ? sum_to(neg(g), sb) : Var()};
                      });
}

Var mul(const Var& a, const Var& b) {
  Tensor out = binary_kernel("mul", EOp::kMul, a.value(), b.value(),
                             [](float x, float y) { return x * y; });
  Shape sa = a.shape(), sb = b.shape();
  return make_op_node("mul", std::move(out), {a, b},
                      [a, b, sa, sb](const Var& g) -> std::vector<Var> {
                        return {a.requires_grad() ? sum_to(mul(g, b), sa)
                                                  : Var(),
                                b.requires_grad() ? sum_to(mul(g, a), sb)
                                                  : Var()};
                      });
}

Var div(const Var& a, const Var& b) {
  Tensor out = binary_kernel("div", EOp::kDiv, a.value(), b.value(),
                             [](float x, float y) { return x / y; });
  Shape sa = a.shape(), sb = b.shape();
  Var result = make_op_node(
      "div", std::move(out), {a, b},
      [a, b, sa, sb](const Var& g) -> std::vector<Var> {
        Var ga = a.requires_grad() ? sum_to(div(g, b), sa) : Var();
        // d/db (a/b) = -a/b^2 = -(a/b)/b
        Var gb = b.requires_grad()
                     ? sum_to(neg(div(div(mul(g, a), b), b)), sb)
                     : Var();
        return {ga, gb};
      });
  return result;
}

// ---------------------------------------------------------------------------
// scalar
// ---------------------------------------------------------------------------

Var add_scalar(const Var& x, float s) {
  Tensor out =
      unary_kernel("add_scalar", EOp::kAddS, x.value(),
                   [s](float v) { return v + s; }, s);
  return make_op_node("add_scalar", std::move(out), {x},
                      [](const Var& g) -> std::vector<Var> { return {g}; });
}

Var mul_scalar(const Var& x, float s) {
  Tensor out =
      unary_kernel("mul_scalar", EOp::kMulS, x.value(),
                   [s](float v) { return v * s; }, s);
  return make_op_node("mul_scalar", std::move(out), {x},
                      [s](const Var& g) -> std::vector<Var> {
                        return {mul_scalar(g, s)};
                      });
}

Var pow_scalar(const Var& x, float p) {
  Tensor out = unary_kernel("pow_scalar", EOp::kLoop, x.value(),
                            [p](float v) { return std::pow(v, p); }, p);
  return make_op_node("pow_scalar", std::move(out), {x},
                      [x, p](const Var& g) -> std::vector<Var> {
                        return {mul(g, mul_scalar(pow_scalar(x, p - 1), p))};
                      });
}

// ---------------------------------------------------------------------------
// unary
// ---------------------------------------------------------------------------

Var neg(const Var& x) {
  Tensor out = unary_kernel("neg", EOp::kNeg, x.value(),
                            [](float v) { return -v; });
  return make_op_node("neg", std::move(out), {x},
                      [](const Var& g) -> std::vector<Var> {
                        return {neg(g)};
                      });
}

Var exp_op(const Var& x) {
  Tensor out =
      unary_kernel("exp", EOp::kLoop, x.value(),
                   [](float v) { return std::exp(v); });
  Var y = make_op_node("exp", std::move(out), {x},
                       [x](const Var& g) -> std::vector<Var> {
                         return {mul(g, exp_op(x))};
                       });
  return y;
}

Var log_op(const Var& x) {
  Tensor out =
      unary_kernel("log", EOp::kLoop, x.value(),
                   [](float v) { return std::log(v); });
  return make_op_node("log", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        return {div(g, x)};
                      });
}

Var sqrt_op(const Var& x) {
  Tensor out =
      unary_kernel("sqrt", EOp::kSqrt, x.value(),
                   [](float v) { return std::sqrt(v); });
  return make_op_node("sqrt", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        return {mul_scalar(div(g, sqrt_op(x)), 0.5f)};
                      });
}

Var sin_op(const Var& x) {
  Tensor out =
      unary_kernel("sin", EOp::kLoop, x.value(),
                   [](float v) { return std::sin(v); });
  return make_op_node("sin", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        return {mul(g, cos_op(x))};
                      });
}

Var cos_op(const Var& x) {
  Tensor out =
      unary_kernel("cos", EOp::kLoop, x.value(),
                   [](float v) { return std::cos(v); });
  return make_op_node("cos", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        return {neg(mul(g, sin_op(x)))};
                      });
}

Var acos_op(const Var& x) {
  Tensor out =
      unary_kernel("acos", EOp::kLoop, x.value(),
                   [](float v) { return std::acos(v); });
  return make_op_node(
      "acos", std::move(out), {x}, [x](const Var& g) -> std::vector<Var> {
        // d/dx acos(x) = -1 / sqrt(1 - x^2)
        Var denom = sqrt_op(add_scalar(neg(square(x)), 1.0f));
        return {neg(div(g, denom))};
      });
}

Var tanh_op(const Var& x) {
  Tensor out =
      unary_kernel("tanh", EOp::kLoop, x.value(),
                   [](float v) { return std::tanh(v); });
  return make_op_node("tanh", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        Var y = tanh_op(x);
                        return {mul(g, add_scalar(neg(square(y)), 1.0f))};
                      });
}

Var sigmoid(const Var& x) {
  Tensor out = unary_kernel("sigmoid", EOp::kLoop, x.value(), [](float v) {
    return 1.0f / (1.0f + std::exp(-v));
  });
  return make_op_node("sigmoid", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        Var s = sigmoid(x);
                        return {mul(g, mul(s, add_scalar(neg(s), 1.0f)))};
                      });
}

Var silu(const Var& x) {
  Tensor out = unary_kernel("silu", EOp::kLoop, x.value(), [](float v) {
    return v / (1.0f + std::exp(-v));
  });
  return make_op_node(
      "silu", std::move(out), {x}, [x](const Var& g) -> std::vector<Var> {
        // d/dx silu = s + x * s * (1 - s), s = sigmoid(x)
        Var s = sigmoid(x);
        Var ds = add(s, mul(mul(x, s), add_scalar(neg(s), 1.0f)));
        return {mul(g, ds)};
      });
}

Var abs_op(const Var& x) {
  Tensor out =
      unary_kernel("abs", EOp::kAbs, x.value(),
                   [](float v) { return std::fabs(v); });
  // sign(x) treated as a constant: correct almost everywhere and keeps
  // grad-of-grad well defined.
  Tensor sign = unary_kernel("sign", EOp::kSign, x.value(), [](float v) {
    return v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f);
  });
  Var sign_c = constant(std::move(sign));
  return make_op_node("abs", std::move(out), {x},
                      [sign_c](const Var& g) -> std::vector<Var> {
                        return {mul(g, sign_c)};
                      });
}

Var reciprocal(const Var& x) {
  Tensor out = unary_kernel("reciprocal", EOp::kRecip, x.value(),
                            [](float v) { return 1.0f / v; });
  return make_op_node("reciprocal", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        Var inv = reciprocal(x);
                        return {neg(mul(g, square(inv)))};
                      });
}

Var square(const Var& x) {
  Tensor out =
      unary_kernel("square", EOp::kSquare, x.value(),
                   [](float v) { return v * v; });
  return make_op_node("square", std::move(out), {x},
                      [x](const Var& g) -> std::vector<Var> {
                        return {mul_scalar(mul(g, x), 2.0f)};
                      });
}

Var clamp(const Var& x, float lo, float hi) {
  Tensor out = unary_kernel(
      "clamp", EOp::kClamp, x.value(),
      [lo, hi](float v) { return v < lo ? lo : (v > hi ? hi : v); }, lo, hi);
  Tensor mask = unary_kernel(
      "clamp_mask", EOp::kClampMask, x.value(),
      [lo, hi](float v) { return (v >= lo && v <= hi) ? 1.0f : 0.0f; }, lo,
      hi);
  Var mask_c = constant(std::move(mask));
  return make_op_node("clamp", std::move(out), {x},
                      [mask_c](const Var& g) -> std::vector<Var> {
                        return {mul(g, mask_c)};
                      });
}

// ---------------------------------------------------------------------------
// linear algebra
// ---------------------------------------------------------------------------

namespace {
/// Zero-fill + accumulate (the zero-fill makes the loop self-contained over
/// recycled pool bytes).  Row-partitioned across the
/// worker pool; i-k-j loop order gives a unit-stride inner loop that
/// vectorizes well under -O3.  Partitions are disjoint rows, so results are
/// identical for any thread count.
void matmul_loop(index_t m, index_t k, index_t n, const float* pa,
                 const float* pb, float* po) {
  // ops::gemm owns the kernel now (the scalar tier is this function's old
  // body verbatim; the AVX2 tier register-tiles with FMA, tolerance-gated).
  sops::gemm::matmul(m, k, n, pa, pb, po);
}

Tensor matmul_kernel(const Tensor& a, const Tensor& b) {
  perf::count_kernel("matmul");
  FASTCHG_CHECK(a.dim() == 2 && b.dim() == 2,
                "matmul: need 2-D, got " << shape_str(a.shape()) << " @ "
                                         << shape_str(b.shape()));
  const index_t m = a.size(0), k = a.size(1), n = b.size(1);
  FASTCHG_CHECK(b.size(0) == k, "matmul: inner dims " << k << " vs "
                                                      << b.size(0));
  Tensor out = Tensor::empty({m, n});
  matmul_loop(m, k, n, a.data(), b.data(), out.data());
  return out;
}

/// A^T * G for A [m,k], G [m,n]: one kernel, no transposed copy of A.
Tensor matmul_tn_kernel(const Tensor& a, const Tensor& g) {
  perf::count_kernel("matmul_tn");
  FASTCHG_CHECK(a.dim() == 2 && g.dim() == 2 && a.size(0) == g.size(0),
                "matmul_tn: " << shape_str(a.shape()) << "^T @ "
                              << shape_str(g.shape()));
  const index_t m = a.size(0), k = a.size(1), n = g.size(1);
  Tensor out = Tensor::empty({k, n});
  sops::gemm::matmul_tn(m, k, n, a.data(), g.data(), out.data());
  return out;
}

void transpose_loop(index_t m, index_t n, const float* px, float* po) {
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) po[j * m + i] = px[i * n + j];
}

Tensor transpose_kernel(const Tensor& x) {
  perf::count_kernel("transpose");
  FASTCHG_CHECK(x.dim() == 2, "transpose: need 2-D");
  const index_t m = x.size(0), n = x.size(1);
  Tensor out = Tensor::empty({n, m});
  transpose_loop(m, n, x.data(), out.data());
  return out;
}
}  // namespace

Var matmul(const Var& a, const Var& b) {
  Tensor out = matmul_kernel(a.value(), b.value());
  return make_op_node(
      "matmul", std::move(out), {a, b},
      [a, b](const Var& g) -> std::vector<Var> {
        Var ga = a.requires_grad() ? matmul(g, transpose2d(b)) : Var();
        Var gb;
        if (b.requires_grad()) {
          // First order: A^T * G reads A in place (A is the long operand --
          // activations -- while B is typically a small weight).
          gb = grad_enabled()
                   ? matmul(transpose2d(a), g)
                   : constant(matmul_tn_kernel(a.value(), g.value()));
        }
        return {ga, gb};
      });
}

Var transpose2d(const Var& x) {
  Tensor out = transpose_kernel(x.value());
  return make_op_node("transpose", std::move(out), {x},
                      [](const Var& g) -> std::vector<Var> {
                        return {transpose2d(g)};
                      });
}

// ---------------------------------------------------------------------------
// reductions
// ---------------------------------------------------------------------------

namespace {
void sum_all_loop(index_t n, const float* px, float* po) {
  // Pinned scalar at every tier (serial double chain; see ops/reduce.hpp).
  po[0] = static_cast<float>(sops::reduce::sum_all(n, px));
}
}  // namespace

Var sum_all(const Var& x) {
  perf::count_kernel("sum_all");
  const index_t n = x.numel();
  Tensor out = Tensor::empty({1});
  sum_all_loop(n, x.value().data(), out.data());
  Shape sx = x.shape();
  return make_op_node("sum_all", std::move(out), {x},
                      [sx](const Var& g) -> std::vector<Var> {
                        return {broadcast_to(g, sx)};
                      });
}

namespace {
void sum_dim_loop(index_t dim, index_t rows, index_t cols, const float* px,
                  float* po) {
  if (dim == 0) {
    // Column sums vectorize bit-exactly (per-column order preserved).
    sops::reduce::sum_dim0(rows, cols, px, po);
  } else {
    // Row sums are double-accumulated: pinned scalar at every tier.
    sops::reduce::sum_dim1(rows, cols, px, po);
  }
}
}  // namespace

Var sum_dim(const Var& x, index_t dim, bool keepdim) {
  perf::count_kernel("sum_dim");
  FASTCHG_CHECK(x.value().dim() == 2, "sum_dim: need 2-D, got "
                                          << shape_str(x.shape()));
  FASTCHG_CHECK(dim == 0 || dim == 1, "sum_dim: dim " << dim);
  const index_t rows = x.size(0), cols = x.size(1);
  Tensor out = (dim == 0)
                   ? Tensor::empty(keepdim ? Shape{1, cols} : Shape{cols})
                   : Tensor::empty(keepdim ? Shape{rows, 1} : Shape{rows});
  sum_dim_loop(dim, rows, cols, x.value().data(), out.data());
  Shape sx = x.shape();
  Shape mid = (dim == 0) ? Shape{1, cols} : Shape{rows, 1};
  return make_op_node("sum_dim", std::move(out), {x},
                      [sx, mid](const Var& g) -> std::vector<Var> {
                        return {broadcast_to(reshape(g, mid), sx)};
                      });
}

Var mean_dim(const Var& x, index_t dim, bool keepdim) {
  const index_t n = x.size(dim);
  return mul_scalar(sum_dim(x, dim, keepdim), 1.0f / static_cast<float>(n));
}

Var mean_all(const Var& x) {
  return mul_scalar(sum_all(x), 1.0f / static_cast<float>(x.numel()));
}

// ---------------------------------------------------------------------------
// broadcast helpers
// ---------------------------------------------------------------------------

namespace {
enum class BMode { kFill, kRow, kCol };

void broadcast_loop(BMode mode, index_t rows, index_t cols, index_t n,
                    const float* px, float* po) {
  switch (mode) {
    case BMode::kFill:
      std::fill_n(po, n, px[0]);
      break;
    case BMode::kRow:
      for (index_t r = 0; r < rows; ++r)
        std::memcpy(po + r * cols, px,
                    static_cast<std::size_t>(cols) * sizeof(float));
      break;
    case BMode::kCol:
      for (index_t r = 0; r < rows; ++r)
        std::fill_n(po + r * cols, cols, px[r]);
      break;
  }
}
}  // namespace

Var broadcast_to(const Var& x, const Shape& shape) {
  if (same_shape(x.shape(), shape)) return x;
  perf::count_kernel("broadcast");
  const Tensor& xv = x.value();
  Tensor out = Tensor::empty(shape);
  const index_t n = out.numel();
  BMode mode;
  index_t rows = 0, cols = 0;
  if (xv.numel() == 1) {
    mode = BMode::kFill;
  } else if (is_row_of(xv.shape(), shape)) {
    mode = BMode::kRow;
    rows = shape[0];
    cols = shape[1];
  } else if (is_col_of(xv.shape(), shape)) {
    mode = BMode::kCol;
    rows = shape[0];
    cols = shape[1];
  } else {
    FASTCHG_CHECK(false, "broadcast_to " << shape_str(xv.shape()) << " -> "
                                         << shape_str(shape));
  }
  broadcast_loop(mode, rows, cols, n, xv.data(), out.data());
  Shape sx = x.shape();
  return make_op_node("broadcast", std::move(out), {x},
                      [sx](const Var& g) -> std::vector<Var> {
                        return {sum_to(g, sx)};
                      });
}

Var sum_to(const Var& x, const Shape& shape) {
  if (same_shape(x.shape(), shape)) return x;
  if (numel_of(shape) == 1) return reshape(sum_all(x), shape);
  FASTCHG_CHECK(x.value().dim() == 2, "sum_to: " << shape_str(x.shape())
                                                 << " -> "
                                                 << shape_str(shape));
  if (is_row_of(shape, x.shape())) {
    Var s = sum_dim(x, 0, /*keepdim=*/true);  // [1,C]
    return same_shape(s.shape(), shape) ? s : reshape(s, shape);
  }
  if (is_col_of(shape, x.shape())) {
    return sum_dim(x, 1, /*keepdim=*/true);  // [N,1]
  }
  FASTCHG_CHECK(false, "sum_to " << shape_str(x.shape()) << " -> "
                                 << shape_str(shape));
}

// ---------------------------------------------------------------------------
// indexing
// ---------------------------------------------------------------------------

namespace {
index_t row_width(const Tensor& t) {
  FASTCHG_CHECK(t.dim() == 1 || t.dim() == 2,
                "row op: need 1-D/2-D, got " << shape_str(t.shape()));
  return t.dim() == 1 ? 1 : t.size(1);
}
}  // namespace

namespace {
void index_select_loop(const std::vector<index_t>& idx, index_t rows,
                       index_t w, const float* px, float* po) {
  const index_t k = static_cast<index_t>(idx.size());
  for (index_t r = 0; r < k; ++r) {
    const index_t src = idx[static_cast<std::size_t>(r)];
    FASTCHG_CHECK(src >= 0 && src < rows,
                  "index_select: index " << src << " out of " << rows);
  }
  sops::gather_scatter::gather_rows(k, w, idx.data(), px, po);
}

void index_add_loop(const std::vector<index_t>& idx, index_t rows, index_t w,
                    const float* ps, float* po) {
  const index_t k = static_cast<index_t>(idx.size());
  for (index_t r = 0; r < k; ++r) {
    const index_t dst = idx[static_cast<std::size_t>(r)];
    FASTCHG_CHECK(dst >= 0 && dst < rows,
                  "index_add: index " << dst << " out of " << rows);
  }
  // Zeroes po, then accumulates source rows in order r = 0..k-1: identical
  // per-column accumulation order at every tier (bit-exact class).
  sops::gather_scatter::scatter_add_rows(k, rows, w, idx.data(), ps, po);
}
}  // namespace

Var index_select0(const Var& x, std::vector<index_t> idx) {
  perf::count_kernel("index_select");
  const Tensor& xv = x.value();
  const index_t w = row_width(xv);
  const index_t rows = xv.size(0);
  const index_t k = static_cast<index_t>(idx.size());
  Shape out_shape = xv.dim() == 1 ? Shape{k} : Shape{k, w};
  Tensor out = Tensor::empty(out_shape);
  auto idx_sp = std::make_shared<std::vector<index_t>>(std::move(idx));
  index_select_loop(*idx_sp, rows, w, xv.data(), out.data());
  return make_op_node("index_select", std::move(out), {x},
                      [idx_sp, rows](const Var& g) -> std::vector<Var> {
                        return {index_add0(rows, *idx_sp, g)};
                      });
}

Var index_add0(index_t rows, std::vector<index_t> idx, const Var& src) {
  perf::count_kernel("index_add");
  const Tensor& sv = src.value();
  const index_t w = row_width(sv);
  const index_t k = sv.size(0);
  FASTCHG_CHECK(static_cast<index_t>(idx.size()) == k,
                "index_add: " << idx.size() << " indices for " << k
                              << " rows");
  Shape out_shape = sv.dim() == 1 ? Shape{rows} : Shape{rows, w};
  Tensor out = Tensor::empty(out_shape);
  auto idx_sp = std::make_shared<std::vector<index_t>>(std::move(idx));
  index_add_loop(*idx_sp, rows, w, sv.data(), out.data());
  return make_op_node("index_add", std::move(out), {src},
                      [idx_sp](const Var& g) -> std::vector<Var> {
                        return {index_select0(g, *idx_sp)};
                      });
}

// ---------------------------------------------------------------------------
// shape ops
// ---------------------------------------------------------------------------

Var reshape(const Var& x, Shape shape) {
  // No kernel: a reshape of a contiguous tensor is free on GPU as well.
  Tensor out = x.value().reshape(shape);
  Shape sx = x.shape();
  return make_op_node("reshape", std::move(out), {x},
                      [sx](const Var& g) -> std::vector<Var> {
                        return {reshape(g, sx)};
                      });
}

Var cat(const std::vector<Var>& xs, index_t dim) {
  FASTCHG_CHECK(!xs.empty(), "cat: empty input list");
  if (xs.size() == 1) return xs[0];
  perf::count_kernel("cat");
  const index_t d = xs[0].value().dim();
  FASTCHG_CHECK((d == 1 && dim == 0) || (d == 2 && (dim == 0 || dim == 1)),
                "cat: dim " << dim << " on " << d << "-D tensors");
  Shape out_shape = xs[0].shape();
  index_t total = 0;
  for (const Var& x : xs) {
    FASTCHG_CHECK(x.value().dim() == d, "cat: rank mismatch");
    for (index_t i = 0; i < d; ++i) {
      if (i != dim) {
        FASTCHG_CHECK(x.size(i) == out_shape[static_cast<std::size_t>(i)],
                      "cat: shape mismatch at dim " << i);
      }
    }
    total += x.size(dim);
  }
  out_shape[static_cast<std::size_t>(dim)] = total;
  Tensor out = Tensor::empty(out_shape);
  float* po = out.data();
  if (dim == 0) {
    index_t off = 0;
    for (const Var& x : xs) {
      const index_t n = x.numel();
      std::memcpy(po + off, x.value().data(),
                  static_cast<std::size_t>(n) * sizeof(float));
      off += n;
    }
  } else {
    const index_t rows = out_shape[0], cols = out_shape[1];
    index_t coff = 0;
    for (const Var& x : xs) {
      const index_t c = x.size(1);
      const float* px = x.value().data();
      for (index_t r = 0; r < rows; ++r)
        std::memcpy(po + r * cols + coff, px + r * c,
                    static_cast<std::size_t>(c) * sizeof(float));
      coff += c;
    }
  }
  std::vector<index_t> sizes;
  sizes.reserve(xs.size());
  for (const Var& x : xs) sizes.push_back(x.size(dim));
  return make_op_node("cat", std::move(out), xs,
                      [sizes, dim](const Var& g) -> std::vector<Var> {
                        std::vector<Var> grads;
                        grads.reserve(sizes.size());
                        index_t off = 0;
                        for (index_t s : sizes) {
                          grads.push_back(narrow(g, dim, off, s));
                          off += s;
                        }
                        return grads;
                      });
}

Var narrow(const Var& x, index_t dim, index_t start, index_t len) {
  perf::count_kernel("narrow");
  const Tensor& xv = x.value();
  const index_t d = xv.dim();
  FASTCHG_CHECK((d == 1 && dim == 0) || (d == 2 && (dim == 0 || dim == 1)),
                "narrow: dim " << dim << " on " << d << "-D tensor");
  FASTCHG_CHECK(start >= 0 && len >= 0 && start + len <= xv.size(dim),
                "narrow: [" << start << ", " << start + len << ") out of "
                            << xv.size(dim));
  Tensor out;
  const float* px = xv.data();
  const index_t w = (d == 1 || dim == 1) ? 1 : xv.size(1);
  const index_t rows = xv.size(0);
  const index_t cols = d == 2 ? xv.size(1) : 1;
  if (dim == 0) {
    out = Tensor::empty(d == 1 ? Shape{len} : Shape{len, xv.size(1)});
    std::memcpy(out.data(), px + start * w,
                static_cast<std::size_t>(len * w) * sizeof(float));
  } else {
    out = Tensor::empty({rows, len});
    float* po = out.data();
    for (index_t r = 0; r < rows; ++r)
      std::memcpy(po + r * len, px + r * cols + start,
                  static_cast<std::size_t>(len) * sizeof(float));
  }
  const index_t total = xv.size(dim);
  return make_op_node("narrow", std::move(out), {x},
                      [dim, start, total](const Var& g) -> std::vector<Var> {
                        return {pad_slice(g, dim, start, total)};
                      });
}

Var pad_slice(const Var& x, index_t dim, index_t start, index_t total) {
  perf::count_kernel("pad_slice");
  const Tensor& xv = x.value();
  const index_t d = xv.dim();
  FASTCHG_CHECK((d == 1 && dim == 0) || (d == 2 && (dim == 0 || dim == 1)),
                "pad_slice: dim " << dim << " on " << d << "-D tensor");
  const index_t len = xv.size(dim);
  FASTCHG_CHECK(start >= 0 && start + len <= total,
                "pad_slice: [" << start << ", " << start + len << ") into "
                               << total);
  Tensor out;
  const float* px = xv.data();
  const index_t w = (d == 1 || dim == 1) ? 1 : xv.size(1);
  const index_t rows = d == 2 ? xv.size(0) : 0;
  if (dim == 0) {
    out = Tensor::zeros(d == 1 ? Shape{total} : Shape{total, xv.size(1)});
    std::memcpy(out.data() + start * w, px,
                static_cast<std::size_t>(len * w) * sizeof(float));
  } else {
    out = Tensor::zeros({rows, total});
    float* po = out.data();
    for (index_t r = 0; r < rows; ++r)
      std::memcpy(po + r * total + start, px + r * len,
                  static_cast<std::size_t>(len) * sizeof(float));
  }
  return make_op_node("pad_slice", std::move(out), {x},
                      [dim, start, len](const Var& g) -> std::vector<Var> {
                        return {narrow(g, dim, start, len)};
                      });
}

}  // namespace fastchg::ag::ops
