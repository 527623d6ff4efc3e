#include "basis/fourier.hpp"

#include <cmath>

#include "autograd/ops.hpp"
#include "ops/basis.hpp"
#include "perf/counters.hpp"
#include "perf/trace.hpp"

namespace fastchg::basis {

using namespace ag::ops;
using ag::make_op_node;

namespace {
const float kInvSqrtPi = 1.0f / std::sqrt(static_cast<float>(M_PI));
const float kConstTerm = 1.0f / std::sqrt(2.0f * static_cast<float>(M_PI));

/// Fused Fourier forward loop.
void fourier_loop(index_t g, index_t order, const float* pt, float* po) {
  // Dispatched: scalar tier is this function's old body verbatim; the AVX2
  // tier evaluates sin/cos with the Cephes polynomial (tolerance-gated).
  ::fastchg::ops::basis::fourier(g, order, kConstTerm, kInvSqrtPi, pt, po);
}
}  // namespace

AngularBasis::AngularBasis(index_t num_basis, bool fused) : fused_(fused) {
  FASTCHG_CHECK(num_basis >= 3 && num_basis % 2 == 1,
                "AngularBasis: num_basis must be odd >= 3, got " << num_basis);
  order_ = (num_basis - 1) / 2;
}

Var AngularBasis::forward(const Var& theta) const {
  FASTCHG_CHECK(theta.value().dim() == 2 && theta.size(1) == 1,
                "AngularBasis: theta must be [G,1], got "
                    << shape_str(theta.shape()));
  perf::TraceSpan span("basis.fourier", "basis");
  return fused_ ? forward_fused(theta) : forward_reference(theta);
}

Var AngularBasis::forward_reference(const Var& theta) const {
  const index_t g = theta.size(0);
  std::vector<Var> parts;
  parts.reserve(static_cast<std::size_t>(2 * order_ + 1));
  parts.push_back(
      ag::ops::constant(Tensor::full({g, 1}, kConstTerm)));
  // One scalar-mul + cos kernel and one + sin kernel per order: the long
  // chain of tiny launches the fused version collapses.
  for (index_t n = 1; n <= order_; ++n) {
    Var nt = mul_scalar(theta, static_cast<float>(n));
    parts.push_back(mul_scalar(cos_op(nt), kInvSqrtPi));
  }
  for (index_t n = 1; n <= order_; ++n) {
    Var nt = mul_scalar(theta, static_cast<float>(n));
    parts.push_back(mul_scalar(sin_op(nt), kInvSqrtPi));
  }
  return cat(parts, 1);
}

Var AngularBasis::forward_fused(const Var& theta) const {
  perf::count_kernel("fused_fourier");
  const index_t g = theta.size(0);
  const index_t nb = 2 * order_ + 1;
  Tensor out = Tensor::empty({g, nb});
  fourier_loop(g, order_, theta.value().data(), out.data());
  const index_t order = order_;
  Var th = theta;
  return make_op_node(
      "fused_fourier", std::move(out), {theta},
      [th, order, g](const Var& grad) -> std::vector<Var> {
        // d cos(n t)/dt = -n sin(n t);  d sin(n t)/dt = n cos(n t)
        Tensor nvec = Tensor::empty({order});
        for (index_t n = 0; n < order; ++n) {
          nvec.data()[n] = static_cast<float>(n + 1);
        }
        Var nrow = ag::ops::constant(std::move(nvec));     // [order]
        Var tb = broadcast_to(th, {g, order});             // [G,order]
        Var narg = mul(tb, nrow);
        Var dcos = mul_scalar(mul(sin_op(narg), nrow), -kInvSqrtPi);
        Var dsin = mul_scalar(mul(cos_op(narg), nrow), kInvSqrtPi);
        Var gcos = narrow(grad, 1, 1, order);
        Var gsin = narrow(grad, 1, 1 + order, order);
        Var gt = sum_dim(add(mul(gcos, dcos), mul(gsin, dsin)), 1,
                         /*keepdim=*/true);
        return {gt};
      });
}

}  // namespace fastchg::basis
