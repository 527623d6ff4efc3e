#include "nn/layernorm.hpp"

#include <cmath>

#include "autograd/ops.hpp"
#include "ops/rownorm.hpp"
#include "perf/counters.hpp"

namespace fastchg::nn {

using namespace ag::ops;
using ag::make_op_node;

namespace {
/// Fused layernorm forward loop.
void layernorm_loop(index_t rows, index_t cols, float eps, const float* px,
                    const float* pg, const float* pb, float* po) {
  // Dispatched: scalar tier is this function's old body verbatim; the AVX2
  // tier reassociates the mean/var reductions (tolerance-gated class).
  ::fastchg::ops::rownorm::layernorm(rows, cols, eps, px, pg, pb, po);
}
}  // namespace

LayerNorm::LayerNorm(index_t dim, bool fused, float eps)
    : dim_(dim), fused_(fused), eps_(eps) {
  gamma_ = add_parameter("gamma", Tensor::ones({dim}));
  beta_ = add_parameter("beta", Tensor::zeros({dim}));
}

Var LayerNorm::forward(const Var& x) const {
  FASTCHG_CHECK(x.value().dim() == 2 && x.size(1) == dim_,
                "LayerNorm(" << dim_ << "): input " << shape_str(x.shape()));
  return fused_ ? layernorm_fused(x, gamma_, beta_, eps_)
                : layernorm_composite(x, gamma_, beta_, eps_);
}

Var layernorm_composite(const Var& x, const Var& gamma, const Var& beta,
                        float eps) {
  Var mu = mean_dim(x, 1, /*keepdim=*/true);              // [N,1]
  Var xc = sub(x, mu);                                    // [N,C]
  Var var = mean_dim(square(xc), 1, /*keepdim=*/true);    // [N,1]
  Var rstd = reciprocal(sqrt_op(add_scalar(var, eps)));   // [N,1]
  Var xhat = mul(xc, rstd);                               // [N,C]
  return add(mul(xhat, gamma), beta);
}

Var layernorm_fused(const Var& x, const Var& gamma, const Var& beta,
                    float eps) {
  perf::count_kernel("fused_layernorm");
  const Tensor& xv = x.value();
  const index_t rows = xv.size(0), cols = xv.size(1);
  Tensor out = Tensor::empty({rows, cols});
  layernorm_loop(rows, cols, eps, xv.data(), gamma.value().data(),
                 beta.value().data(), out.data());
  // Backward recomputes the normalization with primitive ops so the gradient
  // is itself differentiable (double backward path).
  return make_op_node(
      "fused_layernorm", std::move(out), {x, gamma, beta},
      [x, gamma, beta, eps](const Var& g) -> std::vector<ag::Var> {
        return layernorm_backward_ops(x, gamma, beta, eps, g);
      });
}

std::vector<Var> layernorm_backward_ops(const Var& x, const Var& gamma,
                                        const Var& beta, float eps,
                                        const Var& g) {
  Var mu = mean_dim(x, 1, true);
  Var xc = sub(x, mu);
  Var var = mean_dim(square(xc), 1, true);
  Var rstd = reciprocal(sqrt_op(add_scalar(var, eps)));
  Var xhat = mul(xc, rstd);
  Var gxhat = mul(g, gamma);                     // [N,C]
  Var m1 = mean_dim(gxhat, 1, true);             // [N,1]
  Var m2 = mean_dim(mul(gxhat, xhat), 1, true);  // [N,1]
  Var gx = mul(rstd, sub(sub(gxhat, m1), mul(xhat, m2)));
  Var ggamma = reshape(sum_dim(mul(g, xhat), 0, true), gamma.shape());
  Var gbeta = reshape(sum_dim(g, 0, true), beta.shape());
  return {gx, ggamma, gbeta};
}

}  // namespace fastchg::nn
