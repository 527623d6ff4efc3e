#include "nn/gated_mlp.hpp"

#include <cmath>

#include "autograd/ops.hpp"
#include "ops/rownorm.hpp"
#include "perf/counters.hpp"
#include "perf/trace.hpp"

namespace fastchg::nn {

using namespace ag::ops;
using ag::make_op_node;

namespace {
constexpr float kLnEps = 1e-5f;

/// Fused gated-activation forward loop.
void gated_act_loop(index_t rows, index_t c, float eps, const float* pp,
                    const float* gc, const float* bc, const float* gg,
                    const float* bg, float* po) {
  // Dispatched: scalar tier is this function's old body verbatim; the AVX2
  // tier vectorizes both half-row layernorms and the sigmoid/silu gate
  // (tolerance-gated class: reassociated reductions + polynomial exp).
  ::fastchg::ops::rownorm::gated_act(rows, c, eps, pp, gc, bc, gg, bg, po);
}

/// First-order backward of gated_act_fused as one kernel: recomputes both
/// layernorms from `packed` and returns {d_packed, d_gamma_c, d_beta_c,
/// d_gamma_g, d_beta_g} as constants.
std::vector<Var> gated_act_backward_first_order(
    const Tensor& pv, const Tensor& gc, const Tensor& bc, const Tensor& gg,
    const Tensor& bg, const Tensor& dy, float eps) {
  perf::count_kernel("fused_gated_act_backward");
  const index_t rows = pv.size(0);
  const index_t c = pv.size(1) / 2;
  Tensor dx = Tensor::empty(pv.shape());
  Tensor dgc = Tensor::empty(gc.shape());
  Tensor dbc = Tensor::empty(bc.shape());
  Tensor dgg = Tensor::empty(gg.shape());
  Tensor dbg = Tensor::empty(bg.shape());
  ::fastchg::ops::rownorm::gated_act_backward(
      rows, c, eps, pv.data(), gc.data(), bc.data(), gg.data(), bg.data(),
      dy.data(), dx.data(), dgc.data(), dbc.data(), dgg.data(), dbg.data());
  return {constant(std::move(dx)), constant(std::move(dgc)),
          constant(std::move(dbc)), constant(std::move(dgg)),
          constant(std::move(dbg))};
}
}  // namespace

GatedMLP::GatedMLP(index_t in, index_t out, Rng& rng, bool fused)
    : in_(in),
      out_(out),
      fused_(fused),
      core_fc_(in, out, rng),
      gate_fc_(in, out, rng),
      core_ln_(out),
      gate_ln_(out) {
  add_child("core_fc", &core_fc_);
  add_child("gate_fc", &gate_fc_);
  add_child("core_ln", &core_ln_);
  add_child("gate_ln", &gate_ln_);
}

Var GatedMLP::forward(const Var& x) const {
  perf::TraceSpan span("nn.gated_mlp", "nn");
  return fused_ ? forward_fused(x) : forward_reference(x);
}

Var GatedMLP::forward_reference(const Var& x) const {
  Var core = silu(core_ln_.forward(core_fc_.forward(x)));
  Var gate = sigmoid(gate_ln_.forward(gate_fc_.forward(x)));
  return mul(gate, core);
}

Var GatedMLP::forward_fused(const Var& x) const {
  // Weight concatenation (Fig. 3a): one [in, 2C] GEMM instead of two.
  Var w = cat({core_fc_.weight(), gate_fc_.weight()}, 1);
  Var b = cat({core_fc_.bias(), gate_fc_.bias()}, 0);
  Var packed = add(matmul(x, w), b);
  return gated_act_fused(packed, core_ln_.gamma(), core_ln_.beta(),
                         gate_ln_.gamma(), gate_ln_.beta(), kLnEps);
}

Var gated_act_fused(const Var& packed, const Var& gamma_c, const Var& beta_c,
                    const Var& gamma_g, const Var& beta_g, float eps) {
  perf::count_kernel("fused_gated_act");
  const Tensor& pv = packed.value();
  FASTCHG_CHECK(pv.dim() == 2 && pv.size(1) % 2 == 0,
                "gated_act_fused: packed shape " << shape_str(pv.shape()));
  const index_t rows = pv.size(0);
  const index_t c = pv.size(1) / 2;
  Tensor out = Tensor::empty({rows, c});
  gated_act_loop(rows, c, eps, pv.data(), gamma_c.value().data(),
                 beta_c.value().data(), gamma_g.value().data(),
                 beta_g.value().data(), out.data());
  return make_op_node(
      "fused_gated_act", std::move(out),
      {packed, gamma_c, beta_c, gamma_g, beta_g},
      [packed, gamma_c, beta_c, gamma_g, beta_g,
       eps](const Var& g) -> std::vector<Var> {
        if (!ag::grad_enabled()) {
          return gated_act_backward_first_order(
              packed.value(), gamma_c.value(), beta_c.value(),
              gamma_g.value(), beta_g.value(), g.value(), eps);
        }
        const index_t cc = packed.size(1) / 2;
        // LN forward pieces computed once per half and shared between the
        // activation-grad chain and the LN backward formula (keeps the
        // op-composed backward cheap while staying double-differentiable).
        struct LnPieces {
          Var rstd, xhat, out;
        };
        auto ln = [eps](const Var& xpart, const Var& gamma,
                        const Var& beta) -> LnPieces {
          Var mu = mean_dim(xpart, 1, true);
          Var xc = sub(xpart, mu);
          Var var = mean_dim(square(xc), 1, true);
          Var rstd = reciprocal(sqrt_op(add_scalar(var, eps)));
          Var xhat = mul(xc, rstd);
          return {rstd, xhat, add(mul(xhat, gamma), beta)};
        };
        auto ln_backward = [](const LnPieces& p, const Var& gamma,
                              const Var& d_out) -> std::vector<Var> {
          Var gxhat = mul(d_out, gamma);
          Var m1 = mean_dim(gxhat, 1, true);
          Var m2 = mean_dim(mul(gxhat, p.xhat), 1, true);
          Var gx = mul(p.rstd, sub(sub(gxhat, m1), mul(p.xhat, m2)));
          Var ggamma = reshape(sum_dim(mul(d_out, p.xhat), 0, true),
                               gamma.shape());
          Var gbeta = reshape(sum_dim(d_out, 0, true), gamma.shape());
          return {gx, ggamma, gbeta};
        };
        Var core = narrow(packed, 1, 0, cc);
        Var gate = narrow(packed, 1, cc, cc);
        LnPieces pc = ln(core, gamma_c, beta_c);
        LnPieces pg = ln(gate, gamma_g, beta_g);
        Var cn = pc.out;
        Var gn = pg.out;
        Var s = sigmoid(cn);
        Var a = sigmoid(gn);
        Var b = mul(cn, s);  // silu(cn)
        Var g_a = mul(g, b);
        Var g_b = mul(g, a);
        // d silu / d cn = s + cn*s*(1-s);  d sigmoid / d gn = a*(1-a)
        Var d_cn = mul(g_b, add(s, mul(mul(cn, s), add_scalar(neg(s), 1.0f))));
        Var d_gn = mul(g_a, mul(a, add_scalar(neg(a), 1.0f)));
        auto core_grads = ln_backward(pc, gamma_c, d_cn);
        auto gate_grads = ln_backward(pg, gamma_g, d_gn);
        Var gpacked = cat({core_grads[0], gate_grads[0]}, 1);
        return {gpacked, core_grads[1], core_grads[2], gate_grads[1],
                gate_grads[2]};
      });
}

}  // namespace fastchg::nn
