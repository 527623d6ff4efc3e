#include "basis/rbf.hpp"

#include <cmath>

#include "autograd/ops.hpp"
#include "ops/basis.hpp"
#include "perf/counters.hpp"
#include "perf/trace.hpp"

namespace fastchg::basis {

using namespace ag::ops;
using ag::make_op_node;

namespace {
/// Fused sRBF forward loop.
void srbf_loop(index_t e, index_t nb, float rc, float c, int p,
               const float* pr, const float* pf, float* po) {
  // Dispatched: scalar tier is this function's old body verbatim; the AVX2
  // tier evaluates sin() with the Cephes polynomial (tolerance-gated class).
  // envelope_value lives in fastchg_model (above fastchg_core in the layer
  // stack), so it crosses into ops::basis as a plain function pointer.
  ::fastchg::ops::basis::srbf(e, nb, rc, c, p, &envelope_value, pr, pf, po);
}
}  // namespace

RadialBasis::RadialBasis(index_t num_basis, double cutoff, int p, bool fused,
                         bool factored_envelope)
    : nb_(num_basis),
      cutoff_(cutoff),
      p_(p),
      fused_(fused),
      factored_(factored_envelope) {
  Tensor freq = Tensor::empty({num_basis});
  for (index_t n = 0; n < num_basis; ++n) {
    freq.data()[n] = static_cast<float>(M_PI) * static_cast<float>(n + 1);
  }
  freq_ = add_parameter("freq", std::move(freq));
}

Var RadialBasis::forward(const Var& r) const {
  FASTCHG_CHECK(r.value().dim() == 2 && r.size(1) == 1,
                "RadialBasis: r must be [E,1], got " << shape_str(r.shape()));
  perf::TraceSpan span("basis.rbf", "basis");
  return fused_ ? forward_fused(r) : forward_reference(r);
}

Var RadialBasis::forward_reference(const Var& r) const {
  const float inv_rc = 1.0f / static_cast<float>(cutoff_);
  const float c = std::sqrt(2.0f / static_cast<float>(cutoff_));
  const index_t e = r.size(0);
  Var x = mul_scalar(r, inv_rc);                      // [E,1]
  Var u = factored_ ? envelope_factored(x, p_) : envelope_naive(x, p_);
  Var xb = broadcast_to(x, {e, nb_});                 // [E,B]
  Var arg = mul(xb, freq_);                           // row broadcast
  Var s = sin_op(arg);                                // [E,B]
  Var out = mul_scalar(mul(div(s, r), u), c);         // col broadcasts
  return out;
}

Var RadialBasis::forward_fused(const Var& r) const {
  perf::count_kernel("fused_srbf");
  const index_t e = r.size(0);
  const float rc = static_cast<float>(cutoff_);
  const float c = std::sqrt(2.0f / rc);
  Tensor out = Tensor::empty({e, nb_});
  srbf_loop(e, nb_, rc, c, p_, r.value().data(), freq_.value().data(),
            out.data());
  const index_t nb = nb_;
  const int p = p_;
  Var rr = r;
  Var freq = freq_;
  const double cutoff = cutoff_;
  return make_op_node(
      "fused_srbf", std::move(out), {r, freq_},
      [rr, freq, nb, p, cutoff](const Var& g) -> std::vector<Var> {
        const float rc = static_cast<float>(cutoff);
        const float c = std::sqrt(2.0f / rc);
        const index_t e = rr.size(0);
        Var x = mul_scalar(rr, 1.0f / rc);                 // [E,1]
        Var u = envelope_factored(x, p);                   // [E,1]
        Var du = mul_scalar(envelope_deriv_ops(x, p), 1.0f / rc);  // du/dr
        Var xb = broadcast_to(x, {e, nb});
        Var arg = mul(xb, freq);                           // [E,B]
        Var sarg = sin_op(arg);
        Var carg = cos_op(arg);
        Var inv_r = reciprocal(rr);                        // [E,1]
        // d out / d r = c * [ freq/rc * cos(arg) * u/r
        //                     + sin(arg) * (du/dr / r - u / r^2) ]
        Var term1 = mul(mul(carg, freq),
                        mul_scalar(mul(u, inv_r), 1.0f / rc));
        Var term2 = mul(sarg, mul(sub(du, mul(u, inv_r)), inv_r));
        Var dr = mul_scalar(add(term1, term2), c);         // [E,B]
        Var g_r = sum_dim(mul(g, dr), 1, /*keepdim=*/true);  // [E,1]
        // d out / d freq_n = c * x * cos(arg) * u / r
        Var dfreq = mul(mul(carg, broadcast_to(mul_scalar(mul(x, inv_r), c),
                                               {e, nb})),
                        broadcast_to(u, {e, nb}));
        Var g_freq = reshape(sum_dim(mul(g, dfreq), 0, true), freq.shape());
        return {g_r, g_freq};
      });
}

}  // namespace fastchg::basis
