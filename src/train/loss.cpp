#include "train/loss.hpp"

#include "autograd/ops.hpp"

namespace fastchg::train {

using namespace ag::ops;

namespace {
void huber_mask_loop(index_t n, float delta, const float* p, float* m) {
  for (index_t i = 0; i < n; ++i) {
    m[i] = p[i] <= delta ? 1.0f : 0.0f;
  }
}
}  // namespace

Var huber(const Var& pred, const Var& target, float delta) {
  Var d = sub(pred, target);
  Var ad = abs_op(d);
  // Branch mask as a constant (standard subgradient treatment); no kernel
  // launch is counted for it.
  Tensor mask_t = Tensor::empty(ad.shape());
  const index_t n = ad.numel();
  huber_mask_loop(n, delta, ad.value().data(), mask_t.data());
  Var mask = constant(std::move(mask_t));
  Var quad = mul_scalar(square(d), 0.5f);
  Var lin = mul_scalar(add_scalar(ad, -0.5f * delta), delta);
  Var loss = add(mul(mask, quad), mul(sub(ones_like(mask), mask), lin));
  return mean_all(loss);
}

LossResult chgnet_loss(const model::ModelOutput& out, const data::Batch& b) {
  constexpr LossWeights w;
  constexpr float delta = kHuberDelta;
  Var le = huber(out.energy_per_atom, constant(b.energy_per_atom), delta);
  Var lf = huber(out.forces, constant(b.forces), delta);
  Var ls = huber(out.stress, constant(b.stress), delta);
  Var lm = huber(out.magmom, constant(b.magmom), delta);
  LossResult r;
  r.energy = le.item();
  r.force = lf.item();
  r.stress = ls.item();
  r.magmom = lm.item();
  r.total = add(add(mul_scalar(le, w.energy), mul_scalar(lf, w.force)),
                add(mul_scalar(ls, w.stress), mul_scalar(lm, w.magmom)));
  return r;
}

}  // namespace fastchg::train
