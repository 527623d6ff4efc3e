// CHGNet training loss: Huber loss over energy / force / stress / magmom
// with per-property prefactors.  The recipe is CHGNet's and fixed, not a
// setting: prefactors 2 / 1.5 / 0.1 / 0.1, Huber delta 0.1.
#pragma once

#include "chgnet/model.hpp"
#include "data/batch.hpp"

namespace fastchg::train {

using ag::Var;

/// The loss prefactors (also weight the validation score of early stopping).
struct LossWeights {
  float energy = 2.0f;
  float force = 1.5f;
  float stress = 0.1f;
  float magmom = 0.1f;
};

inline constexpr float kHuberDelta = 0.1f;

/// Elementwise Huber loss, mean-reduced:
///   0.5 d^2            for |d| <= delta
///   delta(|d| - delta/2) otherwise
Var huber(const Var& pred, const Var& target, float delta);

struct LossResult {
  Var total;        ///< weighted sum (scalar, graph-bearing)
  double energy;    ///< unweighted per-property values (detached)
  double force;
  double stress;
  double magmom;
};

LossResult chgnet_loss(const model::ModelOutput& out, const data::Batch& b);

}  // namespace fastchg::train
