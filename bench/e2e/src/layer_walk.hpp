// Outside-in per-layer attribution of the model.
//
// The walk rebuilds CHGNet's public submodules from the same ModelConfig
// and seed (consuming the init RNG in CHGNet's constructor order, so the
// weights are identical) and runs them in CHGNet::forward's order.  Each
// layer call is timed with a perf::TraceSpan and its kernel count is the
// perf::counters() delta around the call.  A layer's backward is timed by
// re-running the layer on its inputs detached into fresh leaves (keeping
// each input's requires_grad, so exactly the gradients the model would
// compute flow) and back-propagating a fixed random projection of its
// outputs.  Nothing inside the library is instrumented.
//
// The walk covers the FastCHGNet configuration (batched basis, decoupled
// force/stress heads): the only one the benchmark measures.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chgnet/model.hpp"

namespace fastchg::e2e {

/// One layer's cost in one pass of the walk.
struct LayerCost {
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
  double kernels = 0.0;      ///< forward kernel launches
  double bwd_kernels = 0.0;  ///< backward kernel launches
  /// Outputs joined by the random projection (0 when a single output's
  /// projection is the backward seed); each adds a few backward kernels.
  int projected = 0;
};

class LayerWalk {
 public:
  LayerWalk(const model::ModelConfig& cfg, std::uint64_t seed);
  ~LayerWalk();
  LayerWalk(const LayerWalk&) = delete;
  LayerWalk& operator=(const LayerWalk&) = delete;

  /// The walk's forward (training mode, no atom reference), layer by
  /// layer; equals CHGNet(cfg, seed).forward(b, kTrain).
  model::ModelOutput forward(const data::Batch& b) const;

  /// Time every layer's forward and backward once on `b` (which must carry
  /// labels for the loss layer), keyed by walk_layers() names.  Enables the
  /// span tracer for the duration.
  std::map<std::string, LayerCost> profile(const data::Batch& b) const;

 private:
  struct Modules;
  struct Acts;
  /// One forward through every layer; appends each layer's kernel count
  /// to `kernels` when given.
  Acts run(const data::Batch& b, std::vector<double>* kernels) const;

  std::unique_ptr<Modules> m_;
};

/// Largest elementwise |a - b| over energy, forces, stress and magmom.
double max_abs_diff(const model::ModelOutput& a, const model::ModelOutput& b);

}  // namespace fastchg::e2e
