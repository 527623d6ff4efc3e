// The serving layer's reply type, shared by the engine and the
// micro-batcher.  Lives in its own dependency-light header so the batching
// layer can be used (and tested) without linking the full admission-control
// engine.
#pragma once

#include <vector>

#include "data/crystal.hpp"

namespace fastchg::serve {

/// One successful reply.
struct Prediction {
  double energy = 0.0;             ///< total eV
  std::vector<data::Vec3> forces;  ///< eV/A, [N]
  data::Mat3 stress{};             ///< eV/A^3
  std::vector<double> magmom;      ///< mu_B, [N]
  int retries = 0;                 ///< transient-fault retries spent
  double latency_ms = 0.0;  ///< measured + simulated (backoff, stragglers)
};

}  // namespace fastchg::serve
