#include "fastchgnet/heads.hpp"

#include <cmath>

#include "autograd/ops.hpp"
#include "perf/trace.hpp"

namespace fastchg::model {

using namespace ag::ops;

namespace {
/// Outer-product-of-normalized-lattice-rows loop.
void lattice_outer_loop(const float* l, float* po) {
  float nrm[3];
  for (int i = 0; i < 3; ++i) {
    nrm[i] = std::sqrt(l[i * 3] * l[i * 3] + l[i * 3 + 1] * l[i * 3 + 1] +
                       l[i * 3 + 2] * l[i * 3 + 2]);
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double acc = 0.0;
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          // (sum_ab lhat_a (x) lhat_b)_{ij} = sum_ab lhat_a[i]*lhat_b[j]
          acc += (l[a * 3 + i] / nrm[a]) * (l[b * 3 + j] / nrm[b]);
        }
      }
      po[i * 3 + j] = static_cast<float>(acc);
    }
  }
}
}  // namespace

ForceHead::ForceHead(const ModelConfig& cfg, Rng& rng)
    : fc1_(cfg.feat_dim, cfg.feat_dim, rng), fc2_(cfg.feat_dim, 1, rng) {
  add_child("fc1", &fc1_);
  add_child("fc2", &fc2_);
}

Var ForceHead::forward(const Var& bond_feat, const Var& rij, const Var& rlen,
                       const std::vector<index_t>& edge_src,
                       index_t num_atoms) const {
  perf::TraceSpan span("readout.force_head", "model");
  Var n = fc2_.forward(silu(fc1_.forward(bond_feat)));  // [E,1]
  Var dir = div(rij, rlen);                             // unit bond vectors
  Var per_edge = mul(n, dir);                           // [E,3] col-broadcast
  return index_add0(num_atoms, edge_src, per_edge);     // [A,3]
}

StressHead::StressHead(const ModelConfig& cfg, Rng& rng)
    : fc1_(cfg.feat_dim, cfg.feat_dim, rng), fc2_(cfg.feat_dim, 9, rng) {
  add_child("fc1", &fc1_);
  add_child("fc2", &fc2_);
  scale_ = add_parameter("scale", Tensor::scalar(0.1f));
}

Tensor StressHead::lattice_outer(const Tensor& lattice) {
  FASTCHG_CHECK(same_shape(lattice.shape(), {3, 3}),
                "lattice_outer: " << shape_str(lattice.shape()));
  Tensor out = Tensor::empty({1, 9});
  lattice_outer_loop(lattice.data(), out.data());
  return out;
}

Var StressHead::forward(const Var& atom_feat,
                        const data::Batch& batch) const {
  perf::TraceSpan span("readout.stress_head", "model");
  Var coeff = fc2_.forward(silu(fc1_.forward(atom_feat)));  // [A,9]
  // Per-structure lattice outer-product matrices, gathered per atom.
  std::vector<Var> outers;
  outers.reserve(batch.lattices.size());
  for (const Tensor& lat : batch.lattices) {
    outers.push_back(constant(lattice_outer(lat)));
  }
  Var outer_all = cat(outers, 0);                              // [S,9]
  Var outer_atom = index_select0(outer_all, batch.atom_struct);  // [A,9]
  Var contrib = mul(coeff, outer_atom);
  Var per_struct =
      index_add0(batch.num_structs, batch.atom_struct, contrib);  // [S,9]
  return mul(per_struct, scale_);
}

}  // namespace fastchg::model
