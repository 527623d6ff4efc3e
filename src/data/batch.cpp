#include "data/batch.hpp"

#include "core/error.hpp"

namespace fastchg::data {

Batch collate(const std::vector<const Sample*>& samples,
              bool with_labels) {
  FASTCHG_CHECK(!samples.empty(), "collate: empty batch");
  Batch b;
  b.num_structs = static_cast<index_t>(samples.size());
  for (const Sample* s : samples) {
    b.num_atoms += s->graph.num_atoms;
    b.num_edges += s->graph.num_edges();
    b.num_angles += s->graph.num_angles();
  }
  const index_t A = b.num_atoms, E = b.num_edges, S = b.num_structs;

  // Dense per-atom/per-edge/per-struct tensors come from the current
  // allocator up front and fill in batch order through write cursors, so
  // collate's pool traffic never depends on where malloc put a staging
  // buffer.  image_blockdiag's writes scatter into a zero background.
  b.cart = Tensor::empty({A, 3});
  b.edge_image = Tensor::empty({E, 3});
  float* cart_w = b.cart.data();
  float* image_w = b.edge_image.data();
  float* forces_w = nullptr;
  float* magmom_w = nullptr;
  float* energy_w = nullptr;
  float* stress_w = nullptr;
  if (with_labels) {
    b.energy_per_atom = Tensor::empty({S, 1});
    b.forces = Tensor::empty({A, 3});
    b.stress = Tensor::empty({S, 9});
    b.magmom = Tensor::empty({A, 1});
    energy_w = b.energy_per_atom.data();
    forces_w = b.forces.data();
    stress_w = b.stress.data();
    magmom_w = b.magmom.data();
  }
  b.image_blockdiag = Tensor::zeros({E, 3 * S});

  b.species.reserve(static_cast<std::size_t>(A));
  b.edge_src.reserve(static_cast<std::size_t>(E));
  b.edge_dst.reserve(static_cast<std::size_t>(E));
  b.edge_struct.reserve(static_cast<std::size_t>(E));
  b.atom_struct.reserve(static_cast<std::size_t>(A));

  b.atom_first.push_back(0);
  b.edge_first.push_back(0);
  b.angle_first.push_back(0);

  index_t atom_off = 0, edge_off = 0;
  index_t si = 0;
  for (const Sample* sp : samples) {
    const Crystal& c = sp->crystal;
    const GraphData& g = sp->graph;
    const index_t n = g.num_atoms;
    const index_t ne = g.num_edges();

    Tensor lat = Tensor::empty({3, 3});
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j)
        lat.data()[i * 3 + j] = static_cast<float>(c.lattice[i][j]);
    b.lattices.push_back(lat);
    b.volumes.push_back(c.volume());
    b.natoms.push_back(n);

    const std::vector<Vec3> cart = c.wrapped_cart();
    // Unlabelled crystals (e.g. MD snapshots) carry empty label vectors;
    // collate fills zeros so inference batches work too.
    const bool has_forces = with_labels && c.forces.size() == c.frac.size();
    const bool has_magmom = with_labels && c.magmom.size() == c.frac.size();
    for (index_t i = 0; i < n; ++i) {
      const auto siz = static_cast<std::size_t>(i);
      for (int d = 0; d < 3; ++d) {
        *cart_w++ = static_cast<float>(cart[siz][d]);
        if (with_labels) {
          *forces_w++ =
              has_forces ? static_cast<float>(c.forces[siz][d]) : 0.0f;
        }
      }
      b.species.push_back(c.species[siz]);
      b.atom_struct.push_back(si);
      if (with_labels) {
        *magmom_w++ = has_magmom ? static_cast<float>(c.magmom[siz]) : 0.0f;
      }
    }
    for (index_t e = 0; e < ne; ++e) {
      const auto se = static_cast<std::size_t>(e);
      b.edge_src.push_back(g.edge_src[se] + atom_off);
      b.edge_dst.push_back(g.edge_dst[se] + atom_off);
      b.edge_struct.push_back(si);
      for (int d = 0; d < 3; ++d) {
        const float img = static_cast<float>(g.edge_image[se][d]);
        *image_w++ = img;
        b.image_blockdiag.data()[(edge_off + e) * 3 * S + 3 * si + d] = img;
      }
    }
    for (std::size_t a = 0; a < g.angle_e1.size(); ++a) {
      b.angle_e1.push_back(g.angle_e1[a] + edge_off);
      b.angle_e2.push_back(g.angle_e2[a] + edge_off);
      b.angle_center.push_back(
          g.edge_src[static_cast<std::size_t>(g.angle_e1[a])] + atom_off);
    }

    if (with_labels) {
      *energy_w++ = static_cast<float>(c.energy / static_cast<double>(n));
      for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
          *stress_w++ = static_cast<float>(c.stress[i][j]);
    }

    atom_off += n;
    edge_off += ne;
    ++si;
    b.atom_first.push_back(atom_off);
    b.edge_first.push_back(edge_off);
    b.angle_first.push_back(static_cast<index_t>(b.angle_e1.size()));
  }
  return b;
}

Batch collate_indices(const Dataset& ds, const std::vector<index_t>& idx) {
  std::vector<const Sample*> samples;
  samples.reserve(idx.size());
  for (index_t i : idx) samples.push_back(&ds[i]);
  return collate(samples);
}

}  // namespace fastchg::data
