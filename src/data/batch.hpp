// Graph batching: concatenate a set of samples into one disjoint-union graph
// with atom/edge index offsets, plus label tensors and the auxiliary
// matrices that Alg. 2's batched ("parallel") basis computation needs.
//
// The block-diagonal image matrix B_I [E, 3S] is materialized densely, just
// as the paper describes -- it notes the zero padding "leads to increased
// memory demands" (Fig. 8c), which our memory tracker reproduces.
#pragma once

#include <vector>

#include "data/dataset.hpp"

namespace fastchg::data {

struct Batch {
  index_t num_structs = 0;
  index_t num_atoms = 0;
  index_t num_edges = 0;
  index_t num_angles = 0;

  std::vector<index_t> species;       ///< [A], atomic numbers
  Tensor cart;                        ///< [A,3] cartesian positions
  std::vector<Tensor> lattices;       ///< S tensors [3,3]
  std::vector<double> volumes;        ///< [S]
  std::vector<index_t> natoms;        ///< [S]

  std::vector<index_t> edge_src;      ///< [E], atom-offset adjusted
  std::vector<index_t> edge_dst;      ///< [E]
  Tensor edge_image;                  ///< [E,3] integer images
  Tensor image_blockdiag;             ///< [E,3S] dense block-diagonal (Alg. 2)
  std::vector<index_t> edge_struct;   ///< [E] owning structure

  std::vector<index_t> angle_e1;      ///< [G], edge-offset adjusted
  std::vector<index_t> angle_e2;      ///< [G]
  std::vector<index_t> angle_center;  ///< [G], central atom (atom-offset adjusted)
  std::vector<index_t> atom_struct;   ///< [A]

  // Per-structure ranges for the serial (Alg. 1) path.
  std::vector<index_t> atom_first;    ///< [S+1]
  std::vector<index_t> edge_first;    ///< [S+1]
  std::vector<index_t> angle_first;   ///< [S+1]

  // Labels (undefined when collated with with_labels = false).
  Tensor energy_per_atom;             ///< [S,1], eV/atom
  Tensor forces;                      ///< [A,3], eV/A
  Tensor stress;                      ///< [S,9], eV/A^3 row-major
  Tensor magmom;                      ///< [A,1], mu_B

  index_t feature_number() const {
    return num_atoms + num_edges + num_angles;
  }
};

/// Collate samples (non-owning pointers must outlive the call).  The serving
/// path collates with `with_labels = false`: inference batches never read
/// the label tensors, so skipping them avoids allocating and filling
/// A*(3+1) + S*10 floats per micro-batch (the label tensors stay undefined).
Batch collate(const std::vector<const Sample*>& samples,
              bool with_labels = true);

/// Convenience: collate dataset rows by index.
Batch collate_indices(const Dataset& ds, const std::vector<index_t>& idx);

}  // namespace fastchg::data
