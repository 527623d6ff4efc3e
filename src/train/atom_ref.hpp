// AtomRef: per-species reference energies fitted by (ridge) least squares
// on the training set, exactly like CHGNet's composition model.  The GNN
// then only has to learn the bonding residual, which is what makes training
// converge in a reasonable number of steps.
//
// Model: E_s / N_s  ~=  sum_z f_{s,z} * e0_z, where f_{s,z} is the fraction
// of atoms of species z in structure s.
#pragma once

#include <vector>

#include "data/dataset.hpp"

namespace fastchg::train {

/// Fit reference energies over the given dataset rows.  Returns a
/// [num_species + 1]-sized vector indexed by atomic number (index 0 unused).
/// `ridge` regularizes species that occur rarely.  Rows whose energy label
/// is NaN/Inf are left out of the fit.
std::vector<float> fit_atom_ref(const data::Dataset& ds,
                                const std::vector<index_t>& rows,
                                index_t num_species, double ridge = 1e-3);

/// Dense symmetric-system solver (Gaussian elimination with partial
/// pivoting); exposed for tests.
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b,
                                std::size_t n);

}  // namespace fastchg::train
