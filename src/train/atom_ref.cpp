#include "train/atom_ref.hpp"

#include <cmath>

#include "core/error.hpp"

namespace fastchg::train {

std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b,
                                std::size_t n) {
  FASTCHG_CHECK(a.size() == n * n && b.size() == n, "solve_dense: sizes");
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) {
        pivot = r;
      }
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    FASTCHG_CHECK(std::fabs(a[col * n + col]) > 1e-30,
                  "solve_dense: singular matrix at column " << col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t r = n; r-- > 0;) {
    double acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= a[r * n + c] * x[c];
    x[r] = acc / a[r * n + r];
  }
  return x;
}

std::vector<float> fit_atom_ref(const data::Dataset& ds,
                                const std::vector<index_t>& rows,
                                index_t num_species, double ridge) {
  const auto ns = static_cast<std::size_t>(num_species + 1);
  std::vector<double> xtx(ns * ns, 0.0);
  std::vector<double> xty(ns, 0.0);
  std::vector<double> frac(ns, 0.0);
  for (index_t row : rows) {
    const data::Crystal& c = ds[row].crystal;
    // A NaN/Inf label would poison every species the normal equations
    // couple it to.
    if (!std::isfinite(c.energy)) continue;
    std::fill(frac.begin(), frac.end(), 0.0);
    const double inv_n = 1.0 / static_cast<double>(c.natoms());
    for (index_t z : c.species) {
      FASTCHG_CHECK(z >= 1 && z <= num_species,
                    "fit_atom_ref: species " << z << " out of range");
      frac[static_cast<std::size_t>(z)] += inv_n;
    }
    const double target = c.energy * inv_n;
    for (std::size_t i = 0; i < ns; ++i) {
      if (frac[i] == 0.0) continue;
      xty[i] += frac[i] * target;
      for (std::size_t j = 0; j < ns; ++j) {
        if (frac[j] != 0.0) xtx[i * ns + j] += frac[i] * frac[j];
      }
    }
  }
  for (std::size_t i = 0; i < ns; ++i) xtx[i * ns + i] += ridge;
  const std::vector<double> e0 = solve_dense(std::move(xtx), std::move(xty), ns);
  std::vector<float> out(ns, 0.0f);
  for (std::size_t i = 0; i < ns; ++i) out[i] = static_cast<float>(e0[i]);
  return out;
}

}  // namespace fastchg::train
