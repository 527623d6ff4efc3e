// Differential suite for the SIMD op library (src/ops/, docs/ops.md).
//
// The three tiered families -- GEMM, the sRBF/Fourier basis and the fused
// row normalizations -- are compared scalar-vs-AVX2 over odd extents
// (singletons, primes and 8k +/- 1 vector tails).  All three
// are tolerance-gated: GEMM contracts with FMA, basis sin/cos and rownorm
// exp use polynomial transcendentals, and rownorm reassociates its
// mean/var.  Their per-op bounds are pinned here.  Element-wise, gather,
// scatter and reduce ops have a single implementation and are checked
// against in-order reference loops in tests/test_ops_sweep.cpp.
//
// All inputs come from a seeded RNG; the seed is logged so a failure
// reproduces exactly.  AVX2 comparisons skip (not pass) on hosts or builds
// without AVX2+FMA.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "ops/basis.hpp"
#include "ops/dispatch.hpp"
#include "ops/gemm.hpp"
#include "ops/rownorm.hpp"

namespace fastchg::ops {
namespace {

using index_t = std::int64_t;

constexpr unsigned kSeed = 20260808u;

std::vector<float> random_vec(std::mt19937& rng, index_t n, float lo = -4.0f,
                              float hi = 4.0f) {
  std::uniform_real_distribution<float> d(lo, hi);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = d(rng);
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

#define FASTCHG_REQUIRE_AVX2()                                      \
  do {                                                              \
    if (!avx2_supported()) {                                        \
      GTEST_SKIP() << "host/build has no AVX2+FMA; scalar only";    \
    }                                                               \
  } while (0)

class OpsDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    SCOPED_TRACE(::testing::Message() << "rng seed " << kSeed);
    rng_.seed(kSeed);
  }
  void TearDown() override { reset_simd_tier(); }
  std::mt19937 rng_;
};

// ---------------------------------------------------------------------------
// GEMM: tolerance-gated (FMA keeps k-order but skips intermediate rounding)

TEST_F(OpsDifferential, GemmToleranceGated) {
  FASTCHG_REQUIRE_AVX2();
  struct Dim {
    index_t m, k, n;
  };
  // Odd/prime extents exercise the 16-wide, 8-wide and scalar j-tails.
  const Dim dims[] = {{1, 1, 1},  {1, 7, 3},   {3, 13, 17}, {5, 64, 16},
                      {8, 31, 9}, {17, 97, 33}, {2, 8, 1000}};
  for (const Dim& d : dims) {
    auto a = random_vec(rng_, d.m * d.k, -1.0f, 1.0f);
    auto b = random_vec(rng_, d.k * d.n, -1.0f, 1.0f);
    std::vector<float> os(static_cast<std::size_t>(d.m * d.n)),
        ov(static_cast<std::size_t>(d.m * d.n));
    gemm::scalar::matmul(d.m, d.k, d.n, a.data(), b.data(), os.data());
    gemm::avx2::matmul(d.m, d.k, d.n, a.data(), b.data(), ov.data());
    const float tol = 1e-5f * static_cast<float>(d.k);
    for (std::size_t i = 0; i < os.size(); ++i) {
      ASSERT_NEAR(os[i], ov[i], tol)
          << "gemm " << d.m << "x" << d.k << "x" << d.n << " elem " << i
          << " (seed " << kSeed << ")";
    }
  }
}

TEST_F(OpsDifferential, GemmDispatchMatchesTier) {
  // Under a forced scalar tier the dispatching matmul must be bitwise the
  // reference kernel -- this is what FASTCHG_SIMD=scalar CI pins.
  set_simd_tier(Tier::kScalar);
  const index_t m = 7, k = 31, n = 13;
  auto a = random_vec(rng_, m * k);
  auto b = random_vec(rng_, k * n);
  std::vector<float> od(static_cast<std::size_t>(m * n)),
      os(static_cast<std::size_t>(m * n));
  gemm::matmul(m, k, n, a.data(), b.data(), od.data());
  gemm::scalar::matmul(m, k, n, a.data(), b.data(), os.data());
  EXPECT_TRUE(bitwise_equal(od, os));
}

/// Row-major transpose of a [rows, cols] matrix.
std::vector<float> transposed(const std::vector<float>& a, index_t rows,
                              index_t cols) {
  std::vector<float> t(a.size());
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      t[static_cast<std::size_t>(c * rows + r)] =
          a[static_cast<std::size_t>(r * cols + c)];
    }
  }
  return t;
}

TEST_F(OpsDifferential, GemmTnMatchesExplicitTransposeAtEachTier) {
  // matmul_tn(A, G) accumulates each output over the rows of A in order, as
  // matmul(A^T, G) does: bitwise equal at each tier, across row blocks
  // (m > kTnRowBlock, m > 1e4), odd output rows (the single-row tail) and
  // the 16/8/scalar column tails.
  struct Dim {
    index_t m, k, n;
  };
  const Dim dims[] = {{1, 1, 1},     {3, 7, 5},      {17, 13, 33},
                      {256, 9, 64},  {257, 32, 17},  {1000, 97, 40},
                      {10007, 5, 31}, {12289, 64, 64}};
  std::vector<Tier> tiers = {Tier::kScalar};
  if (avx2_supported()) tiers.push_back(Tier::kAvx2);
  for (const Dim& d : dims) {
    auto a = random_vec(rng_, d.m * d.k, -1.0f, 1.0f);
    auto g = random_vec(rng_, d.m * d.n, -1.0f, 1.0f);
    const auto at = transposed(a, d.m, d.k);
    std::vector<std::vector<float>> per_tier;
    for (Tier t : tiers) {
      set_simd_tier(t);
      std::vector<float> tn(static_cast<std::size_t>(d.k * d.n), -1.0f),
          ref(static_cast<std::size_t>(d.k * d.n));
      gemm::matmul_tn(d.m, d.k, d.n, a.data(), g.data(), tn.data());
      gemm::matmul(d.k, d.m, d.n, at.data(), g.data(), ref.data());
      EXPECT_TRUE(bitwise_equal(tn, ref))
          << tier_name(t) << " matmul_tn " << d.m << "x" << d.k << "x" << d.n
          << " (seed " << kSeed << ")";
      per_tier.push_back(std::move(tn));
    }
    if (per_tier.size() == 2) {
      const float tol = 1e-5f * static_cast<float>(d.m);
      for (std::size_t i = 0; i < per_tier[0].size(); ++i) {
        ASSERT_NEAR(per_tier[0][i], per_tier[1][i], tol)
            << "matmul_tn " << d.m << "x" << d.k << "x" << d.n << " elem "
            << i << " (seed " << kSeed << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Basis: tolerance-gated (Cephes polynomials vs libm)

double test_envelope(double xi, int p) {
  // Same shape as basis/envelope.hpp's smooth cutoff: 1 + a*x^p + b*x^(p+1)
  // + c*x^(p+2) with the standard smooth-cutoff coefficients.
  const double a = -(p + 1.0) * (p + 2.0) / 2.0;
  const double b = p * (p + 2.0);
  const double c = -p * (p + 1.0) / 2.0;
  const double xp = std::pow(xi, p);
  return 1.0 + a * xp + b * xp * xi + c * xp * xi * xi;
}

TEST_F(OpsDifferential, SrbfToleranceGated) {
  FASTCHG_REQUIRE_AVX2();
  for (index_t nb : {index_t{1}, index_t{7}, index_t{8}, index_t{9},
                     index_t{31}}) {
    const index_t e = 23;
    const float rc = 5.0f;
    const float c = std::sqrt(2.0f / rc);
    auto r = random_vec(rng_, e, 0.5f, 4.9f);
    std::vector<float> freq(static_cast<std::size_t>(nb));
    for (index_t i = 0; i < nb; ++i) {
      freq[static_cast<std::size_t>(i)] =
          static_cast<float>(M_PI) * static_cast<float>(i + 1);
    }
    std::vector<float> os(static_cast<std::size_t>(e * nb)),
        ov(static_cast<std::size_t>(e * nb));
    basis::scalar::srbf(e, nb, rc, c, 6, &test_envelope, r.data(), freq.data(),
                        os.data());
    basis::avx2::srbf(e, nb, rc, c, 6, &test_envelope, r.data(), freq.data(),
                      ov.data());
    for (std::size_t i = 0; i < os.size(); ++i) {
      ASSERT_NEAR(os[i], ov[i], 2e-6f)
          << "srbf nb=" << nb << " elem " << i << " (seed " << kSeed << ")";
    }
  }
}

TEST_F(OpsDifferential, FourierToleranceGated) {
  FASTCHG_REQUIRE_AVX2();
  const float c0 = 1.0f / std::sqrt(2.0f * static_cast<float>(M_PI));
  const float cinv = 1.0f / std::sqrt(static_cast<float>(M_PI));
  for (index_t order : {index_t{1}, index_t{3}, index_t{7}, index_t{9}}) {
    const index_t g = 41;
    auto t = random_vec(rng_, g, 0.0f, static_cast<float>(M_PI));
    const index_t nbw = 2 * order + 1;
    std::vector<float> os(static_cast<std::size_t>(g * nbw)),
        ov(static_cast<std::size_t>(g * nbw));
    basis::scalar::fourier(g, order, c0, cinv, t.data(), os.data());
    basis::avx2::fourier(g, order, c0, cinv, t.data(), ov.data());
    for (std::size_t i = 0; i < os.size(); ++i) {
      ASSERT_NEAR(os[i], ov[i], 2e-6f)
          << "fourier order=" << order << " elem " << i << " (seed " << kSeed
          << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Rownorm: tolerance-gated (reassociated mean/var, polynomial exp)

TEST_F(OpsDifferential, LayerNormToleranceGated) {
  FASTCHG_REQUIRE_AVX2();
  for (index_t cols : {index_t{1}, index_t{7}, index_t{16}, index_t{17},
                       index_t{97}}) {
    const index_t rows = 19;
    auto x = random_vec(rng_, rows * cols);
    auto g = random_vec(rng_, cols, 0.5f, 1.5f);
    auto b = random_vec(rng_, cols, -0.5f, 0.5f);
    std::vector<float> os(static_cast<std::size_t>(rows * cols)),
        ov(static_cast<std::size_t>(rows * cols));
    rownorm::scalar::layernorm(rows, cols, 1e-5f, x.data(), g.data(), b.data(),
                               os.data());
    rownorm::avx2::layernorm(rows, cols, 1e-5f, x.data(), g.data(), b.data(),
                             ov.data());
    for (std::size_t i = 0; i < os.size(); ++i) {
      ASSERT_NEAR(os[i], ov[i], 1e-5f)
          << "layernorm cols=" << cols << " elem " << i << " (seed " << kSeed
          << ")";
    }
  }
}

TEST_F(OpsDifferential, GatedActToleranceGated) {
  FASTCHG_REQUIRE_AVX2();
  for (index_t c : {index_t{1}, index_t{7}, index_t{16}, index_t{17},
                    index_t{64}}) {
    const index_t rows = 11;
    auto x = random_vec(rng_, rows * 2 * c);
    auto gc = random_vec(rng_, c, 0.5f, 1.5f);
    auto bc = random_vec(rng_, c, -0.5f, 0.5f);
    auto gg = random_vec(rng_, c, 0.5f, 1.5f);
    auto bg = random_vec(rng_, c, -0.5f, 0.5f);
    std::vector<float> os(static_cast<std::size_t>(rows * c)),
        ov(static_cast<std::size_t>(rows * c));
    rownorm::scalar::gated_act(rows, c, 1e-5f, x.data(), gc.data(), bc.data(),
                               gg.data(), bg.data(), os.data());
    rownorm::avx2::gated_act(rows, c, 1e-5f, x.data(), gc.data(), bc.data(),
                             gg.data(), bg.data(), ov.data());
    for (std::size_t i = 0; i < os.size(); ++i) {
      ASSERT_NEAR(os[i], ov[i], 1e-5f)
          << "gated_act c=" << c << " elem " << i << " (seed " << kSeed << ")";
    }
  }
}

TEST_F(OpsDifferential, GatedActBackwardToleranceGated) {
  // Scalar vs AVX2 first-order backward of the packed gated activation:
  // row counts straddle kGatedBwdChunk, widths the 8-lane tail.
  FASTCHG_REQUIRE_AVX2();
  for (index_t c : {index_t{1}, index_t{7}, index_t{16}, index_t{17},
                    index_t{64}}) {
    for (index_t rows : {index_t{1}, index_t{63}, index_t{65}, index_t{300}}) {
      auto x = random_vec(rng_, rows * 2 * c);
      auto dy = random_vec(rng_, rows * c, -1.0f, 1.0f);
      auto gc = random_vec(rng_, c, 0.5f, 1.5f);
      auto bc = random_vec(rng_, c, -0.5f, 0.5f);
      auto gg = random_vec(rng_, c, 0.5f, 1.5f);
      auto bg = random_vec(rng_, c, -0.5f, 0.5f);
      std::vector<float> out[2][5];
      for (int t = 0; t < 2; ++t) {
        auto& o = out[t];
        o[0].resize(static_cast<std::size_t>(rows * 2 * c));
        for (int q = 1; q < 5; ++q) o[q].resize(static_cast<std::size_t>(c));
        auto fn = t == 0 ? rownorm::scalar::gated_act_backward
                         : rownorm::avx2::gated_act_backward;
        fn(rows, c, 1e-5f, x.data(), gc.data(), bc.data(), gg.data(),
           bg.data(), dy.data(), o[0].data(), o[1].data(), o[2].data(),
           o[3].data(), o[4].data());
      }
      // Measured worst cases: 1.2e-7 for dx, 1.2e-6 for the parameter
      // gradients at 300 rows (each sums `rows` terms).
      const float ptol = 1e-6f * (1.0f + static_cast<float>(rows) / 64.0f);
      const float tols[5] = {1e-6f, ptol, ptol, ptol, ptol};
      for (int q = 0; q < 5; ++q) {
        for (std::size_t i = 0; i < out[0][q].size(); ++i) {
          ASSERT_NEAR(out[0][q][i], out[1][q][i], tols[q])
              << "gated_act_backward c=" << c << " rows=" << rows
              << " output " << q << " elem " << i << " (seed " << kSeed
              << ")";
        }
      }
    }
  }
}

TEST_F(OpsDifferential, GatedActBackwardMatchesFiniteDifferences) {
  // The scalar reference against central differences of the scalar forward
  // in double-precision sums: d/dx and d/dgamma of sum(dy * gated_act).
  const index_t rows = 5, c = 9;
  auto x = random_vec(rng_, rows * 2 * c, -2.0f, 2.0f);
  auto dy = random_vec(rng_, rows * c, -1.0f, 1.0f);
  auto gc = random_vec(rng_, c, 0.5f, 1.5f);
  auto bc = random_vec(rng_, c, -0.5f, 0.5f);
  auto gg = random_vec(rng_, c, 0.5f, 1.5f);
  auto bg = random_vec(rng_, c, -0.5f, 0.5f);
  std::vector<float> dx(x.size()), dgc(c), dbc(c), dgg(c), dbg(c);
  rownorm::scalar::gated_act_backward(rows, c, 1e-5f, x.data(), gc.data(),
                                      bc.data(), gg.data(), bg.data(),
                                      dy.data(), dx.data(), dgc.data(),
                                      dbc.data(), dgg.data(), dbg.data());
  auto objective = [&]() {
    std::vector<float> o(static_cast<std::size_t>(rows * c));
    rownorm::scalar::gated_act(rows, c, 1e-5f, x.data(), gc.data(), bc.data(),
                               gg.data(), bg.data(), o.data());
    double s = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i) s += double(o[i]) * dy[i];
    return s;
  };
  auto numeric = [&](float& v) {
    const float h = 1e-2f, saved = v;
    v = saved + h;
    const double up = objective();
    v = saved - h;
    const double dn = objective();
    v = saved;
    return (up - dn) / (2.0 * h);
  };
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(dx[i], numeric(x[i]), 3e-3) << "dx " << i;
  }
  for (index_t i = 0; i < c; ++i) {
    const auto u = static_cast<std::size_t>(i);
    EXPECT_NEAR(dgc[u], numeric(gc[u]), 3e-3) << "dgamma_core " << i;
    EXPECT_NEAR(dbc[u], numeric(bc[u]), 3e-3) << "dbeta_core " << i;
    EXPECT_NEAR(dgg[u], numeric(gg[u]), 3e-3) << "dgamma_gate " << i;
    EXPECT_NEAR(dbg[u], numeric(bg[u]), 3e-3) << "dbeta_gate " << i;
  }
}

// ---------------------------------------------------------------------------
// Dispatch plumbing

TEST_F(OpsDifferential, TierOverrideClampsToHardware) {
  set_simd_tier(Tier::kScalar);
  EXPECT_EQ(active_tier(), Tier::kScalar);
  set_simd_tier(Tier::kAvx2);
  if (avx2_supported()) {
    EXPECT_EQ(active_tier(), Tier::kAvx2);
  } else {
    // Requesting AVX2 without hardware/build support resolves to scalar
    // instead of crashing on the first kernel.
    EXPECT_EQ(active_tier(), Tier::kScalar);
  }
}

TEST_F(OpsDifferential, TierNamesStable) {
  EXPECT_STREQ(tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(tier_name(Tier::kAvx2), "avx2");
}

}  // namespace
}  // namespace fastchg::ops
