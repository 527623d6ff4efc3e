// SIMD op library microbenchmarks (src/ops/, docs/ops.md): per-kernel
// GFLOP/s for the scalar reference tier vs the AVX2+FMA tier of the three
// tiered families (GEMM, basis, rownorm), on the op shapes the training
// step and the fused serve forward actually run (feature width 64, basis
// 15, few-thousand-edge graphs).
//
// Emitted metrics (BENCH_trace_ops.json, gated by tools/perf_gate):
//
//   * ops.<kernel>.{scalar,avx2}.seconds -- best-of-reps wall time for a
//     fixed workload (loose ".seconds" tolerance);
//   * ops.<kernel>.avx2_over_scalar.time_ratio.seconds -- AVX2 / scalar
//     time (lower is better; < 0.5 means the >= 2x acceptance bar holds);
//   * ops.avx2_unavailable -- 0 when the host+build run the AVX2 kernels,
//     1 otherwise (deterministic: catches a build regression that silently
//     drops the -mavx2 translation units or the cpuid probe).
//
// The stdout table prints GFLOP/s per kernel family next to the speedup so
// the >= 2x on >= 3 vectorized families acceptance is immediate.
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "basis/envelope.hpp"
#include "bench_common.hpp"
#include "ops/basis.hpp"
#include "ops/dispatch.hpp"
#include "ops/gemm.hpp"
#include "ops/rownorm.hpp"
#include "perf/timer.hpp"

namespace fastchg {
namespace {

constexpr int kReps = 12;

std::vector<float> random_vec(std::mt19937& rng, index_t n, float lo,
                              float hi) {
  std::uniform_real_distribution<float> d(lo, hi);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = d(rng);
  return v;
}

/// Best-of-kReps wall time of fn() (scheduler noise only ever adds time).
template <typename F>
double best_seconds(F&& fn) {
  double best = 1e30;
  for (int r = 0; r < kReps; ++r) {
    perf::Timer t;
    fn();
    const double s = t.seconds();
    if (s < best) best = s;
  }
  return best;
}

struct FamilyRow {
  const char* name;
  double flops;    ///< per invocation
  double scalar_s;
  double avx2_s;
};

void print_row(const FamilyRow& r) {
  const double gs = r.flops / r.scalar_s * 1e-9;
  const double gv = r.flops / r.avx2_s * 1e-9;
  std::printf("  %-14s %9.2f GF/s -> %9.2f GF/s   speedup %5.2fx\n", r.name,
              gs, gv, r.scalar_s / r.avx2_s);
}

}  // namespace

int bench_ops_main(int argc, char** argv) {
  bench::BenchRecorder rec("ops", argc, argv);
  bench::print_header("OPS", "SIMD op library: scalar vs AVX2 GFLOP/s");
  std::printf("host AVX2+FMA: %s (active tier: %s)\n",
              ops::avx2_supported() ? "yes" : "no",
              ops::tier_name(ops::active_tier()));
  rec.metric("ops.avx2_unavailable", ops::avx2_supported() ? 0.0 : 1.0);

  std::mt19937 rng(20260808u);
  std::vector<FamilyRow> rows;

  {  // gemm: GatedMLP-shaped [batch*atoms, C] x [C, 2C]
    const index_t m = 256, k = 64, n = 128;
    auto a = random_vec(rng, m * k, -1.0f, 1.0f);
    auto b = random_vec(rng, k * n, -1.0f, 1.0f);
    std::vector<float> o(static_cast<std::size_t>(m * n));
    const double flops = 2.0 * static_cast<double>(m) * k * n;
    const double ss = best_seconds(
        [&] { ops::gemm::scalar::matmul(m, k, n, a.data(), b.data(), o.data()); });
    const double sv = best_seconds(
        [&] { ops::gemm::avx2::matmul(m, k, n, a.data(), b.data(), o.data()); });
    rows.push_back({"gemm", flops, ss, sv});
  }

  {  // basis.srbf: bench-scale edge set, basis 15
    const index_t e = 4096, nb = 15;
    auto r = random_vec(rng, e, 0.5f, 4.9f);
    std::vector<float> freq(static_cast<std::size_t>(nb));
    for (index_t i = 0; i < nb; ++i) {
      freq[static_cast<std::size_t>(i)] =
          static_cast<float>(M_PI) * static_cast<float>(i + 1);
    }
    std::vector<float> o(static_cast<std::size_t>(e * nb));
    const float rc = 5.0f;
    const float c = std::sqrt(2.0f / rc);
    // ~4 flops per sin-element (mul + poly eval amortized): use element
    // count as the "flop" unit so the ratio is the honest comparison.
    const double flops = static_cast<double>(e) * nb;
    const double ss = best_seconds([&] {
      ops::basis::scalar::srbf(e, nb, rc, c, 6, &basis::envelope_value,
                               r.data(), freq.data(), o.data());
    });
    const double sv = best_seconds([&] {
      ops::basis::avx2::srbf(e, nb, rc, c, 6, &basis::envelope_value,
                             r.data(), freq.data(), o.data());
    });
    rows.push_back({"basis.srbf", flops, ss, sv});
  }

  {  // basis.fourier: bench-scale angle set, order 7 (nb = 15)
    const index_t g = 8192, order = 7;
    auto t = random_vec(rng, g, 0.0f, static_cast<float>(M_PI));
    std::vector<float> o(static_cast<std::size_t>(g * (2 * order + 1)));
    const float c0 = 1.0f / std::sqrt(2.0f * static_cast<float>(M_PI));
    const float cinv = 1.0f / std::sqrt(static_cast<float>(M_PI));
    const double flops = static_cast<double>(g) * (2 * order + 1);
    const double ss = best_seconds([&] {
      ops::basis::scalar::fourier(g, order, c0, cinv, t.data(), o.data());
    });
    const double sv = best_seconds([&] {
      ops::basis::avx2::fourier(g, order, c0, cinv, t.data(), o.data());
    });
    rows.push_back({"basis.fourier", flops, ss, sv});
  }

  {  // rownorm.layernorm: feature-width rows
    const index_t r = 2048, c = 64;
    auto x = random_vec(rng, r * c, -2.0f, 2.0f);
    auto g = random_vec(rng, c, 0.5f, 1.5f);
    auto b = random_vec(rng, c, -0.5f, 0.5f);
    std::vector<float> o(static_cast<std::size_t>(r * c));
    const double flops = 7.0 * static_cast<double>(r) * c;
    const double ss = best_seconds([&] {
      ops::rownorm::scalar::layernorm(r, c, 1e-5f, x.data(), g.data(),
                                      b.data(), o.data());
    });
    const double sv = best_seconds([&] {
      ops::rownorm::avx2::layernorm(r, c, 1e-5f, x.data(), g.data(), b.data(),
                                    o.data());
    });
    rows.push_back({"rownorm.ln", flops, ss, sv});
  }

  bench::print_rule();
  std::printf("  %-14s %-24s\n", "kernel", "scalar -> avx2");
  int families_2x = 0;
  for (const FamilyRow& r : rows) {
    print_row(r);
    const double ratio = r.avx2_s / r.scalar_s;
    if (ratio < 0.5) ++families_2x;
    const std::string base = std::string("ops.") + r.name;
    rec.metric(base + ".scalar.seconds", r.scalar_s);
    rec.metric(base + ".avx2.seconds", r.avx2_s);
    rec.metric(base + ".avx2_over_scalar.time_ratio.seconds", ratio);
  }
  bench::print_rule();
  std::printf("  families at >= 2x: %d of %zu (acceptance: >= 3)\n",
              families_2x, rows.size());

  rec.finish();
  return 0;
}

}  // namespace fastchg

int main(int argc, char** argv) { return fastchg::bench_ops_main(argc, argv); }
