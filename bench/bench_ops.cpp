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
//     drops the -mavx2 translation units or the cpuid probe);
//   * ops.<family>.<workload>.threaded_over_serial.time_ratio.seconds --
//     the same kernel at the default thread count over the same kernel run
//     inline on the caller (InlineRegion), in one process and one pool, for
//     the five threaded families (element-wise, gather, scatter, gated-act,
//     GEMM) at the md (512-atom cell), train (32 structures) and serve (8
//     structures) shapes, timed once the pool's chunks run on distinct CPUs
//     (spread_pool).  The ratio cancels host speed; below the size rule
//     (core/parallel_for.hpp) it reads about 1.0 because the kernel runs
//     inline.
//
// The stdout tables print GFLOP/s per kernel family next to the speedup so
// the >= 2x on >= 3 vectorized families acceptance is immediate, then the
// threaded/serial times per family and shape.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "autograd/ops.hpp"
#include "basis/envelope.hpp"
#include "bench_common.hpp"
#include "core/parallel_for.hpp"
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

/// Graph sizes of one forward at each e2e workload's shape (feature width
/// 32): the md 512-atom cell at 6 / 3 A cutoffs, a 32-structure training
/// batch and an 8-request serve micro-batch at 5 / 2.5 A.
struct WorkloadShape {
  const char* name;
  index_t atoms;
  index_t edges;
};
constexpr WorkloadShape kWorkloadShapes[] = {
    {"md", 512, 65728}, {"train", 418, 9830}, {"serve", 111, 2904}};
constexpr index_t kFeat = 32;

ag::Var random_var(std::mt19937& rng, const Shape& shape) {
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  Tensor t = Tensor::empty(shape);
  for (index_t i = 0; i < t.numel(); ++i) t.data()[i] = d(rng);
  return ag::Var(std::move(t), false);
}

struct ThreadRow {
  std::string family;
  const char* workload;
  double serial_s = 1e30;
  double threaded_s = 1e30;
};

/// Longest wait for the pool's workers to reach distinct CPUs.
constexpr double kSpreadCapS = 10.0;

/// Runs 1 ms pool chunks until they run on min(threads, allowed CPUs)
/// distinct CPUs, or kSpreadCapS passes; returns the CPU count reached and
/// the wait.  After the host has idled for some seconds, a VM scheduler can
/// keep every worker on the caller's core for the first second or so of
/// activity (each threaded time then reads the serial one), so the timed
/// passes wait for it.
std::pair<std::size_t, double> spread_pool(int threads) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  const std::size_t want = static_cast<std::size_t>(
      std::max(1, std::min(threads, CPU_COUNT(&allowed))));
  perf::Timer waited;
  std::set<int> cpus;
  while (cpus.size() < want && waited.seconds() < kSpreadCapS) {
    std::mutex mu;
    cpus.clear();
    // 4 * threads - 1 rows: parallel_for hands out one row per chunk.
    parallel_for(0, 4 * threads - 1, 1, [&](index_t, index_t) {
      for (perf::Timer spin; spin.seconds() < 1e-3;) {
      }
      std::lock_guard<std::mutex> lock(mu);
      cpus.insert(sched_getcpu());
    });
  }
  return {cpus.size(), waited.seconds()};
}

/// Serial and threaded passes over every row; a row keeps its best time.
constexpr int kThreadRounds = 3;

/// Each threaded family at each workload shape, inline on the caller and on
/// the pool's workers.  The serial pass runs under an InlineRegion, so both
/// passes share the one pool spread_pool spread out: a rebuilt pool's new
/// helpers would start on the caller's core again.  Passes alternate, so a
/// busy spell on the host hits both sides.
std::vector<ThreadRow> thread_rows(std::mt19937& rng) {
  namespace aop = ag::ops;
  std::vector<ThreadRow> rows;
  std::vector<std::function<void()>> calls;
  for (const WorkloadShape& w : kWorkloadShapes) {
    const ag::Var edge_2c = random_var(rng, {w.edges, 2 * kFeat});
    const ag::Var bias_2c = random_var(rng, {2 * kFeat});
    const ag::Var atom_c = random_var(rng, {w.atoms, kFeat});
    const ag::Var edge_c = random_var(rng, {w.edges, kFeat});
    const ag::Var cat_3c = random_var(rng, {w.edges, 3 * kFeat});
    const ag::Var weight = random_var(rng, {3 * kFeat, 2 * kFeat});
    const ag::Var gamma = random_var(rng, {kFeat});
    auto gated_out =
        std::make_shared<Tensor>(Tensor::empty({w.edges, kFeat}));
    std::vector<index_t> dst(static_cast<std::size_t>(w.edges));
    for (index_t e = 0; e < w.edges; ++e) dst[e] = (e * 7919) % w.atoms;
    const index_t atoms = w.atoms, edges = w.edges;
    const std::vector<std::pair<std::string, std::function<void()>>> fams = {
        {"eltwise", [=] { aop::add(edge_2c, bias_2c); }},
        {"gather", [=] { aop::index_select0(atom_c, dst); }},
        {"scatter", [=] { aop::index_add0(atoms, dst, edge_c); }},
        {"gated_act",
         [=] {
           const float* g = gamma.value().data();
           ops::rownorm::gated_act(edges, kFeat, 1e-5f,
                                   edge_2c.value().data(), g, g, g, g,
                                   gated_out->data());
         }},
        {"gemm", [=] { aop::matmul(cat_3c, weight); }},
    };
    for (const auto& [family, fn] : fams) {
      rows.push_back({family, w.name});
      calls.push_back(fn);
    }
  }
  const auto pass = [&](bool serial) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      double& best = serial ? rows[i].serial_s : rows[i].threaded_s;
      best = std::min(best, best_seconds(calls[i]));
    }
  };
  for (int round = 0; round < kThreadRounds; ++round) {
    {
      InlineRegion serial;
      pass(true);
    }
    pass(false);
  }
  return rows;
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

  const int threads = num_threads();
  std::printf("\nthreaded (%d workers) vs serial, %s tier, size rule: "
              "inline below %lld work units\n",
              threads, ops::tier_name(ops::active_tier()),
              static_cast<long long>(kParallelMinWork));
  bench::print_rule();
  std::printf("  %-10s %-6s %11s %11s %7s\n", "family", "shape", "serial us",
              "threaded us", "ratio");
  const auto [cpus, waited] = spread_pool(threads);
  std::printf("  pool chunks ran on %zu CPUs after %.2f s\n", cpus, waited);
  {
    ag::NoGradGuard no_grad;
    for (const ThreadRow& r : thread_rows(rng)) {
      const double ratio = r.threaded_s / r.serial_s;
      std::printf("  %-10s %-6s %11.1f %11.1f %7.3f\n", r.family.c_str(),
                  r.workload, 1e6 * r.serial_s, 1e6 * r.threaded_s, ratio);
      rec.metric("ops." + r.family + "." + r.workload +
                     ".threaded_over_serial.time_ratio.seconds",
                 ratio);
    }
  }
  bench::print_rule();

  rec.finish();
  return 0;
}

}  // namespace fastchg

int main(int argc, char** argv) { return fastchg::bench_ops_main(argc, argv); }
