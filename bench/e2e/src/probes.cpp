#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "core/parallel_for.hpp"
#include "harness.hpp"
#include "ops/gemm.hpp"
#include "perf/timer.hpp"

namespace fastchg::e2e {

GemmProbe probe_gemm(double seconds) {
  GemmProbe p;
  p.size = 512;
  const auto n = static_cast<std::size_t>(p.size);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  Rng rng(0x6E);
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const double flops = 2.0 * static_cast<double>(n * n * n);

  std::vector<double> rates;
  perf::Timer total;
  ops::gemm::matmul(p.size, p.size, p.size, a.data(), b.data(), c.data());
  while (total.seconds() < seconds || rates.size() < 5) {
    perf::Timer t;
    ops::gemm::matmul(p.size, p.size, p.size, a.data(), b.data(), c.data());
    rates.push_back(flops / t.seconds() / 1e9);
  }
  p.gflops = median(rates);
  return p;
}

TriadProbe probe_triad(int passes) {
  TriadProbe p;
  p.llc_bytes = llc_bytes();
  const std::uint64_t llc = p.llc_bytes > 0 ? p.llc_bytes : (32ull << 20);
  // Combined footprint >= 4x LLC, rounded up to whole MiB per array.
  p.array_bytes = ((4 * llc / 3) + (1ull << 20) - 1) & ~((1ull << 20) - 1);
  p.footprint_bytes = 3 * p.array_bytes;
  const auto n = static_cast<index_t>(p.array_bytes / sizeof(float));

  std::vector<float> a(static_cast<std::size_t>(n)), b(a.size()), c(a.size());
  const index_t grain = 1 << 16;
  parallel_for(0, n, grain, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      b[static_cast<std::size_t>(i)] = 1.0f;
      c[static_cast<std::size_t>(i)] = 2.0f;
    }
  });
  const float s = 3.0f;
  std::vector<double> rates;
  for (int pass = 0; pass <= passes; ++pass) {
    perf::Timer t;
    parallel_for(0, n, grain, [&](index_t lo, index_t hi) {
      float* pa = a.data();
      const float* pb = b.data();
      const float* pc = c.data();
      for (index_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double secs = t.seconds();
    if (pass > 0) {  // pass 0 faults the destination pages in
      rates.push_back(3.0 * static_cast<double>(p.array_bytes) / secs / 1e9);
    }
  }
  p.gbs = median(rates);
  FASTCHG_CHECK(a[static_cast<std::size_t>(n - 1)] == 7.0f, "triad result");
  return p;
}

}  // namespace fastchg::e2e
