// Machine-peak probes for traced runs: the GEMM rate the op library
// reaches and the memory bandwidth of a STREAM triad, so a reader can tell
// whether a layer runs near the compute or the memory roof.
#pragma once

#include <cstdint>

namespace fastchg::e2e {

struct GemmProbe {
  double gflops = 0.0;  ///< median over repetitions
  int size = 0;         ///< m = n = k
};

struct TriadProbe {
  double gbs = 0.0;                   ///< median over passes, 1e9 bytes/s
  std::uint64_t array_bytes = 0;      ///< one of the three arrays
  std::uint64_t footprint_bytes = 0;  ///< all three arrays
  std::uint64_t llc_bytes = 0;        ///< last-level cache the size is set by
};

/// Square single-precision GEMM through ops::gemm::matmul (the dispatching
/// entry point the model's linears use), on the library's thread pool.
GemmProbe probe_gemm(double seconds);

/// a[i] = b[i] + s * c[i] over arrays whose combined size is at least four
/// times the last-level cache, split across the library's thread pool.
/// Bytes per pass count two reads and one write (STREAM's convention).
TriadProbe probe_triad(int passes);

}  // namespace fastchg::e2e
