// Baseline-ISA TU: scalar references (byte-for-byte the seed's fused loops
// from nn/layernorm.cpp and nn/gated_mlp.cpp), the gated-act row-split
// drivers for both tiers, and tier dispatch.
#include "ops/rownorm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/parallel_for.hpp"

namespace fastchg::ops::rownorm {

namespace {

/// Mean and rstd of row[0..n), accumulated serially in double: the
/// statistics the scalar gated_act normalizes each half-row with.
void ln_row(const float* row, index_t n, float eps, float& mean,
            float& rstd) {
  double m = 0.0;
  for (index_t i = 0; i < n; ++i) m += row[i];
  m /= static_cast<double>(n);
  double v = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double d = row[i] - m;
    v += d * d;
  }
  v /= static_cast<double>(n);
  mean = static_cast<float>(m);
  rstd = 1.0f / std::sqrt(static_cast<float>(v) + eps);
}

using GatedBwdRows = void (*)(index_t, index_t, index_t, float, const float*,
                              const float*, const float*, const float*,
                              const float*, const float*, float*, float*);

/// Chunk driver shared by both tiers: rows in parallel, one partial sum of
/// the parameter gradients per fixed-size chunk, partials added in chunk
/// order.
void gated_act_backward_chunked(GatedBwdRows rows_fn, index_t rows, index_t c,
                                float eps, const float* x, const float* gc,
                                const float* bc, const float* gg,
                                const float* bg, const float* dy, float* dx,
                                float* dgc, float* dbc, float* dgg,
                                float* dbg) {
  const index_t chunks = (rows + kGatedBwdChunk - 1) / kGatedBwdChunk;
  const index_t w = 4 * c;
  thread_local std::vector<float> partials;
  partials.resize(static_cast<std::size_t>(chunks * w));
  float* part = partials.data();
  // A backward row costs about two forward rows.
  parallel_rows(chunks, kGatedBwdChunk * 2 * c * kGatedActUnitsPerElement,
                [&](index_t lo, index_t hi) {
    for (index_t ch = lo; ch < hi; ++ch) {
      const index_t r0 = ch * kGatedBwdChunk;
      rows_fn(r0, std::min(rows, r0 + kGatedBwdChunk), c, eps, x, gc, bc, gg,
              bg, dy, dx, part + ch * w);
    }
  });
  float* outs[4] = {dgc, dbc, dgg, dbg};
  for (int q = 0; q < 4; ++q) {
    float* d = outs[q];
    std::fill(d, d + c, 0.0f);
    for (index_t ch = 0; ch < chunks; ++ch) {
      const float* p = part + ch * w + q * c;
      for (index_t i = 0; i < c; ++i) d[i] += p[i];
    }
  }
}

}  // namespace

namespace scalar {

void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o) {
  for (index_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    double mean = 0.0;
    for (index_t c = 0; c < cols; ++c) mean += row[c];
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (index_t c = 0; c < cols; ++c) {
      const double d = row[c] - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    const float rstd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    float* orow = o + r * cols;
    for (index_t c = 0; c < cols; ++c) {
      orow[c] = (row[c] - static_cast<float>(mean)) * rstd * g[c] + b[c];
    }
  }
}

void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o) {
  for (index_t r = 0; r < rows; ++r) {
    const float* core = x + r * 2 * c;
    const float* gate = core + c;
    float mc, rc, mg, rg;
    ln_row(core, c, eps, mc, rc);
    ln_row(gate, c, eps, mg, rg);
    float* orow = o + r * c;
    for (index_t i = 0; i < c; ++i) {
      const float cn = (core[i] - mc) * rc * gc[i] + bc[i];
      const float gn = (gate[i] - mg) * rg * gg[i] + bg[i];
      const float sc = 1.0f / (1.0f + std::exp(-cn));  // shared sigmoid
      const float sg = 1.0f / (1.0f + std::exp(-gn));
      orow[i] = sg * (cn * sc);  // sigmoid(gate) * silu(core)
    }
  }
}

void gated_act_backward_rows(index_t r0, index_t r1, index_t c, float eps,
                             const float* x, const float* gc, const float* bc,
                             const float* gg, const float* bg, const float* dy,
                             float* dx, float* part) {
  float* pgc = part;
  float* pbc = part + c;
  float* pgg = part + 2 * c;
  float* pbg = part + 3 * c;
  std::fill(part, part + 4 * c, 0.0f);
  const double inv_c = 1.0 / static_cast<double>(c);
  for (index_t r = r0; r < r1; ++r) {
    const float* core = x + r * 2 * c;
    const float* gate = core + c;
    const float* dyr = dy + r * c;
    float* dcore = dx + r * 2 * c;
    float* dgate = dcore + c;
    float mc, rc, mg, rg;
    ln_row(core, c, eps, mc, rc);
    ln_row(gate, c, eps, mg, rg);
    // Sweep 1: gradients at both layernorm outputs.  dx holds
    // h = d(norm) * gamma until sweep 2 turns it into d(input).
    double s1c = 0.0, s2c = 0.0, s1g = 0.0, s2g = 0.0;
    for (index_t i = 0; i < c; ++i) {
      const float xc = (core[i] - mc) * rc;
      const float xg = (gate[i] - mg) * rg;
      const float cn = xc * gc[i] + bc[i];
      const float gn = xg * gg[i] + bg[i];
      const float sc = 1.0f / (1.0f + std::exp(-cn));
      const float sg = 1.0f / (1.0f + std::exp(-gn));
      const float silu = cn * sc;
      // d silu / d cn = sc + cn*sc*(1-sc);  d sigmoid / d gn = sg*(1-sg)
      const float dcn = dyr[i] * sg * (sc + silu * (1.0f - sc));
      const float dgn = dyr[i] * silu * (sg * (1.0f - sg));
      pgc[i] += dcn * xc;
      pbc[i] += dcn;
      pgg[i] += dgn * xg;
      pbg[i] += dgn;
      const float hc = dcn * gc[i];
      const float hg = dgn * gg[i];
      dcore[i] = hc;
      dgate[i] = hg;
      s1c += hc;
      s2c += hc * xc;
      s1g += hg;
      s2g += hg * xg;
    }
    // Sweep 2: d(input) = rstd * (h - mean(h) - xhat * mean(h * xhat)).
    const float m1c = static_cast<float>(s1c * inv_c);
    const float m2c = static_cast<float>(s2c * inv_c);
    const float m1g = static_cast<float>(s1g * inv_c);
    const float m2g = static_cast<float>(s2g * inv_c);
    for (index_t i = 0; i < c; ++i) {
      const float xc = (core[i] - mc) * rc;
      const float xg = (gate[i] - mg) * rg;
      dcore[i] = rc * (dcore[i] - m1c - xc * m2c);
      dgate[i] = rg * (dgate[i] - m1g - xg * m2g);
    }
  }
}

void gated_act_backward(index_t rows, index_t c, float eps, const float* x,
                        const float* gc, const float* bc, const float* gg,
                        const float* bg, const float* dy, float* dx,
                        float* dgc, float* dbc, float* dgg, float* dbg) {
  gated_act_backward_chunked(gated_act_backward_rows, rows, c, eps, x, gc, bc,
                             gg, bg, dy, dx, dgc, dbc, dgg, dbg);
}

}  // namespace scalar

namespace avx2 {

void gated_act_backward(index_t rows, index_t c, float eps, const float* x,
                        const float* gc, const float* bc, const float* gg,
                        const float* bg, const float* dy, float* dx,
                        float* dgc, float* dbc, float* dgg, float* dbg) {
  gated_act_backward_chunked(gated_act_backward_rows, rows, c, eps, x, gc, bc,
                             gg, bg, dy, dx, dgc, dbc, dgg, dbg);
}

}  // namespace avx2

void layernorm(index_t rows, index_t cols, float eps, const float* x,
               const float* g, const float* b, float* o) {
  if (active_tier() == Tier::kAvx2) {
    avx2::layernorm(rows, cols, eps, x, g, b, o);
    return;
  }
  scalar::layernorm(rows, cols, eps, x, g, b, o);
}

void gated_act(index_t rows, index_t c, float eps, const float* x,
               const float* gc, const float* bc, const float* gg,
               const float* bg, float* o) {
  const auto tier_fn = active_tier() == Tier::kAvx2 ? &avx2::gated_act
                                                    : &scalar::gated_act;
  // Rows are independent, so any split gives the serial bytes.
  parallel_rows(rows, c * kGatedActUnitsPerElement, [&](index_t lo, index_t hi) {
    tier_fn(hi - lo, c, eps, x + lo * 2 * c, gc, bc, gg, bg, o + lo * c);
  });
}

void gated_act_backward(index_t rows, index_t c, float eps, const float* x,
                        const float* gc, const float* bc, const float* gg,
                        const float* bg, const float* dy, float* dx,
                        float* dgc, float* dbc, float* dgg, float* dbg) {
  if (active_tier() == Tier::kAvx2) {
    avx2::gated_act_backward(rows, c, eps, x, gc, bc, gg, bg, dy, dx, dgc,
                             dbc, dgg, dbg);
    return;
  }
  scalar::gated_act_backward(rows, c, eps, x, gc, bc, gg, bg, dy, dx, dgc, dbc,
                             dgg, dbg);
}

}  // namespace fastchg::ops::rownorm
