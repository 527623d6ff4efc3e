// Post-training weight quantization (paper Sec. VII future work: "we will
// try to apply model compression and quantization to further accelerate").
//
// Symmetric per-tensor int8 quantization of every parameter:
//   q = round(w / scale),  scale = max|w| / 127
// applied as a round-trip (quantize -> dequantize in place), which is the
// standard way to evaluate the accuracy cost of int8 *inference* without an
// int8 kernel library.  The paper notes interatomic-potential training is
// too accuracy-sensitive for low precision; quantize_for_inference lets the
// repo quantify exactly how much test accuracy an int8 deployment of a
// trained FastCHGNet would give up (see tests and EXPERIMENTS.md).
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace fastchg::model {

struct QuantizationReport {
  index_t tensors = 0;
  index_t elements = 0;
  /// Non-finite weights encountered: excluded from the scale computation
  /// (one NaN would otherwise poison max|w| and with it every weight) and
  /// clamped to 0 in the dequantized output.  Non-zero here means the
  /// checkpoint is corrupt.
  index_t nonfinite = 0;
  double max_abs_error = 0.0;   ///< worst |w - dequant(quant(w))|, finite w
  double mean_abs_error = 0.0;
  double fp32_bytes = 0.0;      ///< parameter payload before
  double int8_bytes = 0.0;      ///< payload after (1 byte + shared scale)
};

/// Round-trip int8-quantize every parameter of `m` in place and report the
/// introduced error and compression ratio.
QuantizationReport quantize_for_inference(nn::Module& m);

/// Quantize one tensor (returns the int8 codes; `t` is overwritten with the
/// dequantized values).  Non-finite elements are skipped when computing the
/// scale, coded as 0 and counted into `*nonfinite_out` when given.
/// Exposed for tests.
std::vector<std::int8_t> quantize_tensor(Tensor& t, float& scale_out,
                                         index_t* nonfinite_out = nullptr);

}  // namespace fastchg::model
