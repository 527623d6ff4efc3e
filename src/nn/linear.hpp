// Linear layers: plain, and the "packed" variant implementing the paper's
// weight-concatenation fusion (Fig. 3a): several linears that share the same
// input are evaluated as a single, larger GEMM and split afterwards.
#pragma once

#include <vector>

#include "core/rng.hpp"
#include "nn/module.hpp"

namespace fastchg::nn {

class Linear : public Module {
 public:
  /// y = x @ W + b.  W is [in, out]; bias optional.
  Linear(index_t in, index_t out, Rng& rng, bool bias = true);

  Var forward(const Var& x) const;
  index_t in_features() const { return in_; }
  index_t out_features() const { return out_; }
  const Var& weight() const { return w_; }
  /// Undefined Var when constructed without bias.
  const Var& bias() const { return b_; }

 private:
  index_t in_, out_;
  Var w_, b_;
};

/// K linear heads over one shared input, fused into one GEMM.
/// forward() returns the packed [N, sum(outs)] tensor; head(i, packed)
/// slices out head i.  The packed evaluation launches 1 matmul (+1 bias add)
/// instead of K of each -- exactly the Fig. 3a transformation.
class PackedLinear : public Module {
 public:
  PackedLinear(index_t in, std::vector<index_t> outs, Rng& rng,
               bool bias = true);

  Var forward(const Var& x) const;
  Var head(std::size_t i, const Var& packed) const;

 private:
  index_t in_;
  std::vector<index_t> outs_;
  std::vector<index_t> offsets_;
  Var w_, b_;
};

}  // namespace fastchg::nn
