// Dynamic micro-batching for the serving layer.
//
// The paper's core system win is amortization: batched (Alg. 2) basis
// computation and packed GEMMs replace per-sample loops.  Serving one
// crystal per forward leaves that on the table, so the micro-batcher fuses
// up to `max_batch` admitted requests into one disjoint-union data::Batch,
// runs a single CHGNet::forward over it (the existing batched-basis path --
// structures in a disjoint union never interact, so per-structure outputs
// are bit-identical to N individual forwards), and unpacks per-structure
// energy/forces/stress/magmom replies.
//
// More than `max_batch` items run as consecutive micro-batches on the
// calling thread; tensor kernels inside each forward use the parallel_for
// pool as usual.
//
// Fault isolation: a numeric-watchdog trip on a fused batch bisects it --
// the halves are re-collated and re-run until the poisoned structure is
// alone, which yields kNumericFault for exactly that request while its
// batchmates still succeed.  log2(max_batch) extra forwards in the worst
// case, zero extra work on the (overwhelmingly common) clean path.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "chgnet/model.hpp"
#include "data/dataset.hpp"
#include "serve/error.hpp"
#include "serve/prediction.hpp"

namespace fastchg::serve {

/// Build a Sample (wrapped crystal + graph) for one request: the input a
/// BatchItem carries into the fused forward.
std::shared_ptr<const data::Sample> build_sample(
    const data::Crystal& c, const data::GraphConfig& graph);

/// One admitted, validated request ready for fused execution.
struct BatchItem {
  std::shared_ptr<const data::Sample> sample;  ///< crystal + built graph
  std::size_t request_id = 0;  ///< caller-side id (labels, test seams)
};

/// Per-run tallies.
struct BatchRunStats {
  std::uint64_t micro_batches = 0;   ///< fused forwards dispatched
  std::uint64_t served = 0;          ///< structures unpacked successfully
  std::uint64_t bisections = 0;      ///< watchdog-tripped batch splits
  std::uint64_t isolated_faults = 0; ///< size-1 kNumericFault replies
};

class MicroBatcher {
 public:
  struct Config {
    index_t max_batch = 8;  ///< structures fused per forward (>= 1)
    /// Fault-injection seam (tests/benches): mutate the collated batch
    /// before its forward.  Receives the request_ids of the structures in
    /// the (sub-)batch, in structure order, so a poison can follow one
    /// request through bisection.  Never set in production.
    std::function<void(data::Batch&, const std::vector<std::size_t>&)>
        corrupt_batch;
  };

  MicroBatcher() = default;
  explicit MicroBatcher(Config cfg) : cfg_(std::move(cfg)) {}

  /// Serve every item through fused forwards; replies come back in item
  /// order, each either a Prediction or a typed error.  Thread-safe w.r.t.
  /// itself (const; all mutable state is call-local).
  std::vector<Result<Prediction>> run(const model::CHGNet& net,
                                      const std::vector<BatchItem>& items,
                                      BatchRunStats* stats = nullptr) const;

  const Config& config() const { return cfg_; }

 private:
  /// Serve items[lo, hi) as one fused forward, bisecting on numeric faults.
  void serve_span(const model::CHGNet& net,
                  const std::vector<BatchItem>& items, std::size_t lo,
                  std::size_t hi,
                  std::vector<std::unique_ptr<Result<Prediction>>>& out,
                  BatchRunStats& stats) const;

  Config cfg_;
};

/// Slice structure `s` of a fused forward back into a per-request reply.
/// Exposed for the equivalence tests.
Prediction unpack_structure(const model::ModelOutput& out,
                            const data::Batch& b, index_t s);

}  // namespace fastchg::serve
