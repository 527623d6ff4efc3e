// Data prefetch (paper Sec. III-C "Other Optimization"): while the current
// batch is being processed, the next mini-batch is collated asynchronously
// on a background thread -- the CPU-side analogue of the paper's separate
// copy stream.  A bounded queue provides back-pressure.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/alloc.hpp"
#include "data/batch.hpp"

namespace fastchg::data {

class PrefetchLoader {
 public:
  /// Collates `plan[i]` for i = 0..n-1 ahead of consumption, keeping at most
  /// `depth` ready batches in flight.  With `arena` set, batch tensors are
  /// drawn from that allocator instead of the worker's thread-local pool --
  /// the consumer hands its own step pool over so the blocks it frees
  /// mid-step are the ones the loader re-serves, and the steady state stops
  /// touching the system allocator entirely.
  PrefetchLoader(const data::Dataset& ds,
                 std::vector<std::vector<index_t>> plan, std::size_t depth = 2,
                 alloc::AllocatorPtr arena = nullptr);
  ~PrefetchLoader();
  PrefetchLoader(const PrefetchLoader&) = delete;
  PrefetchLoader& operator=(const PrefetchLoader&) = delete;

  /// Blocking pop of the next batch; std::nullopt once the plan is
  /// exhausted.  Batches arrive in plan order.
  std::optional<data::Batch> next();

 private:
  void worker();

  const data::Dataset& ds_;
  std::vector<std::vector<index_t>> plan_;
  std::size_t depth_;
  alloc::AllocatorPtr arena_;  ///< consumer's pool; nullptr = thread pool

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<data::Batch> ready_;
  std::size_t produced_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace fastchg::data
