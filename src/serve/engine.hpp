// Robust inference engine: the serving-side wrapper around model::CHGNet.
//
// Every request flows through the same pipeline (docs/serving.md):
//
//   admission -> validation -> [injected-fault retry loop] -> graph build
//            -> fused micro-batch forward -> numeric watchdog / bisection
//            -> (quantized -> fp32 degradation) -> reply
//
// and every exit is a typed Result: success (possibly flagged degraded), or
// kInvalidInput / kNumericFault / kTimeout / kOverloaded / kDegraded.  No
// request -- however malformed -- may crash the process or return a silent
// NaN.
//
// The queued path (`submit` + `drain`) is dynamically micro-batched: each
// tick drains up to `max_batch` admitted requests into one disjoint-union
// data::Batch and runs a single fused forward (serve/batcher.hpp), with
// independent micro-batches fanned out across `batch_workers` replica
// workers.  A numeric fault inside a fused batch is bisected so only the
// poisoned request fails.  `predict` stays the synchronous single-request
// path (also the reference the equivalence tests compare against).
//
// Transient device faults are injected through parallel::FaultInjector so
// serving robustness is testable under the same seeded FaultPlans as the
// distributed trainer: request index plays the role of the plan's iteration
// on device 0.  kDeviceFailure events become transient faults retried with
// exponential backoff; kStraggler factors inflate the simulated latency and
// count against the request deadline.
#pragma once

#include <deque>
#include <memory>

#include "chgnet/model.hpp"
#include "fastchgnet/quantize.hpp"
#include "parallel/fault.hpp"
#include "perf/counters.hpp"
#include "perf/timer.hpp"
#include "serve/batcher.hpp"
#include "serve/prediction.hpp"
#include "serve/validate.hpp"
#include "serve/watchdog.hpp"

namespace fastchg::serve {

struct EngineConfig {
  ValidationLimits limits;
  data::GraphConfig graph;
  /// Serve an int8 round-tripped replica of the model; the fp32 original is
  /// retained and any numeric fault on the quantized path falls back to it
  /// (counted, and flagged degraded on the reply).
  bool quantize = false;
  /// Strict mode: a reply that only exists via a degraded path becomes a
  /// kDegraded error instead of a flagged success.
  bool strict = false;

  // Admission control.
  std::size_t queue_capacity = 64;    ///< bounded request queue
  double default_deadline_ms = 1e12;  ///< per-request wall budget

  // Dynamic micro-batching (queued path).
  index_t max_batch = 8;   ///< structures fused per forward tick (>= 1)
  int batch_workers = 1;   ///< max concurrently executing micro-batches

  // Retry policy for injected transient device faults.
  int max_retries = 3;
  double backoff_base_ms = 0.5;  ///< attempt k sleeps base * 2^k (simulated)
  /// Simulated per-forward device latency the straggler factor scales; the
  /// measured wall time is added on top when checking deadlines.
  double base_latency_ms = 0.0;

  /// Fault-injection seam forwarded to the micro-batcher (tests/benches):
  /// mutate a collated batch before its fused forward, addressed by the
  /// tick-local request slots.  Never set in production.
  std::function<void(data::Batch&, const std::vector<std::size_t>&)>
      corrupt_batch;
};

/// Monotonic per-engine tallies (perf::counters mirrors the fallbacks
/// globally; these stay attributable when several engines coexist).
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;            ///< successful replies
  std::uint64_t degraded = 0;          ///< served via fp32 fallback
  std::uint64_t rejected_invalid = 0;  ///< kInvalidInput
  std::uint64_t numeric_faults = 0;    ///< kNumericFault replies
  std::uint64_t timeouts = 0;          ///< kTimeout replies
  std::uint64_t overloaded = 0;        ///< kOverloaded replies
  std::uint64_t retries = 0;           ///< transient-fault attempts retried
  std::uint64_t micro_batches = 0;     ///< fused forwards dispatched
  std::uint64_t bisections = 0;        ///< poisoned-batch splits
  std::uint64_t isolated_faults = 0;   ///< faults isolated to one request
};

/// What cache() reports: always zero, since the engine keeps no cache.
using CacheStats = perf::ReplayCacheStub::Stats;

class InferenceEngine {
 public:
  /// `net` must outlive the engine.  With cfg.quantize the engine clones the
  /// parameters into an int8 round-tripped replica at construction.
  InferenceEngine(const model::CHGNet& net, EngineConfig cfg = {});

  /// Validate and serve one structure synchronously.  `deadline_ms` < 0
  /// uses the config default.  Single-request reference path: no batching.
  Result<Prediction> predict(const data::Crystal& c, double deadline_ms = -1);

  // -- Admission-controlled queue interface ----------------------------
  /// Enqueue a request; kOverloaded immediately when the queue is full.
  /// On success returns the request's queue ticket.
  Result<std::size_t> submit(data::Crystal c, double deadline_ms = -1);
  /// Serve all queued requests FIFO through the micro-batched pipeline
  /// (fused forwards of up to max_batch, replica workers).  A request whose
  /// deadline expired while it sat in the queue is answered kTimeout
  /// without touching the model.  With max_batch <= 1 each tick serves one
  /// request.
  std::vector<Result<Prediction>> drain();
  std::size_t queue_depth() const { return queue_.size(); }

  /// Inject transient device faults from a seeded plan (nullptr = none).
  /// The plan must outlive the engine or the next set_fault_plan call.
  void set_fault_plan(const parallel::FaultPlan* plan);

  const EngineStats& stats() const { return stats_; }
  const EngineConfig& config() const { return cfg_; }
  /// Always-empty cache statistics (see perf::ReplayCacheStub).
  perf::ReplayCacheStub cache() const { return {}; }
  /// Quantization report of the int8 replica (zeros when quantize = false).
  const model::QuantizationReport& quantization_report() const {
    return quant_report_;
  }
  /// The int8-round-tripped replica (nullptr when quantize = false).
  /// Exposed for diagnostics and fault-injection tests.
  model::CHGNet* quantized_replica() { return replica_.get(); }
  /// Always-empty replay statistics (see perf::ReplayCacheStub).
  perf::ReplayCacheStub replay_cache() const { return {}; }

 private:
  /// One forward through `m` plus the numeric watchdog.
  Result<Prediction> forward_checked(const model::CHGNet& m,
                                     const data::Crystal& c) const;
  Result<Prediction> serve_one(const data::Crystal& c, double deadline_ms,
                               double queued_ms);

  /// Admission, validation, and injected-fault handling shared by
  /// predict() and drain().  On rejection fills `*reply`; on success returns the
  /// simulated pre-forward latency (backoff + stragglers) via `*sim_ms`
  /// and the retry count via `*retries`.
  bool admit(const data::Crystal& c, double deadline_ms, double waited_ms,
             double* sim_ms, int* retries,
             std::unique_ptr<Result<Prediction>>* reply);

  struct Queued {
    data::Crystal crystal;
    double deadline_ms;
    perf::Timer enqueued;
  };

  const model::CHGNet& net_;
  EngineConfig cfg_;
  std::unique_ptr<model::CHGNet> replica_;  ///< int8 round-tripped copy
  model::QuantizationReport quant_report_;
  parallel::FaultInjector injector_{nullptr};
  index_t request_seq_ = 0;  ///< fault-plan "iteration" of the next request
  std::deque<Queued> queue_;
  MicroBatcher batcher_;
  EngineStats stats_;
};

}  // namespace fastchg::serve
