#include "serve/engine.hpp"

#include <cmath>
#include <sstream>

#include "core/alloc.hpp"
#include "data/batch.hpp"
#include "perf/counters.hpp"
#include "perf/trace.hpp"

namespace fastchg::serve {

InferenceEngine::InferenceEngine(const model::CHGNet& net, EngineConfig cfg)
    : net_(net),
      cfg_(cfg),
      batcher_([&] {
        MicroBatcher::Config bc;
        bc.max_batch = cfg.max_batch < 1 ? index_t{1} : cfg.max_batch;
        bc.workers = cfg.batch_workers;
        bc.corrupt_batch = cfg.corrupt_batch;
        return bc;
      }()) {
  if (cfg_.quantize) {
    // Replica parameters (clones + round-tripped tensors) draw from the
    // constructing thread's pool.
    alloc::ArenaScope arena;
    replica_ = std::make_unique<model::CHGNet>(net.config(), /*seed=*/0);
    replica_->copy_parameters_from(net);
    if (net.has_atom_ref()) {
      replica_->set_atom_ref(net.atom_ref().to_vector());
    }
    quant_report_ = model::quantize_for_inference(*replica_);
  }
}

void InferenceEngine::set_fault_plan(const parallel::FaultPlan* plan) {
  injector_ = parallel::FaultInjector(plan);
}

Result<Prediction> InferenceEngine::forward_checked(
    const model::CHGNet& m, const data::Crystal& c) const {
  perf::TraceSpan span_fwd("serve.forward", "serve");
  // Request-scoped arena: graph build, collate and eval-mode forward all
  // recycle through the serving thread's pool; a steady stream of
  // same-shape requests stops touching the system allocator after the
  // first one (docs/memory.md).
  alloc::ArenaScope arena;
  model::ModelOutput out;
  data::Batch b;
  try {
    auto sample = build_sample(c, cfg_.graph);
    b = data::collate({sample.get()}, /*with_labels=*/false);
    out = m.forward(b, model::ForwardMode::kEval);
  } catch (const Error& e) {
    // The request passed validation, so a throw here is a serving-side
    // fault (graph/forward invariant), not a bad request.
    return Result<Prediction>::failure(
        ErrorCode::kNumericFault, std::string("forward failed: ") + e.what());
  }
  {
    perf::TraceSpan span_wd("serve.watchdog", "serve");
    FASTCHG_SERVE_TRY(check_output(out));
  }
  return unpack_structure(out, b, 0);
}

bool InferenceEngine::admit(const data::Crystal& c, double deadline_ms,
                            double waited_ms, double* sim_ms, int* retries,
                            std::unique_ptr<Result<Prediction>>* reply) {
  {
    perf::TraceSpan span_val("serve.validate", "serve");
    if (auto v = validate_crystal(c, cfg_.limits); !v.ok()) {
      ++stats_.rejected_invalid;
      *reply = std::make_unique<Result<Prediction>>(v.error());
      return false;
    }
  }

  // Injected transient faults: this request maps to the plan's iteration
  // `seq` on device 0.  Each faulted attempt is retried after an
  // exponential backoff until the fault clears or retries run out.
  const index_t seq = request_seq_++;
  double sim = cfg_.base_latency_ms * injector_.compute_multiplier(0, seq);
  index_t pending = injector_.transient_failures_at(0, seq);
  int r = 0;
  while (pending > 0 && r < cfg_.max_retries) {
    sim += cfg_.backoff_base_ms * std::ldexp(1.0, r);
    ++r;
    --pending;
    ++stats_.retries;
    perf::count_event("serve.retry");
  }
  if (pending > 0) {
    ++stats_.overloaded;
    std::ostringstream os;
    os << "transient device fault persisted after " << r
       << " retry attempt(s) (request " << seq << ")";
    *reply = std::make_unique<Result<Prediction>>(
        Result<Prediction>::failure(ErrorCode::kOverloaded, os.str()));
    return false;
  }
  if (waited_ms + sim > deadline_ms) {
    ++stats_.timeouts;
    std::ostringstream os;
    os << "deadline " << deadline_ms << " ms exceeded before forward ("
       << waited_ms + sim << " ms elapsed)";
    *reply = std::make_unique<Result<Prediction>>(
        Result<Prediction>::failure(ErrorCode::kTimeout, os.str()));
    return false;
  }
  *sim_ms = sim;
  *retries = r;
  return true;
}

Result<Prediction> InferenceEngine::serve_one(const data::Crystal& c,
                                              double deadline_ms,
                                              double queued_ms) {
  perf::TraceSpan span_req("serve.request", "serve");
  perf::Timer timer;
  double simulated_ms = 0.0;
  int retries = 0;
  std::unique_ptr<Result<Prediction>> rejected;
  if (!admit(c, deadline_ms, queued_ms, &simulated_ms, &retries, &rejected)) {
    return std::move(*rejected);
  }
  const auto elapsed = [&] {
    return timer.millis() + simulated_ms + queued_ms;
  };

  // Forward on the serving path; a numeric fault on the quantized replica
  // degrades to the retained fp32 model instead of failing the request.
  bool degraded = false;
  Result<Prediction> r =
      forward_checked(replica_ ? *replica_ : net_, c);
  if (!r.ok() && r.code() == ErrorCode::kNumericFault && replica_) {
    perf::count_event("serve.fp32_fallback");
    degraded = true;
    r = forward_checked(net_, c);
  }
  if (!r.ok()) {
    ++stats_.numeric_faults;
    return r.error();
  }
  if (elapsed() > deadline_ms) {
    ++stats_.timeouts;
    std::ostringstream os;
    os << "deadline " << deadline_ms << " ms exceeded (" << elapsed()
       << " ms elapsed)";
    return Result<Prediction>::failure(ErrorCode::kTimeout, os.str());
  }
  if (degraded) {
    ++stats_.degraded;
    if (cfg_.strict) {
      return Result<Prediction>::failure(
          ErrorCode::kDegraded,
          "quantized path faulted; strict mode refuses the fp32 fallback "
          "reply");
    }
  }

  Prediction p = std::move(r).value();
  p.degraded = degraded;
  p.retries = retries;
  p.latency_ms = elapsed();
  ++stats_.served;
  return p;
}

Result<Prediction> InferenceEngine::predict(const data::Crystal& c,
                                            double deadline_ms) {
  ++stats_.submitted;
  const double deadline =
      deadline_ms < 0 ? cfg_.default_deadline_ms : deadline_ms;
  return serve_one(c, deadline, /*queued_ms=*/0.0);
}

Result<std::size_t> InferenceEngine::submit(data::Crystal c,
                                            double deadline_ms) {
  perf::TraceSpan span_adm("serve.admission", "serve");
  ++stats_.submitted;
  if (queue_.size() >= cfg_.queue_capacity) {
    ++stats_.overloaded;
    std::ostringstream os;
    os << "admission queue full (" << queue_.size() << "/"
       << cfg_.queue_capacity << ")";
    return Result<std::size_t>::failure(ErrorCode::kOverloaded, os.str());
  }
  const double deadline =
      deadline_ms < 0 ? cfg_.default_deadline_ms : deadline_ms;
  queue_.push_back(Queued{std::move(c), deadline, perf::Timer()});
  return queue_.size() - 1;
}

std::vector<Result<Prediction>> InferenceEngine::drain() {
  std::vector<Result<Prediction>> replies;
  replies.reserve(queue_.size());
  const std::size_t tick_cap =
      cfg_.max_batch < 1 ? 1 : static_cast<std::size_t>(cfg_.max_batch);

  while (!queue_.empty()) {
    perf::TraceSpan span_tick("serve.batch.tick", "serve");
    const std::size_t tick_n = std::min(queue_.size(), tick_cap);

    // A request that survives admission.
    struct PendingReq {
      std::size_t slot;      ///< FIFO position within the tick
      data::Crystal crystal; ///< kept for the fp32 fallback re-forward
      double deadline_ms;
      double pre_ms;  ///< queue wait + simulated latency before the forward
      int retries;
    };
    std::vector<std::unique_ptr<Result<Prediction>>> out(tick_n);
    std::vector<PendingReq> pend;
    std::vector<BatchItem> items;
    pend.reserve(tick_n);
    items.reserve(tick_n);

    // Phase A (sequential): admission, validation, injected faults.
    for (std::size_t t = 0; t < tick_n; ++t) {
      Queued q = std::move(queue_.front());
      queue_.pop_front();
      const double waited_ms = q.enqueued.millis();
      if (waited_ms > q.deadline_ms) {
        ++stats_.timeouts;
        std::ostringstream os;
        os << "deadline " << q.deadline_ms << " ms expired in queue ("
           << waited_ms << " ms waited)";
        out[t] = std::make_unique<Result<Prediction>>(
            Result<Prediction>::failure(ErrorCode::kTimeout, os.str()));
        continue;
      }
      double sim_ms = 0.0;
      int retries = 0;
      if (!admit(q.crystal, q.deadline_ms, waited_ms, &sim_ms, &retries,
                 &out[t])) {
        continue;
      }
      items.push_back(BatchItem{build_sample(q.crystal, cfg_.graph), t});
      pend.push_back(PendingReq{t, std::move(q.crystal), q.deadline_ms,
                                waited_ms + sim_ms, retries});
    }

    // Phase B: one fused forward per tick (split across replica workers
    // when several micro-batches are pending), bisection on numeric faults.
    if (!pend.empty()) {
      perf::Timer fwd_timer;
      BatchRunStats bs;
      std::vector<Result<Prediction>> rs =
          batcher_.run(replica_ ? *replica_ : net_, items, &bs);
      stats_.micro_batches += bs.micro_batches;
      stats_.bisections += bs.bisections;
      stats_.isolated_faults += bs.isolated_faults;
      // The tick's forward wall time counts against every request in it.
      const double fwd_ms = fwd_timer.millis();

      // Phase C (sequential): degradation, deadlines, stats.
      for (std::size_t i = 0; i < pend.size(); ++i) {
        PendingReq& pr = pend[i];
        Result<Prediction> r = std::move(rs[i]);
        bool degraded = false;
        if (!r.ok() && r.code() == ErrorCode::kNumericFault && replica_) {
          perf::count_event("serve.fp32_fallback");
          degraded = true;
          r = forward_checked(net_, pr.crystal);
        }
        if (!r.ok()) {
          ++stats_.numeric_faults;
          out[pr.slot] = std::make_unique<Result<Prediction>>(r.error());
          continue;
        }
        const double elapsed = pr.pre_ms + fwd_ms;
        if (elapsed > pr.deadline_ms) {
          ++stats_.timeouts;
          std::ostringstream os;
          os << "deadline " << pr.deadline_ms << " ms exceeded (" << elapsed
             << " ms elapsed)";
          out[pr.slot] = std::make_unique<Result<Prediction>>(
              Result<Prediction>::failure(ErrorCode::kTimeout, os.str()));
          continue;
        }
        if (degraded) {
          ++stats_.degraded;
          if (cfg_.strict) {
            out[pr.slot] = std::make_unique<Result<Prediction>>(
                Result<Prediction>::failure(
                    ErrorCode::kDegraded,
                    "quantized path faulted; strict mode refuses the fp32 "
                    "fallback reply"));
            continue;
          }
        }
        Prediction p = std::move(r).value();
        p.degraded = degraded;
        p.retries = pr.retries;
        p.latency_ms = elapsed;
        ++stats_.served;
        out[pr.slot] = std::make_unique<Result<Prediction>>(std::move(p));
      }
    }

    for (auto& slot : out) {
      FASTCHG_CHECK(slot != nullptr, "drain tick left a reply slot unset");
      replies.push_back(std::move(*slot));
    }
  }
  return replies;
}

}  // namespace fastchg::serve
