#include "serve/batcher.hpp"

#include <algorithm>
#include <sstream>

#include "autograd/ops.hpp"
#include "core/alloc.hpp"
#include "core/parallel_for.hpp"
#include "data/graph.hpp"
#include "perf/counters.hpp"
#include "perf/trace.hpp"
#include "serve/watchdog.hpp"

namespace fastchg::serve {

std::shared_ptr<const data::Sample> build_sample(
    const data::Crystal& c, const data::GraphConfig& graph) {
  auto s = std::make_shared<data::Sample>();
  s->crystal = c;
  s->graph = data::build_graph(c, graph);
  return s;
}

Prediction unpack_structure(const model::ModelOutput& out,
                            const data::Batch& b, index_t s) {
  const index_t n = b.natoms[static_cast<std::size_t>(s)];
  const index_t a0 = b.atom_first[static_cast<std::size_t>(s)];
  Prediction p;
  p.energy =
      static_cast<double>(out.energy_per_atom.value().data()[s]) *
      static_cast<double>(n);
  p.forces.resize(static_cast<std::size_t>(n));
  const float* f = out.forces.value().data();
  for (index_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      p.forces[static_cast<std::size_t>(i)][d] =
          static_cast<double>(f[(a0 + i) * 3 + d]);
    }
  }
  const float* st = out.stress.value().data();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      p.stress[i][j] = static_cast<double>(st[s * 9 + i * 3 + j]);
    }
  }
  if (out.magmom.defined()) {
    const float* mm = out.magmom.value().data();
    p.magmom.resize(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      p.magmom[static_cast<std::size_t>(i)] = static_cast<double>(mm[a0 + i]);
    }
  }
  return p;
}

void MicroBatcher::serve_span(
    const model::CHGNet& net, const std::vector<BatchItem>& items,
    std::size_t lo, std::size_t hi,
    std::vector<std::unique_ptr<Result<Prediction>>>& out,
    BatchRunStats& stats) const {
  std::vector<const data::Sample*> samples;
  std::vector<std::size_t> ids;
  samples.reserve(hi - lo);
  ids.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    samples.push_back(items[i].sample.get());
    ids.push_back(items[i].request_id);
  }

  data::Batch b;
  {
    perf::TraceSpan span("serve.batch.collate", "serve");
    b = data::collate(samples, /*with_labels=*/false);
  }
  if (cfg_.corrupt_batch) cfg_.corrupt_batch(b, ids);

  model::ModelOutput mo;
  bool fault = false;
  std::string msg;
  try {
    {
      perf::TraceSpan span("serve.batch.forward", "serve");
      mo = net.forward(b, model::ForwardMode::kEval);
    }
    perf::TraceSpan span_wd("serve.batch.watchdog", "serve");
    if (auto w = check_output(mo); !w.ok()) {
      fault = true;
      msg = w.error().message;
    }
  } catch (const Error& e) {
    // Inputs were validated upstream, so a throw here is a serving-side
    // fault (graph/forward invariant), not a bad request.
    fault = true;
    msg = std::string("forward failed: ") + e.what();
  }

  if (!fault) {
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = std::make_unique<Result<Prediction>>(
          unpack_structure(mo, b, static_cast<index_t>(i - lo)));
    }
    stats.served += hi - lo;
    return;
  }

  if (hi - lo == 1) {
    ++stats.isolated_faults;
    perf::count_event("serve.batch.isolated");
    std::ostringstream os;
    os << msg << " (request " << ids[0] << ", isolated by batch bisection)";
    out[lo] = std::make_unique<Result<Prediction>>(
        Result<Prediction>::failure(ErrorCode::kNumericFault, os.str()));
    return;
  }

  // A poisoned structure somewhere in [lo, hi): bisect until it is alone.
  // Structures in a disjoint union never interact, so the clean halves
  // reproduce their fused outputs exactly.
  ++stats.bisections;
  perf::count_event("serve.batch.bisect");
  perf::TraceSpan span("serve.batch.bisect", "serve");
  const std::size_t mid = lo + (hi - lo) / 2;
  serve_span(net, items, lo, mid, out, stats);
  serve_span(net, items, mid, hi, out, stats);
}

std::vector<Result<Prediction>> MicroBatcher::run(
    const model::CHGNet& net, const std::vector<BatchItem>& items,
    BatchRunStats* stats) const {
  const std::size_t n = items.size();
  std::vector<Result<Prediction>> replies;
  replies.reserve(n);
  if (n == 0) {
    if (stats) *stats = BatchRunStats{};
    return replies;
  }

  const std::size_t max_batch =
      cfg_.max_batch < 1 ? 1 : static_cast<std::size_t>(cfg_.max_batch);
  const std::size_t num_mb = (n + max_batch - 1) / max_batch;

  // unique_ptr slots because Result has no default construction; every slot
  // is filled exactly once by the worker owning its micro-batch.
  std::vector<std::unique_ptr<Result<Prediction>>> out(n);
  std::vector<BatchRunStats> per_mb(num_mb);

  const auto serve_mb = [&](std::size_t m) {
    // Per-worker, per-micro-batch arena: each fused forward (and any
    // bisection retries) draws from the executing worker's thread pool, so
    // workers recycle independently and consecutive ticks re-serve the
    // previous tick's blocks.
    alloc::ArenaScope arena;
    const std::size_t lo = m * max_batch;
    const std::size_t hi = std::min(n, lo + max_batch);
    ++per_mb[m].micro_batches;
    serve_span(net, items, lo, hi, out, per_mb[m]);
  };

  const int workers = std::max(1, cfg_.workers);
  if (workers == 1 || num_mb == 1) {
    for (std::size_t m = 0; m < num_mb; ++m) serve_mb(m);
  } else {
    // Replica fan-out: at most `workers` micro-batches in flight (grain
    // bounds the chunk count); each worker writes only its own disjoint
    // out/per_mb slots.  Kernels inside the forwards run inline per worker
    // (nested parallel_for), so the fan-out owns the pool.
    const auto grain = static_cast<index_t>(
        (num_mb + static_cast<std::size_t>(workers) - 1) /
        static_cast<std::size_t>(workers));
    parallel_for(0, static_cast<index_t>(num_mb), std::max<index_t>(1, grain),
                 [&](index_t mlo, index_t mhi) {
                   for (index_t m = mlo; m < mhi; ++m) {
                     serve_mb(static_cast<std::size_t>(m));
                   }
                 });
  }

  BatchRunStats total;
  for (const BatchRunStats& s : per_mb) total.merge(s);
  if (stats) *stats = total;

  for (std::size_t i = 0; i < n; ++i) {
    FASTCHG_CHECK(out[i] != nullptr, "micro-batch left reply " << i << " unset");
    replies.push_back(std::move(*out[i]));
  }
  return replies;
}

}  // namespace fastchg::serve
