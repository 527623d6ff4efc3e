// Arena-backed tensor memory (docs/memory.md): steady-state allocation
// counts with the pool on vs off, plus pool-on == pool-off bit-exactness.
//
// The paper's Fig. 8 measures memory discipline (retained intermediates);
// our CPU analogue is *system allocations per steady-state step*: after
// warm-up, a training step or fused serve forward should be served almost
// entirely from the pool's free lists.  This bench measures:
//
//   * train.pool_{off,on}.mallocs_per_step -- Allocator-layer system
//     allocations per train step on a warmed trainer (prefetch off,
//     deterministic);
//   * train.prefetch_pool.mallocs_per_step -- per step with prefetch ON
//     and the loader collating into the trainer's step pool (the handoff);
//     must be exactly 0 once the pool saturates;
//   * serve.pool_{off,on}.mallocs_per_forward -- same per fused
//     micro-batched forward on a warmed engine;
//   * *.malloc_ratio -- pooled / unpooled (acceptance bar: <= 0.01);
//   * bitexact.{train,dp,serve}.max_diff -- must be exactly 0.0: the
//     allocator changes where bytes live, never their values;
//   * pool hit rates and slab high-water for the measured phases.
//
// All gated metrics are deterministic (fixed seeds, prefetch disabled,
// one serving thread); wall-clock metrics use the ".seconds" suffix so the
// perf gate applies its loose tolerance.  Note "mallocs" here counts
// allocations made through the Allocator layer (tensor storage + graph
// node headers), not untracked STL internals -- see docs/memory.md.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/alloc.hpp"
#include "parallel/data_parallel.hpp"
#include "perf/timer.hpp"
#include "serve/engine.hpp"
#include "train/trainer.hpp"

namespace fastchg {
namespace {

using bench::BenchOptions;

constexpr index_t kRows = 48;
constexpr index_t kBatch = 16;
constexpr index_t kSteps = (kRows + kBatch - 1) / kBatch;
constexpr int kWarmEpochs = 2;

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> idx(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    idx[static_cast<std::size_t>(i)] = i;
  }
  return idx;
}

struct PhaseCounts {
  double mallocs_per_unit = 0.0;
  double pool_hits = 0.0;
  double pool_misses = 0.0;
  double slab_high_water = 0.0;
  double seconds = 0.0;
};

/// Warmed steady-state train epoch with pooling on or off.
PhaseCounts measure_train(bool pooled, const BenchOptions& opt) {
  alloc::set_pooling_enabled(pooled);
  data::Dataset ds = bench::bench_dataset(kRows, 404, opt);
  model::CHGNet net(bench::bench_model_config(3, opt), 7);
  train::TrainConfig tc;
  tc.batch_size = kBatch;
  tc.epochs = kWarmEpochs + 1;
  tc.prefetch = false;  // keep allocation counts single-threaded deterministic
  train::Trainer trainer(net, tc);
  const std::vector<index_t> idx = all_rows(ds);

  for (int e = 0; e < kWarmEpochs; ++e) trainer.train_epoch(ds, idx, e);

  bench::reset_counters();
  perf::Timer t;
  trainer.train_epoch(ds, idx, kWarmEpochs);
  const double secs = t.seconds();
  const perf::Counters c = perf::counters().snapshot();

  PhaseCounts pc;
  pc.mallocs_per_unit =
      static_cast<double>(c.system_allocs) / static_cast<double>(kSteps);
  pc.pool_hits = static_cast<double>(c.pool_hits);
  pc.pool_misses = static_cast<double>(c.pool_misses);
  pc.slab_high_water = static_cast<double>(c.pool_high_water);
  pc.seconds = secs;
  return pc;
}

/// Prefetch handoff: the loader collates into the trainer's own step pool,
/// so batch blocks the main thread frees mid-step are re-served to the
/// background collation of step N+1.  Shuffle-driven shape variance means
/// the pool's free lists take a few epochs to cover every bucket demand
/// (each miss grows them monotonically -- the trainer pool never trims),
/// after which a steady-state epoch performs *exactly zero* system
/// allocations even with the second thread in flight.  Trains until an
/// epoch runs clean and reports that epoch's counts.
PhaseCounts measure_train_prefetch(const BenchOptions& opt,
                                   int* epochs_to_clean) {
  alloc::set_pooling_enabled(true);
  data::Dataset ds = bench::bench_dataset(kRows, 404, opt);
  model::CHGNet net(bench::bench_model_config(3, opt), 7);
  train::TrainConfig tc;
  tc.batch_size = kBatch;
  constexpr int kMaxEpochs = 12;
  tc.epochs = kMaxEpochs;
  tc.prefetch = true;
  train::Trainer trainer(net, tc);
  const std::vector<index_t> idx = all_rows(ds);

  PhaseCounts pc;
  *epochs_to_clean = kMaxEpochs;
  for (int e = 0; e < kMaxEpochs; ++e) {
    bench::reset_counters();
    perf::Timer t;
    trainer.train_epoch(ds, idx, e);
    pc.seconds = t.seconds();
    const perf::Counters c = perf::counters().snapshot();
    pc.mallocs_per_unit =
        static_cast<double>(c.system_allocs) / static_cast<double>(kSteps);
    pc.pool_hits = static_cast<double>(c.pool_hits);
    pc.pool_misses = static_cast<double>(c.pool_misses);
    pc.slab_high_water = static_cast<double>(c.pool_high_water);
    if (c.system_allocs == 0) {
      *epochs_to_clean = e + 1;
      break;
    }
  }
  return pc;
}

/// Warmed engine ticks over a fixed request stream (fused micro-batches).
PhaseCounts measure_serve(bool pooled, const BenchOptions& opt) {
  alloc::set_pooling_enabled(pooled);
  data::Dataset ds = bench::bench_dataset(16, 505, opt);
  model::CHGNet net(bench::bench_model_config(3, opt), 7);
  serve::EngineConfig cfg;
  cfg.graph = bench::bench_graph_config(opt);
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  serve::InferenceEngine engine(net, cfg);

  const auto tick = [&] {
    for (index_t i = 0; i < ds.size(); ++i) {
      auto r = engine.submit(ds[i].crystal);
      FASTCHG_CHECK(r.ok(), "bench_memory_arena: submit rejected");
    }
    for (const auto& reply : engine.drain()) {
      FASTCHG_CHECK(reply.ok(), "bench_memory_arena: serve reply failed");
    }
  };

  // Warm-up: builds graphs, primes the worker pool and fills the pool's
  // free lists, so steady state measures pure pool recycling.
  for (int i = 0; i < 3; ++i) tick();

  const std::uint64_t mb_before = engine.stats().micro_batches;
  bench::reset_counters();
  perf::Timer t;
  constexpr int kTicks = 4;
  for (int i = 0; i < kTicks; ++i) tick();
  const double secs = t.seconds();
  const perf::Counters c = perf::counters().snapshot();
  const std::uint64_t forwards = engine.stats().micro_batches - mb_before;

  PhaseCounts pc;
  pc.mallocs_per_unit = static_cast<double>(c.system_allocs) /
                        static_cast<double>(forwards > 0 ? forwards : 1);
  pc.pool_hits = static_cast<double>(c.pool_hits);
  pc.pool_misses = static_cast<double>(c.pool_misses);
  pc.slab_high_water = static_cast<double>(c.pool_high_water);
  pc.seconds = secs;
  return pc;
}

std::vector<float> flatten_parameters(const model::CHGNet& net) {
  std::vector<float> flat;
  for (const ag::Var& p : net.parameters()) {
    const std::vector<float> v = p.value().to_vector();
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  FASTCHG_CHECK(a.size() == b.size(), "bitexact: parameter count mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return worst;
}

double bitexact_train(const BenchOptions& opt) {
  const auto run = [&](bool pooled) {
    alloc::set_pooling_enabled(pooled);
    data::Dataset ds = bench::bench_dataset(16, 606, opt);
    model::CHGNet net(bench::bench_model_config(3, opt), 19);
    train::TrainConfig tc;
    tc.batch_size = 8;
    tc.epochs = 1;
    train::Trainer trainer(net, tc);
    trainer.fit(ds, all_rows(ds));
    return flatten_parameters(net);
  };
  return max_abs_diff(run(true), run(false));
}

double bitexact_dp(const BenchOptions& opt) {
  const auto run = [&](bool pooled) {
    alloc::set_pooling_enabled(pooled);
    data::Dataset ds = bench::bench_dataset(16, 707, opt);
    parallel::DataParallelConfig cfg;
    cfg.num_devices = 2;
    cfg.global_batch = 8;
    parallel::DataParallelTrainer dp(bench::bench_model_config(3, opt), cfg,
                                     23);
    dp.train_epoch(ds, all_rows(ds), 0);
    return flatten_parameters(dp.model());
  };
  return max_abs_diff(run(true), run(false));
}

double bitexact_serve(const BenchOptions& opt) {
  const auto run = [&](bool pooled) {
    alloc::set_pooling_enabled(pooled);
    data::Dataset ds = bench::bench_dataset(10, 808, opt);
    model::CHGNet net(bench::bench_model_config(3, opt), 29);
    serve::EngineConfig cfg;
    cfg.graph = bench::bench_graph_config(opt);
    cfg.max_batch = 4;
    serve::InferenceEngine engine(net, cfg);
    std::vector<float> flat;
    for (index_t i = 0; i < ds.size(); ++i) {
      FASTCHG_CHECK(engine.submit(ds[i].crystal).ok(), "submit failed");
    }
    for (const auto& r : engine.drain()) {
      FASTCHG_CHECK(r.ok(), "serve failed");
      const serve::Prediction& p = r.value();
      flat.push_back(static_cast<float>(p.energy));
      for (const auto& f : p.forces) {
        for (int d = 0; d < 3; ++d) flat.push_back(static_cast<float>(f[d]));
      }
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
          flat.push_back(static_cast<float>(p.stress[i][j]));
        }
      }
      for (double m : p.magmom) flat.push_back(static_cast<float>(m));
    }
    return flat;
  };
  return max_abs_diff(run(true), run(false));
}

}  // namespace
}  // namespace fastchg

int main(int argc, char** argv) {
  using namespace fastchg;
  const BenchOptions opt = bench::parse_options(argc, argv);
  bench::BenchRecorder rec("memory_arena", argc, argv);
  bench::print_header("MEM-ARENA",
                      "pooled allocator: steady-state mallocs + bit-exactness");

  const bool prev_pooling = alloc::pooling_enabled();

  // -- training steady state -------------------------------------------
  const PhaseCounts train_off = measure_train(false, opt);
  const PhaseCounts train_on = measure_train(true, opt);
  const double train_ratio =
      train_off.mallocs_per_unit > 0.0
          ? train_on.mallocs_per_unit / train_off.mallocs_per_unit
          : 0.0;
  std::printf("train (per step, %lld steps, warmed):\n",
              static_cast<long long>(kSteps));
  std::printf("  pool off : %10.1f system allocs/step   (%.3fs epoch)\n",
              train_off.mallocs_per_unit, train_off.seconds);
  std::printf("  pool on  : %10.1f system allocs/step   (%.3fs epoch)\n",
              train_on.mallocs_per_unit, train_on.seconds);
  std::printf("  ratio    : %10.4f   (acceptance: <= 0.01)  hits %.0f  "
              "misses %.0f  slab HW %.0f B\n",
              train_ratio, train_on.pool_hits, train_on.pool_misses,
              train_on.slab_high_water);

  // -- prefetch handoff steady state -----------------------------------
  int prefetch_epochs = 0;
  const PhaseCounts train_pf = measure_train_prefetch(opt, &prefetch_epochs);
  bench::print_rule();
  std::printf("train + prefetch handoff (loader collates into the step "
              "pool):\n");
  std::printf("  pool on  : %10.1f system allocs/step   (clean after %d "
              "epochs, %.3fs epoch)\n",
              train_pf.mallocs_per_unit, prefetch_epochs, train_pf.seconds);
  std::printf("  acceptance: exactly 0  (hits %.0f  misses %.0f  slab HW "
              "%.0f B)\n",
              train_pf.pool_hits, train_pf.pool_misses,
              train_pf.slab_high_water);

  // -- serving steady state --------------------------------------------
  const PhaseCounts serve_off = measure_serve(false, opt);
  const PhaseCounts serve_on = measure_serve(true, opt);
  const double serve_ratio =
      serve_off.mallocs_per_unit > 0.0
          ? serve_on.mallocs_per_unit / serve_off.mallocs_per_unit
          : 0.0;
  bench::print_rule();
  std::printf("serve (per fused forward, warmed engine):\n");
  std::printf("  pool off : %10.1f system allocs/forward (%.3fs)\n",
              serve_off.mallocs_per_unit, serve_off.seconds);
  std::printf("  pool on  : %10.1f system allocs/forward (%.3fs)\n",
              serve_on.mallocs_per_unit, serve_on.seconds);
  std::printf("  ratio    : %10.4f   (acceptance: <= 0.01)  hits %.0f  "
              "misses %.0f\n",
              serve_ratio, serve_on.pool_hits, serve_on.pool_misses);

  // -- bit-exactness ----------------------------------------------------
  const double diff_train = bitexact_train(opt);
  const double diff_dp = bitexact_dp(opt);
  const double diff_serve = bitexact_serve(opt);
  bench::print_rule();
  std::printf("bit-exactness pool-on vs pool-off (must be 0.0):\n");
  std::printf("  train max|diff| = %g   dp max|diff| = %g   serve max|diff| "
              "= %g\n",
              diff_train, diff_dp, diff_serve);

  alloc::set_pooling_enabled(prev_pooling);

  const bool pass = train_ratio <= 0.01 && serve_ratio <= 0.01 &&
                    train_pf.mallocs_per_unit == 0.0 &&
                    diff_train == 0.0 && diff_dp == 0.0 && diff_serve == 0.0;
  std::printf("\nshape check: %s\n", pass ? "PASS" : "FAIL");

  // Gated metrics: allocation counts and bit-exactness are deterministic
  // (fixed seeds, prefetch off, one serving thread); timings use ".seconds".
  rec.metric("train.pool_off.mallocs_per_step", train_off.mallocs_per_unit);
  rec.metric("train.pool_on.mallocs_per_step", train_on.mallocs_per_unit);
  rec.metric("train.malloc_ratio", train_ratio);
  rec.metric("train.pool_on.misses", train_on.pool_misses);
  // Exact 0: the handoff's whole point.  (Epochs-to-clean is printed, not
  // gated -- thread interleaving can shift it by one.)
  rec.metric("train.prefetch_pool.mallocs_per_step",
             train_pf.mallocs_per_unit);
  rec.metric("serve.pool_off.mallocs_per_forward",
             serve_off.mallocs_per_unit);
  rec.metric("serve.pool_on.mallocs_per_forward", serve_on.mallocs_per_unit);
  rec.metric("serve.malloc_ratio", serve_ratio);
  rec.metric("serve.pool_on.misses", serve_on.pool_misses);
  rec.metric("bitexact.train.max_diff", diff_train);
  rec.metric("bitexact.dp.max_diff", diff_dp);
  rec.metric("bitexact.serve.max_diff", diff_serve);
  rec.metric("train.pool_on.epoch.seconds", train_on.seconds);
  rec.metric("train.pool_off.epoch.seconds", train_off.seconds);
  rec.metric("serve.pool_on.ticks.seconds", serve_on.seconds);
  rec.finish();
  return pass ? 0 : 1;
}
