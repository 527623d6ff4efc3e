// Recorded-step replay (core/replay.hpp + core/memplan.hpp): eager vs
// replayed step cost, dispatch overhead outside the kernels, and the static
// memory plan vs the pooled allocator's high-water mark.
//
// The paper's Fig. 8 shows the training step settling into a constant
// kernel schedule; replay exploits that by capturing the step once and
// re-running it as a flat closure program (the CPU analogue of a CUDA
// graph).  The kernels' arithmetic loops are byte-for-byte the same on both
// paths, so the delta between an eager and a replayed step is pure
// dispatch: autograd-graph construction, shared_ptr churn, allocator
// traffic, backward traversal.  This bench measures:
//
//   * train.{eager,replay}.step.seconds -- per-step wall time for a warmed
//     trainer with replay off vs on (identical batch topology every step,
//     so the replay leg runs the captured program from step 3 on);
//   * train.replay_over_eager.time_ratio.seconds -- replayed / eager step
//     time (acceptance: < 1.0, the step must be measurably faster);
//   * train.{eager,replay}.allocs_per_step -- Allocator-layer system
//     allocations per steady-state step (deterministic; the replay leg
//     must allocate ~nothing: no Nodes, no activation tensors);
//   * train.replay.missed_steps -- measured-phase steps that did NOT
//     replay (deterministic; must be 0 once warmed);
//   * plan.bytes / plan_vs_pool.ratio -- the captured program's exact slab
//     size vs the pooled high-water of the same eager step (acceptance:
//     ratio <= 1.0 -- a static plan can only beat first-fit recycling);
//   * serve.{eager,replay}.forward.seconds -- same comparison for the
//     fused serve forward;
//   * bitexact.{train,serve}.max_diff -- replay-on vs replay-off must
//     match bit-for-bit (0.0; the program re-runs the same loops).
//
// Deterministic metrics (allocation counts, missed steps, plan bytes,
// bit-exactness) gate tightly; wall-clock rows use the ".seconds" suffix.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/alloc.hpp"
#include "core/replay.hpp"
#include "perf/timer.hpp"
#include "serve/engine.hpp"
#include "train/trainer.hpp"

namespace fastchg {
namespace {

using bench::BenchOptions;

constexpr index_t kRows = 32;
constexpr index_t kBatch = 8;
constexpr index_t kSteps = (kRows + kBatch - 1) / kBatch;
constexpr int kWarmEpochs = 2;   ///< epoch 1 sights + captures, epoch 2 replays
constexpr int kMeasureEpochs = 8;

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> idx(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    idx[static_cast<std::size_t>(i)] = i;
  }
  return idx;
}

/// `n` copies of one generated crystal: every batch collates to the same
/// replay key, so the replay leg reaches steady-state (pure replays) after
/// one sighting + one capture.
data::Dataset identical_rows(index_t n, std::uint64_t seed,
                             const BenchOptions& opt) {
  data::GeneratorConfig g;
  if (!opt.full) g.num_species = 24;
  data::Dataset one =
      data::Dataset::generate(1, seed, g, bench::bench_graph_config(opt));
  std::vector<data::Crystal> crystals(static_cast<std::size_t>(n),
                                      one[0].crystal);
  return data::Dataset::from_crystals(std::move(crystals),
                                      bench::bench_graph_config(opt));
}

struct TrainPhase {
  double step_seconds = 0.0;
  double allocs_per_step = 0.0;
  double missed_steps = 0.0;     ///< measured-phase steps that ran eager
  double pool_high_water = 0.0;  ///< pooled bytes high-water (eager leg)
  double plan_bytes = 0.0;       ///< live replay slabs (replay leg)
};

/// Warmed steady-state train epochs with replay on or off (pooling on for
/// both: replay is measured against the strongest eager baseline).
TrainPhase measure_train(bool replay_on, const BenchOptions& opt) {
  replay::set_replay_enabled(replay_on);
  alloc::set_pooling_enabled(true);
  data::Dataset ds = identical_rows(kRows, 404, opt);
  model::CHGNet net(bench::bench_model_config(3, opt), 7);
  train::TrainConfig tc;
  tc.batch_size = kBatch;
  tc.epochs = kWarmEpochs + kMeasureEpochs;
  tc.prefetch = false;  // keep the measured loop single-threaded
  train::Trainer trainer(net, tc);
  const std::vector<index_t> idx = all_rows(ds);

  for (int e = 0; e < kWarmEpochs; ++e) trainer.train_epoch(ds, idx, e);

  const std::uint64_t hits_before = trainer.replay_cache().stats().hits;
  bench::reset_counters();
  // Per-epoch timing, best epoch kept: scheduler noise only ever adds
  // time, so the min is the robust estimate of the steady-state step.
  double best_epoch = 0.0;
  for (int e = 0; e < kMeasureEpochs; ++e) {
    perf::Timer t;
    trainer.train_epoch(ds, idx, kWarmEpochs + e);
    const double s = t.seconds();
    if (e == 0 || s < best_epoch) best_epoch = s;
  }
  const perf::Counters c = perf::counters().snapshot();
  const double steps = static_cast<double>(kSteps * kMeasureEpochs);

  TrainPhase ph;
  ph.step_seconds = best_epoch / static_cast<double>(kSteps);
  ph.allocs_per_step = static_cast<double>(c.system_allocs) / steps;
  const std::uint64_t hits =
      trainer.replay_cache().stats().hits - hits_before;
  ph.missed_steps =
      replay_on ? steps - static_cast<double>(hits) : 0.0;
  ph.pool_high_water = static_cast<double>(c.pool_high_water);
  ph.plan_bytes = static_cast<double>(c.replay_plan_bytes);
  return ph;
}

struct ServePhase {
  double forward_seconds = 0.0;
  double allocs_per_forward = 0.0;
};

/// Warmed engine ticks over an identical-topology request stream: with
/// replay on, every fused forward after the warm-up replays one program.
ServePhase measure_serve(bool replay_on, const BenchOptions& opt) {
  replay::set_replay_enabled(replay_on);
  alloc::set_pooling_enabled(true);
  data::Dataset ds = identical_rows(8, 505, opt);
  model::CHGNet net(bench::bench_model_config(3, opt), 7);
  serve::EngineConfig cfg;
  cfg.graph = bench::bench_graph_config(opt);
  cfg.max_batch = 8;
  cfg.batch_workers = 1;   // deterministic single-worker counts
  cfg.cache_capacity = 0;  // the result cache would short-circuit replay
  serve::InferenceEngine engine(net, cfg);

  const auto tick = [&] {
    for (index_t i = 0; i < ds.size(); ++i) {
      auto r = engine.submit(ds[i].crystal);
      FASTCHG_CHECK(r.ok(), "bench_replay: submit rejected");
    }
    for (const auto& reply : engine.drain()) {
      FASTCHG_CHECK(reply.ok(), "bench_replay: serve reply failed");
    }
  };

  for (int i = 0; i < 3; ++i) tick();  // warm: graphs, pool, sight + capture

  const std::uint64_t mb_before = engine.stats().micro_batches;
  bench::reset_counters();
  perf::Timer t;
  constexpr int kTicks = 8;
  for (int i = 0; i < kTicks; ++i) tick();
  const double secs = t.seconds();
  const perf::Counters c = perf::counters().snapshot();
  const std::uint64_t forwards = engine.stats().micro_batches - mb_before;

  ServePhase ph;
  ph.forward_seconds = secs / static_cast<double>(forwards > 0 ? forwards : 1);
  ph.allocs_per_forward = static_cast<double>(c.system_allocs) /
                          static_cast<double>(forwards > 0 ? forwards : 1);
  return ph;
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
  FASTCHG_CHECK(a.size() == b.size(), "bitexact: result size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return worst;
}

double bitexact_train(const BenchOptions& opt) {
  const auto run = [&](bool replay_on) {
    replay::set_replay_enabled(replay_on);
    data::Dataset ds = identical_rows(16, 606, opt);
    model::CHGNet net(bench::bench_model_config(3, opt), 19);
    train::TrainConfig tc;
    tc.batch_size = 4;
    tc.epochs = 3;  // 12 steps: eager, capture, then replays
    train::Trainer trainer(net, tc);
    trainer.fit(ds, all_rows(ds));
    return flatten_parameters(net);
  };
  return max_abs_diff(run(true), run(false));
}

double bitexact_serve(const BenchOptions& opt) {
  data::Dataset ds = identical_rows(6, 808, opt);
  model::CHGNet net(bench::bench_model_config(3, opt), 29);
  const auto run = [&](bool replay_on) {
    replay::set_replay_enabled(replay_on);
    serve::EngineConfig cfg;
    cfg.graph = bench::bench_graph_config(opt);
    cfg.max_batch = 6;
    cfg.cache_capacity = 0;
    serve::InferenceEngine engine(net, cfg);
    std::vector<float> flat;
    for (int tick = 0; tick < 4; ++tick) {
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
  bench::BenchRecorder rec("replay", argc, argv);
  bench::print_header("REPLAY",
                      "recorded-step replay: dispatch overhead + static plan");

  const bool prev_pooling = alloc::pooling_enabled();
  const bool prev_replay = replay::replay_enabled();

  // -- training step: eager vs replayed --------------------------------
  const TrainPhase eager = measure_train(false, opt);
  const TrainPhase replayed = measure_train(true, opt);
  const double time_ratio = eager.step_seconds > 0.0
                                ? replayed.step_seconds / eager.step_seconds
                                : 1.0;
  std::printf("train step (identical topology, warmed, %lld steps "
              "measured):\n",
              static_cast<long long>(kSteps * kMeasureEpochs));
  std::printf("  eager    : %10.3f ms/step   %8.1f allocs/step\n",
              1e3 * eager.step_seconds, eager.allocs_per_step);
  std::printf("  replay   : %10.3f ms/step   %8.1f allocs/step   "
              "(missed %g)\n",
              1e3 * replayed.step_seconds, replayed.allocs_per_step,
              replayed.missed_steps);
  std::printf("  ratio    : %10.3f   (acceptance: < 1.0 -- dispatch "
              "overhead removed)\n",
              time_ratio);

  // -- static plan vs pooled high-water --------------------------------
  const double plan_ratio =
      eager.pool_high_water > 0.0
          ? replayed.plan_bytes / eager.pool_high_water
          : 0.0;
  bench::print_rule();
  std::printf("static memory plan vs pooled eager step:\n");
  std::printf("  plan bytes      : %12.0f  (exact offsets, one slab)\n",
              replayed.plan_bytes);
  std::printf("  pool high-water : %12.0f  (first-fit recycling)\n",
              eager.pool_high_water);
  std::printf("  ratio           : %12.4f  (acceptance: <= 1.0)\n",
              plan_ratio);

  // -- fused serve forward ---------------------------------------------
  const ServePhase serve_eager = measure_serve(false, opt);
  const ServePhase serve_replay = measure_serve(true, opt);
  const double serve_ratio =
      serve_eager.forward_seconds > 0.0
          ? serve_replay.forward_seconds / serve_eager.forward_seconds
          : 1.0;
  bench::print_rule();
  std::printf("fused serve forward (warmed engine):\n");
  std::printf("  eager    : %10.3f ms/forward   %8.1f allocs/forward\n",
              1e3 * serve_eager.forward_seconds,
              serve_eager.allocs_per_forward);
  std::printf("  replay   : %10.3f ms/forward   %8.1f allocs/forward\n",
              1e3 * serve_replay.forward_seconds,
              serve_replay.allocs_per_forward);
  std::printf("  ratio    : %10.3f\n", serve_ratio);

  // -- bit-exactness ----------------------------------------------------
  const double diff_train = bitexact_train(opt);
  const double diff_serve = bitexact_serve(opt);
  bench::print_rule();
  std::printf("bit-exactness replay-on vs replay-off (must be 0.0):\n");
  std::printf("  train max|diff| = %g   serve max|diff| = %g\n", diff_train,
              diff_serve);

  alloc::set_pooling_enabled(prev_pooling);
  replay::set_replay_enabled(prev_replay);

  const bool pass = time_ratio < 1.0 && plan_ratio <= 1.0 &&
                    replayed.missed_steps == 0.0 && diff_train == 0.0 &&
                    diff_serve == 0.0;
  std::printf("\nshape check: %s\n", pass ? "PASS" : "FAIL");

  // Deterministic rows gate tightly; wall-clock rows carry ".seconds".
  rec.metric("train.eager.step.seconds", eager.step_seconds);
  rec.metric("train.replay.step.seconds", replayed.step_seconds);
  rec.metric("train.replay_over_eager.time_ratio.seconds", time_ratio);
  rec.metric("train.eager.allocs_per_step", eager.allocs_per_step);
  rec.metric("train.replay.allocs_per_step", replayed.allocs_per_step);
  rec.metric("train.replay.missed_steps", replayed.missed_steps);
  rec.metric("plan.bytes", replayed.plan_bytes);
  rec.metric("plan_vs_pool.ratio", plan_ratio);
  rec.metric("serve.eager.forward.seconds", serve_eager.forward_seconds);
  rec.metric("serve.replay.forward.seconds", serve_replay.forward_seconds);
  rec.metric("serve.replay.allocs_per_forward",
             serve_replay.allocs_per_forward);
  rec.metric("bitexact.train.max_diff", diff_train);
  rec.metric("bitexact.serve.max_diff", diff_serve);
  rec.finish();
  return pass ? 0 : 1;
}
