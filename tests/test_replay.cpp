// Recorded-step replay (core/replay.hpp + core/memplan.hpp) coverage:
//
//   * memory planner: hand-built nested/disjoint lifetime patterns hit the
//     max-live lower bound exactly, and seeded random lifetime sets always
//     pass the brute-force plan_valid() checker;
//   * capture: two recordings of the same step produce identical
//     fingerprints, and a captured program's plan is valid and tracked in
//     the replay_plan_bytes gauge;
//   * replay: bit-exact (max |diff| == 0.0) against eager for a raw op
//     sequence, the single-device trainer (weights + Adam state via
//     checkpoint byte identity), every data-parallel replica, and the fused
//     serve forward -- each over >= 10 consecutive steps;
//   * cache protocol: eager -> capture -> replay warm-up, LRU eviction,
//     invalidate-and-recapture, bind rejection on shape mismatch or a
//     replaced stable pointer, and full inertness when replay is disabled;
//   * fuzz: seeded shape churn and poisoned batches through the serving
//     engine with replay on -- no crash, no silent NaN, typed errors only,
//     and replay lookups reconcile with micro-batches + bisections;
//   * counters: replay counter updates racing Counters::reset() stay
//     consistent (no tearing, gauge never wraps).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.hpp"
#include "core/memplan.hpp"
#include "core/replay.hpp"
#include "data/batch.hpp"
#include "data/dataset.hpp"
#include "parallel/data_parallel.hpp"
#include "perf/counters.hpp"
#include "serve/engine.hpp"
#include "train/trainer.hpp"

namespace fastchg {
namespace {

using replay::BufferLife;
using replay::MemPlan;
using replay::Program;
using replay::ProgramCache;
using replay::Recorder;
using replay::RecorderScope;

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = replay::replay_enabled(); }
  void TearDown() override { replay::set_replay_enabled(prev_); }

 private:
  bool prev_ = true;
};

model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.feat_dim = 12;
  cfg.num_radial = 7;
  cfg.num_angular = 7;
  cfg.num_layers = 2;
  return cfg;
}

/// `n` copies of one generated crystal: every batch of equal size collates
/// identically, so a single replay key covers the whole run and the cache
/// walks its full eager -> capture -> replay protocol.
data::Dataset identical_rows(index_t n, std::uint64_t seed) {
  data::GeneratorConfig g;
  g.min_atoms = 4;
  g.max_atoms = 6;
  data::Dataset one = data::Dataset::generate(1, seed, g);
  std::vector<data::Crystal> crystals(static_cast<std::size_t>(n),
                                      one[0].crystal);
  return data::Dataset::from_crystals(std::move(crystals));
}

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> idx(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    idx[static_cast<std::size_t>(i)] = i;
  }
  return idx;
}

std::vector<float> flatten_parameters(const model::CHGNet& net) {
  std::vector<float> flat;
  for (const ag::Var& p : net.parameters()) {
    const std::vector<float> v = p.value().to_vector();
    flat.insert(flat.end(), v.begin(), v.end());
  }
  return flat;
}

float max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Memory planner
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, PlanDisjointLifetimesShareBytes) {
  // Three buffers alive one after another: all share offset 0 and the slab
  // is just the largest aligned size -- which is also the max-live bound.
  std::vector<BufferLife> lives = {
      {256, 0, 1, 0}, {512, 2, 3, 0}, {128, 4, 5, 0}};
  const MemPlan plan = replay::plan_memory(lives);
  EXPECT_TRUE(replay::plan_valid(plan));
  EXPECT_EQ(plan.slab_bytes, replay::aligned_bytes(512));
  EXPECT_EQ(plan.slab_bytes, plan.lower_bound_bytes);
  for (const BufferLife& b : plan.buffers) EXPECT_EQ(b.offset, 0u);
}

TEST_F(ReplayTest, PlanNestedLifetimesHitLowerBound) {
  // Nested pattern an autograd step produces: a long-lived activation, a
  // shorter-lived one inside it, and transient scratch inside that.
  std::vector<BufferLife> lives = {
      {1024, 0, 9, 0},  // outer
      {256, 1, 6, 0},   // middle
      {64, 2, 3, 0},    // inner scratch
      {64, 4, 5, 0},    // second scratch, reuses the first's bytes
  };
  const MemPlan plan = replay::plan_memory(lives);
  EXPECT_TRUE(replay::plan_valid(plan));
  EXPECT_EQ(plan.slab_bytes, plan.lower_bound_bytes);
  EXPECT_EQ(plan.buffers[2].offset, plan.buffers[3].offset)
      << "disjoint scratch buffers should share bytes";
}

TEST_F(ReplayTest, PlanRandomLifetimesAlwaysValid) {
  std::mt19937_64 rng(20250808u);
  for (int iter = 0; iter < 50; ++iter) {
    const int n = 1 + static_cast<int>(rng() % 40);
    std::vector<BufferLife> lives;
    lives.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      BufferLife b;
      b.bytes = 4 * (1 + rng() % 300);
      b.def = static_cast<int>(rng() % 100);
      b.last = b.def + static_cast<int>(rng() % 30);
      lives.push_back(b);
    }
    const MemPlan plan = replay::plan_memory(lives);
    EXPECT_TRUE(replay::plan_valid(plan)) << "iter " << iter;
    EXPECT_GE(plan.slab_bytes, plan.lower_bound_bytes) << "iter " << iter;
  }
}

// ---------------------------------------------------------------------------
// Recorder / Program on a raw op sequence
// ---------------------------------------------------------------------------

/// A small step over two bound inputs: matmul, residual add, elementwise
/// mul.  Returns the output value tensor.
Tensor tiny_step(const Tensor& x, const Tensor& y) {
  ag::Var vx = ag::ops::constant(x);
  ag::Var vy = ag::ops::constant(y);
  ag::Var z = ag::ops::add(ag::ops::matmul(vx, vy), vx);
  return ag::ops::mul(z, vy).value();
}

Tensor random_square(std::mt19937_64& rng, index_t n) {
  std::vector<float> v(static_cast<std::size_t>(n * n));
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& f : v) f = dist(rng);
  return Tensor::from_vector(std::move(v), {n, n});
}

std::shared_ptr<Program> capture_tiny(const Tensor& x, const Tensor& y) {
  Recorder rec;
  rec.bind_input(x);
  rec.bind_input(y);
  Tensor out;
  {
    RecorderScope scope(rec);
    out = tiny_step(x, y);
  }
  rec.tap(out);
  return rec.finish();
}

TEST_F(ReplayTest, CaptureFingerprintIsDeterministic) {
  std::mt19937_64 rng(7u);
  const Tensor x = random_square(rng, 4), y = random_square(rng, 4);
  const auto p1 = capture_tiny(x, y);
  const auto p2 = capture_tiny(x, y);
  EXPECT_EQ(p1->fingerprint(), p2->fingerprint());
  EXPECT_EQ(p1->num_steps(), p2->num_steps());
  EXPECT_GT(p1->num_steps(), 0u);
}

TEST_F(ReplayTest, ReplayMatchesEagerBitExactOnFreshInputs) {
  std::mt19937_64 rng(11u);
  const auto program = capture_tiny(random_square(rng, 4),
                                    random_square(rng, 4));
  for (int step = 0; step < 10; ++step) {
    const Tensor x = random_square(rng, 4), y = random_square(rng, 4);
    ASSERT_TRUE(program->bind({x, y}, {}));
    program->run();
    const Tensor got = program->tap_value(0);
    const Tensor want = tiny_step(x, y);
    ASSERT_EQ(got.numel(), want.numel());
    for (index_t i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i]) << "step " << step;
    }
  }
}

TEST_F(ReplayTest, CapturedPlanIsValidAndGaugeTracksSlab) {
  std::mt19937_64 rng(13u);
  const std::uint64_t before =
      perf::counters().snapshot().replay_plan_bytes;
  {
    const auto program = capture_tiny(random_square(rng, 4),
                                      random_square(rng, 4));
    EXPECT_TRUE(replay::plan_valid(program->plan()));
    EXPECT_GT(program->plan_bytes(), 0u);
    EXPECT_GE(perf::counters().snapshot().replay_plan_bytes,
              before + program->plan_bytes());
  }
  // Program destroyed: its slab leaves the gauge again.
  EXPECT_EQ(perf::counters().snapshot().replay_plan_bytes, before);
}

TEST_F(ReplayTest, BindRejectsShapeMismatchAndArity) {
  std::mt19937_64 rng(17u);
  const auto program = capture_tiny(random_square(rng, 4),
                                    random_square(rng, 4));
  EXPECT_FALSE(program->bind({random_square(rng, 4)}, {}));  // arity
  EXPECT_FALSE(
      program->bind({random_square(rng, 4), random_square(rng, 5)}, {}));
  EXPECT_TRUE(
      program->bind({random_square(rng, 4), random_square(rng, 4)}, {}));
}

TEST_F(ReplayTest, BindRejectsReplacedStablePointer) {
  std::mt19937_64 rng(19u);
  const Tensor x = random_square(rng, 3), y = random_square(rng, 3);
  Recorder rec;
  rec.bind_input(x);
  rec.expect_stable(y);  // y is a baked operand that must not move
  Tensor out;
  {
    RecorderScope scope(rec);
    out = tiny_step(x, y);
  }
  rec.tap(out);
  const auto program = rec.finish();
  EXPECT_TRUE(program->bind({random_square(rng, 3)}, {y}));
  EXPECT_FALSE(program->bind({random_square(rng, 3)}, {y.clone()}))
      << "a replaced stable storage must fail bind";
  EXPECT_FALSE(program->bind({random_square(rng, 3)}, {}))
      << "stable arity mismatch must fail bind";
}

// ---------------------------------------------------------------------------
// ProgramCache protocol
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, CacheWalksEagerCaptureReplay) {
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(23u);
  ProgramCache cache(4);
  const std::uint64_t key = 0x1234;

  auto l1 = cache.acquire(key);
  EXPECT_EQ(l1.action, ProgramCache::Action::kEager);
  auto l2 = cache.acquire(key);
  EXPECT_EQ(l2.action, ProgramCache::Action::kCapture);
  // A concurrent sighting while the capture is in flight stays eager.
  auto l3 = cache.acquire(key);
  EXPECT_EQ(l3.action, ProgramCache::Action::kEager);
  cache.store(key, capture_tiny(random_square(rng, 3),
                                random_square(rng, 3)));
  auto l4 = cache.acquire(key);
  EXPECT_EQ(l4.action, ProgramCache::Action::kReplay);
  ASSERT_TRUE(l4.program != nullptr);
  EXPECT_TRUE(l4.lock.owns_lock());
  // The lease serializes the slab: a second replay of the same program
  // while the lease is held falls back to eager.
  auto l5 = cache.acquire(key);
  EXPECT_EQ(l5.action, ProgramCache::Action::kEager);

  const ProgramCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 5u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.captures, 1u);
  EXPECT_GE(s.fallbacks, 1u);  // the contended lease
}

TEST_F(ReplayTest, CacheEvictsLeastRecentlyUsedProgram) {
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(29u);
  ProgramCache cache(2);
  for (std::uint64_t key = 1; key <= 3; ++key) {
    (void)cache.acquire(key);
    auto l = cache.acquire(key);
    ASSERT_EQ(l.action, ProgramCache::Action::kCapture) << key;
    cache.store(key, capture_tiny(random_square(rng, 3),
                                  random_square(rng, 3)));
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GE(cache.stats().evictions, 1u);
  // Key 1 was the least recently used: it must have been evicted.
  auto l = cache.acquire(1);
  EXPECT_NE(l.action, ProgramCache::Action::kReplay);
}

TEST_F(ReplayTest, CacheInvalidateForcesRecapture) {
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(31u);
  ProgramCache cache(4);
  const std::uint64_t key = 7;
  (void)cache.acquire(key);
  (void)cache.acquire(key);
  cache.store(key, capture_tiny(random_square(rng, 3),
                                random_square(rng, 3)));
  ASSERT_EQ(cache.acquire(key).action, ProgramCache::Action::kReplay);

  cache.invalidate(key);
  EXPECT_EQ(cache.size(), 0u);
  // The failed-bind sighting counts as the fresh eager pass, so the very
  // next sighting re-captures.
  EXPECT_EQ(cache.acquire(key).action, ProgramCache::Action::kCapture);
}

TEST_F(ReplayTest, CacheSightingTableStaysFlatOnUniqueKeys) {
  // Shuffled training: every step is a new key.  The sighting table is an
  // LRU of kSightingCapacity keys, so 10^4 unique keys leave it flat, while
  // a key seen again within the window still captures on its second
  // sighting and replays from its third.
  replay::set_replay_enabled(true);
  std::mt19937_64 rng(37u);
  ProgramCache cache(4);
  const std::uint64_t repeated = 0xfeedu;
  ASSERT_EQ(cache.acquire(repeated).action, ProgramCache::Action::kEager);
  std::size_t tracked_at_half = 0;
  for (std::uint64_t key = 1; key <= 10000; ++key) {
    ASSERT_EQ(cache.acquire(key).action, ProgramCache::Action::kEager) << key;
    if (key == 100) {
      // Second sighting of the repeated key, 100 unique keys later.
      ASSERT_EQ(cache.acquire(repeated).action,
                ProgramCache::Action::kCapture);
      cache.store(repeated, capture_tiny(random_square(rng, 3),
                                         random_square(rng, 3)));
    }
    if (key == 5000) tracked_at_half = cache.tracked_keys();
  }
  EXPECT_EQ(tracked_at_half, ProgramCache::kSightingCapacity + 1);
  EXPECT_EQ(cache.tracked_keys(), tracked_at_half);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.acquire(repeated).action, ProgramCache::Action::kReplay);

  // Forgotten sightings start over: key 1 is long gone, so its next
  // sighting is a first one again (eager), and the one after captures.
  EXPECT_EQ(cache.acquire(1).action, ProgramCache::Action::kEager);
  EXPECT_EQ(cache.acquire(1).action, ProgramCache::Action::kCapture);
  // The newest key is still remembered: its second sighting captures.
  EXPECT_EQ(cache.acquire(10000).action, ProgramCache::Action::kCapture);
}

TEST_F(ReplayTest, DisabledReplayIsCompletelyInert) {
  replay::set_replay_enabled(false);
  ProgramCache cache(4);
  for (int i = 0; i < 5; ++i) {
    auto l = cache.acquire(42);
    EXPECT_EQ(l.action, ProgramCache::Action::kEager);
    EXPECT_TRUE(l.program == nullptr);
  }
  const ProgramCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.captures, 0u);
}

// ---------------------------------------------------------------------------
// Trainer integration: bit-exactness over >= 10 consecutive steps
// ---------------------------------------------------------------------------

struct TrainRun {
  std::vector<float> params;
  std::vector<train::EpochStats> history;
  ProgramCache::Stats replay_stats;
  std::string checkpoint;
};

TrainRun train_with_replay(bool replay_on, const std::string& ckpt_path) {
  replay::set_replay_enabled(replay_on);
  data::Dataset ds = identical_rows(12, 51);
  model::CHGNet net(tiny_config(), 9);
  train::TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 4;  // 3 steps/epoch x 4 epochs = 12 consecutive steps
  train::Trainer trainer(net, tc);
  TrainRun run;
  run.history = trainer.fit(ds, all_rows(ds));
  run.params = flatten_parameters(net);
  run.replay_stats = trainer.replay_cache().stats();
  trainer.save_checkpoint(ckpt_path);
  run.checkpoint = ckpt_path;
  return run;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

TEST_F(ReplayTest, TrainStepBitExactReplayOnVsOff) {
  const TrainRun on =
      train_with_replay(true, ::testing::TempDir() + "replay_on.ckpt");
  const TrainRun off =
      train_with_replay(false, ::testing::TempDir() + "replay_off.ckpt");

  // Replay must actually have engaged: the same topology recurs 12 times,
  // so after 1 eager + 1 capture sighting the rest replays.
  EXPECT_GE(on.replay_stats.hits, 9u);
  EXPECT_EQ(on.replay_stats.captures, 1u);
  EXPECT_EQ(off.replay_stats.lookups, 0u) << "disabled replay must be inert";

  EXPECT_EQ(max_abs_diff(on.params, off.params), 0.0f);
  ASSERT_EQ(on.history.size(), off.history.size());
  for (std::size_t e = 0; e < on.history.size(); ++e) {
    EXPECT_EQ(on.history[e].mean_loss, off.history[e].mean_loss) << e;
    EXPECT_EQ(on.history[e].energy_loss, off.history[e].energy_loss) << e;
    EXPECT_EQ(on.history[e].force_loss, off.history[e].force_loss) << e;
    EXPECT_EQ(on.history[e].stress_loss, off.history[e].stress_loss) << e;
    EXPECT_EQ(on.history[e].magmom_loss, off.history[e].magmom_loss) << e;
  }
  // Checkpoint bytes cover weights + Adam moments + RNG stream: byte
  // identity means the optimizer state matched too.
  EXPECT_EQ(read_file(on.checkpoint), read_file(off.checkpoint));
}

TEST_F(ReplayTest, TrainShapeChurnStaysBitExactWithoutFallbacks) {
  // A mix of two topologies shuffled into every batch: nearly every step
  // carries a different batch composition, so the cache sees heavy key
  // churn.  The invariant under churn is safety, not speed: a shape change
  // must land as a key miss (never a wrong-program bind/fallback) and the
  // trained weights must stay bit-identical to the replay-off run.
  const auto churn_run = [](bool replay_on) {
    replay::set_replay_enabled(replay_on);
    data::Dataset a = identical_rows(8, 61);
    data::GeneratorConfig g;
    g.min_atoms = 7;
    g.max_atoms = 9;
    data::Dataset big = data::Dataset::generate(1, 62, g);
    std::vector<data::Crystal> crystals;
    for (index_t i = 0; i < 8; ++i) crystals.push_back(a[i].crystal);
    for (int i = 0; i < 8; ++i) crystals.push_back(big[0].crystal);
    data::Dataset ds = data::Dataset::from_crystals(std::move(crystals));

    model::CHGNet net(tiny_config(), 10);
    train::TrainConfig tc;
    tc.batch_size = 4;
    tc.epochs = 3;
    tc.shuffle_seed = 5;
    train::Trainer trainer(net, tc);
    const auto history = trainer.fit(ds, all_rows(ds));
    for (const auto& st : history) {
      EXPECT_TRUE(std::isfinite(st.mean_loss));
      EXPECT_EQ(st.skipped_steps, 0);
    }
    if (replay_on) {
      const ProgramCache::Stats s = trainer.replay_cache().stats();
      EXPECT_GT(s.lookups, 0u);
      EXPECT_EQ(s.fallbacks, 0u)
          << "shape churn must miss, not fail a bind";
    }
    return flatten_parameters(net);
  };
  const std::vector<float> on = churn_run(true);
  const std::vector<float> off = churn_run(false);
  EXPECT_EQ(max_abs_diff(on, off), 0.0f);
}

// ---------------------------------------------------------------------------
// Data-parallel integration
// ---------------------------------------------------------------------------

std::vector<float> dp_train(bool replay_on, ProgramCache::Stats* stats0,
                            float* divergence) {
  replay::set_replay_enabled(replay_on);
  data::Dataset ds = identical_rows(16, 71);
  parallel::DataParallelConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 4;  // 4 iterations/epoch, 2 structures per device
  parallel::DataParallelTrainer dp(tiny_config(), cfg, 17);
  for (index_t e = 0; e < 3; ++e) dp.train_epoch(ds, all_rows(ds), e);
  if (stats0 != nullptr) *stats0 = dp.replay_cache(0).stats();
  if (divergence != nullptr) *divergence = dp.replica_divergence();
  return flatten_parameters(dp.master());
}

TEST_F(ReplayTest, DataParallelBitExactReplayOnVsOff) {
  ProgramCache::Stats on_stats{}, off_stats{};
  float on_div = -1.0f, off_div = -1.0f;
  const std::vector<float> on = dp_train(true, &on_stats, &on_div);
  const std::vector<float> off = dp_train(false, &off_stats, &off_div);

  EXPECT_GE(on_stats.hits, 8u)
      << "12 device steps: 1 cold (grads not yet warm), 1 eager sighting, "
         "1 capture, then replays on device 0";
  EXPECT_EQ(off_stats.lookups, 0u);
  EXPECT_EQ(max_abs_diff(on, off), 0.0f);
  // The DDP bit-identity invariant must survive replayed device steps.
  EXPECT_EQ(on_div, 0.0f);
  EXPECT_EQ(off_div, 0.0f);
}

// ---------------------------------------------------------------------------
// Serve integration
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, ServeFusedForwardBitExactAcrossReplaysAndVsPredict) {
  replay::set_replay_enabled(true);
  data::Dataset ds = identical_rows(4, 81);
  model::CHGNet net(tiny_config(), 12);
  serve::EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;  // the result cache would short-circuit replay
  serve::InferenceEngine engine(net, cfg);

  // Reference reply from the synchronous eager path.
  const auto ref = engine.predict(ds[0].crystal);
  ASSERT_TRUE(ref.ok());

  std::vector<std::vector<serve::Result<serve::Prediction>>> ticks;
  for (int tick = 0; tick < 12; ++tick) {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    ticks.push_back(engine.drain());
  }
  const ProgramCache::Stats s = engine.replay_cache().stats();
  EXPECT_GE(s.hits, 10u);
  EXPECT_EQ(s.fallbacks, 0u);

  for (const auto& replies : ticks) {
    ASSERT_EQ(replies.size(), 4u);
    for (const auto& r : replies) {
      ASSERT_TRUE(r.ok());
      const serve::Prediction& p = r.value();
      const serve::Prediction& q = ref.value();
      EXPECT_EQ(p.energy, q.energy);
      ASSERT_EQ(p.forces.size(), q.forces.size());
      for (std::size_t i = 0; i < p.forces.size(); ++i) {
        for (int d = 0; d < 3; ++d) {
          EXPECT_EQ(p.forces[i][d], q.forces[i][d]);
        }
      }
      for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) EXPECT_EQ(p.stress[i][j], q.stress[i][j]);
      }
      ASSERT_EQ(p.magmom.size(), q.magmom.size());
      for (std::size_t i = 0; i < p.magmom.size(); ++i) {
        EXPECT_EQ(p.magmom[i], q.magmom[i]);
      }
    }
  }
}

TEST_F(ReplayTest, ServeReplayOffMatchesOnExactly) {
  data::Dataset ds = identical_rows(3, 83);
  model::CHGNet net(tiny_config(), 13);
  const auto run_engine = [&](bool replay_on) {
    replay::set_replay_enabled(replay_on);
    serve::EngineConfig cfg;
    cfg.max_batch = 4;
    cfg.cache_capacity = 0;
    serve::InferenceEngine engine(net, cfg);
    std::vector<double> energies;
    for (int tick = 0; tick < 6; ++tick) {
      for (index_t i = 0; i < ds.size(); ++i) {
        EXPECT_TRUE(engine.submit(ds[i].crystal).ok());
      }
      for (const auto& r : engine.drain()) {
        EXPECT_TRUE(r.ok());
        energies.push_back(r.value().energy);
      }
    }
    return energies;
  };
  const std::vector<double> on = run_engine(true);
  const std::vector<double> off = run_engine(false);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) EXPECT_EQ(on[i], off[i]) << i;
}

// ---------------------------------------------------------------------------
// Fuzz: shape churn and poisoned batches through the engine with replay on
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, FuzzShapeChurnNoCrashNoSilentNaN) {
  replay::set_replay_enabled(true);
  data::GeneratorConfig g;
  g.min_atoms = 3;
  g.max_atoms = 10;
  data::Dataset pool = data::Dataset::generate(6, 91, g);
  model::CHGNet net(tiny_config(), 14);
  serve::EngineConfig cfg;
  cfg.max_batch = 3;
  cfg.cache_capacity = 0;
  serve::InferenceEngine engine(net, cfg);

  std::mt19937_64 rng(92u);
  std::uint64_t submitted = 0;
  for (int tick = 0; tick < 25; ++tick) {
    const std::size_t n = 1 + rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
      const auto pick = static_cast<index_t>(rng() % 6);
      ASSERT_TRUE(engine.submit(pool[pick].crystal).ok());
      ++submitted;
    }
    for (const auto& r : engine.drain()) {
      ASSERT_TRUE(r.ok());
      EXPECT_TRUE(std::isfinite(r.value().energy));
      for (const auto& f : r.value().forces) {
        for (int d = 0; d < 3; ++d) EXPECT_TRUE(std::isfinite(f[d]));
      }
    }
  }
  EXPECT_EQ(engine.stats().served, submitted);
  EXPECT_EQ(engine.stats().numeric_faults, 0u);
  // Every fused forward consulted the program cache exactly once (no
  // bisections on the clean path).
  EXPECT_EQ(engine.stats().bisections, 0u);
  EXPECT_EQ(engine.replay_cache().stats().lookups,
            engine.stats().micro_batches);
}

TEST_F(ReplayTest, FuzzPoisonedBatchesIsolateTypedFaults) {
  replay::set_replay_enabled(true);
  data::Dataset ds = identical_rows(4, 93);
  model::CHGNet net(tiny_config(), 15);
  serve::EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.cache_capacity = 0;
  // Poison request slot 1 of every tick with a NaN position: the fused
  // batch trips the watchdog and bisection must isolate exactly slot 1.
  cfg.corrupt_batch = [](data::Batch& b,
                         const std::vector<std::size_t>& ids) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (ids[s] != 1) continue;
      const auto a0 =
          static_cast<index_t>(b.atom_first[static_cast<std::size_t>(s)]);
      b.cart.data()[a0 * 3] = std::numeric_limits<float>::quiet_NaN();
    }
  };
  serve::InferenceEngine engine(net, cfg);

  for (int tick = 0; tick < 8; ++tick) {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    const auto replies = engine.drain();
    ASSERT_EQ(replies.size(), 4u);
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (i == 1) {
        ASSERT_FALSE(replies[i].ok());
        EXPECT_EQ(replies[i].code(), serve::ErrorCode::kNumericFault);
      } else {
        ASSERT_TRUE(replies[i].ok()) << "tick " << tick << " slot " << i;
        EXPECT_TRUE(std::isfinite(replies[i].value().energy));
      }
    }
  }
  // Reconciliation: each micro-batch acquires once and each bisection adds
  // its two half-spans.
  EXPECT_EQ(engine.replay_cache().stats().lookups,
            engine.stats().micro_batches + 2 * engine.stats().bisections);
  EXPECT_GT(engine.stats().bisections, 0u);
  EXPECT_EQ(engine.stats().isolated_faults, 8u);
}

// ---------------------------------------------------------------------------
// Counters vs reset race
// ---------------------------------------------------------------------------

TEST_F(ReplayTest, ReplayCountersSurviveConcurrentReset) {
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.emplace_back([] {
    for (int i = 0; i < kIters; ++i) {
      perf::track_replay_hit();
      perf::track_replay_miss();
    }
  });
  threads.emplace_back([] {
    for (int i = 0; i < kIters; ++i) {
      perf::track_replay_fallback();
      perf::track_replay_capture();
    }
  });
  threads.emplace_back([] {
    for (int i = 0; i < kIters; ++i) {
      perf::track_replay_plan_bytes(64);
      perf::track_replay_plan_bytes(-64);
    }
  });
  threads.emplace_back([] {
    for (int i = 0; i < kIters / 100; ++i) perf::counters().reset();
  });
  for (auto& t : threads) t.join();

  // The gauge clamps at zero when a reset lands between a +delta and its
  // -delta, so it can only retain balanced leftovers -- never wrap.
  const perf::Counters before = perf::counters().snapshot();
  EXPECT_LE(before.replay_plan_bytes,
            static_cast<std::uint64_t>(kIters) * 64);
  perf::counters().reset();
  const perf::Counters after = perf::counters().snapshot();
  EXPECT_EQ(after.replay_hits, 0u);
  EXPECT_EQ(after.replay_misses, 0u);
  EXPECT_EQ(after.replay_fallbacks, 0u);
  EXPECT_EQ(after.replay_captures, 0u);
}

}  // namespace
}  // namespace fastchg
