// Arena/pool integration tests across the training, data-parallel and
// serving hot paths (docs/memory.md):
//
//   * leak sentinels: tracked *logical* live bytes return exactly to the
//     pre-step baseline after backward() + releasing the loss Var, and
//     after each serve engine tick -- pooling recycles physical blocks, so
//     without this check a retained-graph leak would hide inside warm
//     slabs;
//   * cross-device pool isolation in DataParallelTrainer (every replica
//     tensor attributed to its own device pool);
//   * pool-on == pool-off bit-exactness (max |diff| = 0.0) for a train
//     step, a dp step, and a fused serve forward: the allocator changes
//     where bytes live, never their values.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "autograd/variable.hpp"
#include "core/alloc.hpp"
#include "data/batch.hpp"
#include "data/dataset.hpp"
#include "parallel/data_parallel.hpp"
#include "perf/counters.hpp"
#include "serve/engine.hpp"
#include "train/loss.hpp"
#include "train/trainer.hpp"

namespace fastchg {
namespace {

class MemoryArenaTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = alloc::pooling_enabled(); }
  void TearDown() override { alloc::set_pooling_enabled(prev_); }

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

data::Dataset small_dataset(index_t n = 16, std::uint64_t seed = 77) {
  data::GeneratorConfig g;
  g.min_atoms = 3;
  g.max_atoms = 8;
  return data::Dataset::generate(n, seed, g);
}

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> idx(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    idx[static_cast<std::size_t>(i)] = i;
  }
  return idx;
}

// One manual train step: forward, loss, backward.  Everything allocated by
// the step dies when the scope closes, except leaf gradients -- which the
// caller warms up once so steady-state steps accumulate in place.
void run_manual_step(model::CHGNet& net, const data::Batch& b) {
  model::ModelOutput out = net.forward(b, model::ForwardMode::kTrain);
  train::LossResult loss =
      train::chgnet_loss(out, b, train::LossWeights{}, 0.1f);
  ag::backward(loss.total);
}

TEST_F(MemoryArenaTest, TrainStepLiveBytesReturnToBaseline) {
  alloc::set_pooling_enabled(true);
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(), 5);
  data::Batch b = data::collate_indices(ds, all_rows(ds));

  // Warm-up step materializes lazy state (leaf .grad tensors) once.
  run_manual_step(net, b);

  const std::uint64_t baseline = perf::counters().snapshot().bytes_live;
  for (int step = 0; step < 3; ++step) {
    alloc::ArenaScope arena;
    run_manual_step(net, b);
    // Graph + activations + loss released here, at the step boundary.
  }
  EXPECT_EQ(perf::counters().snapshot().bytes_live, baseline)
      << "train step retained tensor storage past the step boundary";
}

TEST_F(MemoryArenaTest, ServeTickLiveBytesReturnToBaseline) {
  alloc::set_pooling_enabled(true);
  model::CHGNet net(tiny_config(), 6);
  serve::InferenceEngine engine(net, serve::EngineConfig{});
  data::Dataset ds = small_dataset(6, 99);

  // Warm tick.
  for (index_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
  }
  (void)engine.drain();

  const std::uint64_t baseline = perf::counters().snapshot().bytes_live;
  for (int tick = 0; tick < 3; ++tick) {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    std::vector<serve::Result<serve::Prediction>> replies = engine.drain();
    for (const auto& r : replies) ASSERT_TRUE(r.ok());
    replies.clear();
    EXPECT_EQ(perf::counters().snapshot().bytes_live, baseline)
        << "serve tick " << tick << " retained tensor storage";
  }
}

TEST_F(MemoryArenaTest, DataParallelDevicePoolsAreIsolated) {
  alloc::set_pooling_enabled(true);
  parallel::DataParallelConfig cfg;
  cfg.num_devices = 3;
  cfg.global_batch = 6;
  parallel::DataParallelTrainer dp(tiny_config(), cfg, 11);

  for (int d = 0; d < cfg.num_devices; ++d) {
    const alloc::Allocator* pool = dp.device_pool(d).get();
    for (const ag::Var& p : dp.replica(d).parameters()) {
      EXPECT_EQ(p.value().source_allocator(), pool)
          << "device " << d << " parameter not in its own pool";
    }
    for (int other = 0; other < cfg.num_devices; ++other) {
      if (other == d) continue;
      EXPECT_NE(pool, dp.device_pool(other).get());
    }
  }

  // After a training epoch the invariant still holds: per-device arenas
  // never let a replica's tensors migrate into a sibling's pool.
  data::Dataset ds = small_dataset(12, 13);
  dp.train_epoch(ds, all_rows(ds), 0);
  for (int d = 0; d < cfg.num_devices; ++d) {
    const alloc::Allocator* pool = dp.device_pool(d).get();
    for (const ag::Var& p : dp.replica(d).parameters()) {
      EXPECT_EQ(p.value().source_allocator(), pool);
    }
  }
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

std::vector<float> train_with_pooling(bool pooled) {
  alloc::set_pooling_enabled(pooled);
  data::Dataset ds = small_dataset(16, 21);
  model::CHGNet net(tiny_config(), 9);
  train::TrainConfig tc;
  tc.batch_size = 8;
  tc.epochs = 2;
  train::Trainer trainer(net, tc);
  data::Dataset const& dsr = ds;
  std::vector<index_t> idx = all_rows(dsr);
  trainer.fit(ds, idx);
  return flatten_parameters(net);
}

TEST_F(MemoryArenaTest, TrainStepBitExactPoolOnVsOff) {
  const std::vector<float> pooled = train_with_pooling(true);
  const std::vector<float> system = train_with_pooling(false);
  EXPECT_EQ(max_abs_diff(pooled, system), 0.0f);
}

std::vector<float> dp_train_with_pooling(bool pooled) {
  alloc::set_pooling_enabled(pooled);
  data::Dataset ds = small_dataset(16, 31);
  parallel::DataParallelConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 8;
  parallel::DataParallelTrainer dp(tiny_config(), cfg, 17);
  dp.train_epoch(ds, all_rows(ds), 0);
  return flatten_parameters(dp.master());
}

TEST_F(MemoryArenaTest, DataParallelStepBitExactPoolOnVsOff) {
  const std::vector<float> pooled = dp_train_with_pooling(true);
  const std::vector<float> system = dp_train_with_pooling(false);
  EXPECT_EQ(max_abs_diff(pooled, system), 0.0f);
}

std::vector<serve::Prediction> serve_with_pooling(bool pooled) {
  alloc::set_pooling_enabled(pooled);
  model::CHGNet net(tiny_config(), 23);
  serve::EngineConfig cfg;
  cfg.max_batch = 4;  // forces fused multi-structure forwards
  serve::InferenceEngine engine(net, cfg);
  data::Dataset ds = small_dataset(10, 41);
  for (index_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(engine.submit(ds[i].crystal).ok());
  }
  std::vector<serve::Prediction> preds;
  for (auto& r : engine.drain()) {
    EXPECT_TRUE(r.ok());
    if (r.ok()) preds.push_back(r.value());
  }
  return preds;
}

TEST_F(MemoryArenaTest, FusedServeForwardBitExactPoolOnVsOff) {
  const std::vector<serve::Prediction> pooled = serve_with_pooling(true);
  const std::vector<serve::Prediction> system = serve_with_pooling(false);
  ASSERT_EQ(pooled.size(), system.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i].energy, system[i].energy);
    ASSERT_EQ(pooled[i].forces.size(), system[i].forces.size());
    for (std::size_t a = 0; a < pooled[i].forces.size(); ++a) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(pooled[i].forces[a][d], system[i].forces[a][d]);
      }
    }
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(pooled[i].stress[r][c], system[i].stress[r][c]);
      }
    }
    ASSERT_EQ(pooled[i].magmom.size(), system[i].magmom.size());
    for (std::size_t a = 0; a < pooled[i].magmom.size(); ++a) {
      EXPECT_EQ(pooled[i].magmom[a], system[i].magmom[a]);
    }
  }
}

}  // namespace
}  // namespace fastchg
