// Tests for the training stack: Huber loss values and gradients, Adam on a
// quadratic, cosine annealing, Eq.-14 LR scaling, metrics, and an
// end-to-end "loss goes down" integration test for both the derivative and
// decoupled readouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "core/rng.hpp"
#include "golden_fixtures.hpp"
#include "train/trainer.hpp"

namespace fastchg::train {
namespace {

using namespace ag::ops;
using ag::Var;

// ---------------------------------------------------------------------------
// huber
// ---------------------------------------------------------------------------

TEST(Huber, QuadraticInsideLinearOutside) {
  Var pred(Tensor::from_vector({0.05f, 1.0f}, {2}), false);
  Var target(Tensor::from_vector({0.0f, 0.0f}, {2}), false);
  const float delta = 0.1f;
  // elem 0: 0.5*0.05^2 = 0.00125; elem 1: 0.1*(1 - 0.05) = 0.095
  EXPECT_NEAR(huber(pred, target, delta).item(), 0.5f * (0.00125f + 0.095f),
              1e-6f);
}

TEST(Huber, ZeroAtExactMatch) {
  Var pred(Tensor::from_vector({1, 2, 3}, {3}), false);
  EXPECT_FLOAT_EQ(huber(pred, pred, 0.1f).item(), 0.0f);
}

TEST(Huber, GradCheck) {
  Rng rng(1);
  Tensor p = Tensor::empty({12});
  rng.fill_uniform(p, -0.5f, 0.5f);
  Var pred(std::move(p), true);
  Tensor t = Tensor::zeros({12});
  Var target(std::move(t), false);
  ag::GradCheckOptions opt;
  opt.eps = 1e-3f;  // keep perturbations inside each Huber branch
  auto r = ag::gradcheck([&] { return huber(pred, target, 0.3f); }, {pred},
                         opt);
  EXPECT_TRUE(r.ok) << r.detail;
}

// ---------------------------------------------------------------------------
// adam
// ---------------------------------------------------------------------------

TEST(AdamOpt, MinimizesQuadratic) {
  Var x(Tensor::from_vector({5.0f, -3.0f}, {2}), true);
  Adam opt({x}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    ag::backward(sum_all(square(x)));
    opt.step();
  }
  for (float v : x.value().to_vector()) EXPECT_NEAR(v, 0.0f, 1e-2f);
}

TEST(AdamOpt, SkipsParamsWithoutGrad) {
  Var x(Tensor::scalar(1.0f), true);
  Var y(Tensor::scalar(2.0f), true);
  Adam opt({x, y}, 0.1f);
  ag::backward(square(x));
  opt.step();  // y has no grad; must not crash or move
  EXPECT_FLOAT_EQ(y.value().item(), 2.0f);
  EXPECT_LT(x.value().item(), 1.0f);
}

// ---------------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, CosineEndpoints) {
  CosineAnnealingLR s(1.0f, 100, 0.1f);
  EXPECT_NEAR(s.lr_at(0), 1.0f, 1e-6f);
  EXPECT_NEAR(s.lr_at(100), 0.1f, 1e-6f);
  EXPECT_NEAR(s.lr_at(50), 0.55f, 1e-6f);
  EXPECT_NEAR(s.lr_at(1000), 0.1f, 1e-6f);  // clamped past the end
}

TEST(Scheduler, MonotoneDecreasing) {
  CosineAnnealingLR s(3e-4f, 50);
  for (index_t t = 1; t <= 50; ++t) {
    EXPECT_LE(s.lr_at(t), s.lr_at(t - 1) + 1e-9f);
  }
}

TEST(Scheduler, Eq14LinearScaling) {
  // init_LR = batch/k * 3e-4 with k = 128 (paper Eq. 14).
  EXPECT_NEAR(scaled_init_lr(128), 3e-4f, 1e-9f);
  EXPECT_NEAR(scaled_init_lr(2048), 2048.0f / 128.0f * 3e-4f, 1e-8f);
  EXPECT_NEAR(scaled_init_lr(256, 128, 1e-3f), 2e-3f, 1e-8f);
}

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

TEST(Metrics, MAEAndR2KnownValues) {
  RegressionStats st;
  st.add(Tensor::from_vector({1.0f, 2.0f, 3.0f}, {3}),
         Tensor::from_vector({1.5f, 2.0f, 2.5f}, {3}));
  EXPECT_NEAR(st.mae(), (0.5 + 0.0 + 0.5) / 3.0, 1e-9);
  // Perfect prediction: R^2 = 1.
  RegressionStats perfect;
  Tensor t = Tensor::from_vector({1, 2, 3, 4}, {4});
  perfect.add(t, t);
  EXPECT_NEAR(perfect.r2(), 1.0, 1e-9);
}

TEST(Metrics, R2MeanPredictorIsZero) {
  RegressionStats st;
  st.add(Tensor::from_vector({2, 2, 2, 2}, {4}),
         Tensor::from_vector({1, 2, 3, 2}, {4}));
  EXPECT_NEAR(st.r2(), 0.0, 1e-6);
}

TEST(Metrics, PairRetentionForParityPlot) {
  RegressionStats st;
  st.keep_pairs(true);
  st.add(1.0, 2.0);
  st.add(3.0, 3.5);
  ASSERT_EQ(st.pairs().size(), 2u);
  EXPECT_FLOAT_EQ(st.pairs()[0].first, 1.0f);
  EXPECT_FLOAT_EQ(st.pairs()[1].second, 3.5f);
}

// ---------------------------------------------------------------------------
// end-to-end training
// ---------------------------------------------------------------------------

model::ModelConfig tiny_config(bool decoupled) {
  model::ModelConfig cfg;
  cfg.feat_dim = 16;
  cfg.num_radial = 9;
  cfg.num_angular = 9;
  cfg.num_layers = 2;
  cfg.batched_basis = true;
  cfg.fused_kernels = true;
  cfg.factored_envelope = true;
  cfg.packed_linears = true;
  if (decoupled) {
    cfg.dependency_elimination = true;
    cfg.decoupled_heads = true;
  }
  return cfg;
}

data::Dataset small_dataset() {
  data::GeneratorConfig g;
  g.min_atoms = 3;
  g.max_atoms = 8;
  g.lognormal_mu = 1.6;
  return data::Dataset::generate(24, 2024, g);
}

class EndToEnd : public ::testing::TestWithParam<bool> {};

TEST_P(EndToEnd, LossDecreasesOverEpochs) {
  const bool decoupled = GetParam();
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(decoupled), 3);
  TrainConfig tc;
  tc.batch_size = 8;
  tc.epochs = 6;
  tc.base_lr = 3e-3f;
  Trainer trainer(net, tc);
  std::vector<index_t> idx(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) idx[static_cast<std::size_t>(i)] = i;
  auto history = trainer.fit(ds, idx);
  ASSERT_EQ(history.size(), 6u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss * 0.9)
      << "first " << history.front().mean_loss << " last "
      << history.back().mean_loss;
  for (const auto& h : history) {
    EXPECT_TRUE(std::isfinite(h.mean_loss));
    EXPECT_EQ(h.iterations, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Readouts, EndToEnd, ::testing::Bool());

TEST(TrainerConfig, ScaledLRApplied) {
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(true), 4);
  TrainConfig tc;
  tc.batch_size = 256;
  tc.scale_lr = true;
  Trainer trainer(net, tc);
  EXPECT_NEAR(trainer.initial_lr(), 256.0f / 128.0f * 3e-4f, 1e-8f);
}

TEST(TrainerEval, MetricsFinite) {
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(true), 5);
  TrainConfig tc;
  tc.batch_size = 8;
  Trainer trainer(net, tc);
  std::vector<index_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  EvalMetrics m = trainer.evaluate(ds, idx);
  EXPECT_TRUE(std::isfinite(m.energy_mae_mev_atom));
  EXPECT_TRUE(std::isfinite(m.force_mae_mev_a));
  EXPECT_TRUE(std::isfinite(m.stress_mae_gpa));
  EXPECT_TRUE(std::isfinite(m.magmom_mae_mmub));
  EXPECT_GT(m.energy_mae_mev_atom, 0.0);
}


// ---------------------------------------------------------------------------
// gradient accumulation + early stopping
// ---------------------------------------------------------------------------

TEST(GradAccum, StepsOptimizerOncePerAccumWindow) {
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(true), 21);
  TrainConfig tc;
  tc.batch_size = 4;   // 24 samples -> 6 micro-batches
  tc.accumulation_steps = 3;
  tc.epochs = 1;
  Trainer trainer(net, tc);
  std::vector<index_t> idx;
  for (index_t i = 0; i < ds.size(); ++i) idx.push_back(i);
  trainer.fit(ds, idx);
  // 6 micro-batches / 3 = 2 optimizer steps.
  EXPECT_EQ(trainer.optimizer().step_count(), 2);
}

// A guard trip on the second micro-batch of an accumulation window zeroes
// the first one's gradients too, so neither may count in the epoch stats:
// `iterations` and `mean_loss` cover exactly the micro-batches whose
// gradients reached the weights.
TEST(GradAccum, GuardTripDropsTheWholeWindowFromEpochStats) {
  data::GeneratorConfig g;
  g.min_atoms = 3;
  g.max_atoms = 8;
  const data::Dataset clean = data::Dataset::generate(32, 2024, g);
  constexpr index_t kPoisoned = 3;
  std::vector<data::Crystal> crystals;
  for (index_t i = 0; i < clean.size(); ++i) {
    crystals.push_back(clean[i].crystal);
  }
  crystals[static_cast<std::size_t>(kPoisoned)].forces[0][1] =
      std::numeric_limits<double>::quiet_NaN();
  const data::Dataset ds = data::Dataset::from_crystals(
      std::move(crystals), clean.graph_config(), {}, /*relabel=*/false);
  std::vector<index_t> idx;
  for (index_t i = 0; i < ds.size(); ++i) idx.push_back(i);

  TrainConfig tc;
  tc.batch_size = 4;  // 32 rows -> 8 micro-batches, 4 windows of 2
  tc.accumulation_steps = 2;
  tc.epochs = 1;
  tc.prefetch = false;
  // Take the first shuffle seed that puts the poisoned row in the second
  // micro-batch of a window (epoch 0 shuffles with shuffle_seed + 0).
  const auto poisoned_micro = [&](std::uint64_t seed) {
    std::vector<index_t> order = idx;
    Rng(seed).shuffle(order);
    const auto at = std::find(order.begin(), order.end(), kPoisoned);
    return static_cast<index_t>(at - order.begin()) / tc.batch_size;
  };
  tc.shuffle_seed = 0;
  while (poisoned_micro(tc.shuffle_seed) % 2 != 1) ++tc.shuffle_seed;

  model::CHGNet net(tiny_config(true), 23);
  Trainer trainer(net, tc);
  const EpochStats st = trainer.train_epoch(ds, idx, 0);
  EXPECT_EQ(st.skipped_steps, 1);
  // The poisoned window's two micro-batches never reached the weights.
  EXPECT_EQ(st.iterations, 6);
  EXPECT_EQ(trainer.optimizer().step_count(), 3);
  EXPECT_TRUE(std::isfinite(st.mean_loss));
}

TEST(GradAccum, StillLearns) {
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(true), 22);
  TrainConfig tc;
  tc.batch_size = 4;
  tc.accumulation_steps = 2;
  tc.epochs = 5;
  tc.base_lr = 3e-3f;
  Trainer trainer(net, tc);
  std::vector<index_t> idx;
  for (index_t i = 0; i < ds.size(); ++i) idx.push_back(i);
  auto hist = trainer.fit(ds, idx);
  EXPECT_LT(hist.back().mean_loss, hist.front().mean_loss);
}

TEST(EarlyStopping, StopsAndRestoresBestWeights) {
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(true), 23);
  TrainConfig tc;
  tc.batch_size = 8;
  tc.epochs = 12;
  tc.base_lr = 3e-2f;  // deliberately unstable so val score oscillates
  Trainer trainer(net, tc);
  std::vector<index_t> train_idx, val_idx;
  for (index_t i = 0; i < 18; ++i) train_idx.push_back(i);
  for (index_t i = 18; i < ds.size(); ++i) val_idx.push_back(i);
  auto hist = trainer.fit(ds, train_idx, val_idx, /*patience=*/2);
  ASSERT_FALSE(hist.empty());
  for (const auto& h : hist) EXPECT_TRUE(std::isfinite(h.val_score));
  // Restored weights must reproduce the best recorded val score.
  double best = hist[0].val_score;
  for (const auto& h : hist) best = std::min(best, h.val_score);
  EvalMetrics m = trainer.evaluate(ds, val_idx);
  const train::LossWeights w{};
  const double restored = w.energy * m.energy_mae_mev_atom +
                          w.force * m.force_mae_mev_a +
                          w.stress * m.stress_mae_gpa +
                          w.magmom * m.magmom_mae_mmub;
  EXPECT_NEAR(restored, best, 1e-6 * std::max(1.0, best));
}

TEST(EarlyStopping, EmptyValidationThrows) {
  data::Dataset ds = small_dataset();
  model::CHGNet net(tiny_config(true), 24);
  Trainer trainer(net, {});
  EXPECT_THROW(trainer.fit(ds, {0, 1}, {}, 1), Error);
}

TEST(PrefetchTrainer, IdenticalResultsWithAndWithoutPrefetch) {
  // Prefetch only overlaps collation; the batch stream and therefore the
  // training trajectory must be bit-identical.
  data::Dataset ds = small_dataset();
  std::vector<index_t> idx;
  for (index_t i = 0; i < ds.size(); ++i) idx.push_back(i);
  auto run = [&](bool prefetch) {
    model::CHGNet net(tiny_config(true), 31);
    TrainConfig tc;
    tc.batch_size = 8;
    tc.epochs = 2;
    tc.prefetch = prefetch;
    Trainer trainer(net, tc);
    trainer.fit(ds, idx);
    std::vector<float> weights;
    for (auto& p : net.parameters()) {
      auto v = p.value().to_vector();
      weights.insert(weights.end(), v.begin(), v.end());
    }
    return weights;
  };
  EXPECT_EQ(run(false), run(true));
}

// Counted kernels of one trainer step (forward + loss + backward) on the
// golden fixture's four-crystal batch.  It changes only when the model's op
// schedule changes -- update it deliberately.
constexpr std::uint64_t kGoldenTrainerKernels = 3585;

TEST(GoldenKernels, TrainerStepLaunchesExactCount) {
  data::Dataset ds = golden::identical_rows(12, 51);
  model::CHGNet net(golden::golden_config(), 9);
  TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 4;
  Trainer trainer(net, tc);
  std::vector<index_t> rows;
  for (index_t i = 0; i < ds.size(); ++i) rows.push_back(i);
  trainer.fit(ds, rows);

  const std::vector<index_t> batch = {0, 1, 2, 3};
  for (index_t epoch = 4; epoch < 6; ++epoch) {
    EXPECT_EQ(golden::launches_during(
                  [&] { trainer.train_epoch(ds, batch, epoch); }),
              kGoldenTrainerKernels)
        << "epoch " << epoch;
  }
}

// ---------------------------------------------------------------------------
// AtomRef composition baseline
// ---------------------------------------------------------------------------

TEST(AtomRef, SolveDenseKnownSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = (1, 3)
  std::vector<double> a{2, 1, 1, 3};
  std::vector<double> b{5, 10};
  auto x = solve_dense(a, b, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(AtomRef, SolveDenseSingularThrows) {
  std::vector<double> a{1, 2, 2, 4};
  std::vector<double> b{1, 2};
  EXPECT_THROW(solve_dense(a, b, 2), Error);
}

TEST(AtomRef, FitCapturesCompositionBaseline) {
  data::Dataset ds = data::Dataset::generate(120, 555);
  std::vector<index_t> rows;
  for (index_t i = 0; i < ds.size(); ++i) rows.push_back(i);
  auto e0 = fit_atom_ref(ds, rows, 89);
  ASSERT_EQ(e0.size(), 90u);
  // The composition model must explain most of the energy variance: its
  // residual MAE should be far below the raw spread of energies per atom.
  double raw_mean = 0.0;
  for (index_t i = 0; i < ds.size(); ++i) {
    raw_mean += ds[i].crystal.energy / ds[i].crystal.natoms();
  }
  raw_mean /= ds.size();
  double raw_mae = 0.0, residual_mae = 0.0;
  for (index_t i = 0; i < ds.size(); ++i) {
    const data::Crystal& c = ds[i].crystal;
    const double target = c.energy / c.natoms();
    double pred = 0.0;
    for (index_t z : c.species) pred += e0[static_cast<std::size_t>(z)];
    pred /= c.natoms();
    raw_mae += std::fabs(target - raw_mean);
    residual_mae += std::fabs(target - pred);
  }
  EXPECT_LT(residual_mae, 0.4 * raw_mae)
      << "residual " << residual_mae / ds.size() << " vs raw spread "
      << raw_mae / ds.size();
}

TEST(AtomRef, ModelEnergyBaselineImproves) {
  data::Dataset ds = data::Dataset::generate(48, 556);
  std::vector<index_t> rows;
  for (index_t i = 0; i < ds.size(); ++i) rows.push_back(i);
  model::CHGNet net(tiny_config(true), 9);
  EvalMetrics before = evaluate_model(net, ds, rows, 16);
  net.set_atom_ref(fit_atom_ref(ds, rows, net.config().num_species));
  EvalMetrics after = evaluate_model(net, ds, rows, 16);
  // Untrained GNN + fitted baseline must beat untrained GNN alone by a lot.
  EXPECT_LT(after.energy_mae_mev_atom, 0.5 * before.energy_mae_mev_atom);
}

TEST(AtomRef, DoesNotChangeForces) {
  data::Dataset ds = data::Dataset::generate(4, 557);
  data::Batch b = data::collate_indices(ds, {0, 1, 2, 3});
  model::CHGNet net(tiny_config(false), 10);
  Tensor f_before =
      net.forward(b, model::ForwardMode::kEval).forces.value().clone();
  std::vector<float> e0(
      static_cast<std::size_t>(net.config().num_species + 1), 1.5f);
  net.set_atom_ref(e0);
  Tensor f_after =
      net.forward(b, model::ForwardMode::kEval).forces.value().clone();
  EXPECT_EQ(f_before.to_vector(), f_after.to_vector());
}

TEST(AtomRef, WrongSizeThrows) {
  model::CHGNet net(tiny_config(true), 11);
  EXPECT_THROW(net.set_atom_ref(std::vector<float>(5, 0.0f)), Error);
}

}  // namespace
}  // namespace fastchg::train
