// Tests for the multi-device layer: samplers (invariants + the CoV
// reduction the paper reports), the ring all-reduce cost model, the
// data-parallel trainer (bitwise gradient-averaging equivalence), and the
// scaling harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/parallel_for.hpp"
#include "golden_fixtures.hpp"
#include "parallel/data_parallel.hpp"
#include "parallel/scaling.hpp"
#include "perf/trace.hpp"

namespace fastchg::parallel {
namespace {

data::Dataset medium_dataset(index_t n = 64, std::uint64_t seed = 5150) {
  data::GeneratorConfig g;
  g.min_atoms = 2;
  g.max_atoms = 24;
  g.lognormal_mu = 1.8;
  return data::Dataset::generate(n, seed, g);
}

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> rows(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    rows[static_cast<std::size_t>(i)] = i;
  }
  return rows;
}

model::ModelConfig tiny_fast_config() {
  model::ModelConfig cfg = model::ModelConfig::fast();
  cfg.feat_dim = 8;
  cfg.num_radial = 5;
  cfg.num_angular = 5;
  cfg.num_layers = 1;
  return cfg;
}

// ---------------------------------------------------------------------------
// samplers
// ---------------------------------------------------------------------------

class SamplerInvariants : public ::testing::TestWithParam<bool> {};

TEST_P(SamplerInvariants, PartitionIsExactAndBalancedInCount) {
  const bool balance = GetParam();
  data::Dataset ds = medium_dataset();
  auto rows = all_rows(ds);
  auto loads = sample_workloads(ds);
  SamplerConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 16;
  ShardPlan plan = balance ? load_balance_sharding(rows, loads, cfg)
                           : default_sharding(rows, loads, cfg);
  EXPECT_EQ(plan.num_iterations(), 4);  // 64 / 16
  std::multiset<index_t> seen;
  for (const auto& devs : plan.iterations) {
    ASSERT_EQ(devs.size(), 4u);
    for (const auto& shard : devs) {
      EXPECT_EQ(shard.size(), 4u);  // 16 / 4 samples per device
      seen.insert(shard.begin(), shard.end());
    }
  }
  EXPECT_EQ(seen.size(), 64u);  // every sample exactly once
  for (index_t r : rows) EXPECT_EQ(seen.count(r), 1u);
}

INSTANTIATE_TEST_SUITE_P(Both, SamplerInvariants, ::testing::Bool());

TEST(Sampler, LoadBalanceReducesCoV) {
  // The headline Fig. 9 claim: the paired smallest+largest assignment cuts
  // the coefficient of variance several-fold vs the default sampler.
  data::Dataset ds = medium_dataset(256, 99);
  auto rows = all_rows(ds);
  auto loads = sample_workloads(ds);
  SamplerConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 32;
  BalanceStats def =
      analyze_plan(default_sharding(rows, loads, cfg), loads);
  BalanceStats bal =
      analyze_plan(load_balance_sharding(rows, loads, cfg), loads);
  EXPECT_LT(bal.mean_cov, def.mean_cov * 0.55)
      << "default " << def.mean_cov << " balanced " << bal.mean_cov;
}

TEST(Sampler, IndivisibleBatchThrows) {
  data::Dataset ds = medium_dataset(16, 1);
  auto rows = all_rows(ds);
  auto loads = sample_workloads(ds);
  SamplerConfig cfg;
  cfg.num_devices = 3;
  cfg.global_batch = 16;  // not divisible by 3
  EXPECT_THROW(default_sharding(rows, loads, cfg), Error);
  cfg.global_batch = 0;  // divisible, but would never advance through rows
  EXPECT_THROW(default_sharding(rows, loads, cfg), Error);
  EXPECT_THROW(load_balance_sharding(rows, loads, cfg), Error);
}

TEST(Sampler, DropLastRaggedBatch) {
  data::Dataset ds = medium_dataset(20, 2);
  auto rows = all_rows(ds);
  auto loads = sample_workloads(ds);
  SamplerConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 16;
  ShardPlan plan = default_sharding(rows, loads, cfg);
  EXPECT_EQ(plan.num_iterations(), 1);  // 20 -> one full batch, rest dropped
}

// Both samplers keep only full global batches: every kept iteration holds
// global_batch distinct rows, num_devices shards of equal size.
TEST(Sampler, LoadBalanceDropsRaggedBatch) {
  data::Dataset ds = medium_dataset(20, 2);
  auto rows = all_rows(ds);
  auto loads = sample_workloads(ds);
  SamplerConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 16;
  ShardPlan plan = load_balance_sharding(rows, loads, cfg);
  ASSERT_EQ(plan.num_iterations(), 1);  // 20 -> one full batch, rest dropped
  std::set<index_t> seen;
  for (const auto& shard : plan.iterations[0]) {
    EXPECT_EQ(shard.size(), 8u);
    seen.insert(shard.begin(), shard.end());
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Sampler, WorkloadsMatchGraphs) {
  data::Dataset ds = medium_dataset(8, 3);
  auto loads = sample_workloads(ds);
  for (index_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loads[static_cast<std::size_t>(i)],
              ds[i].graph.feature_number());
  }
}

// ---------------------------------------------------------------------------
// communication model
// ---------------------------------------------------------------------------

TEST(CommModel, SingleDeviceIsFree) {
  EXPECT_DOUBLE_EQ(ring_allreduce_seconds(1 << 20, 1), 0.0);
}

TEST(CommModel, RingFormula) {
  CommConfig cfg;
  cfg.intra_node_bw = 100e9;
  cfg.latency = 1e-5;
  cfg.gpus_per_node = 8;
  const std::uint64_t bytes = 100'000'000;
  const double expect = 2.0 * 3.0 / 4.0 * 1e8 / 100e9 + 2.0 * 3.0 * 1e-5;
  EXPECT_NEAR(ring_allreduce_seconds(bytes, 4, cfg), expect, 1e-12);
}

TEST(CommModel, InterNodeBandwidthCliff) {
  CommConfig cfg;  // 4 GPUs per node
  const std::uint64_t bytes = 4 * 429046;  // paper-sized model
  const double t4 = ring_allreduce_seconds(bytes, 4, cfg);
  const double t8 = ring_allreduce_seconds(bytes, 8, cfg);
  // Crossing the node boundary costs much more than the 2x ring growth.
  EXPECT_GT(t8, 2.0 * t4);
}

TEST(CommModel, HierarchicalBeatsFlatAcrossNodes) {
  CommConfig flat, hier;
  flat.hierarchical = false;
  hier.hierarchical = true;
  const std::uint64_t bytes = 4 * 429046;
  for (int p : {8, 16, 32}) {
    const auto f = bucketed_allreduce_cost(bytes, p, 40, flat);
    const auto h = bucketed_allreduce_cost(bytes, p, 40, hier);
    EXPECT_LT(h.total(), f.total()) << p << " devices";
  }
  // Within one node the two agree.
  const auto a = bucketed_allreduce_cost(bytes, 4, 40, flat);
  const auto b = bucketed_allreduce_cost(bytes, 4, 40, hier);
  EXPECT_DOUBLE_EQ(a.total(), b.total());
}

// ---------------------------------------------------------------------------
// step ledger: hand-built inputs with binary-exact values, checked with
// EXPECT_EQ -- no wall clock involved.
// ---------------------------------------------------------------------------

// A 2-device ring in one node moving 1 MB at 4 MB/s: the all-reduce's
// bandwidth part is 2*(1/2) * 1e6 / 4e6 = 0.25 s, and 3 buckets at
// 2^-4 s per hop give a latency part of 3 * 2 * 0.0625 = 0.375 s.
constexpr std::uint64_t kLedgerBytes = 1'000'000;
constexpr int kLedgerBuckets = 3;

CommConfig ledger_comm(double latency = 0.0625) {
  CommConfig cfg;
  cfg.intra_node_bw = 4e6;
  cfg.latency = latency;
  cfg.h2d_bw = 4e6;
  return cfg;
}

IterationTiming ledger_step(std::vector<double> compute, bool overlap,
                            bool prefetch, std::uint64_t shard_bytes = 0,
                            const CommConfig& cfg = ledger_comm(),
                            double recovery_s = 0.0, double join_s = 0.0) {
  return step_timing(std::move(compute), shard_bytes, kLedgerBytes,
                     kLedgerBuckets, cfg, overlap, prefetch, recovery_s,
                     join_s);
}

TEST(Ledger, StragglerSetsMaxComputeAndEveryOtherDevicesSlack) {
  const IterationTiming it =
      ledger_step({0.25, 2.0, 0.5, 0.125}, true, true);
  EXPECT_EQ(it.num_alive, 4);
  EXPECT_EQ(it.max_compute_s, 2.0);
  EXPECT_EQ(it.step_s, 2.0 + it.exposed_comm_s);
  const std::vector<double> slack = {1.75, 0.0, 1.5, 1.875};
  for (std::size_t d = 0; d < 4; ++d) {
    const std::vector<LaneSpan> lane = device_lane(it, d);
    ASSERT_FALSE(lane.empty());
    EXPECT_STREQ(lane[0].name, "compute");
    EXPECT_EQ(lane[0].seconds, it.device_compute_s[d]);
    const bool has_slack =
        lane.size() > 1 && std::strcmp(lane[1].name, "straggler_slack") == 0;
    EXPECT_EQ(has_slack, slack[d] > 0.0) << "device " << d;
    if (has_slack) {
      EXPECT_EQ(lane[1].seconds, slack[d]) << "device " << d;
    }
  }
}

TEST(Ledger, OverlapHidesTheBandwidthPartNeverTheLatency) {
  // Plenty of backward: the 0.25 s bandwidth part hides, the 0.375 s
  // per-bucket latency stays exposed.
  const IterationTiming hidden = ledger_step({2.0, 2.0}, true, true);
  EXPECT_EQ(hidden.comm_s, 0.625);
  EXPECT_EQ(hidden.exposed_comm_s, 0.375);
  // With no ring latency the whole all-reduce hides.
  EXPECT_EQ(ledger_step({2.0, 2.0}, true, true, 0, ledger_comm(0.0))
                .exposed_comm_s,
            0.0);
  // A short backward (2/3 of compute, 80 % of it overlappable) hides part
  // of the bandwidth.
  const IterationTiming part = ledger_step({0.25, 0.25}, true, true);
  EXPECT_EQ(part.exposed_comm_s, (0.25 - 0.8 * (0.66 * 0.25)) + 0.375);
  EXPECT_NEAR(part.exposed_comm_s, 0.118 + 0.375, 1e-12);
  // Without overlap every second of the all-reduce is exposed.
  const IterationTiming serial = ledger_step({2.0, 2.0}, false, true);
  EXPECT_EQ(serial.exposed_comm_s, 0.625);
  EXPECT_EQ(serial.step_s, 2.625);
}

TEST(Ledger, PrefetchHidesTheCopyUpToTheCompute) {
  const CommConfig cfg = ledger_comm(0.0);
  // 3 MB at 4 MB/s: a 0.75 s copy.
  const IterationTiming short_compute =
      ledger_step({0.5, 0.25}, true, true, 3'000'000, cfg);
  EXPECT_EQ(short_compute.h2d_s, 0.75);
  EXPECT_EQ(short_compute.exposed_h2d_s, 0.25);
  EXPECT_EQ(short_compute.step_s, 0.75);
  EXPECT_EQ(ledger_step({1.0, 0.25}, true, true, 3'000'000, cfg)
                .exposed_h2d_s,
            0.0);
  EXPECT_EQ(ledger_step({1.0, 0.25}, true, false, 3'000'000, cfg)
                .exposed_h2d_s,
            0.75);
  // A small copy hides entirely behind the compute.
  EXPECT_EQ(ledger_step({0.5, 0.5}, true, true, 20'000, cfg).exposed_h2d_s,
            0.0);
  EXPECT_EQ(ledger_step({0.5, 0.5}, true, false, 20'000, cfg).exposed_h2d_s,
            0.005);
}

TEST(Ledger, RecoveryAndJoinAddOntoTheStepTheyRide) {
  const IterationTiming base = ledger_step({0.5, 2.0}, true, false, 40'000);
  const IterationTiming charged =
      ledger_step({0.5, 2.0}, true, false, 40'000, ledger_comm(), 0.5, 0.25);
  EXPECT_EQ(charged.recovery_s, 0.5);
  EXPECT_EQ(charged.join_s, 0.25);
  EXPECT_EQ(charged.comm_s, base.comm_s);
  EXPECT_EQ(charged.exposed_comm_s, base.exposed_comm_s);
  EXPECT_EQ(charged.exposed_h2d_s, base.exposed_h2d_s);
  EXPECT_EQ(charged.step_s, base.step_s + 0.5 + 0.25);

  // The charges themselves: a barrier per hop each way, plus a parameter
  // re-broadcast (recovery) or a full-state stream to the joiner (join).
  const CommConfig cfg = ledger_comm();
  EXPECT_EQ(recovery_cost_seconds(1, kLedgerBytes, cfg), 0.125);
  EXPECT_EQ(recovery_cost_seconds(2, kLedgerBytes, cfg),
            0.125 + ring_allreduce_seconds(kLedgerBytes, 2, cfg));
  EXPECT_EQ(join_cost_seconds(2, 3 * kLedgerBytes, cfg), 0.125 + 0.0625 + 0.75);
  // A grown ring spanning nodes pays the fat-tree tier.
  CommConfig wide = cfg;
  wide.inter_node_bw = 2e6;
  wide.inter_latency = 0.5;
  EXPECT_EQ(join_cost_seconds(5, kLedgerBytes, wide), 0.5 + 0.5 + 0.5);
}

TEST(Ledger, EveryDeviceLaneTilesTheStep) {
  IterationTiming it;
  it.device_compute_s = {0.25, 1.0, 0.5};
  it.max_compute_s = 1.0;
  it.exposed_comm_s = 0.125;
  it.exposed_h2d_s = 0.0625;
  it.recovery_s = 0.5;
  it.join_s = 2.0;
  it.step_s = 1.0 + 0.125 + 0.0625 + 0.5 + 2.0;
  for (std::size_t d = 0; d < it.device_compute_s.size(); ++d) {
    double total = 0.0;
    std::vector<std::string> names;
    for (const LaneSpan& span : device_lane(it, d)) {
      EXPECT_GT(span.seconds, 0.0);
      total += span.seconds;
      names.push_back(span.name);
    }
    EXPECT_EQ(total, it.step_s) << "device " << d;
    std::vector<std::string> want = {"compute", "straggler_slack",
                                     "allreduce_exposed", "h2d_exposed",
                                     "recovery", "join"};
    if (d == 1) want.erase(want.begin() + 1);  // the straggler never waits
    EXPECT_EQ(names, want) << "device " << d;
  }
  // A tail with no compute (a charge after the epoch's last step) is just
  // the charge.
  IterationTiming tail;
  tail.device_compute_s = {0.0, 0.0};
  tail.join_s = 0.25;
  const std::vector<LaneSpan> lane = device_lane(tail, 1);
  ASSERT_EQ(lane.size(), 1u);
  EXPECT_STREQ(lane[0].name, "join");
  EXPECT_EQ(lane[0].seconds, 0.25);
}

// ---------------------------------------------------------------------------
// data-parallel trainer
// ---------------------------------------------------------------------------

// Counted kernels of one device step (forward + loss + backward on two
// crystals) on the golden fixture.  It changes only when the model's op
// schedule changes -- update it deliberately.
constexpr std::uint64_t kGoldenDpKernels = 2501;

TEST(GoldenKernels, DataParallelIterationLaunchesExactCount) {
  data::Dataset ds = golden::identical_rows(16, 71);
  DataParallelConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 4;
  DataParallelTrainer dp(golden::golden_config(), cfg, 17);
  for (index_t e = 0; e < 3; ++e) dp.train_epoch(ds, all_rows(ds), e);

  // One iteration: two structures on each of the two devices.
  const std::vector<index_t> batch = {0, 1, 2, 3};
  for (index_t e = 3; e < 5; ++e) {
    EXPECT_EQ(golden::launches_during([&] { dp.train_epoch(ds, batch, e); }),
              2 * kGoldenDpKernels)
        << "epoch " << e;
  }
}

TEST(DataParallel, MatchesSingleDeviceGradientAccumulation) {
  // One DP iteration with P devices must equal, bit for bit, a
  // single-device step over the same global batch with gradients summed in
  // device order and averaged (the DDP identity).
  data::Dataset ds = medium_dataset(8, 8);
  auto rows = all_rows(ds);

  DataParallelConfig cfg;
  cfg.num_devices = 2;
  cfg.global_batch = 8;
  cfg.load_balance = false;
  cfg.scale_lr = false;
  cfg.fit_atom_ref = false;  // the manual twin below skips AtomRef too
  cfg.seed = 3;
  DataParallelTrainer dp(tiny_fast_config(), cfg, 21);

  // Reconstruct the exact shards the trainer will use.
  auto loads = sample_workloads(ds);
  SamplerConfig scfg;
  scfg.num_devices = 2;
  scfg.global_batch = 8;
  scfg.seed = 3;
  ShardPlan plan = default_sharding(rows, loads, scfg);
  ASSERT_EQ(plan.num_iterations(), 1);

  // Manual reference: accumulate averaged gradients on a twin model.
  model::CHGNet twin(tiny_fast_config(), 21);
  twin.copy_parameters_from(dp.model());
  train::Adam opt(twin.parameters(), cfg.base_lr);
  twin.zero_grad();
  std::vector<Tensor> grad_sum;
  for (const auto& shard : plan.iterations[0]) {
    twin.zero_grad();
    data::Batch b = data::collate_indices(ds, shard);
    auto out = twin.forward(b, model::ForwardMode::kTrain);
    ag::backward(train::chgnet_loss(out, b).total);
    auto params = twin.parameters();
    if (grad_sum.empty()) {
      for (auto& p : params) {
        grad_sum.push_back(p.has_grad() ? p.grad().clone()
                                        : Tensor::zeros(p.shape()));
      }
    } else {
      for (std::size_t i = 0; i < params.size(); ++i) {
        if (params[i].has_grad()) grad_sum[i].add_(params[i].grad());
      }
    }
  }
  {
    auto params = twin.parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      grad_sum[i].mul_(0.5f);
      params[i].set_grad(grad_sum[i].clone());
    }
  }
  opt.step();

  dp.train_epoch(ds, rows, 0);

  auto a = dp.model().parameters();
  auto b = twin.parameters();
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float* pa = a[i].value().data();
    const float* pb = b[i].value().data();
    for (index_t k = 0; k < a[i].numel(); ++k) {
      worst = std::max(worst, std::fabs(pa[k] - pb[k]));
    }
  }
  EXPECT_EQ(worst, 0.0f);
}

// At P = 1 the data-parallel trainer runs the single-device Trainer's step
// and guard: with the same shuffle seed, a flat LR (min_lr == base_lr) and
// no load balancing, weights, per-epoch mean loss and guard state match
// bit for bit -- also when a poisoned-forces row makes both skip steps.
// docs/virtual_cluster.md (Layer 1) lists what still differs at P = 1.
TEST(DataParallel, OneDeviceEqualsTrainer) {
  const data::Dataset clean = medium_dataset(32, 44);
  std::vector<data::Crystal> crystals;
  for (index_t i = 0; i < clean.size(); ++i) {
    crystals.push_back(clean[i].crystal);
  }
  crystals[5].forces[0][1] = std::numeric_limits<float>::quiet_NaN();
  const data::Dataset poisoned = data::Dataset::from_crystals(
      std::move(crystals), clean.graph_config(), {}, /*relabel=*/false);

  for (const data::Dataset* ds : {&clean, &poisoned}) {
    const auto rows = all_rows(*ds);
    DataParallelConfig pc;
    pc.num_devices = 1;
    pc.global_batch = 8;
    pc.load_balance = false;
    pc.scale_lr = false;
    pc.seed = 9;
    DataParallelTrainer dp(tiny_fast_config(), pc, 13);

    model::CHGNet net(tiny_fast_config(), 13);
    train::TrainConfig tc;
    tc.batch_size = pc.global_batch;
    tc.epochs = 3;
    tc.base_lr = pc.base_lr;
    tc.min_lr = pc.base_lr;
    tc.shuffle_seed = pc.seed;
    train::Trainer trainer(net, tc);

    for (index_t e = 0; e < tc.epochs; ++e) {
      const double dp_loss = dp.train_epoch(*ds, rows, e).mean_loss;
      const double tr_loss = trainer.train_epoch(*ds, rows, e).mean_loss;
      EXPECT_TRUE(std::isfinite(tr_loss)) << "epoch " << e;
      EXPECT_EQ(dp_loss, tr_loss) << "epoch " << e;
    }

    const auto a = dp.model().parameters();
    const auto b = net.parameters();
    ASSERT_EQ(a.size(), b.size());
    float worst = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const float* pa = a[i].value().data();
      const float* pb = b[i].value().data();
      for (index_t k = 0; k < a[i].numel(); ++k) {
        ASSERT_TRUE(std::isfinite(pa[k]) && std::isfinite(pb[k]));
        worst = std::max(worst, std::fabs(pa[k] - pb[k]));
      }
    }
    EXPECT_EQ(worst, 0.0f);
    EXPECT_EQ(dp.guard().skipped_steps, trainer.guard().skipped_steps);
    EXPECT_EQ(dp.guard().backoff_scale, trainer.guard().backoff_scale);
    if (ds == &poisoned) {
      EXPECT_GT(trainer.guard().skipped_steps, 0);
    }
  }
}

TEST(DataParallel, TimingFieldsPopulated) {
  data::Dataset ds = medium_dataset(16, 9);
  DataParallelConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 8;
  DataParallelTrainer dp(tiny_fast_config(), cfg, 31);
  auto res = dp.train_epoch(ds, all_rows(ds), 0);
  ASSERT_EQ(res.iterations.size(), 2u);
  for (const auto& it : res.iterations) {
    EXPECT_EQ(it.device_compute_s.size(), 4u);
    EXPECT_GT(it.max_compute_s, 0.0);
    EXPECT_GT(it.comm_s, 0.0);
    EXPECT_GE(it.step_s, it.max_compute_s);
  }
  EXPECT_GT(res.simulated_seconds, 0.0);
  EXPECT_TRUE(std::isfinite(res.mean_loss));
}

TEST(DataParallel, Eq14AppliedToGlobalBatch) {
  DataParallelConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 2048;
  cfg.scale_lr = true;
  DataParallelTrainer dp(tiny_fast_config(), cfg, 41);
  EXPECT_NEAR(dp.effective_lr(), 2048.0f / 128.0f * 3e-4f, 1e-7f);
}


TEST(DataParallel, LossDecreasesOverEpochs) {
  data::Dataset ds = medium_dataset(48, 15);
  DataParallelConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 16;
  cfg.base_lr = 3e-3f;
  cfg.scale_lr = false;
  DataParallelTrainer dp(tiny_fast_config(), cfg, 71);
  auto rows = all_rows(ds);
  const double first = dp.train_epoch(ds, rows, 0).mean_loss;
  double last = first;
  for (index_t e = 1; e < 5; ++e) {
    last = dp.train_epoch(ds, rows, e).mean_loss;
  }
  EXPECT_LT(last, first) << "first " << first << " last " << last;
}

// ---------------------------------------------------------------------------
// scaling harness
// ---------------------------------------------------------------------------

// The Fig. 10 bench prices a shard at one shared cost per atom, bond and
// angle: in units of that cost a shard costs exactly the load-balance
// sampler's workload measure summed over its rows.
TEST(Scaling, UnitPriceEqualsSamplerWorkload) {
  data::Dataset ds = medium_dataset(64, 16);
  const std::vector<index_t> loads = sample_workloads(ds);
  CostModel unit;
  unit.per_atom = unit.per_bond = unit.per_angle = 1.0;
  Rng rng(17);
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<index_t> rows;
    index_t want = 0;
    for (index_t i = 0; i < 1 + 5 * rep; ++i) {
      rows.push_back(rng.randint(0, ds.size() - 1));
      want += loads[static_cast<std::size_t>(rows.back())];
    }
    EXPECT_EQ(unit.shard_seconds(ds, rows), static_cast<double>(want))
        << "rep " << rep;
  }
}

// Nothing in the simulator is timed: the same inputs give the same bits,
// whatever the worker count, straggler jitter included.
TEST(Scaling, SimulationIsRepeatableAcrossThreadCounts) {
  data::Dataset ds = medium_dataset(256, 18);
  CostModel unit;
  unit.per_atom = unit.per_bond = unit.per_angle = 1e-5;
  ScalingConfig cfg;
  cfg.strong_global_batch = 128;
  cfg.weak_per_device_batch = 8;
  cfg.device_counts = {4, 8, 16};
  const auto run = [&] {
    auto pts = strong_scaling(unit, ds, 429046 * 4, cfg);
    auto weak = weak_scaling(unit, ds, 429046 * 4, cfg);
    pts.insert(pts.end(), weak.begin(), weak.end());
    return pts;
  };
  const int original = num_threads();
  set_num_threads(1);
  const std::vector<ScalingPoint> serial = run();
  set_num_threads(4);
  const std::vector<ScalingPoint> threaded = run();
  const std::vector<ScalingPoint> again = run();
  set_num_threads(original);
  ASSERT_EQ(serial.size(), 6u);
  for (const auto* other : {&threaded, &again}) {
    ASSERT_EQ(other->size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const ScalingPoint& a = serial[i];
      const ScalingPoint& b = (*other)[i];
      EXPECT_EQ(a.devices, b.devices) << i;
      EXPECT_EQ(a.epoch_seconds, b.epoch_seconds) << i;
      EXPECT_EQ(a.iter_seconds, b.iter_seconds) << i;
      EXPECT_EQ(a.comm_fraction, b.comm_fraction) << i;
      EXPECT_EQ(a.efficiency, b.efficiency) << i;
      EXPECT_EQ(a.load_cov, b.load_cov) << i;
    }
  }
}

TEST(Scaling, StrongScalingShapeMatchesPaper) {
  // With a compute-dominated cost model and the default comm parameters the
  // curve must show: monotone speedup, sub-linear efficiency, efficiency
  // decaying with P (paper: 82.5% at 8 -> 66% at 32).
  data::Dataset ds = medium_dataset(512, 11);
  CostModel cm;  // compute-dominated regime (comm latency << device compute)
  cm.fixed = 2e-4;
  cm.per_atom = 1e-4;
  cm.per_bond = 3e-5;
  cm.per_angle = 1e-5;
  ScalingConfig cfg;
  cfg.strong_global_batch = 256;
  cfg.device_counts = {4, 8, 16, 32};
  cfg.straggler_sigma = 0.0;  // deterministic for the monotonicity asserts
  const std::uint64_t model_bytes = 429046 * 4;
  auto pts = strong_scaling(cm, ds, model_bytes, cfg);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0].speedup, 1.0);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].speedup, pts[i - 1].speedup);        // still speeds up
    EXPECT_LT(pts[i].efficiency, pts[i - 1].efficiency + 1e-9);  // decays
    EXPECT_LT(pts[i].speedup,
              static_cast<double>(pts[i].devices) / 4.0 + 1e-9);  // sub-linear
  }
}

// The Fig. 10 simulator prices every iteration through the step ledger.
// On StrongScalingShapeMatchesPaper's cost model its epoch time, exposed
// comm share and load CoV equal, bit for bit, the values the simulator gave
// before the ledger was shared with DataParallelTrainer (H2D hides behind
// the compute here, so pricing it changes nothing).
TEST(Scaling, GoldenStrongAndWeakPoints) {
  data::Dataset ds = medium_dataset(512, 11);
  CostModel cm;
  cm.fixed = 2e-4;
  cm.per_atom = 1e-4;
  cm.per_bond = 3e-5;
  cm.per_angle = 1e-5;
  ScalingConfig cfg;
  cfg.strong_global_batch = 256;
  cfg.device_counts = {4, 8, 16, 32};
  cfg.straggler_sigma = 0.0;
  ScalingConfig weak = cfg;
  weak.weak_per_device_batch = 16;
  weak.straggler_sigma = 0.08;
  struct Golden {
    double epoch_seconds, comm_fraction, load_cov;
  };
  const Golden strong_want[] = {
      {0x1.c7564302b40f8p+0, 0x1.094a05c05ad31p-8, 0x1.18b9fc5e966c9p-6},
      {0x1.d3d859c8c9321p-1, 0x1.91a391ba8521fp-7, 0x1.82fdc5c9a359ep-6},
      {0x1.f827fa1a0cf18p-2, 0x1.3f778f9aab46ep-5, 0x1.8ac96af0bf2cp-5},
      {0x1.380346dc5d639p-2, 0x1.d92f2231e7f89p-4, 0x1.6916f1a8be372p-4}};
  const Golden weak_want[] = {
      {0x1.0c1aeb8c1c38dp+1, 0x1.c28dec7968266p-7, 0x1.4d0a3823eb232p-5},
      {0x1.1f503c8f7e471p+0, 0x1.4700d1d59ec1p-6, 0x1.9e6d5ba314ca4p-5},
      {0x1.29b6cc55fc44ep-1, 0x1.0e7f2086804bep-5, 0x1.8ac96af0bf2cp-5},
      {0x1.3beaa939f029dp-2, 0x1.d3563e2075675p-5, 0x1.841b1e0d4f2adp-5}};
  const auto check = [](const std::vector<ScalingPoint>& got,
                        const Golden* want, const char* what) {
    ASSERT_EQ(got.size(), 4u) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].epoch_seconds, want[i].epoch_seconds) << what << i;
      EXPECT_EQ(got[i].comm_fraction, want[i].comm_fraction) << what << i;
      EXPECT_EQ(got[i].load_cov, want[i].load_cov) << what << i;
    }
  };
  check(strong_scaling(cm, ds, 429046 * 4, cfg), strong_want, "strong ");
  check(weak_scaling(cm, ds, 429046 * 4, weak), weak_want, "weak ");
}

TEST(Scaling, WeakScalingEfficiencyDecays) {
  data::Dataset ds = medium_dataset(512, 12);
  CostModel cm;
  cm.fixed = 2e-4;
  cm.per_atom = 1e-6;
  cm.per_bond = 3e-7;
  cm.per_angle = 1e-7;
  ScalingConfig cfg;
  cfg.weak_per_device_batch = 16;
  cfg.device_counts = {4, 8, 16};
  // Expose the all-reduce so the efficiency decay is deterministic; with
  // overlap on, comm hides entirely at this scale and only sampler noise
  // remains.
  cfg.overlap_comm = false;
  cfg.straggler_sigma = 0.0;
  auto pts = weak_scaling(cm, ds, 429046 * 4, cfg);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_NEAR(pts[0].efficiency, 1.0, 1e-9);
  EXPECT_LE(pts[1].efficiency, 1.0 + 1e-9);
  EXPECT_LE(pts[2].efficiency, pts[1].efficiency + 1e-9);
}

TEST(Scaling, StragglerJitterLowersEfficiencyMoreAtHighP) {
  // The documented role of straggler_sigma: the max over P jittered devices
  // grows with P, so jitter costs more efficiency at 32 devices than at 4.
  // Use near-uniform workloads so the jitter effect is isolated from
  // intrinsic load imbalance.
  data::GeneratorConfig g;
  g.min_atoms = 8;
  g.max_atoms = 8;
  data::Dataset ds = data::Dataset::generate(512, 14, g);
  CostModel cm;  // compute-dominated regime
  cm.per_atom = 1e-4;
  cm.per_bond = 3e-5;
  cm.per_angle = 1e-5;
  ScalingConfig ideal, jittered;
  ideal.strong_global_batch = jittered.strong_global_batch = 256;
  ideal.device_counts = jittered.device_counts = {4, 32};
  ideal.straggler_sigma = 0.0;
  jittered.straggler_sigma = 0.15;
  auto pi = strong_scaling(cm, ds, 429046 * 4, ideal);
  auto pj = strong_scaling(cm, ds, 429046 * 4, jittered);
  // The expected-max factor 1 + sigma*sqrt(2 ln P) grows with P, so the
  // straggler model must cost strictly more efficiency at 32 devices.
  EXPECT_LT(pj[1].efficiency, pi[1].efficiency);
  EXPECT_GT(pj[1].epoch_seconds, pi[1].epoch_seconds);
}

TEST(Scaling, LoadBalanceImprovesSimulatedEpoch) {
  data::Dataset ds = medium_dataset(512, 13);
  CostModel cm;
  cm.per_atom = 1e-6;
  cm.per_bond = 3e-7;
  cm.per_angle = 1e-7;
  ScalingConfig balanced, unbalanced;
  balanced.strong_global_batch = unbalanced.strong_global_batch = 128;
  balanced.device_counts = unbalanced.device_counts = {8};
  unbalanced.load_balance = false;
  auto on = strong_scaling(cm, ds, 429046 * 4, balanced);
  auto off = strong_scaling(cm, ds, 429046 * 4, unbalanced);
  EXPECT_LT(on[0].epoch_seconds, off[0].epoch_seconds);
}

// ---------------------------------------------------------------------------
// trace vs timing ledger: the simulated-time spans the trainer emits are an
// independent witness of EpochResult's accounting.  Each alive device lane
// tiles every step (compute + straggler slack + exposed comm/H2D +
// recovery = step_s, to one rounding), so each lane's span total must equal
// simulated_seconds -- including when a fault plan stretches a straggler.
// ---------------------------------------------------------------------------

std::map<int, double> sim_lane_totals() {
  std::map<int, double> totals;
  for (const perf::TraceEvent& e : perf::trace_events()) {
    if (e.clock == perf::TraceClock::kSim) totals[e.lane] += e.dur_us / 1e6;
  }
  return totals;
}

TEST(DataParallel, TraceMatchesSimulatedLedger) {
  data::Dataset ds = medium_dataset(32, 7);
  auto rows = all_rows(ds);
  DataParallelConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 8;  // 4 iterations
  DataParallelTrainer dp(tiny_fast_config(), cfg, 11);
  const FaultPlan plan = parse_fault_plan("slow:1@0*1000#2");
  perf::trace_enable();
  EpochResult res = dp.train_epoch(ds, rows, 0, &plan);
  const auto totals = sim_lane_totals();
  perf::Trace::instance().shutdown();
  ASSERT_EQ(res.iterations.size(), 4u);
  ASSERT_EQ(totals.size(), 4u);  // one lane per device
  const double tol = 1e-6 * (1.0 + res.simulated_seconds);
  for (const auto& [dev, total] : totals) {
    EXPECT_NEAR(total, res.simulated_seconds, tol) << "device " << dev;
  }
  // The straggler reached the ledger where the plan put it: in iterations
  // 0-1 device 1's compute carries the injected 1000x, which dwarfs any
  // preemption of a sibling, and each iteration's max
  // (which every lane's slack is measured against) is the max of the scaled
  // computes.
  for (std::size_t i = 0; i < res.iterations.size(); ++i) {
    const IterationTiming& it = res.iterations[i];
    EXPECT_EQ(it.max_compute_s, *std::max_element(it.device_compute_s.begin(),
                                                  it.device_compute_s.end()));
    if (i >= 2) continue;
    for (int d : {0, 2, 3}) {
      EXPECT_GT(it.device_compute_s[1], 10.0 * it.device_compute_s[d])
          << "iteration " << i << " device " << d;
    }
  }
}

TEST(DataParallel, TraceLedgerHoldsForSurvivorsAfterFailure) {
  data::Dataset ds = medium_dataset(32, 7);
  auto rows = all_rows(ds);
  DataParallelConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 8;
  DataParallelTrainer dp(tiny_fast_config(), cfg, 11);
  const FaultPlan plan = parse_fault_plan("fail:2@1");
  perf::trace_enable();
  EpochResult res = dp.train_epoch(ds, rows, 0, &plan);
  const auto totals = sim_lane_totals();
  perf::Trace::instance().shutdown();
  ASSERT_EQ(totals.size(), 4u);  // the dead lane keeps its pre-failure spans
  const double tol = 1e-6 * (1.0 + res.simulated_seconds);
  for (const auto& [dev, total] : totals) {
    if (dev == 2) {
      // Device 2 died at the start of iteration 1: its lane covers exactly
      // the steps it lived through, strictly less than the epoch.
      EXPECT_NEAR(total, res.iterations[0].step_s, tol);
      EXPECT_LT(total, res.simulated_seconds - tol);
    } else {
      EXPECT_NEAR(total, res.simulated_seconds, tol) << "device " << dev;
    }
  }
  EXPECT_EQ(res.failed_devices, std::vector<int>{2});
  EXPECT_GT(res.recovery_seconds, 0.0);
}

TEST(DataParallel, TraceLedgerCoversARejoinedDevice) {
  data::Dataset ds = medium_dataset(32, 7);
  auto rows = all_rows(ds);
  DataParallelConfig cfg;
  cfg.num_devices = 4;
  cfg.global_batch = 8;
  DataParallelTrainer dp(tiny_fast_config(), cfg, 11);
  const FaultPlan plan = parse_fault_plan("fail:2@1,join:2@3");
  perf::trace_enable();
  EpochResult res = dp.train_epoch(ds, rows, 0, &plan);
  const auto totals = sim_lane_totals();
  bool saw_join_span = false;
  for (const perf::TraceEvent& e : perf::trace_events()) {
    if (e.clock == perf::TraceClock::kSim &&
        std::strcmp(e.name, "join") == 0) {
      saw_join_span = true;
    }
  }
  perf::Trace::instance().shutdown();
  // 1 iteration on 4 devices, 2 on 3 (batch 6), then 1 on 4 again.
  ASSERT_EQ(res.iterations.size(), 4u);
  EXPECT_EQ(res.joined_devices, std::vector<int>{2});
  EXPECT_GT(res.join_seconds, 0.0);
  EXPECT_TRUE(saw_join_span);  // the "join" lane segment was emitted
  ASSERT_EQ(totals.size(), 4u);
  const double tol = 1e-6 * (1.0 + res.simulated_seconds);
  // Device 2 sat out iterations 1-2: its lane covers exactly the steps it
  // was in the ring for (the join charge rides iteration 3, which it is
  // back for); every other lane tiles the whole epoch.
  for (const auto& [dev, total] : totals) {
    if (dev == 2) {
      EXPECT_NEAR(total, res.iterations[0].step_s + res.iterations[3].step_s,
                  tol);
    } else {
      EXPECT_NEAR(total, res.simulated_seconds, tol) << "device " << dev;
    }
  }
}

}  // namespace
}  // namespace fastchg::parallel
