// Fault-tolerance tests: full-state checkpoint/resume (bit-identical
// continuation for both trainers), checkpoint-format hardening, the
// deterministic fault injector, elastic recovery after device failure, the
// non-finite training guards, and dataset-row validation on load.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>

#include "data/dataset_io.hpp"
#include "parallel/data_parallel.hpp"
#include "parallel/fault.hpp"
#include "train/checkpoint.hpp"
#include "train/scheduler.hpp"
#include "train/trainer.hpp"

namespace fastchg {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

model::ModelConfig tiny_cfg() {
  model::ModelConfig cfg = model::ModelConfig::fast();
  cfg.feat_dim = 8;
  cfg.num_radial = 5;
  cfg.num_angular = 5;
  cfg.num_layers = 1;
  return cfg;
}

data::Dataset small_dataset(index_t n = 16, std::uint64_t seed = 11) {
  data::GeneratorConfig g;
  g.min_atoms = 2;
  g.max_atoms = 10;
  g.num_species = 16;
  return data::Dataset::generate(n, seed, g);
}

std::vector<index_t> all_rows(const data::Dataset& ds) {
  std::vector<index_t> rows(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    rows[static_cast<std::size_t>(i)] = i;
  }
  return rows;
}

/// All parameters of `net` flattened, for bitwise comparison.
std::vector<float> flat_params(const model::CHGNet& net) {
  std::vector<float> out;
  for (const auto& p : net.parameters()) {
    const auto v = p.value().to_vector();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::string temp_path(const char* name) {
  // Pid-unique: ctest runs each test as its own process, possibly in
  // parallel, and fixtures sharing a literal /tmp name would race.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Copy of `ds`'s crystals with `poison` applied to row `row`, re-built
/// without relabelling (so the poisoned labels survive).
data::Dataset poisoned_dataset(const data::Dataset& ds,
                               const std::function<void(data::Crystal&)>& f,
                               index_t row) {
  std::vector<data::Crystal> crystals;
  for (index_t i = 0; i < ds.size(); ++i) {
    crystals.push_back(ds[i].crystal);
  }
  f(crystals[static_cast<std::size_t>(row)]);
  return data::Dataset::from_crystals(std::move(crystals),
                                      ds.graph_config(), {},
                                      /*relabel=*/false);
}

// ---------------------------------------------------------------------------
// single-device checkpoint / resume
// ---------------------------------------------------------------------------

TEST(Checkpoint, RoundTripRestoresFullState) {
  data::Dataset ds = small_dataset();
  auto rows = all_rows(ds);
  train::TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 4;
  tc.prefetch = false;

  model::CHGNet net(tiny_cfg(), 1);
  train::Trainer trainer(net, tc);
  trainer.train_epoch(ds, rows, 0);
  const std::string path = temp_path("fastchg_ft_roundtrip.bin");
  trainer.save_checkpoint(path);

  model::CHGNet net2(tiny_cfg(), 99);  // different init, fully overwritten
  train::Trainer restored(net2, tc);
  restored.resume(path);
  EXPECT_EQ(flat_params(net), flat_params(net2));
  EXPECT_EQ(restored.next_epoch(), 1);
  EXPECT_EQ(restored.global_step(), trainer.global_step());
  ASSERT_TRUE(net2.has_atom_ref());
  EXPECT_EQ(net.atom_ref().to_vector(), net2.atom_ref().to_vector());
  // Adam moments restored too: the *next* step must match bitwise.
  trainer.train_epoch(ds, rows, 1);
  restored.train_epoch(ds, rows, 1);
  EXPECT_EQ(flat_params(net), flat_params(net2));
  std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeEquivalenceSingleDevice) {
  // Acceptance: training 2N epochs straight == N epochs + save + resume + N.
  data::Dataset ds = small_dataset();
  auto rows = all_rows(ds);
  train::TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 4;
  tc.prefetch = false;

  model::CHGNet straight(tiny_cfg(), 3);
  train::Trainer a(straight, tc);
  a.fit(ds, rows);

  model::CHGNet interrupted(tiny_cfg(), 3);
  train::Trainer b(interrupted, tc);
  b.train_epoch(ds, rows, 0);
  b.train_epoch(ds, rows, 1);
  const std::string path = temp_path("fastchg_ft_resume_equiv.bin");
  b.save_checkpoint(path);

  model::CHGNet resumed(tiny_cfg(), 77);
  train::Trainer c(resumed, tc);
  c.resume(path);
  EXPECT_EQ(c.next_epoch(), 2);
  c.fit(ds, rows);  // continues at epoch 2, runs 2 and 3

  EXPECT_EQ(flat_params(straight), flat_params(resumed));
  std::filesystem::remove(path);
}

// Older builds also wrote an `rng` section holding the data-order stream.
// Trainer derives that order from shuffle_seed + epoch alone, so such a
// checkpoint still resumes, and the next epoch equals a straight run's.
TEST(Checkpoint, ResumeIgnoresLegacyRngSection) {
  data::Dataset ds = small_dataset();
  auto rows = all_rows(ds);
  train::TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 2;
  tc.prefetch = false;

  model::CHGNet straight(tiny_cfg(), 3);
  train::Trainer a(straight, tc);
  a.fit(ds, rows);

  model::CHGNet interrupted(tiny_cfg(), 3);
  train::Trainer b(interrupted, tc);
  b.train_epoch(ds, rows, 0);
  const std::string path = temp_path("fastchg_ft_legacy_rng.bin");
  b.save_checkpoint(path);
  model::CHGNet scratch(tiny_cfg(), 5);
  std::vector<nn::Section> sections = nn::load_checkpoint(scratch, path);
  ASSERT_EQ(train::find_section(sections, "rng"), nullptr);
  // An old checkpoint's serialised engine; the resumed epoch must not read it.
  std::ostringstream stale;
  stale << std::mt19937_64(12345);
  nn::PayloadWriter w;
  w.put_string(stale.str());
  sections.push_back({"rng", w.take()});
  nn::save_parameters(interrupted, path, sections);

  model::CHGNet resumed(tiny_cfg(), 77);
  train::Trainer c(resumed, tc);
  c.resume(path);
  EXPECT_EQ(c.next_epoch(), 1);
  c.fit(ds, rows);  // epoch 1 only

  EXPECT_EQ(flat_params(straight), flat_params(resumed));
  std::filesystem::remove(path);
}

TEST(Checkpoint, SaveIsAtomicAndOverwrites) {
  model::CHGNet net(tiny_cfg(), 5);
  train::TrainConfig tc;
  train::Trainer trainer(net, tc);
  const std::string path = temp_path("fastchg_ft_atomic.bin");
  trainer.save_checkpoint(path);
  const auto first_size = std::filesystem::file_size(path);
  trainer.save_checkpoint(path);  // overwrite in place
  EXPECT_EQ(std::filesystem::file_size(path), first_size);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  model::CHGNet net2(tiny_cfg(), 6);
  train::Trainer restored(net2, tc);
  restored.resume(path);
  EXPECT_EQ(flat_params(net), flat_params(net2));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// checkpoint format hardening
// ---------------------------------------------------------------------------

class CheckpointFormat : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("fastchg_ft_format.bin");
    model::CHGNet net(tiny_cfg(), 7);
    nn::save_parameters(net, path_);
    std::ifstream is(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(is),
                  std::istreambuf_iterator<char>());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void rewrite(const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  void expect_load_throws(const char* needle) {
    model::CHGNet net(tiny_cfg(), 8);
    try {
      nn::load_parameters(net, path_);
      FAIL() << "expected load to throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(CheckpointFormat, RejectsTruncated) {
  rewrite(bytes_.substr(0, bytes_.size() / 2));
  expect_load_throws("truncated");
}

TEST_F(CheckpointFormat, RejectsWrongMagic) {
  std::string bad = bytes_;
  bad[0] = static_cast<char>(~bad[0]);
  rewrite(bad);
  expect_load_throws("not a FastCHGNet checkpoint");
}

TEST_F(CheckpointFormat, RejectsUnknownVersion) {
  std::string bad = bytes_;
  const std::uint32_t v = 99;
  std::memcpy(bad.data() + 4, &v, sizeof(v));  // version field follows magic
  rewrite(bad);
  expect_load_throws("version");
}

TEST_F(CheckpointFormat, RejectsTrailingGarbage) {
  rewrite(bytes_ + "extra bytes after the last section");
  expect_load_throws("trailing");
}

TEST_F(CheckpointFormat, ReadsVersion1Files) {
  // A v1 file is a v2 file with the version patched back and the (empty)
  // section list -- a single u64 count of 0 -- removed.
  std::string v1 = bytes_.substr(0, bytes_.size() - sizeof(std::uint64_t));
  const std::uint32_t v = 1;
  std::memcpy(v1.data() + 4, &v, sizeof(v));
  rewrite(v1);
  model::CHGNet src(tiny_cfg(), 7), dst(tiny_cfg(), 10);
  nn::load_parameters(dst, path_);
  EXPECT_EQ(flat_params(src), flat_params(dst));
}

TEST(CheckpointSections, RequireSectionNamesTheMissingSection) {
  model::CHGNet net(tiny_cfg(), 12);
  const std::string path = temp_path("fastchg_ft_nosection.bin");
  nn::save_parameters(net, path);  // weights only, no trainer state
  train::TrainConfig tc;
  train::Trainer trainer(net, tc);
  try {
    trainer.resume(path);
    FAIL() << "expected resume to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trainer"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// fault plans
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, RandomIsSeedDeterministic) {
  const auto a = parallel::FaultPlan::random(42, 8, 50, 0.02, 0.05, 0.05);
  const auto b = parallel::FaultPlan::random(42, 8, 50, 0.02, 0.05, 0.05);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].iteration, b.events[i].iteration);
    EXPECT_EQ(a.events[i].device, b.events[i].device);
    EXPECT_EQ(a.events[i].factor, b.events[i].factor);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
  }
  const auto c = parallel::FaultPlan::random(43, 8, 50, 0.02, 0.05, 0.05);
  EXPECT_NE(a.events.size(), c.events.size());
}

TEST(FaultPlanTest, ParsesTheCliGrammar) {
  const auto plan =
      parallel::parse_fault_plan("fail:3@1, slow:0@2*4#3; comm@5*2.5#2");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, parallel::FaultKind::kDeviceFailure);
  EXPECT_EQ(plan.events[0].device, 3);
  EXPECT_EQ(plan.events[0].iteration, 1);
  EXPECT_EQ(plan.events[1].kind, parallel::FaultKind::kStraggler);
  EXPECT_EQ(plan.events[1].device, 0);
  EXPECT_EQ(plan.events[1].iteration, 2);
  EXPECT_DOUBLE_EQ(plan.events[1].factor, 4.0);
  EXPECT_EQ(plan.events[1].duration, 3);
  EXPECT_EQ(plan.events[2].kind, parallel::FaultKind::kCommDegrade);
  EXPECT_EQ(plan.events[2].iteration, 5);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 2.5);
  EXPECT_EQ(plan.events[2].duration, 2);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parallel::parse_fault_plan("bogus"), Error);
  EXPECT_THROW(parallel::parse_fault_plan("fail:3"), Error);       // no @I
  EXPECT_THROW(parallel::parse_fault_plan("fail:x@1"), Error);     // bad int
  EXPECT_THROW(parallel::parse_fault_plan("fail:-1@0"), Error);    // device
  EXPECT_THROW(parallel::parse_fault_plan("slow:1@2"), Error);     // factor
  EXPECT_THROW(parallel::parse_fault_plan("slow:1@2*0.5"), Error); // < 1
  EXPECT_THROW(parallel::parse_fault_plan("comm@3"), Error);       // factor
  EXPECT_THROW(parallel::parse_fault_plan("slow:1@2*4#0"), Error); // duration
}

TEST(FaultInjectorTest, WindowsAndProducts) {
  const auto plan = parallel::parse_fault_plan(
      "fail:2@4,slow:1@3*2#2,slow:1@4*3#1,comm@1*5#2");
  parallel::FaultInjector inj(&plan);
  EXPECT_EQ(inj.failures_at(3), std::vector<int>{});
  EXPECT_EQ(inj.failures_at(4), std::vector<int>{2});
  EXPECT_DOUBLE_EQ(inj.compute_multiplier(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_multiplier(1, 3), 2.0);
  EXPECT_DOUBLE_EQ(inj.compute_multiplier(1, 4), 6.0);  // both overlap
  EXPECT_DOUBLE_EQ(inj.compute_multiplier(1, 5), 1.0);
  EXPECT_DOUBLE_EQ(inj.compute_multiplier(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(inj.comm_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(inj.comm_factor(1), 5.0);
  EXPECT_DOUBLE_EQ(inj.comm_factor(2), 5.0);
  EXPECT_DOUBLE_EQ(inj.comm_factor(3), 1.0);
  parallel::FaultInjector none(nullptr);
  EXPECT_EQ(none.failures_at(0), std::vector<int>{});
  EXPECT_DOUBLE_EQ(none.compute_multiplier(0, 0), 1.0);
}

// ---------------------------------------------------------------------------
// elastic recovery
// ---------------------------------------------------------------------------

TEST(Elastic, KillOneOfEightMidEpochCompletesRebalanced) {
  // Acceptance: a seeded plan killing 1 of 8 devices mid-epoch; the epoch
  // completes on 7 with re-sharded data and the Eq.-14 LR for the reduced
  // global batch.
  data::Dataset ds = small_dataset(64, 21);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 8;
  pc.global_batch = 16;  // per-device 2; 4 iterations before the failure
  pc.scale_lr = true;
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 1);

  const auto plan = parallel::parse_fault_plan("fail:3@2");
  const auto result = dp.train_epoch(ds, rows, 0, &plan);

  EXPECT_EQ(result.failed_devices, std::vector<int>{3});
  EXPECT_EQ(dp.num_alive(), 7);
  for (int d : dp.alive_devices()) EXPECT_NE(d, 3);
  EXPECT_TRUE(std::isfinite(result.mean_loss));
  EXPECT_GT(result.recovery_seconds, 0.0);

  // 2 iterations on 8 devices, then the 32 unconsumed rows re-shard into
  // batches of 14 on 7 devices (the sampler drops the remainder 4).
  ASSERT_EQ(result.iterations.size(), 4u);
  EXPECT_EQ(result.iterations[0].num_alive, 8);
  EXPECT_EQ(result.iterations[1].num_alive, 8);
  EXPECT_EQ(result.iterations[2].num_alive, 7);
  EXPECT_EQ(result.iterations[3].num_alive, 7);
  EXPECT_EQ(result.iterations[2].device_compute_s.size(), 7u);
  EXPECT_GT(result.iterations[2].recovery_s, 0.0);

  // Eq. 14 on the shrunken global batch (2 * 7 = 14).
  EXPECT_FLOAT_EQ(dp.effective_lr(),
                  train::scaled_init_lr(14, pc.lr_k, pc.base_lr));

  // Replaying the plan next epoch is a no-op: device 3 is already dead.
  const auto again = dp.train_epoch(ds, rows, 1, &plan);
  EXPECT_TRUE(again.failed_devices.empty());
  EXPECT_EQ(dp.num_alive(), 7);
}

TEST(Elastic, StragglerInflatesThatDevicesCompute) {
  data::Dataset ds = small_dataset(32, 31);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 4;
  pc.global_batch = 16;  // 2 iterations
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 2);
  const auto plan = parallel::parse_fault_plan("slow:1@1*1000#1");
  const auto result = dp.train_epoch(ds, rows, 0, &plan);
  ASSERT_EQ(result.iterations.size(), 2u);
  const auto& normal = result.iterations[0];
  const auto& slowed = result.iterations[1];
  // A 1000x multiplier dwarfs shard-size noise between the two iterations.
  EXPECT_GT(slowed.device_compute_s[1], 10.0 * normal.device_compute_s[1]);
  EXPECT_EQ(slowed.max_compute_s,
            *std::max_element(slowed.device_compute_s.begin(),
                              slowed.device_compute_s.end()));
}

TEST(Elastic, CommDegradeScalesTheAllReduceCost) {
  data::Dataset ds = small_dataset(48, 41);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 4;
  pc.global_batch = 16;  // 3 iterations
  pc.overlap_comm = false;  // expose the raw cost for an exact check
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 3);
  const auto plan = parallel::parse_fault_plan("comm@1*4#1");
  const auto result = dp.train_epoch(ds, rows, 0, &plan);
  ASSERT_EQ(result.iterations.size(), 3u);
  // The cost model is deterministic: un-degraded iterations match exactly,
  // and a 4x factor scales both the bandwidth and latency terms 4x.
  EXPECT_DOUBLE_EQ(result.iterations[0].comm_s, result.iterations[2].comm_s);
  EXPECT_NEAR(result.iterations[1].comm_s, 4.0 * result.iterations[0].comm_s,
              1e-12 + 1e-9 * result.iterations[1].comm_s);
}

TEST(Elastic, ResumeEquivalenceDataParallel) {
  // Acceptance: 3 epochs straight == 1 epoch + save + resume + 2 epochs,
  // bit-identical weights.
  data::Dataset ds = small_dataset(16, 51);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 2;
  pc.global_batch = 8;
  parallel::DataParallelTrainer straight(tiny_cfg(), pc, 4);
  for (index_t e = 0; e < 3; ++e) straight.train_epoch(ds, rows, e);

  parallel::DataParallelTrainer interrupted(tiny_cfg(), pc, 4);
  interrupted.train_epoch(ds, rows, 0);
  const std::string path = temp_path("fastchg_ft_dp_resume.bin");
  interrupted.save_checkpoint(path, 1);

  parallel::DataParallelTrainer resumed(tiny_cfg(), pc, 88);
  const index_t next = resumed.resume(path);
  EXPECT_EQ(next, 1);
  for (index_t e = next; e < 3; ++e) resumed.train_epoch(ds, rows, e);

  EXPECT_EQ(flat_params(straight.model()), flat_params(resumed.model()));
  std::filesystem::remove(path);
}

TEST(Elastic, ResumeRejectsDeviceCountMismatch) {
  parallel::DataParallelConfig pc;
  pc.num_devices = 2;
  pc.global_batch = 8;
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 5);
  const std::string path = temp_path("fastchg_ft_dp_devices.bin");
  dp.save_checkpoint(path, 0);
  parallel::DataParallelConfig other = pc;
  other.num_devices = 4;
  other.global_batch = 8;
  parallel::DataParallelTrainer wrong(tiny_cfg(), other, 5);
  EXPECT_THROW(wrong.resume(path), Error);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// elastic join
// ---------------------------------------------------------------------------

TEST(ElasticJoin, FailedDeviceRejoinsTheRing) {
  // Acceptance: `fail:2@5,join:2@9` on 8 devices -- the ring shrinks to 7,
  // then device 2 re-enters at iteration 9: the unconsumed rows re-shard
  // over 8 again, the LR rescales back up to the full-batch Eq. 14 value,
  // and the full-state broadcast is charged as join cost.
  data::Dataset ds = small_dataset(192, 91);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 8;
  pc.global_batch = 16;  // per-device 2; 12 iterations when nothing fails
  pc.scale_lr = true;
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 6);

  const auto plan = parallel::parse_fault_plan("fail:2@5,join:2@9");
  const auto result = dp.train_epoch(ds, rows, 0, &plan);

  EXPECT_EQ(result.failed_devices, std::vector<int>{2});
  EXPECT_EQ(result.joined_devices, std::vector<int>{2});
  EXPECT_EQ(dp.num_alive(), 8);
  EXPECT_GT(result.recovery_seconds, 0.0);
  EXPECT_GT(result.join_seconds, 0.0);

  // 5 iterations on 8 devices (80 rows), 4 on 7 (batch 14, 56 rows), and
  // the 56 left re-shard into 3 full batches of 16 on the regrown ring.
  ASSERT_EQ(result.iterations.size(), 12u);
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const int expect_alive = i < 5 ? 8 : (i < 9 ? 7 : 8);
    EXPECT_EQ(result.iterations[i].num_alive, expect_alive) << "iter " << i;
  }

  EXPECT_FLOAT_EQ(dp.effective_lr(),
                  train::scaled_init_lr(16, pc.lr_k, pc.base_lr));

  const auto next = dp.train_epoch(ds, rows, 1);
  EXPECT_TRUE(std::isfinite(next.mean_loss));

  // Convergence: over the same two epochs the elastic run's validation
  // error stays within sight of a fault-free twin (both deterministic, so
  // the loose bound is stable).
  parallel::DataParallelTrainer clean(tiny_cfg(), pc, 6);
  for (index_t e = 0; e < 2; ++e) clean.train_epoch(ds, rows, e);
  const auto mae_elastic = train::evaluate_model(dp.model(), ds, rows, 16);
  const auto mae_clean = train::evaluate_model(clean.model(), ds, rows, 16);
  EXPECT_TRUE(std::isfinite(mae_elastic.energy_mae_mev_atom));
  EXPECT_LT(mae_elastic.energy_mae_mev_atom,
            2.0 * mae_clean.energy_mae_mev_atom + 50.0);
}

TEST(ElasticJoin, EpochLedgerAttributesJoinCostToTheJoinIteration) {
  // The one-off elastic costs must land exactly on the iteration whose
  // step they delayed, and the per-iteration ledger must sum back to the
  // epoch totals -- same accumulation order, so equality is exact.
  data::Dataset ds = small_dataset(96, 93);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 4;
  pc.global_batch = 8;  // per-device 2
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 7);
  const auto plan = parallel::parse_fault_plan("fail:1@3,join:1@7");
  const auto result = dp.train_epoch(ds, rows, 0, &plan);

  // 3 iterations on 4 devices, 4 on 3 (batch 6), then 6 on 4 again.
  ASSERT_EQ(result.iterations.size(), 13u);
  double join_sum = 0.0, recovery_sum = 0.0, step_sum = 0.0;
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const auto& it = result.iterations[i];
    join_sum += it.join_s;
    recovery_sum += it.recovery_s;
    step_sum += it.step_s;
    EXPECT_DOUBLE_EQ(it.step_s, it.max_compute_s + it.exposed_comm_s +
                                    it.exposed_h2d_s + it.recovery_s +
                                    it.join_s)
        << "iter " << i;
    EXPECT_EQ(it.recovery_s > 0.0, i == 3) << "iter " << i;
    EXPECT_EQ(it.join_s > 0.0, i == 7) << "iter " << i;
  }
  EXPECT_DOUBLE_EQ(join_sum, result.join_seconds);
  EXPECT_DOUBLE_EQ(recovery_sum, result.recovery_seconds);
  EXPECT_DOUBLE_EQ(step_sum, result.simulated_seconds);
}

TEST(ElasticJoin, ShrinkJoinShrinkChurnStaysConvergent) {
  // A device drops, rejoins, and a different one drops, all inside one
  // epoch; a second clean epoch then runs on the final 3-device ring.  The
  // run must stay finite throughout and end within sight of a fault-free
  // twin's validation error (deterministic, so the loose bound is stable).
  data::Dataset ds = small_dataset(96, 95);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 4;
  pc.global_batch = 8;
  pc.scale_lr = true;
  parallel::DataParallelTrainer churn(tiny_cfg(), pc, 9);
  const auto plan = parallel::parse_fault_plan("fail:1@2,join:1@5,fail:3@8");
  const auto result = churn.train_epoch(ds, rows, 0, &plan);

  EXPECT_EQ(result.failed_devices, (std::vector<int>{1, 3}));
  EXPECT_EQ(result.joined_devices, std::vector<int>{1});
  EXPECT_EQ(churn.num_alive(), 3);
  EXPECT_EQ(churn.alive_devices(), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(std::isfinite(result.mean_loss));
  EXPECT_FLOAT_EQ(churn.effective_lr(),
                  train::scaled_init_lr(6, pc.lr_k, pc.base_lr));

  const auto second = churn.train_epoch(ds, rows, 1);
  EXPECT_TRUE(std::isfinite(second.mean_loss));
  for (float w : flat_params(churn.model())) ASSERT_TRUE(std::isfinite(w));

  parallel::DataParallelTrainer clean(tiny_cfg(), pc, 9);
  for (index_t e = 0; e < 2; ++e) clean.train_epoch(ds, rows, e);
  const auto mae_churn = train::evaluate_model(churn.model(), ds, rows, 8);
  const auto mae_clean = train::evaluate_model(clean.model(), ds, rows, 8);
  EXPECT_TRUE(std::isfinite(mae_churn.energy_mae_mev_atom));
  EXPECT_LT(mae_churn.energy_mae_mev_atom,
            3.0 * mae_clean.energy_mae_mev_atom + 100.0);
}

TEST(ElasticJoin, NoOpJoinsPerturbNothing) {
  // Joins for an already-alive device and for an out-of-range id are
  // skipped entirely; the run is bit-identical to a fault-free one (the
  // no-fault invariant the PR promises).
  data::Dataset ds = small_dataset(32, 97);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 4;
  pc.global_batch = 8;
  parallel::DataParallelTrainer noop(tiny_cfg(), pc, 13);
  const auto plan = parallel::parse_fault_plan("join:0@1,join:9@2");
  const auto result = noop.train_epoch(ds, rows, 0, &plan);
  EXPECT_TRUE(result.joined_devices.empty());
  EXPECT_EQ(result.join_seconds, 0.0);
  ASSERT_EQ(result.iterations.size(), 4u);
  for (const auto& it : result.iterations) EXPECT_EQ(it.join_s, 0.0);

  parallel::DataParallelTrainer clean(tiny_cfg(), pc, 13);
  clean.train_epoch(ds, rows, 0);
  EXPECT_EQ(flat_params(noop.model()), flat_params(clean.model()));
}

TEST(ElasticJoin, HierarchicalCommIsBitIdenticalToFlat) {
  // The two-level all-reduce only re-prices communication; the gradient
  // arithmetic runs in the same canonical order either way, so an elastic
  // epoch (shrink + rejoin on a ring spanning the node boundary) produces
  // bit-identical weights under both comm models.
  data::Dataset ds = small_dataset(64, 99);
  auto rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 8;
  pc.global_batch = 16;
  const auto plan = parallel::parse_fault_plan("fail:2@1,join:2@3");

  pc.comm.hierarchical = true;
  parallel::DataParallelTrainer hier(tiny_cfg(), pc, 15);
  const auto hier_res = hier.train_epoch(ds, rows, 0, &plan);

  pc.comm.hierarchical = false;
  parallel::DataParallelTrainer flat(tiny_cfg(), pc, 15);
  const auto flat_res = flat.train_epoch(ds, rows, 0, &plan);

  EXPECT_EQ(hier_res.joined_devices, std::vector<int>{2});
  EXPECT_EQ(flat_res.joined_devices, std::vector<int>{2});
  EXPECT_EQ(flat_params(hier.model()), flat_params(flat.model()));
}

// ---------------------------------------------------------------------------
// non-finite guards
// ---------------------------------------------------------------------------

TEST(Guard, SingleDevicePoisonedLabelsNeverReachWeights) {
  data::Dataset clean = small_dataset(16, 61);
  for (float bad : {kNaN, kInf, -kInf}) {
    data::Dataset ds = poisoned_dataset(
        clean, [bad](data::Crystal& c) { c.forces[0][1] = bad; }, 3);
    model::CHGNet net(tiny_cfg(), 6);
    train::TrainConfig tc;
    tc.batch_size = 4;
    tc.epochs = 2;
    tc.prefetch = false;
    train::Trainer trainer(net, tc);
    trainer.fit(ds, all_rows(ds));
    EXPECT_GT(trainer.guard().skipped_steps, 0);
    EXPECT_LT(trainer.guard().backoff_scale, 1.0f);
    for (float w : flat_params(net)) ASSERT_TRUE(std::isfinite(w));
  }
}

TEST(Guard, DataParallelPoisonedShardSkipsInLockstep) {
  data::Dataset clean = small_dataset(16, 71);
  data::Dataset ds = poisoned_dataset(
      clean, [](data::Crystal& c) { c.energy = kNaN; }, 5);
  parallel::DataParallelConfig pc;
  pc.num_devices = 2;
  pc.global_batch = 8;
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 7);
  const auto result = dp.train_epoch(ds, all_rows(ds), 0);
  // The NaN label stays out of the AtomRef fit -- the same fit as leaving
  // row 5 out -- so only the iteration that holds row 5 is skipped; the
  // other one trains.
  std::vector<index_t> without_5 = all_rows(ds);
  without_5.erase(without_5.begin() + 5);
  ASSERT_TRUE(dp.model().has_atom_ref());
  const std::vector<float> e0 = dp.model().atom_ref().to_vector();
  EXPECT_EQ(e0, train::fit_atom_ref(ds, without_5, tiny_cfg().num_species));
  for (float v : e0) ASSERT_TRUE(std::isfinite(v));
  ASSERT_EQ(result.iterations.size(), 2u);
  EXPECT_EQ(result.skipped_steps, 1);
  for (float w : flat_params(dp.model())) ASSERT_TRUE(std::isfinite(w));
}

TEST(Guard, DataParallelMeanLossCountsOnlyAppliedSteps) {
  data::Dataset clean = small_dataset(16, 71);
  data::Dataset ds = poisoned_dataset(
      clean, [](data::Crystal& c) { c.energy = kNaN; }, 5);
  const std::vector<index_t> rows = all_rows(ds);
  parallel::DataParallelConfig pc;
  pc.num_devices = 2;
  pc.global_batch = 8;
  parallel::DataParallelTrainer dp(tiny_cfg(), pc, 7);

  // The applied iteration runs at the initial weights whichever comes
  // first (the skipped one changes nothing), so its device losses can be
  // recomputed on a twin before training.
  model::CHGNet twin(tiny_cfg(), 7);
  twin.copy_parameters_from(dp.model());
  twin.set_atom_ref(train::fit_atom_ref(ds, rows, tiny_cfg().num_species));
  parallel::SamplerConfig scfg;
  scfg.num_devices = pc.num_devices;
  scfg.global_batch = pc.global_batch;
  scfg.seed = pc.seed;
  const parallel::ShardPlan plan = parallel::load_balance_sharding(
      rows, parallel::sample_workloads(ds), scfg);
  double applied_sum = 0.0;
  index_t applied_count = 0;
  for (const auto& shards : plan.iterations) {
    bool poisoned = false;
    for (const auto& shard : shards) {
      poisoned = poisoned ||
                 std::find(shard.begin(), shard.end(), 5) != shard.end();
    }
    if (poisoned) continue;
    for (const auto& shard : shards) {
      const data::Batch b = data::collate_indices(ds, shard);
      const model::ModelOutput out =
          twin.forward(b, model::ForwardMode::kTrain);
      applied_sum += train::chgnet_loss(out, b).total.item();
      ++applied_count;
    }
  }
  ASSERT_EQ(applied_count, 2);

  const auto result = dp.train_epoch(ds, rows, 0);
  EXPECT_EQ(result.skipped_steps, 1);
  EXPECT_EQ(result.mean_loss,
            applied_sum / static_cast<double>(applied_count));
}

TEST(Guard, EarlyStopTreatsNaNValScoreAsNoImprovement) {
  data::Dataset clean = small_dataset(20, 81);
  // Poison a validation row: every epoch's val_score is NaN, so the run
  // must stop after `patience` + 1 epochs instead of looping on NaN < best.
  data::Dataset ds = poisoned_dataset(
      clean, [](data::Crystal& c) { c.energy = kNaN; }, 18);
  std::vector<index_t> train_idx, val_idx{16, 17, 18, 19};
  for (index_t i = 0; i < 16; ++i) train_idx.push_back(i);
  model::CHGNet net(tiny_cfg(), 8);
  train::TrainConfig tc;
  tc.batch_size = 4;
  tc.epochs = 10;
  tc.prefetch = false;
  train::Trainer trainer(net, tc);
  const auto history = trainer.fit(ds, train_idx, val_idx, /*patience=*/2);
  EXPECT_EQ(history.size(), 3u);
  for (const auto& st : history) EXPECT_TRUE(std::isnan(st.val_score));
}

// ---------------------------------------------------------------------------
// dataset row validation
// ---------------------------------------------------------------------------

class DatasetRowValidation : public ::testing::Test {
 protected:
  void expect_rejected(const std::function<void(data::Crystal&)>& poison,
                       const char* needle) {
    data::Dataset clean = small_dataset(4, 101);
    data::Dataset ds = poisoned_dataset(clean, poison, 2);
    const std::string path = temp_path("fastchg_ft_badrow.bin");
    data::save_dataset(ds, path);
    try {
      data::load_dataset(path);
      FAIL() << "expected load_dataset to reject row 2 (" << needle << ")";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("row 2"), std::string::npos) << what;
      EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
    std::filesystem::remove(path);
  }
};

TEST_F(DatasetRowValidation, RejectsNonFiniteEnergy) {
  expect_rejected([](data::Crystal& c) { c.energy = kNaN; }, "energy");
}

TEST_F(DatasetRowValidation, RejectsNonFiniteForce) {
  expect_rejected([](data::Crystal& c) { c.forces[0][2] = kInf; }, "force");
}

TEST_F(DatasetRowValidation, RejectsNonFinitePosition) {
  expect_rejected([](data::Crystal& c) { c.frac[1][0] = kNaN; }, "position");
}

TEST_F(DatasetRowValidation, RejectsOutOfRangeSpecies) {
  expect_rejected([](data::Crystal& c) { c.species[0] = 200; }, "atomic");
  expect_rejected([](data::Crystal& c) { c.species[0] = 0; }, "atomic");
}

TEST_F(DatasetRowValidation, CleanRoundTripStillWorks) {
  data::Dataset ds = small_dataset(4, 111);
  const std::string path = temp_path("fastchg_ft_cleanrows.bin");
  data::save_dataset(ds, path);
  data::Dataset loaded = data::load_dataset(path);
  EXPECT_EQ(loaded.size(), ds.size());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace fastchg
