// Equivalence / fuzz battery for the dynamic micro-batched serving pipeline
// (serve/batcher.hpp, InferenceEngine::drain):
//
//   * property test: fused multi-request forwards reproduce single-request
//     forwards (E/F/S/magmom within 1e-10) for seeded random crystals,
//     across kernel thread counts and replica-worker fan-outs;
//   * poisoned-batch isolation: one NaN structure in a fused batch yields
//     kNumericFault for exactly that request via bisection;
//   * fuzz: hundreds of corrupted crystals plus an injected fault plan
//     through submit/drain -- every reply typed, overflow -> kOverloaded,
//     zero crashes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "core/parallel_for.hpp"
#include "data/batch.hpp"
#include "data/generator.hpp"
#include "golden_fixtures.hpp"
#include "parallel/fault.hpp"
#include "perf/counters.hpp"
#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/fuzz.hpp"

namespace fastchg::serve {
namespace {

constexpr double kTol = 1e-10;

model::ModelConfig tiny_config(bool decoupled = true) {
  model::ModelConfig cfg;
  cfg.feat_dim = 12;
  cfg.num_radial = 7;
  cfg.num_angular = 7;
  cfg.num_layers = 2;
  cfg.batched_basis = true;
  cfg.fused_kernels = true;
  cfg.factored_envelope = true;
  cfg.decoupled_heads = decoupled;
  return cfg;
}

data::Crystal seeded_crystal(std::uint64_t seed, index_t min_atoms = 2,
                             index_t max_atoms = 10) {
  Rng rng(seed);
  data::GeneratorConfig g;
  g.min_atoms = min_atoms;
  g.max_atoms = max_atoms;
  return data::random_crystal(rng, g);
}

/// Single-request reference: one structure, one forward, no batching.
Prediction single_forward(const model::CHGNet& net, const data::Crystal& c,
                          const data::GraphConfig& gcfg) {
  auto s = build_sample(c, gcfg);
  data::Batch b = data::collate({s.get()}, /*with_labels=*/false);
  model::ModelOutput out = net.forward(b, model::ForwardMode::kEval);
  return unpack_structure(out, b, 0);
}

void expect_equivalent(const Prediction& got, const Prediction& want,
                       const std::string& what) {
  EXPECT_NEAR(got.energy, want.energy, kTol) << what;
  ASSERT_EQ(got.forces.size(), want.forces.size()) << what;
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(got.forces[i][d], want.forces[i][d], kTol)
          << what << " force[" << i << "][" << d << "]";
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(got.stress[i][j], want.stress[i][j], kTol)
          << what << " stress[" << i << "][" << j << "]";
    }
  }
  ASSERT_EQ(got.magmom.size(), want.magmom.size()) << what;
  for (std::size_t i = 0; i < want.magmom.size(); ++i) {
    EXPECT_NEAR(got.magmom[i], want.magmom[i], kTol)
        << what << " magmom[" << i << "]";
  }
}

// ------------------------------------------------- fused-batch equivalence --

// The central property the whole pipeline rests on: a structure served out
// of a fused disjoint-union forward is equivalent (<= 1e-10, in practice
// bit-identical) to the same structure served alone -- for every fused
// position, worker fan-out, and kernel thread count.
TEST(BatchEquivalence, FusedMatchesSingleAcrossThreadsAndWorkers) {
  const int restore_threads = num_threads();
  model::CHGNet net(tiny_config(), 7);
  data::GraphConfig gcfg;

  std::vector<data::Crystal> crystals;
  std::vector<BatchItem> items;
  for (std::uint64_t seed = 100; seed < 111; ++seed) {
    crystals.push_back(seeded_crystal(seed));
    items.push_back(
        BatchItem{build_sample(crystals.back(), gcfg), crystals.size() - 1});
  }

  for (int threads : {1, 4}) {
    set_num_threads(threads);
    std::vector<Prediction> singles;
    for (const data::Crystal& c : crystals) {
      singles.push_back(single_forward(net, c, gcfg));
    }
    for (int workers : {1, 3}) {
      MicroBatcher::Config bc;
      bc.max_batch = 4;  // 11 items -> micro-batches of 4, 4, 3
      bc.workers = workers;
      BatchRunStats stats;
      auto replies = MicroBatcher(bc).run(net, items, &stats);
      ASSERT_EQ(replies.size(), crystals.size());
      EXPECT_EQ(stats.micro_batches, 3u);
      EXPECT_EQ(stats.served, crystals.size());
      EXPECT_EQ(stats.bisections, 0u);
      for (std::size_t i = 0; i < replies.size(); ++i) {
        ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
        std::ostringstream what;
        what << "threads=" << threads << " workers=" << workers
             << " struct=" << i;
        expect_equivalent(replies[i].value(), singles[i], what.str());
      }
    }
  }
  set_num_threads(restore_threads);
}

// The engine's batched drain must agree with its own single-request
// reference path (predict) end to end, both for fused ticks and for ticks
// of one request (max_batch 1).
TEST(BatchEquivalence, EngineDrainMatchesPredict) {
  model::CHGNet net(tiny_config(), 11);
  InferenceEngine reference(net, EngineConfig{});
  for (const index_t max_batch : {index_t{8}, index_t{1}}) {
    EngineConfig cfg;
    cfg.max_batch = max_batch;
    cfg.batch_workers = 2;
    cfg.queue_capacity = 32;
    InferenceEngine batched(net, cfg);

    std::vector<data::Crystal> crystals;
    for (std::uint64_t seed = 300; seed < 310; ++seed) {
      crystals.push_back(seeded_crystal(seed, 3, 8));
      ASSERT_TRUE(batched.submit(crystals.back()).ok());
    }
    auto replies = batched.drain();
    ASSERT_EQ(replies.size(), crystals.size());
    // 10 requests: two ticks at max_batch 8, ten at max_batch 1.
    EXPECT_EQ(batched.stats().micro_batches, max_batch == 1 ? 10u : 2u);
    EXPECT_EQ(batched.stats().served, crystals.size());

    for (std::size_t i = 0; i < crystals.size(); ++i) {
      ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
      auto want = reference.predict(crystals[i]);
      ASSERT_TRUE(want.ok());
      expect_equivalent(replies[i].value(), want.value(),
                        "drain vs predict, max_batch " +
                            std::to_string(max_batch) + ", struct " +
                            std::to_string(i));
    }
  }
}

// Counted kernels of one engine tick that serves the golden fixture's four
// crystals as a single fused forward.  It changes only when the model's op
// schedule changes -- update it deliberately.
constexpr std::uint64_t kGoldenServeKernels = 1215;

TEST(GoldenKernels, ServeTickLaunchesExactCount) {
  data::Dataset ds = golden::identical_rows(4, 81);
  model::CHGNet net(golden::golden_config(), 12);
  EngineConfig cfg;
  cfg.max_batch = 4;
  InferenceEngine engine(net, cfg);
  const auto tick = [&] {
    for (index_t i = 0; i < ds.size(); ++i) {
      ASSERT_TRUE(engine.submit(ds[i].crystal).ok());
    }
    for (const auto& r : engine.drain()) ASSERT_TRUE(r.ok());
  };
  for (int i = 0; i < 4; ++i) tick();
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(golden::launches_during(tick), kGoldenServeKernels) << i;
  }
  EXPECT_EQ(engine.stats().micro_batches, 6u);
}

// ------------------------------------------------ poisoned-batch isolation --

// One poisoned structure inside a fused batch: bisection must isolate it as
// the only kNumericFault while every batchmate still gets its (untouched)
// reply.  The corruption rides the corrupt_batch seam and follows the
// request id through re-collation, exactly like a model-side NaN would.
TEST(BatchIsolation, PoisonedRequestFailsAloneViaBisection) {
  model::CHGNet net(tiny_config(), 13);
  data::GraphConfig gcfg;

  const std::size_t n = 8;
  const std::size_t poisoned = 5;
  std::vector<data::Crystal> crystals;
  std::vector<BatchItem> items;
  std::vector<Prediction> singles;
  for (std::size_t i = 0; i < n; ++i) {
    crystals.push_back(seeded_crystal(400 + i, 4, 6));
    items.push_back(BatchItem{build_sample(crystals.back(), gcfg), i});
    singles.push_back(single_forward(net, crystals.back(), gcfg));
  }

  MicroBatcher::Config bc;
  bc.max_batch = static_cast<index_t>(n);
  bc.corrupt_batch = [&](data::Batch& b, const std::vector<std::size_t>& ids) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (ids[s] != poisoned) continue;
      float* cart = b.cart.data();
      for (index_t a = b.atom_first[s]; a < b.atom_first[s + 1]; ++a) {
        for (int d = 0; d < 3; ++d) {
          cart[a * 3 + d] = std::numeric_limits<float>::quiet_NaN();
        }
      }
    }
  };

  const std::uint64_t isolated_before = perf::event_count("serve.batch.isolated");
  BatchRunStats stats;
  auto replies = MicroBatcher(bc).run(net, items, &stats);
  ASSERT_EQ(replies.size(), n);

  for (std::size_t i = 0; i < n; ++i) {
    if (i == poisoned) {
      ASSERT_FALSE(replies[i].ok()) << "poisoned request served";
      EXPECT_EQ(replies[i].code(), ErrorCode::kNumericFault);
      EXPECT_NE(replies[i].error().message.find("isolated by batch bisection"),
                std::string::npos)
          << replies[i].error().message;
    } else {
      ASSERT_TRUE(replies[i].ok())
          << "batchmate " << i << ": " << replies[i].error().message;
      expect_equivalent(replies[i].value(), singles[i],
                        "batchmate " + std::to_string(i));
    }
  }
  // 8 -> 4 -> 2 -> 1: three levels of splitting down the poisoned path.
  EXPECT_GE(stats.bisections, 3u);
  EXPECT_EQ(stats.isolated_faults, 1u);
  EXPECT_EQ(stats.served, n - 1);
  EXPECT_EQ(perf::event_count("serve.batch.isolated"), isolated_before + 1);
}

// ----------------------------------------------------------------- fuzzing --

// Bursty fuzzed traffic (50% corrupted crystals) plus an injected fault plan
// (transient failures and stragglers) through the micro-batched queue.
// Every burst overflows the admission queue on purpose.  The pipeline must
// return one typed reply per admitted request, type the overflow as
// kOverloaded, and never crash or emit a non-finite success.
TEST(BatchFuzz, CorruptedStreamStaysTyped) {
  model::CHGNet net(tiny_config(false), 23);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_workers = 2;
  cfg.queue_capacity = 8;
  InferenceEngine eng(net, cfg);
  parallel::FaultPlan plan = parallel::FaultPlan::random(
      /*seed=*/77, /*num_devices=*/1, /*iterations=*/600,
      /*failure_prob=*/0.04, /*straggler_prob=*/0.05);
  eng.set_fault_plan(&plan);

  Rng rng(2024);
  data::GeneratorConfig gen;
  gen.min_atoms = 2;
  gen.max_atoms = 8;

  const std::size_t bursts = 52, burst_size = 10;  // 520 fuzzed requests
  std::size_t admitted = 0, overflowed = 0, served = 0, invalid = 0,
              faulted = 0, overloaded = 0;
  for (std::size_t b = 0; b < bursts; ++b) {
    for (std::size_t i = 0; i < burst_size; ++i) {
      data::Crystal c;
      (void)fuzz_crystal(rng, c, /*corrupt_prob=*/0.5, gen);
      auto ticket = eng.submit(std::move(c));
      if (ticket.ok()) {
        ++admitted;
      } else {
        // Queue capacity 8 < burst 10: the tail of every burst must be
        // rejected with the admission-control code, nothing else.
        EXPECT_EQ(ticket.code(), ErrorCode::kOverloaded);
        ++overflowed;
      }
    }
    for (const auto& r : eng.drain()) {
      if (r.ok()) {
        ++served;
        EXPECT_TRUE(std::isfinite(r.value().energy));
        for (const auto& f : r.value().forces) {
          for (int d = 0; d < 3; ++d) EXPECT_TRUE(std::isfinite(f[d]));
        }
      } else {
        EXPECT_FALSE(r.error().message.empty());
        switch (r.code()) {
          case ErrorCode::kInvalidInput: ++invalid; break;
          case ErrorCode::kNumericFault: ++faulted; break;
          case ErrorCode::kOverloaded: ++overloaded; break;
          default: break;  // timeout/degraded: typed, acceptable
        }
      }
    }
    EXPECT_EQ(eng.queue_depth(), 0u);
  }

  EXPECT_EQ(admitted, bursts * cfg.queue_capacity);
  EXPECT_EQ(overflowed, bursts * (burst_size - cfg.queue_capacity));
  EXPECT_EQ(served + invalid + faulted + overloaded, admitted);
  EXPECT_GT(served, 100u);   // valid structures actually got answers
  EXPECT_GT(invalid, 50u);   // corrupted structures were typed, not served
  EXPECT_GT(eng.stats().micro_batches, 0u);
  EXPECT_EQ(eng.stats().served, served);
  EXPECT_EQ(eng.stats().rejected_invalid, invalid);
}

}  // namespace
}  // namespace fastchg::serve
