// The engine's queued path, end to end (InferenceEngine::submit + drain,
// docs/serving.md).  drain() is the engine's only queued path, so every
// exit a request can take through it is pinned here:
//
//   * queue mechanics: FIFO reply order across ticks, tickets, admission
//     overflow and its recovery, deadlines that expire in the queue;
//   * determinism: the same stream and fault plan give bit-identical
//     replies and identical stats on a fresh engine;
//   * injected faults on queued requests: retries, exhausted retries,
//     stragglers, and one request sequence shared with predict();
//   * the int8 replica under drain: undegraded service, per-request fp32
//     fallback, strict mode;
//   * numeric faults: a poisoned model, a poisoned batchmate;
//   * books: EngineStats reconcile exactly with the reply stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "data/batch.hpp"
#include "data/generator.hpp"
#include "parallel/fault.hpp"
#include "perf/counters.hpp"
#include "serve/engine.hpp"
#include "serve/fuzz.hpp"

namespace fastchg::serve {
namespace {

constexpr double kTol = 1e-10;

model::ModelConfig tiny_config() {
  model::ModelConfig cfg;
  cfg.feat_dim = 12;
  cfg.num_radial = 7;
  cfg.num_angular = 7;
  cfg.num_layers = 2;
  cfg.batched_basis = true;
  cfg.fused_kernels = true;
  cfg.factored_envelope = true;
  cfg.decoupled_heads = true;
  return cfg;
}

data::Crystal seeded_crystal(std::uint64_t seed, index_t min_atoms = 3,
                             index_t max_atoms = 8) {
  Rng rng(seed);
  data::GeneratorConfig g;
  g.min_atoms = min_atoms;
  g.max_atoms = max_atoms;
  return data::random_crystal(rng, g);
}

std::vector<data::Crystal> seeded_stream(std::uint64_t first, std::size_t n) {
  std::vector<data::Crystal> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(seeded_crystal(first + i));
  return out;
}

/// Submit every crystal (all must be admitted) and drain once.
std::vector<Result<Prediction>> serve_all(
    InferenceEngine& eng, const std::vector<data::Crystal>& crystals,
    double deadline_ms = -1) {
  for (const data::Crystal& c : crystals) {
    EXPECT_TRUE(eng.submit(c, deadline_ms).ok());
  }
  return eng.drain();
}

void poison(nn::Module& m) {
  for (auto& [name, p] : m.named_parameters()) {
    p.node()->value.fill_(std::numeric_limits<float>::quiet_NaN());
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bit_identical(const Prediction& got, const Prediction& want,
                          const std::string& what) {
  EXPECT_TRUE(same_bits(got.energy, want.energy)) << what << " energy";
  ASSERT_EQ(got.forces.size(), want.forces.size()) << what;
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_TRUE(same_bits(got.forces[i][d], want.forces[i][d]))
          << what << " force[" << i << "][" << d << "]";
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_TRUE(same_bits(got.stress[i][j], want.stress[i][j]))
          << what << " stress[" << i << "][" << j << "]";
    }
  }
  ASSERT_EQ(got.magmom.size(), want.magmom.size()) << what;
  for (std::size_t i = 0; i < want.magmom.size(); ++i) {
    EXPECT_TRUE(same_bits(got.magmom[i], want.magmom[i]))
        << what << " magmom[" << i << "]";
  }
  EXPECT_EQ(got.degraded, want.degraded) << what;
  EXPECT_EQ(got.retries, want.retries) << what;
}

void expect_near(const Prediction& got, const Prediction& want,
                 const std::string& what) {
  EXPECT_NEAR(got.energy, want.energy, kTol) << what;
  ASSERT_EQ(got.forces.size(), want.forces.size()) << what;
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(got.forces[i][d], want.forces[i][d], kTol)
          << what << " force[" << i << "][" << d << "]";
    }
  }
}

// ------------------------------------------------------- queue mechanics --

TEST(EngineQueue, EmptyDrainServesNothing) {
  model::CHGNet net(tiny_config(), 3);
  InferenceEngine eng(net);
  EXPECT_TRUE(eng.drain().empty());
  EXPECT_EQ(eng.stats().submitted, 0u);
  EXPECT_EQ(eng.stats().micro_batches, 0u);
  EXPECT_EQ(eng.queue_depth(), 0u);
}

// Replies come back in submit order even when the queue spans several
// ticks, and each one is the reply predict() gives for the same crystal.
TEST(EngineQueue, RepliesKeepSubmitOrderAcrossTicks) {
  model::CHGNet net(tiny_config(), 4);
  InferenceEngine reference(net);
  EngineConfig cfg;
  cfg.max_batch = 3;
  InferenceEngine eng(net, cfg);
  const auto crystals = seeded_stream(500, 7);
  auto replies = serve_all(eng, crystals);
  ASSERT_EQ(replies.size(), crystals.size());
  EXPECT_EQ(eng.stats().micro_batches, 3u);  // ticks of 3, 3 and 1
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
    EXPECT_EQ(replies[i].value().forces.size(),
              static_cast<std::size_t>(crystals[i].natoms()));
    auto want = reference.predict(crystals[i]);
    ASSERT_TRUE(want.ok());
    expect_near(replies[i].value(), want.value(),
                "request " + std::to_string(i));
  }
}

// A ticket is the request's position in the queue; a drain empties the
// queue, so the next ticket starts from zero again.
TEST(EngineQueue, TicketsAreQueuePositions) {
  model::CHGNet net(tiny_config(), 3);
  InferenceEngine eng(net);
  for (std::size_t i = 0; i < 3; ++i) {
    auto t = eng.submit(seeded_crystal(510 + i));
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value(), i);
  }
  EXPECT_EQ(eng.drain().size(), 3u);
  auto t = eng.submit(seeded_crystal(513));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value(), 0u);
}

// Overflow is typed and counted, never queued; draining restores admission.
TEST(EngineQueue, DrainRestoresAdmissionAfterOverflow) {
  model::CHGNet net(tiny_config(), 3);
  EngineConfig cfg;
  cfg.queue_capacity = 3;
  InferenceEngine eng(net, cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(eng.submit(seeded_crystal(520 + i)).ok());
  }
  for (std::size_t i = 0; i < 2; ++i) {
    auto shed = eng.submit(seeded_crystal(530 + i));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.code(), ErrorCode::kOverloaded);
    EXPECT_NE(shed.error().message.find("admission queue full"),
              std::string::npos)
        << shed.error().message;
  }
  EXPECT_EQ(eng.queue_depth(), 3u);
  EXPECT_EQ(eng.stats().overloaded, 2u);
  EXPECT_EQ(eng.stats().submitted, 5u);

  for (const auto& r : eng.drain()) ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(eng.queue_depth(), 0u);
  ASSERT_TRUE(eng.submit(seeded_crystal(540)).ok());
  auto after = eng.drain();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].ok());
  EXPECT_EQ(eng.stats().served, 4u);
}

// Requests whose deadline expired in the queue are answered kTimeout and
// leave the tick; their live neighbours still share one fused forward.
TEST(EngineQueue, ExpiredRequestsLeaveTheTick) {
  model::CHGNet net(tiny_config(), 5);
  InferenceEngine reference(net);
  InferenceEngine eng(net);
  const auto crystals = seeded_stream(550, 6);
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    ASSERT_TRUE(eng.submit(crystals[i], i % 2 == 0 ? 0.0 : -1.0).ok());
  }
  auto replies = eng.drain();
  ASSERT_EQ(replies.size(), crystals.size());
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_FALSE(replies[i].ok());
      EXPECT_EQ(replies[i].code(), ErrorCode::kTimeout);
      EXPECT_NE(replies[i].error().message.find("expired in queue"),
                std::string::npos)
          << replies[i].error().message;
    } else {
      ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
      auto want = reference.predict(crystals[i]);
      ASSERT_TRUE(want.ok());
      expect_near(replies[i].value(), want.value(),
                  "request " + std::to_string(i));
    }
  }
  EXPECT_EQ(eng.stats().timeouts, 3u);
  EXPECT_EQ(eng.stats().served, 3u);
  EXPECT_EQ(eng.stats().micro_batches, 1u);
}

// A tick in which every request expired runs no forward at all.
TEST(EngineQueue, AllExpiredTickLaunchesNoKernel) {
  model::CHGNet net(tiny_config(), 5);
  InferenceEngine eng(net);
  const auto crystals = seeded_stream(560, 4);
  for (const auto& c : crystals) ASSERT_TRUE(eng.submit(c, 0.0).ok());
  const std::uint64_t launches = perf::counters().snapshot().kernel_launches;
  auto replies = eng.drain();
  EXPECT_EQ(perf::counters().snapshot().kernel_launches, launches);
  ASSERT_EQ(replies.size(), crystals.size());
  for (const auto& r : replies) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kTimeout);
  }
  EXPECT_EQ(eng.stats().micro_batches, 0u);
  EXPECT_EQ(eng.stats().timeouts, crystals.size());
}

// An invalid request is rejected in admission; it neither reaches the fused
// forward nor disturbs the replies of its tick-mates.
TEST(EngineQueue, InvalidRequestDoesNotDisturbTickMates) {
  model::CHGNet net(tiny_config(), 6);
  InferenceEngine reference(net);
  InferenceEngine eng(net);
  auto crystals = seeded_stream(570, 5);
  crystals[2].lattice[1] = crystals[2].lattice[0];  // singular cell
  auto replies = serve_all(eng, crystals);
  ASSERT_EQ(replies.size(), crystals.size());
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    if (i == 2) {
      ASSERT_FALSE(replies[i].ok());
      EXPECT_EQ(replies[i].code(), ErrorCode::kInvalidInput);
      continue;
    }
    ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
    auto want = reference.predict(crystals[i]);
    ASSERT_TRUE(want.ok());
    expect_near(replies[i].value(), want.value(),
                "request " + std::to_string(i));
  }
  EXPECT_EQ(eng.stats().rejected_invalid, 1u);
  EXPECT_EQ(eng.stats().served, 4u);
  EXPECT_EQ(eng.stats().micro_batches, 1u);
}

// ----------------------------------------------------------- determinism --

struct RunRecord {
  std::vector<Result<Prediction>> replies;
  EngineStats stats;
};

RunRecord faulted_run(const model::CHGNet& net,
                      const parallel::FaultPlan& plan) {
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 16;
  cfg.base_latency_ms = 0.1;
  InferenceEngine eng(net, cfg);
  eng.set_fault_plan(&plan);
  RunRecord rec;
  for (int burst = 0; burst < 3; ++burst) {
    auto replies =
        serve_all(eng, seeded_stream(600 + 16 * burst, 12));
    for (auto& r : replies) rec.replies.push_back(std::move(r));
  }
  rec.stats = eng.stats();
  return rec;
}

// Same stream, same fault plan, fresh engine: every reply has the same
// outcome and the same bits, and the books agree field for field.
TEST(EngineDeterminism, IdenticalRunsAgreeBitwise) {
  model::CHGNet net(tiny_config(), 8);
  const parallel::FaultPlan plan = parallel::FaultPlan::random(
      /*seed=*/19, /*num_devices=*/1, /*iterations=*/64,
      /*failure_prob=*/0.15, /*straggler_prob=*/0.1);
  const RunRecord a = faulted_run(net, plan);
  const RunRecord b = faulted_run(net, plan);
  ASSERT_EQ(a.replies.size(), b.replies.size());
  for (std::size_t i = 0; i < a.replies.size(); ++i) {
    ASSERT_EQ(a.replies[i].ok(), b.replies[i].ok()) << "request " << i;
    if (!a.replies[i].ok()) {
      EXPECT_EQ(a.replies[i].code(), b.replies[i].code()) << "request " << i;
      continue;
    }
    expect_bit_identical(a.replies[i].value(), b.replies[i].value(),
                         "request " + std::to_string(i));
  }
  EXPECT_GT(a.stats.retries, 0u) << "fault plan never forced a retry";
  EXPECT_EQ(a.stats.submitted, b.stats.submitted);
  EXPECT_EQ(a.stats.served, b.stats.served);
  EXPECT_EQ(a.stats.overloaded, b.stats.overloaded);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.micro_batches, b.stats.micro_batches);
}

// ------------------------------------------------------- injected faults --

// The fault plan addresses queued requests by their order of service: the
// second request's two transient failures are retried with backoff, and
// its neighbours spend none.
TEST(EngineFaults, TransientFaultRetriedPerQueuedRequest) {
  model::CHGNet net(tiny_config(), 9);
  InferenceEngine eng(net);
  parallel::FaultPlan plan;
  plan.events.push_back({parallel::FaultKind::kDeviceFailure, /*iteration=*/1,
                         /*device=*/0, /*factor=*/1.0, /*duration=*/2});
  eng.set_fault_plan(&plan);
  auto replies = serve_all(eng, seeded_stream(650, 3));
  ASSERT_EQ(replies.size(), 3u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
    EXPECT_EQ(replies[i].value().retries, i == 1 ? 2 : 0) << "request " << i;
  }
  EXPECT_GE(replies[1].value().latency_ms, 0.5 + 1.0);  // 0.5 * (2^0 + 2^1)
  EXPECT_EQ(eng.stats().retries, 2u);
  EXPECT_EQ(eng.stats().served, 3u);
}

// A fault that outlasts the retry budget fails that request alone, typed
// kOverloaded; the rest of its tick is served.
TEST(EngineFaults, ExhaustedRetriesFailOneQueuedRequest) {
  model::CHGNet net(tiny_config(), 9);
  EngineConfig cfg;
  cfg.max_retries = 3;
  InferenceEngine eng(net, cfg);
  parallel::FaultPlan plan;
  plan.events.push_back({parallel::FaultKind::kDeviceFailure, /*iteration=*/2,
                         /*device=*/0, /*factor=*/1.0, /*duration=*/10});
  eng.set_fault_plan(&plan);
  auto replies = serve_all(eng, seeded_stream(660, 4));
  ASSERT_EQ(replies.size(), 4u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (i == 2) {
      ASSERT_FALSE(replies[i].ok());
      EXPECT_EQ(replies[i].code(), ErrorCode::kOverloaded);
      EXPECT_NE(replies[i].error().message.find("persisted after 3 retry"),
                std::string::npos)
          << replies[i].error().message;
    } else {
      EXPECT_TRUE(replies[i].ok()) << replies[i].error().message;
    }
  }
  EXPECT_EQ(eng.stats().overloaded, 1u);
  EXPECT_EQ(eng.stats().retries, 3u);
  EXPECT_EQ(eng.stats().served, 3u);
}

// Straggler latency counts against a queued request's deadline before its
// forward, and only against the request the plan names.
TEST(EngineFaults, StragglerBlowsOnlyItsQueuedDeadline) {
  model::CHGNet net(tiny_config(), 9);
  EngineConfig cfg;
  cfg.base_latency_ms = 10.0;
  InferenceEngine eng(net, cfg);
  parallel::FaultPlan plan;
  plan.events.push_back({parallel::FaultKind::kStraggler, /*iteration=*/0,
                         /*device=*/0, /*factor=*/1e4, /*duration=*/1});
  eng.set_fault_plan(&plan);
  // 10 ms * 1e4 = 100 s of simulated latency blows a 50 s budget.
  auto replies = serve_all(eng, seeded_stream(670, 2), /*deadline_ms=*/5e4);
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_FALSE(replies[0].ok());
  EXPECT_EQ(replies[0].code(), ErrorCode::kTimeout);
  EXPECT_NE(replies[0].error().message.find("before forward"),
            std::string::npos)
      << replies[0].error().message;
  ASSERT_TRUE(replies[1].ok()) << replies[1].error().message;
  EXPECT_GE(replies[1].value().latency_ms, 10.0);
  EXPECT_EQ(eng.stats().timeouts, 1u);
}

// predict() and drain() draw from one request sequence, so a fault planned
// for request 1 lands on the first queued request after one predict().
TEST(EngineFaults, PredictAndDrainShareTheRequestSequence) {
  model::CHGNet net(tiny_config(), 9);
  InferenceEngine eng(net);
  parallel::FaultPlan plan;
  plan.events.push_back({parallel::FaultKind::kDeviceFailure, /*iteration=*/1,
                         /*device=*/0, /*factor=*/1.0, /*duration=*/1});
  eng.set_fault_plan(&plan);
  auto first = eng.predict(seeded_crystal(680));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().retries, 0);
  auto replies = serve_all(eng, seeded_stream(681, 2));
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].ok());
  ASSERT_TRUE(replies[1].ok());
  EXPECT_EQ(replies[0].value().retries, 1);
  EXPECT_EQ(replies[1].value().retries, 0);
}

// ---------------------------------------------------------- int8 replica --

// A healthy int8 replica serves the queue undegraded, and drain gives the
// replies predict() gives on the same replica.
TEST(EngineQuantized, DrainServesTheReplicaUndegraded) {
  model::CHGNet net(tiny_config(), 10);
  EngineConfig cfg;
  cfg.quantize = true;
  InferenceEngine reference(net, cfg);
  InferenceEngine eng(net, cfg);
  ASSERT_NE(eng.quantized_replica(), nullptr);
  const auto crystals = seeded_stream(700, 5);
  auto replies = serve_all(eng, crystals);
  ASSERT_EQ(replies.size(), crystals.size());
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
    EXPECT_FALSE(replies[i].value().degraded);
    auto want = reference.predict(crystals[i]);
    ASSERT_TRUE(want.ok());
    expect_near(replies[i].value(), want.value(),
                "request " + std::to_string(i));
  }
  EXPECT_EQ(eng.stats().degraded, 0u);
}

// A poisoned replica degrades every queued request to the fp32 model, one
// counted fallback each, and the fallback replies are the fp32 replies.
TEST(EngineQuantized, PoisonedReplicaFallsBackPerQueuedRequest) {
  model::CHGNet net(tiny_config(), 10);
  InferenceEngine fp32(net);
  EngineConfig cfg;
  cfg.quantize = true;
  InferenceEngine eng(net, cfg);
  poison(*eng.quantized_replica());
  const std::uint64_t fallbacks = perf::event_count("serve.fp32_fallback");
  const auto crystals = seeded_stream(710, 4);
  auto replies = serve_all(eng, crystals);
  ASSERT_EQ(replies.size(), crystals.size());
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
    EXPECT_TRUE(replies[i].value().degraded);
    auto want = fp32.predict(crystals[i]);
    ASSERT_TRUE(want.ok());
    expect_near(replies[i].value(), want.value(),
                "request " + std::to_string(i));
  }
  EXPECT_EQ(eng.stats().degraded, crystals.size());
  EXPECT_EQ(eng.stats().served, crystals.size());
  EXPECT_EQ(perf::event_count("serve.fp32_fallback"),
            fallbacks + crystals.size());
}

// Strict mode refuses every fallback reply with a typed kDegraded.
TEST(EngineQuantized, StrictDrainAnswersTypedDegraded) {
  model::CHGNet net(tiny_config(), 10);
  EngineConfig cfg;
  cfg.quantize = true;
  cfg.strict = true;
  InferenceEngine eng(net, cfg);
  poison(*eng.quantized_replica());
  auto replies = serve_all(eng, seeded_stream(720, 3));
  ASSERT_EQ(replies.size(), 3u);
  for (const auto& r : replies) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kDegraded);
  }
  EXPECT_EQ(eng.stats().degraded, 3u);
  EXPECT_EQ(eng.stats().served, 0u);
}

// --------------------------------------------------------- numeric faults --

// With nothing to fall back to, a poisoned model answers every queued
// request kNumericFault; bisection splits each fused batch down to single
// requests before giving up on them.
TEST(EngineFaults, PoisonedModelFailsEveryQueuedRequestTyped) {
  model::CHGNet net(tiny_config(), 11);
  poison(net);
  EngineConfig cfg;
  cfg.max_batch = 4;
  InferenceEngine eng(net, cfg);
  auto replies = serve_all(eng, seeded_stream(730, 4));
  ASSERT_EQ(replies.size(), 4u);
  for (const auto& r : replies) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kNumericFault);
  }
  EXPECT_EQ(eng.stats().numeric_faults, 4u);
  EXPECT_EQ(eng.stats().isolated_faults, 4u);
  EXPECT_EQ(eng.stats().bisections, 3u);  // 4 -> 2 + 2 -> 1 + 1 + 1 + 1
  EXPECT_EQ(eng.stats().served, 0u);
}

// The engine forwards its corrupt_batch seam to the micro-batcher: one
// poisoned queued request fails alone and its tick-mates keep their
// replies.
TEST(EngineFaults, PoisonedBatchmateIsIsolatedInDrain) {
  model::CHGNet net(tiny_config(), 12);
  InferenceEngine reference(net);
  const std::size_t poisoned = 2;
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.corrupt_batch = [&](data::Batch& b,
                          const std::vector<std::size_t>& ids) {
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
  InferenceEngine eng(net, cfg);
  const auto crystals = seeded_stream(740, 4);
  auto replies = serve_all(eng, crystals);
  ASSERT_EQ(replies.size(), crystals.size());
  for (std::size_t i = 0; i < crystals.size(); ++i) {
    if (i == poisoned) {
      ASSERT_FALSE(replies[i].ok());
      EXPECT_EQ(replies[i].code(), ErrorCode::kNumericFault);
      continue;
    }
    ASSERT_TRUE(replies[i].ok()) << replies[i].error().message;
    auto want = reference.predict(crystals[i]);
    ASSERT_TRUE(want.ok());
    expect_near(replies[i].value(), want.value(),
                "batchmate " + std::to_string(i));
  }
  EXPECT_EQ(eng.stats().isolated_faults, 1u);
  EXPECT_EQ(eng.stats().numeric_faults, 1u);
  EXPECT_EQ(eng.stats().served, 3u);
}

// ------------------------------------------------------------------ books --

// Every submitted request ends in exactly one tally.  A fuzzed stream with
// expired deadlines, overflowing bursts and injected faults must leave
// EngineStats equal, code by code, to the replies the caller saw.
TEST(EngineStats, CountersReconcileWithReplyStream) {
  model::CHGNet net(tiny_config(), 13);
  EngineConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 6;
  InferenceEngine eng(net, cfg);
  const parallel::FaultPlan plan = parallel::FaultPlan::random(
      /*seed=*/31, /*num_devices=*/1, /*iterations=*/200,
      /*failure_prob=*/0.05, /*straggler_prob=*/0.0);
  eng.set_fault_plan(&plan);

  Rng rng(4242);
  data::GeneratorConfig gen;
  gen.min_atoms = 2;
  gen.max_atoms = 7;
  std::map<ErrorCode, std::uint64_t> by_code;
  std::uint64_t ok = 0, submitted = 0;
  for (int burst = 0; burst < 12; ++burst) {
    for (int i = 0; i < 8; ++i) {
      data::Crystal c;
      (void)fuzz_crystal(rng, c, /*corrupt_prob=*/0.3, gen);
      ++submitted;
      auto ticket = eng.submit(std::move(c), i % 5 == 4 ? 0.0 : -1.0);
      if (!ticket.ok()) ++by_code[ticket.code()];
    }
    for (const auto& r : eng.drain()) {
      if (r.ok()) {
        ++ok;
      } else {
        ++by_code[r.code()];
      }
    }
  }
  const EngineStats& st = eng.stats();
  EXPECT_EQ(st.submitted, submitted);
  EXPECT_EQ(st.served, ok);
  EXPECT_EQ(st.rejected_invalid, by_code[ErrorCode::kInvalidInput]);
  EXPECT_EQ(st.numeric_faults, by_code[ErrorCode::kNumericFault]);
  EXPECT_EQ(st.timeouts, by_code[ErrorCode::kTimeout]);
  EXPECT_EQ(st.overloaded, by_code[ErrorCode::kOverloaded]);
  EXPECT_EQ(by_code[ErrorCode::kDegraded], 0u);
  EXPECT_EQ(st.served + st.rejected_invalid + st.numeric_faults +
                st.timeouts + st.overloaded,
            st.submitted);
  // The stream exercises every admission exit it was built to.
  EXPECT_GT(st.served, 0u);
  EXPECT_GT(st.rejected_invalid, 0u);
  EXPECT_GT(st.timeouts, 0u);
  EXPECT_GT(st.overloaded, 0u);
}

}  // namespace
}  // namespace fastchg::serve
