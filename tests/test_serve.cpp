// Tests for the hardened serving layer (docs/serving.md): typed errors,
// crystal validation, numeric watchdogs, MD dt-halving recovery, the int8
// quantizer's handling of non-finite weights, admission control,
// injected-fault retries, and a fuzzed sweep asserting every malformed
// request dies as a typed error.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fastchgnet/quantize.hpp"
#include "md/md.hpp"
#include "md/relax.hpp"
#include "parallel/fault.hpp"
#include "perf/counters.hpp"
#include "serve/engine.hpp"
#include "serve/fuzz.hpp"
#include "serve/validate.hpp"
#include "serve/watchdog.hpp"

namespace fastchg::serve {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

model::ModelConfig tiny_config(bool decoupled) {
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

data::Crystal small_crystal(std::uint64_t seed = 900) {
  Rng rng(seed);
  data::GeneratorConfig g;
  g.min_atoms = 4;
  g.max_atoms = 6;
  return data::random_crystal(rng, g);
}

/// Poison every parameter tensor of a module with NaN weights so any
/// forward pass is guaranteed to emit non-finite outputs.
void poison(nn::Module& m) {
  auto params = m.named_parameters();
  ASSERT_FALSE(params.empty());
  for (auto& [name, p] : params) {
    p.node()->value.fill_(std::numeric_limits<float>::quiet_NaN());
  }
}

// ---------------------------------------------------------------- Result --

TEST(Result, ValueAndErrorPaths) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_THROW((void)ok.error(), Error);

  auto bad = Result<int>::failure(ErrorCode::kTimeout, "late");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kTimeout);
  EXPECT_EQ(bad.error().message, "late");
  EXPECT_THROW((void)bad.value(), Error);

  Result<void> v;
  EXPECT_TRUE(v.ok());
  EXPECT_STREQ(to_string(ErrorCode::kNumericFault), "numeric_fault");
}

// ------------------------------------------------------------ Validation --

TEST(Validate, AcceptsGeneratedCrystal) {
  EXPECT_TRUE(validate_crystal(small_crystal()).ok());
}

TEST(Validate, RejectsSingularLattice) {
  data::Crystal c = small_crystal();
  c.lattice[1] = c.lattice[0];  // duplicated row: det = 0
  auto r = validate_crystal(c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidInput);
  EXPECT_TRUE(std::isinf(lattice_condition(c.lattice)));
}

TEST(Validate, RejectsIllConditionedLattice) {
  data::Crystal c = small_crystal();
  c.lattice[1] = c.lattice[0];
  c.lattice[1][0] += 1e-7;  // nearly dependent rows
  auto r = validate_crystal(c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidInput);
}

TEST(Validate, RejectsEmptyBadSpeciesAndNaN) {
  {
    data::Crystal c;  // zero atoms
    EXPECT_EQ(validate_crystal(c).code(), ErrorCode::kInvalidInput);
  }
  {
    data::Crystal c = small_crystal();
    c.species[0] = 200;  // beyond Z = 118
    EXPECT_EQ(validate_crystal(c).code(), ErrorCode::kInvalidInput);
  }
  {
    data::Crystal c = small_crystal();
    c.species[0] = 0;
    EXPECT_EQ(validate_crystal(c).code(), ErrorCode::kInvalidInput);
  }
  {
    data::Crystal c = small_crystal();
    c.frac[0][1] = kNaN;
    EXPECT_EQ(validate_crystal(c).code(), ErrorCode::kInvalidInput);
  }
  {
    data::Crystal c = small_crystal();
    c.lattice[2][2] = kNaN;
    EXPECT_EQ(validate_crystal(c).code(), ErrorCode::kInvalidInput);
  }
}

TEST(Validate, RejectsOverlapAndDenseCell) {
  {
    data::Crystal c = small_crystal();
    c.frac[1] = c.frac[0];  // coincident sites
    auto r = validate_crystal(c);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kInvalidInput);
    EXPECT_LT(min_interatomic_distance(c), 1e-6);
  }
  {
    data::Crystal c = small_crystal();
    for (auto& row : c.lattice) {
      for (double& x : row) x *= 0.05;  // 8000x density
    }
    EXPECT_EQ(validate_crystal(c).code(), ErrorCode::kInvalidInput);
  }
}

TEST(Validate, MinDistanceSeesPeriodicImages) {
  // Two atoms at frac 0.01 and 0.99 are ~0.02 apart through the boundary.
  data::Crystal c;
  c.lattice = {{{5, 0, 0}, {0, 5, 0}, {0, 0, 5}}};
  c.frac = {{0.01, 0.5, 0.5}, {0.99, 0.5, 0.5}};
  c.species = {6, 6};
  EXPECT_NEAR(min_interatomic_distance(c), 0.1, 1e-9);
  EXPECT_EQ(validate_crystal(c).code(), ErrorCode::kInvalidInput);
}

// ------------------------------------------------------------- Watchdogs --

TEST(Watchdog, CheckOutputFlagsMissingAndNonFinite) {
  model::ModelOutput out;  // all heads undefined
  auto r = check_output(out);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNumericFault);

  // A real eval forward passes.
  model::CHGNet net(tiny_config(true), 1);
  data::Dataset ds = data::Dataset::from_crystals({small_crystal()}, {}, {},
                                                  /*relabel=*/false);
  auto good = net.forward(data::collate_indices(ds, {0}),
                          model::ForwardMode::kEval);
  EXPECT_TRUE(check_output(good).ok());

  // Poisoned weights surface as a named non-finite head.
  poison(net);
  auto bad = net.forward(data::collate_indices(ds, {0}),
                         model::ForwardMode::kEval);
  auto rb = check_output(bad);
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.code(), ErrorCode::kNumericFault);
}

TEST(Watchdog, EnergyDriftMonitorBoundsPerStepChange) {
  EnergyDriftMonitor mon(0.5, 4);  // 0.5 eV/atom over 4 atoms = 2 eV total
  EXPECT_TRUE(mon.enabled());
  mon.reset(-10.0);
  EXPECT_TRUE(mon.admissible(-9.0));   // |dE| = 1 eV < 2
  EXPECT_FALSE(mon.admissible(-7.0));  // |dE| = 3 eV > 2
  mon.accept(-9.0);
  EXPECT_TRUE(mon.admissible(-8.0));  // measured against the new reference
  EXPECT_NEAR(mon.cumulative_drift_per_atom(), 0.25, 1e-12);

  EnergyDriftMonitor off(0.0, 4);
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.admissible(1e9));
}

TEST(Watchdog, OscillationDetectorFiresOnThrash) {
  OscillationDetector osc(4);
  // Accept/reject alternation around a constant energy: fires once the
  // window is full.
  bool fired = false;
  for (int i = 0; i < 8 && !fired; ++i) {
    fired = osc.push(i % 2 == 0, -5.0);
  }
  EXPECT_TRUE(fired);

  // Steady downhill progress never fires.
  OscillationDetector good(4);
  double e = 0.0;
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(good.push(true, e));
    e -= 1.0;
  }
}

// ------------------------------------------------------------- Quantize --

TEST(Quantize, NonFiniteWeightsAreReportedNotPropagated) {
  Tensor t = Tensor::from_vector({1.0f, -2.0f,
                                  std::numeric_limits<float>::quiet_NaN(),
                                  std::numeric_limits<float>::infinity()},
                                 {4});
  float scale = 0.0f;
  index_t nonfinite = 0;
  auto codes = model::quantize_tensor(t, scale, &nonfinite);
  EXPECT_EQ(nonfinite, 2);
  EXPECT_TRUE(std::isfinite(scale));
  EXPECT_NEAR(scale, 2.0f / 127.0f, 1e-6);
  const float* p = t.data();
  for (index_t i = 0; i < t.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(p[i])) << "element " << i;
  }
  EXPECT_EQ(p[2], 0.0f);
  EXPECT_EQ(p[3], 0.0f);
  EXPECT_EQ(codes[2], 0);
  EXPECT_EQ(codes[3], 0);
}

TEST(Quantize, ReportCountsPoisonedModel) {
  model::CHGNet net(tiny_config(true), 4);
  auto params = net.named_parameters();
  ASSERT_FALSE(params.empty());
  params[0].second.node()->value.data()[0] =
      std::numeric_limits<float>::quiet_NaN();
  auto rep = model::quantize_for_inference(net);
  EXPECT_EQ(rep.nonfinite, 1);
  EXPECT_TRUE(std::isfinite(rep.mean_abs_error));
  EXPECT_TRUE(std::isfinite(rep.max_abs_error));
}

// --------------------------------------------------------------- Engine --

TEST(Engine, ServesValidCrystal) {
  model::CHGNet net(tiny_config(true), 5);
  InferenceEngine eng(net);
  data::Crystal c = small_crystal();
  auto r = eng.predict(c);
  ASSERT_TRUE(r.ok()) << r.error().message;
  const Prediction& p = r.value();
  EXPECT_TRUE(std::isfinite(p.energy));
  ASSERT_EQ(p.forces.size(), static_cast<std::size_t>(c.natoms()));
  for (const auto& f : p.forces) {
    for (int d = 0; d < 3; ++d) EXPECT_TRUE(std::isfinite(f[d]));
  }
  EXPECT_EQ(eng.stats().served, 1u);
}

TEST(Engine, RejectsInvalidInputBeforeModel) {
  model::CHGNet net(tiny_config(true), 5);
  InferenceEngine eng(net);
  data::Crystal c = small_crystal();
  c.lattice[1] = c.lattice[0];
  auto r = eng.predict(c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(eng.stats().rejected_invalid, 1u);
  EXPECT_EQ(eng.stats().served, 0u);
}

TEST(Engine, DeadlineZeroTimesOut) {
  model::CHGNet net(tiny_config(true), 5);
  InferenceEngine eng(net);
  auto r = eng.predict(small_crystal(), /*deadline_ms=*/0.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);
  EXPECT_EQ(eng.stats().timeouts, 1u);
}

TEST(Engine, StragglerLatencyCountsAgainstDeadline) {
  model::CHGNet net(tiny_config(true), 5);
  EngineConfig cfg;
  cfg.base_latency_ms = 10.0;
  InferenceEngine eng(net, cfg);
  parallel::FaultPlan plan;
  plan.events.push_back({parallel::FaultKind::kStraggler, /*iteration=*/0,
                         /*device=*/0, /*factor=*/1e4, /*duration=*/1});
  eng.set_fault_plan(&plan);
  // 10 ms * 1e4 = 100 s of simulated device latency blows the budget.
  auto r = eng.predict(small_crystal(), /*deadline_ms=*/1000.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);
}

TEST(Engine, TransientFaultRetriedWithBackoff) {
  model::CHGNet net(tiny_config(true), 5);
  perf::reset_events();
  InferenceEngine eng(net);
  parallel::FaultPlan plan;
  // Request 0 fails its first two attempts, then succeeds.
  plan.events.push_back({parallel::FaultKind::kDeviceFailure, /*iteration=*/0,
                         /*device=*/0, /*factor=*/1.0, /*duration=*/2});
  eng.set_fault_plan(&plan);
  auto r = eng.predict(small_crystal());
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().retries, 2);
  EXPECT_GE(r.value().latency_ms, 0.5 + 1.0);  // backoff 0.5 * (2^0 + 2^1)
  EXPECT_EQ(eng.stats().retries, 2u);
  EXPECT_EQ(perf::event_count("serve.retry"), 2u);

  // Request 1 is clean.
  auto r2 = eng.predict(small_crystal(1));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().retries, 0);
}

TEST(Engine, PersistentFaultExhaustsRetries) {
  model::CHGNet net(tiny_config(true), 5);
  EngineConfig cfg;
  cfg.max_retries = 3;
  InferenceEngine eng(net, cfg);
  parallel::FaultPlan plan;
  plan.events.push_back({parallel::FaultKind::kDeviceFailure, /*iteration=*/0,
                         /*device=*/0, /*factor=*/1.0, /*duration=*/10});
  eng.set_fault_plan(&plan);
  auto r = eng.predict(small_crystal());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(eng.stats().overloaded, 1u);
}

TEST(Engine, PoisonedModelIsNumericFault) {
  model::CHGNet net(tiny_config(true), 6);
  poison(net);
  InferenceEngine eng(net);
  auto r = eng.predict(small_crystal());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNumericFault);
  EXPECT_EQ(eng.stats().numeric_faults, 1u);
}

// A deadline equal to the simulated latency passes admission, so only the
// forward's own wall time can blow it: the check after the forward fires.
TEST(Engine, DeadlineBlownByTheForwardTimesOutAfterIt) {
  model::CHGNet net(tiny_config(true), 5);
  EngineConfig cfg;
  cfg.base_latency_ms = 5.0;
  InferenceEngine eng(net, cfg);
  auto r = eng.predict(small_crystal(), /*deadline_ms=*/5.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);
  EXPECT_EQ(r.error().message.find("before forward"), std::string::npos)
      << r.error().message;
  EXPECT_NE(r.error().message.find("ms exceeded ("), std::string::npos)
      << r.error().message;
  EXPECT_EQ(eng.stats().timeouts, 1u);
  EXPECT_EQ(eng.stats().served, 0u);
}

// The same blown deadline on a poisoned model: the reply names the numeric
// fault, which is checked first, and only that tally moves.
TEST(Engine, NumericFaultOutranksABlownDeadline) {
  model::CHGNet net(tiny_config(true), 6);
  poison(net);
  EngineConfig cfg;
  cfg.base_latency_ms = 5.0;
  InferenceEngine eng(net, cfg);
  auto r = eng.predict(small_crystal(), /*deadline_ms=*/5.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNumericFault);
  EXPECT_EQ(eng.stats().numeric_faults, 1u);
  EXPECT_EQ(eng.stats().timeouts, 0u);
  EXPECT_EQ(eng.stats().served, 0u);
}

TEST(Engine, QueueOverloadAndDrain) {
  model::CHGNet net(tiny_config(true), 5);
  EngineConfig cfg;
  cfg.queue_capacity = 2;
  InferenceEngine eng(net, cfg);
  EXPECT_TRUE(eng.submit(small_crystal(1)).ok());
  EXPECT_TRUE(eng.submit(small_crystal(2)).ok());
  auto rejected = eng.submit(small_crystal(3));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(eng.queue_depth(), 2u);

  auto replies = eng.drain();
  ASSERT_EQ(replies.size(), 2u);
  for (const auto& r : replies) {
    EXPECT_TRUE(r.ok()) << r.error().message;
  }
  EXPECT_EQ(eng.queue_depth(), 0u);
}

TEST(Engine, QueuedDeadlineExpiresWithoutForward) {
  model::CHGNet net(tiny_config(true), 5);
  InferenceEngine eng(net);
  ASSERT_TRUE(eng.submit(small_crystal(), /*deadline_ms=*/0.0).ok());
  auto replies = eng.drain();
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_FALSE(replies[0].ok());
  EXPECT_EQ(replies[0].code(), ErrorCode::kTimeout);
  EXPECT_EQ(eng.stats().served, 0u);
}

// ------------------------------------------------------------ MD hardening --

TEST(MDServe, CreateRejectsInvalidCrystal) {
  model::CHGNet net(tiny_config(true), 7);
  data::Crystal c = small_crystal();
  c.species[0] = 0;
  auto sim = md::MDSimulator::create(net, c, {});
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.code(), ErrorCode::kInvalidInput);
  // Legacy ctor throws instead.
  EXPECT_THROW(md::MDSimulator(net, c, {}), Error);
}

TEST(MDServe, CreateReportsPoisonedModel) {
  model::CHGNet net(tiny_config(true), 7);
  poison(net);
  auto sim = md::MDSimulator::create(net, small_crystal(), {});
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.code(), ErrorCode::kNumericFault);
}

TEST(MDServe, ForceExplosionGuardAborts) {
  model::CHGNet net(tiny_config(true), 7);
  perf::reset_events();
  md::MDConfig cfg;
  cfg.max_force_ev_a = 1e-9;  // everything is an explosion
  cfg.max_dt_halvings = 0;    // abort on the first fault
  md::MDSimulator sim(net, small_crystal(), cfg);
  const double e0 = sim.total_energy();
  auto r = sim.try_step(1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNumericFault);
  EXPECT_NE(r.error().message.find("force explosion"), std::string::npos);
  ASSERT_TRUE(sim.last_fault().has_value());
  EXPECT_GT(sim.last_fault()->fmax, 0.0);
  // The committed state rolled back: nothing advanced, energy unchanged.
  EXPECT_EQ(sim.steps_taken(), 0);
  EXPECT_NEAR(sim.total_energy(), e0, 1e-12);
  EXPECT_EQ(perf::event_count("md.watchdog_abort"), 1u);
}

TEST(MDServe, DriftAbortSpendsAllHalvings) {
  model::CHGNet net(tiny_config(false), 3);
  perf::reset_events();
  md::MDConfig cfg;
  cfg.dt_fs = 0.5;
  cfg.init_temperature_k = 150.0;
  cfg.max_drift_ev_per_atom = 1e-15;  // unattainably tight
  cfg.max_dt_halvings = 2;
  md::MDSimulator sim(net, small_crystal(910), cfg);
  auto r = sim.try_step(1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNumericFault);
  EXPECT_NE(r.error().message.find("energy drift"), std::string::npos);
  EXPECT_EQ(sim.dt_halvings_total(), 2);
  EXPECT_NEAR(sim.dt_current(), 0.125, 1e-12);
  EXPECT_EQ(perf::event_count("md.dt_halved"), 2u);
  EXPECT_EQ(perf::event_count("md.watchdog_abort"), 1u);
  EXPECT_EQ(sim.steps_taken(), 0);
}

TEST(MDServe, DtHalvingRecoversTrajectory) {
  // Derivative-readout NVE: at dt = 8 fs the first step of this seeded
  // system drifts ~2e-2 eV/atom, at dt = 4 fs only ~4e-3 (measured; the
  // first attempt is fully deterministic because the faulted attempt rolls
  // the state back bit-exactly).  A 5e-3 bound therefore faults once,
  // halves dt, and the retried step commits cleanly.
  model::CHGNet net(tiny_config(false), 3);
  md::MDConfig cfg;
  cfg.dt_fs = 8.0;
  cfg.init_temperature_k = 150.0;
  cfg.seed = 11;
  cfg.max_drift_ev_per_atom = 5e-3;
  cfg.max_dt_halvings = 8;
  cfg.dt_recover_steps = 0;  // pin the reduced dt
  auto made = md::MDSimulator::create(net, small_crystal(7), cfg);
  ASSERT_TRUE(made.ok()) << made.error().message;
  md::MDSimulator sim = std::move(made).value();
  auto r = sim.try_step(1);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(sim.steps_taken(), 1);
  EXPECT_EQ(sim.dt_halvings_total(), 1);
  EXPECT_NEAR(sim.dt_current(), 4.0, 1e-12);
  EXPECT_FALSE(sim.last_fault().has_value());
  EXPECT_TRUE(std::isfinite(sim.total_energy()));

  // With recovery enabled, the clean retried step immediately counts
  // toward the streak and dt doubles back to the configured value.
  md::MDConfig rec = cfg;
  rec.dt_recover_steps = 1;
  md::MDSimulator sim2(net, small_crystal(7), rec);
  ASSERT_TRUE(sim2.try_step(1).ok());
  EXPECT_EQ(sim2.dt_halvings_total(), 1);
  EXPECT_NEAR(sim2.dt_current(), 8.0, 1e-12);
}

TEST(MDServe, VerletFallbackOnPoisonedModel) {
  model::CHGNet net(tiny_config(true), 7);
  perf::reset_events();
  md::MDConfig cfg;
  cfg.verlet_skin = 1.0;
  cfg.max_dt_halvings = 0;
  md::MDSimulator sim(net, small_crystal(), cfg);
  // Poison the model mid-trajectory: the Verlet path faults, falls back to
  // a full rebuild (also poisoned), and surfaces a typed error.
  poison(net);
  auto r = sim.try_step(1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNumericFault);
  EXPECT_GE(sim.verlet_fallbacks(), 1);
  EXPECT_GE(perf::event_count("md.verlet_fallback"), 1u);
  EXPECT_EQ(sim.steps_taken(), 0);
}

// ----------------------------------------------------------------- Relax --

TEST(RelaxServe, RejectsInvalidAndPoisoned) {
  model::CHGNet net(tiny_config(true), 8);
  data::Crystal bad = small_crystal();
  bad.frac[0][0] = kNaN;
  auto r = md::try_relax(net, bad, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kInvalidInput);

  poison(net);
  data::Crystal c = small_crystal();
  auto r2 = md::try_relax(net, c, {});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.code(), ErrorCode::kNumericFault);
  // Legacy API throws the same condition.
  data::Crystal c2 = small_crystal();
  EXPECT_THROW(md::relax(net, c2, {}), Error);
}

TEST(RelaxServe, ConvergenceOnFinalStepIsReported) {
  // Regression for the off-by-one where a run converging exactly on its
  // last allowed iteration was reported unconverged: rerun with max_steps
  // set to the step count the first run needed.
  model::CHGNet net(tiny_config(false), 9);
  md::RelaxConfig cfg;
  cfg.fmax_tol = 0.5;
  cfg.max_steps = 200;
  data::Crystal c1 = small_crystal(42);
  auto full = md::try_relax(net, c1, cfg);
  ASSERT_TRUE(full.ok()) << full.error().message;
  ASSERT_TRUE(full.value().converged);
  ASSERT_GT(full.value().steps, 0);
  md::RelaxConfig tight = cfg;
  tight.max_steps = full.value().steps;
  data::Crystal c2 = small_crystal(42);
  auto exact = md::try_relax(net, c2, tight);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact.value().converged);
  EXPECT_LE(exact.value().final_fmax, cfg.fmax_tol);
}

TEST(RelaxServe, OscillationDetectorStopsThrashingRun) {
  // This seeded system's line search alternates accept/reject around a
  // plateau it cannot improve; the detector must stop it early with the
  // oscillating flag instead of burning the full step budget.
  model::CHGNet net(tiny_config(false), 9);
  md::RelaxConfig cfg;
  cfg.fmax_tol = 0.2;
  cfg.max_steps = 200;
  data::Crystal c = small_crystal(5);
  auto r = md::try_relax(net, c, cfg);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_TRUE(r.value().oscillating);
  EXPECT_FALSE(r.value().converged);
  EXPECT_LT(r.value().steps, cfg.max_steps);
}

// ------------------------------------------------------------------ Fuzz --

TEST(Fuzz, EveryCorruptionDiesAsTypedInvalidInput) {
  model::CHGNet net(tiny_config(true), 10);
  InferenceEngine eng(net);
  Rng rng(123);
  data::GeneratorConfig gen;
  gen.min_atoms = 2;
  gen.max_atoms = 10;
  int corrupted = 0, valid_ok = 0;
  for (int i = 0; i < 200; ++i) {
    data::Crystal c;
    const Corruption kind = fuzz_crystal(rng, c, 0.6, gen);
    auto r = eng.predict(c);
    if (kind == Corruption::kNone) {
      // A generated crystal may rarely violate the strict serving limits;
      // it must then be rejected as invalid input, never crash.
      if (r.ok()) {
        ++valid_ok;
        EXPECT_TRUE(std::isfinite(r.value().energy));
        for (const auto& f : r.value().forces) {
          for (int d = 0; d < 3; ++d) EXPECT_TRUE(std::isfinite(f[d]));
        }
      } else {
        EXPECT_EQ(r.code(), ErrorCode::kInvalidInput) << r.error().message;
      }
      continue;
    }
    ++corrupted;
    ASSERT_FALSE(r.ok()) << "corruption " << to_string(kind)
                         << " slipped through validation";
    EXPECT_EQ(r.code(), ErrorCode::kInvalidInput)
        << to_string(kind) << ": " << r.error().message;
  }
  EXPECT_GT(corrupted, 50);
  EXPECT_GT(valid_ok, 20);
  EXPECT_EQ(eng.stats().rejected_invalid, static_cast<std::uint64_t>(
      eng.stats().submitted - eng.stats().served));
}

}  // namespace
}  // namespace fastchg::serve
