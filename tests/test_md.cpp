// Tests for the MD driver and relaxation: NVE energy conservation under the
// derivative-readout model (a strong end-to-end consistency check of
// model + integrator), temperature init, COM momentum removal, and that
// relaxation lowers energy and forces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/parallel_for.hpp"
#include "md/md.hpp"
#include "md/relax.hpp"

namespace fastchg::md {
namespace {

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

TEST(AtomicMass, Reasonable) {
  EXPECT_NEAR(atomic_mass(1), 1.008, 1e-6);
  EXPECT_NEAR(atomic_mass(8), 16.0, 1e-6);
  EXPECT_GT(atomic_mass(26), atomic_mass(3));
}

TEST(MD, InitialTemperatureNearTarget) {
  model::CHGNet net(tiny_config(true), 1);
  MDConfig cfg;
  cfg.init_temperature_k = 300.0;
  cfg.seed = 5;
  // Small systems fluctuate; average over several seeds.
  double t_sum = 0.0;
  int n = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    MDConfig c2 = cfg;
    c2.seed = s;
    MDSimulator sim(net, small_crystal(901 + s), c2);
    t_sum += sim.temperature();
    ++n;
  }
  EXPECT_NEAR(t_sum / n, 300.0, 150.0);
}

TEST(MD, CenterOfMassMomentumZero) {
  model::CHGNet net(tiny_config(true), 2);
  MDSimulator sim(net, small_crystal(), {});
  data::Vec3 p{};
  const auto& v = sim.velocities();
  for (index_t i = 0; i < sim.crystal().natoms(); ++i) {
    const double m = atomic_mass(sim.crystal().species[i]);
    for (int d = 0; d < 3; ++d) p[d] += m * v[i][d];
  }
  for (int d = 0; d < 3; ++d) EXPECT_NEAR(p[d], 0.0, 1e-9);
}

TEST(MD, NVEEnergyConservationWithDerivativeForces) {
  // With forces = -dE/dx (reference readout) velocity Verlet must conserve
  // E_tot to high order in dt, whatever the (random) potential looks like.
  model::CHGNet net(tiny_config(false), 3);
  MDConfig cfg;
  cfg.dt_fs = 0.25;
  cfg.init_temperature_k = 150.0;
  MDSimulator sim(net, small_crystal(910), cfg);
  const double e0 = sim.total_energy();
  sim.step(20);
  const double e1 = sim.total_energy();
  const double scale =
      std::max({std::fabs(e0), sim.kinetic_energy(), 1e-3});
  EXPECT_NEAR(e1, e0, 0.05 * scale)
      << "E0 " << e0 << " E1 " << e1 << " KE " << sim.kinetic_energy();
}

TEST(MD, TrajectoryIndependentOfThreadCount) {
  // Every kernel on the forward is bitwise independent of the thread count,
  // so a fixed number of Verlet steps lands on the same bytes.
  model::CHGNet net(tiny_config(true), 6);
  const data::Crystal start = small_crystal(913);
  const auto run = [&](int threads) {
    set_num_threads(threads);
    MDConfig cfg;
    cfg.dt_fs = 0.5;
    cfg.seed = 7;
    MDSimulator sim(net, start, cfg);
    std::vector<double> trace;  // per step: E_pot, E_tot, then frac coords
    for (int s = 0; s < 8; ++s) {
      sim.step(1);
      trace.push_back(sim.potential_energy());
      trace.push_back(sim.total_energy());
      for (const auto& f : sim.crystal().frac) {
        trace.insert(trace.end(), f.begin(), f.end());
      }
    }
    return trace;
  };
  const int saved = num_threads();
  const std::vector<double> one = run(1);
  const std::vector<double> four = run(4);
  set_num_threads(saved);
  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(0, std::memcmp(one.data(), four.data(),
                           one.size() * sizeof(double)));
}

TEST(MD, StepCounterAndTimer) {
  model::CHGNet net(tiny_config(true), 4);
  MDSimulator sim(net, small_crystal(911), {});
  const double per_step = sim.step(3);
  EXPECT_EQ(sim.steps_taken(), 3);
  EXPECT_GT(per_step, 0.0);
}

TEST(MD, FractionalCoordinatesStayWrapped) {
  model::CHGNet net(tiny_config(true), 5);
  MDConfig cfg;
  cfg.dt_fs = 2.0;
  cfg.init_temperature_k = 600.0;
  MDSimulator sim(net, small_crystal(912), cfg);
  sim.step(10);
  for (const auto& f : sim.crystal().frac) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(f[d], 0.0);
      EXPECT_LT(f[d], 1.0);
    }
  }
}

TEST(Relax, LowersEnergyAndForces) {
  model::CHGNet net(tiny_config(false), 6);
  data::Crystal c = small_crystal(913);
  RelaxConfig cfg;
  cfg.max_steps = 30;
  cfg.fmax_tol = 1e-4;  // unreachable: force full 30 steps
  RelaxResult res = relax(net, c, cfg);
  EXPECT_LE(res.final_energy, res.initial_energy + 1e-6);
  EXPECT_GT(res.steps, 0);
}

TEST(Relax, ConvergesWithLooseTolerance) {
  model::CHGNet net(tiny_config(false), 7);
  data::Crystal c = small_crystal(914);
  RelaxConfig cfg;
  cfg.fmax_tol = 1e3;  // trivially satisfied
  RelaxResult res = relax(net, c, cfg);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.steps, 0);
}

}  // namespace
}  // namespace fastchg::md
