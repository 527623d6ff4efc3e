// Integration tests for the CHGNet/FastCHGNet model: output shapes,
// serial-vs-batched and fused-vs-unfused equivalence, energy/force/stress
// consistency of the derivative readout, rotation equivariance of the
// decoupled force head, parameter-count ordering, double backward through
// the full model, and first-order backward (no graph, dedicated kernels)
// against the create_graph backward.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "chgnet/model.hpp"
#include "core/parallel_for.hpp"
#include "data/batch.hpp"
#include "data/dataset.hpp"
#include "perf/counters.hpp"
#include "train/loss.hpp"

namespace fastchg::model {
namespace {

using namespace ag::ops;
using ag::Var;
using data::Batch;
using data::Crystal;
using data::Dataset;

ModelConfig tiny_config() {
  ModelConfig cfg;
  cfg.feat_dim = 16;
  cfg.num_radial = 7;
  cfg.num_angular = 7;
  cfg.num_layers = 2;
  return cfg;
}

Dataset tiny_dataset(index_t n = 4, std::uint64_t seed = 77) {
  data::GeneratorConfig g;
  g.min_atoms = 3;
  g.max_atoms = 6;
  g.lognormal_mu = 1.5;
  return Dataset::generate(n, seed, g);
}

double total_energy(const Tensor& energy_per_atom,
                    const std::vector<index_t>& natoms) {
  double e = 0.0;
  for (index_t s = 0; s < energy_per_atom.size(0); ++s) {
    e += static_cast<double>(energy_per_atom.data()[s]) *
         static_cast<double>(natoms[static_cast<std::size_t>(s)]);
  }
  return e;
}

void expect_close(const Tensor& a, const Tensor& b, float tol,
                  const char* what) {
  ASSERT_TRUE(same_shape(a.shape(), b.shape())) << what;
  for (index_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << what << " elem " << i;
  }
}

TEST(Model, ReferenceForwardShapesAndFinite) {
  Dataset ds = tiny_dataset();
  Batch b = data::collate_indices(ds, {0, 1, 2, 3});
  CHGNet net(tiny_config(), 1);
  ModelOutput out = net.forward(b);
  EXPECT_EQ(out.energy_per_atom.shape(), (Shape{4, 1}));
  EXPECT_EQ(out.forces.shape(), (Shape{b.num_atoms, 3}));
  EXPECT_EQ(out.stress.shape(), (Shape{4, 9}));
  EXPECT_EQ(out.magmom.shape(), (Shape{b.num_atoms, 1}));
  for (const Var* v : {&out.energy_per_atom, &out.forces, &out.stress}) {
    for (float x : v->value().to_vector()) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(Model, DecoupledForwardShapes) {
  Dataset ds = tiny_dataset();
  Batch b = data::collate_indices(ds, {0, 1});
  ModelConfig cfg = tiny_config();
  cfg.decoupled_heads = true;
  cfg.batched_basis = true;
  CHGNet net(cfg, 2);
  ModelOutput out = net.forward(b, ForwardMode::kEval);
  EXPECT_EQ(out.forces.shape(), (Shape{b.num_atoms, 3}));
  EXPECT_EQ(out.stress.shape(), (Shape{2, 9}));
  EXPECT_FALSE(out.energy_per_atom.requires_grad());  // eval runs grad-free
}

TEST(Model, BatchedBasisMatchesSerial) {
  Dataset ds = tiny_dataset(5, 31);
  Batch b = data::collate_indices(ds, {0, 1, 2, 3, 4});
  ModelConfig serial_cfg = tiny_config();
  ModelConfig batched_cfg = tiny_config();
  batched_cfg.batched_basis = true;
  CHGNet a(serial_cfg, 5), c(batched_cfg, 99);
  c.copy_parameters_from(a);
  ModelOutput oa = a.forward(b);
  ModelOutput oc = c.forward(b);
  expect_close(oa.energy_per_atom.value(), oc.energy_per_atom.value(), 1e-4f,
               "energy");
  expect_close(oa.forces.value(), oc.forces.value(), 2e-3f, "forces");
  expect_close(oa.stress.value(), oc.stress.value(), 2e-3f, "stress");
}

TEST(Model, FusedKernelsMatchUnfused) {
  Dataset ds = tiny_dataset(3, 32);
  Batch b = data::collate_indices(ds, {0, 1, 2});
  ModelConfig plain = tiny_config();
  plain.batched_basis = true;
  ModelConfig fused = plain;
  fused.fused_kernels = true;
  fused.factored_envelope = true;
  CHGNet a(plain, 6), c(fused, 6);
  c.copy_parameters_from(a);
  ModelOutput oa = a.forward(b);
  ModelOutput oc = c.forward(b);
  expect_close(oa.energy_per_atom.value(), oc.energy_per_atom.value(), 1e-4f,
               "energy");
  expect_close(oa.forces.value(), oc.forces.value(), 2e-3f, "forces");
  expect_close(oa.magmom.value(), oc.magmom.value(), 1e-4f, "magmom");
}

TEST(Model, FusedLaunchesFarFewerKernels) {
  Dataset ds = tiny_dataset(4, 33);
  Batch b = data::collate_indices(ds, {0, 1, 2, 3});
  CHGNet ref(ModelConfig::optimization_stage(0), 7);
  CHGNet fast(ModelConfig::optimization_stage(3), 7);
  perf::reset_kernels();
  (void)ref.forward(b);
  const auto ref_k = perf::counters().kernel_launches;
  perf::reset_kernels();
  (void)fast.forward(b);
  const auto fast_k = perf::counters().kernel_launches;
  perf::reset_kernels();
  EXPECT_LT(fast_k * 2, ref_k) << "fast " << fast_k << " vs ref " << ref_k;
}

TEST(Model, ForcesMatchNumericalEnergyGradient) {
  Dataset ds = tiny_dataset(1, 34);
  Batch b = data::collate_indices(ds, {0});
  ModelConfig cfg = tiny_config();
  cfg.batched_basis = true;
  CHGNet net(cfg, 8);
  ModelOutput out = net.forward(b, ForwardMode::kEval);
  const Tensor forces = out.forces.value().clone();
  const float h = 1e-3f;
  for (index_t atom = 0; atom < std::min<index_t>(b.num_atoms, 2); ++atom) {
    for (int d = 0; d < 3; ++d) {
      float* slot = b.cart.data() + atom * 3 + d;
      const float orig = *slot;
      *slot = orig + h;
      const double ep = total_energy(
          net.forward(b, ForwardMode::kEval).energy_per_atom.value(),
          b.natoms);
      *slot = orig - h;
      const double em = total_energy(
          net.forward(b, ForwardMode::kEval).energy_per_atom.value(),
          b.natoms);
      *slot = orig;
      const double fd = -(ep - em) / (2.0 * h);
      EXPECT_NEAR(forces.data()[atom * 3 + d], fd, 5e-3)
          << "atom " << atom << " dir " << d;
    }
  }
}

TEST(Model, StressMatchesNumericalStrainDerivative) {
  Dataset ds = tiny_dataset(1, 35);
  Batch b = data::collate_indices(ds, {0});
  ModelConfig cfg = tiny_config();
  cfg.batched_basis = true;
  CHGNet net(cfg, 9);
  const Tensor stress = net.forward(b, ForwardMode::kEval).stress.value().clone();
  const double vol = b.volumes[0];
  const float h = 1e-3f;
  const Tensor cart0 = b.cart.clone();
  const Tensor lat0 = b.lattices[0].clone();
  auto apply_strain = [&](int i, int j, float eps) {
    // x' = x (I + e), L' = L (I + e)
    for (index_t a = 0; a < b.num_atoms; ++a) {
      for (int col = 0; col < 3; ++col) {
        float v = cart0.data()[a * 3 + col];
        if (col == j) v += eps * cart0.data()[a * 3 + i];
        b.cart.data()[a * 3 + col] = v;
      }
    }
    for (int r = 0; r < 3; ++r) {
      for (int col = 0; col < 3; ++col) {
        float v = lat0.data()[r * 3 + col];
        if (col == j) v += eps * lat0.data()[r * 3 + i];
        b.lattices[0].data()[r * 3 + col] = v;
      }
    }
  };
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      apply_strain(i, j, h);
      const double ep = total_energy(
          net.forward(b, ForwardMode::kEval).energy_per_atom.value(),
          b.natoms);
      apply_strain(i, j, -h);
      const double em = total_energy(
          net.forward(b, ForwardMode::kEval).energy_per_atom.value(),
          b.natoms);
      apply_strain(i, j, 0.0f);
      const double fd = (ep - em) / (2.0 * h) / vol;
      EXPECT_NEAR(stress.data()[i * 3 + j], fd, 5e-4)
          << "strain component " << i << j;
    }
  }
}

TEST(Model, EnergyRotationInvariantAndForceHeadEquivariant) {
  // Rotate the crystal; the decoupled force head must rotate its output
  // (Eq. 8) while the energy stays unchanged.
  Dataset ds = tiny_dataset(1, 36);
  Crystal c = ds[0].crystal;
  const double ang = 0.7;
  const data::Mat3 rot = {{{std::cos(ang), -std::sin(ang), 0},
                           {std::sin(ang), std::cos(ang), 0},
                           {0, 0, 1}}};
  Crystal cr = c;
  cr.lattice = data::mat_mul(c.lattice, rot);

  Dataset d1 = Dataset::from_crystals({c});
  Dataset d2 = Dataset::from_crystals({cr});
  Batch b1 = data::collate_indices(d1, {0});
  Batch b2 = data::collate_indices(d2, {0});
  ASSERT_EQ(b1.num_edges, b2.num_edges);  // rotation preserves the graph

  ModelConfig cfg = tiny_config();
  cfg.decoupled_heads = true;
  cfg.batched_basis = true;
  CHGNet net(cfg, 10);
  ModelOutput o1 = net.forward(b1, ForwardMode::kEval);
  ModelOutput o2 = net.forward(b2, ForwardMode::kEval);
  expect_close(o1.energy_per_atom.value(), o2.energy_per_atom.value(), 1e-4f,
               "rotated energy");
  // F2 =? F1 @ R
  const float* f1 = o1.forces.value().data();
  const float* f2 = o2.forces.value().data();
  for (index_t a = 0; a < b1.num_atoms; ++a) {
    for (int j = 0; j < 3; ++j) {
      double expect = 0.0;
      for (int k = 0; k < 3; ++k) {
        expect += static_cast<double>(f1[a * 3 + k]) * rot[k][j];
      }
      EXPECT_NEAR(f2[a * 3 + j], expect, 2e-3) << "atom " << a << " dir " << j;
    }
  }
}

TEST(Model, ParamCountOrderingMatchesTable1) {
  // Table I: "w/o head" has slightly fewer parameters than reference-style
  // output (heads removed), "F/S head" has more (heads added).
  CHGNet ref(ModelConfig::reference(), 11);
  CHGNet no_head(ModelConfig::fast_no_head(), 11);
  CHGNet fs_head(ModelConfig::fast(), 11);
  EXPECT_EQ(ref.num_parameters(), no_head.num_parameters());
  EXPECT_GT(fs_head.num_parameters(), no_head.num_parameters());
  // Full-size config lands in the paper's ballpark (~4e5 params).
  EXPECT_GT(ref.num_parameters(), 150000);
  EXPECT_LT(ref.num_parameters(), 900000);
}

TEST(Model, DependencyEliminationKeepsShapesAndFinite) {
  Dataset ds = tiny_dataset(3, 37);
  Batch b = data::collate_indices(ds, {0, 1, 2});
  ModelConfig cfg = tiny_config();
  cfg.dependency_elimination = true;
  cfg.batched_basis = true;
  CHGNet net(cfg, 12);
  ModelOutput out = net.forward(b);
  for (float x : out.forces.value().to_vector()) {
    EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(Model, DoubleBackwardThroughForceLoss) {
  // Reference training path: Huber-style loss on derivative forces must
  // propagate to the weights (second-order).  Smoke-check finiteness.
  Dataset ds = tiny_dataset(1, 38);
  Batch b = data::collate_indices(ds, {0});
  ModelConfig cfg = tiny_config();
  cfg.num_layers = 1;
  cfg.batched_basis = true;
  CHGNet net(cfg, 13);
  ModelOutput out = net.forward(b, ForwardMode::kTrain);
  Var loss = sum_all(square(sub(out.forces, constant(b.forces))));
  ag::backward(loss);
  index_t with_grad = 0;
  for (auto& p : net.parameters()) {
    if (p.has_grad()) {
      ++with_grad;
      for (float g : p.grad().to_vector()) ASSERT_TRUE(std::isfinite(g));
    }
  }
  EXPECT_GT(with_grad, 10);
}


TEST(Model, SecondOrderWeightGradientMatchesNumeric) {
  // The decisive correctness test for the reference training path: the
  // analytic gradient of a force loss w.r.t. a *weight* tensor (which flows
  // through d(dE/dx)/dw, a true second-order derivative of the full model)
  // must match central differences.
  Dataset ds = tiny_dataset(1, 40);
  Batch b = data::collate_indices(ds, {0});
  ModelConfig cfg;
  cfg.feat_dim = 8;
  cfg.num_radial = 5;
  cfg.num_angular = 5;
  cfg.num_layers = 1;
  cfg.batched_basis = true;
  CHGNet net(cfg, 16);

  auto force_loss = [&]() -> ag::Var {
    ModelOutput out = net.forward(b, ForwardMode::kTrain);
    return sum_all(square(out.forces));
  };
  // Pick a mid-network weight (the atom-conv projection of block 0).
  ag::Var w;
  for (auto& [name, p] : net.named_parameters()) {
    if (name == "block0.atom_proj.w") w = p;
  }
  ASSERT_TRUE(w.defined());
  ag::GradCheckOptions opt;
  opt.eps = 2e-2f;
  opt.rtol = 8e-2f;
  opt.atol = 5e-3f;
  opt.max_per_leaf = 6;
  auto res = ag::gradcheck(force_loss, {w}, opt);
  EXPECT_TRUE(res.ok) << res.detail << " (abs " << res.max_abs_err
                      << ", rel " << res.max_rel_err << ")";
}

class GraphConfigSweep
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(GraphConfigSweep, ModelRunsAndGraphInvariantsHold) {
  const auto [atom_cut, bond_cut] = GetParam();
  data::GraphConfig gc;
  gc.atom_cutoff = atom_cut;
  gc.bond_cutoff = bond_cut;
  data::GeneratorConfig gen;
  gen.min_atoms = 3;
  gen.max_atoms = 6;
  Dataset ds = Dataset::generate(3, 51, gen, gc);
  for (index_t i = 0; i < ds.size(); ++i) {
    const data::GraphData& g = ds[i].graph;
    for (index_t e : g.short_edges) {
      EXPECT_LE(g.edge_dist[static_cast<std::size_t>(e)], bond_cut);
    }
    for (double d : g.edge_dist) EXPECT_LE(d, atom_cut + 1e-9);
  }
  ModelConfig cfg = tiny_config();
  cfg.atom_cutoff = atom_cut;
  cfg.bond_cutoff = bond_cut;
  cfg.batched_basis = true;
  CHGNet net(cfg, 17);
  Batch b = data::collate_indices(ds, {0, 1, 2});
  ModelOutput out = net.forward(b, ForwardMode::kEval);
  for (float v : out.energy_per_atom.value().to_vector()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cutoffs, GraphConfigSweep,
    ::testing::Values(std::make_pair(4.0, 2.0), std::make_pair(5.0, 2.5),
                      std::make_pair(6.0, 3.0), std::make_pair(7.0, 3.5)));


TEST(Model, IntermediateMagmomReadoutKnob) {
  // With magmom_intermediate the head reads the features entering the final
  // block (real-CHGNet style): magmoms change, everything else is bitwise
  // identical.
  Dataset ds = tiny_dataset(2, 41);
  Batch b = data::collate_indices(ds, {0, 1});
  ModelConfig base = tiny_config();
  base.batched_basis = true;
  ModelConfig inter = base;
  inter.magmom_intermediate = true;
  CHGNet a(base, 18), c(inter, 18);
  c.copy_parameters_from(a);
  ModelOutput oa = a.forward(b, ForwardMode::kEval);
  ModelOutput oc = c.forward(b, ForwardMode::kEval);
  EXPECT_EQ(oa.energy_per_atom.value().to_vector(),
            oc.energy_per_atom.value().to_vector());
  EXPECT_EQ(oa.forces.value().to_vector(), oc.forces.value().to_vector());
  EXPECT_NE(oa.magmom.value().to_vector(), oc.magmom.value().to_vector());
  EXPECT_EQ(oc.magmom.shape(), (Shape{b.num_atoms, 1}));
}

TEST(Model, EvalModeUsesNoGraphForDecoupled) {
  Dataset ds = tiny_dataset(1, 39);
  Batch b = data::collate_indices(ds, {0});
  ModelConfig cfg = tiny_config();
  cfg.decoupled_heads = true;
  cfg.batched_basis = true;
  CHGNet net(cfg, 14);
  perf::reset_peak();
  const auto live_before = perf::counters().bytes_live;
  {
    ModelOutput out = net.forward(b, ForwardMode::kEval);
    (void)out;
  }
  // After the outputs die, no graph survives.
  EXPECT_LE(perf::counters().bytes_live, live_before + 1024);
}

/// Every parameter's gradient of the stage-3 training loss on `b`, after one
/// backward with the given create_graph flag.
/// Parameter gradients of the training loss on `b`.  When `outputs` is
/// given it receives the forward's energy, forces, stress and magmom.
std::vector<std::vector<float>> loss_param_grads(
    CHGNet& net, const Batch& b, bool create_graph,
    std::vector<std::vector<float>>* outputs = nullptr) {
  net.zero_grad();
  ModelOutput out = net.forward(b, ForwardMode::kTrain);
  if (outputs != nullptr) {
    *outputs = {out.energy_per_atom.value().to_vector(),
                out.forces.value().to_vector(),
                out.stress.value().to_vector(),
                out.magmom.value().to_vector()};
  }
  ag::backward(train::chgnet_loss(out, b).total, {}, create_graph);
  std::vector<std::vector<float>> grads;
  for (auto& p : net.parameters()) {
    grads.push_back(p.has_grad() ? p.grad().to_vector()
                                 : std::vector<float>{});
  }
  return grads;
}

Batch stage3_batch() {
  Dataset ds = tiny_dataset(32, 91);
  std::vector<index_t> rows(32);
  for (index_t i = 0; i < 32; ++i) rows[static_cast<std::size_t>(i)] = i;
  return data::collate_indices(ds, rows);
}

TEST(Model, FirstOrderBackwardMatchesCreateGraphGradients) {
  // The first-order backward runs matmul_tn and the fused gated-act backward
  // kernel; create_graph=true runs the op-composed backward.  Both must give
  // every parameter the same gradient up to rounding.
  Batch b = stage3_batch();
  CHGNet net(ModelConfig::optimization_stage(3), 21);
  const auto first = loss_param_grads(net, b, /*create_graph=*/false);
  const auto composed = loss_param_grads(net, b, /*create_graph=*/true);
  const auto names = net.named_parameters();
  ASSERT_EQ(first.size(), composed.size());
  index_t compared = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].size(), composed[i].size()) << names[i].first;
    double diff2 = 0.0, ref2 = 0.0;
    for (std::size_t j = 0; j < first[i].size(); ++j) {
      const double d = static_cast<double>(first[i][j]) - composed[i][j];
      diff2 += d * d;
      ref2 += static_cast<double>(composed[i][j]) * composed[i][j];
    }
    if (first[i].empty()) continue;
    ++compared;
    EXPECT_LE(std::sqrt(diff2), 1e-5 * std::sqrt(ref2) + 1e-12)
        << names[i].first << ": |diff| " << std::sqrt(diff2) << " |ref| "
        << std::sqrt(ref2);
  }
  EXPECT_GT(compared, 20);
}

TEST(Model, FirstOrderGradientsIndependentOfThreadCount) {
  Batch b = stage3_batch();
  CHGNet net(ModelConfig::optimization_stage(3), 22);
  const int saved = num_threads();
  std::vector<std::vector<float>> out_one, out_four;
  set_num_threads(1);
  const auto one = loss_param_grads(net, b, /*create_graph=*/false, &out_one);
  set_num_threads(4);
  const auto four =
      loss_param_grads(net, b, /*create_graph=*/false, &out_four);
  set_num_threads(saved);
  const char* kOutputs[] = {"energy", "forces", "stress", "magmom"};
  ASSERT_EQ(out_one.size(), 4u);
  ASSERT_EQ(out_four.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(out_one[i].size(), out_four[i].size()) << kOutputs[i];
    EXPECT_EQ(0, std::memcmp(out_one[i].data(), out_four[i].data(),
                             out_one[i].size() * sizeof(float)))
        << kOutputs[i];
  }
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    ASSERT_EQ(one[i].size(), four[i].size());
    if (one[i].empty()) continue;
    EXPECT_EQ(0, std::memcmp(one[i].data(), four[i].data(),
                             one[i].size() * sizeof(float)))
        << "parameter " << i;
  }
}

/// Pool dispatches of one eval forward of `c` at 4 threads, with the
/// e2e benchmark's model dimensions (width 32, basis 15).
std::uint64_t eval_forward_dispatches(const Crystal& c,
                                      const data::GraphConfig& gc) {
  ModelConfig cfg = ModelConfig::optimization_stage(3);
  cfg.feat_dim = 32;
  cfg.num_radial = 15;
  cfg.num_angular = 15;
  cfg.atom_cutoff = gc.atom_cutoff;
  cfg.bond_cutoff = gc.bond_cutoff;
  const CHGNet net(cfg, 5);
  const Dataset ds = Dataset::from_crystals({c}, gc, {}, /*relabel=*/false);
  const Batch b = data::collate_indices(ds, {0});
  const int saved = num_threads();
  set_num_threads(4);
  const std::uint64_t before = perf::counters().snapshot().pool_dispatches;
  net.forward(b, ForwardMode::kEval);
  const std::uint64_t after = perf::counters().snapshot().pool_dispatches;
  set_num_threads(saved);
  return after - before;
}

TEST(Model, TwoAtomForwardStaysOffThePool) {
  // Small serve shapes must not pay pool wake-ups: every kernel of a
  // two-atom forward is below the size rule.
  Crystal c;
  c.lattice = {{{3.0, 0.0, 0.0}, {0.0, 3.0, 0.0}, {0.0, 0.0, 3.0}}};
  c.frac = {{0.0, 0.0, 0.0}, {0.5, 0.5, 0.5}};
  c.species = {3, 8};
  data::GraphConfig gc;
  gc.atom_cutoff = 5.0;
  gc.bond_cutoff = 2.5;
  EXPECT_EQ(eval_forward_dispatches(c, gc), 0u);
}

TEST(Model, LargeCellForwardUsesThePool) {
  // The e2e md workload's 512-atom cell is kernel-bound: its forward must
  // run threaded kernels.
  const Crystal c = data::make_supercell(
      data::make_reference_structure("Li9Co7O16"), 2, 2, 4);
  ASSERT_EQ(c.natoms(), 512);
  EXPECT_GT(eval_forward_dispatches(c, data::GraphConfig{}), 0u);
}

TEST(Model, FactoryFunctions) {
  auto fast = make_fastchgnet(15);
  auto ref = make_reference_chgnet(15);
  EXPECT_TRUE(fast->config().decoupled_heads);
  EXPECT_FALSE(ref->config().decoupled_heads);
  EXPECT_EQ(fast->config().tag(), "FastCHGNet[batched+fused+heads]");
  EXPECT_EQ(ref->config().tag(), "CHGNet(reference)");
}

}  // namespace
}  // namespace fastchg::model
