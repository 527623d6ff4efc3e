#include "layer_walk.hpp"

#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <set>

#include "autograd/ops.hpp"
#include "harness.hpp"
#include "perf/counters.hpp"
#include "perf/trace.hpp"
#include "train/loss.hpp"

namespace fastchg::e2e {

using namespace ag::ops;
using ag::Var;

namespace {

constexpr int kInteractions = 3;  // the per-layer metric names fix this
constexpr const char* kSpanCat = "e2e.walk";

// Span names must be static literals (perf/trace.hpp); one pair per layer,
// in walk_layers() order.
constexpr const char* kFwdSpan[] = {
    "walk.basis",         "walk.embed",         "walk.interaction.0",
    "walk.interaction.1", "walk.interaction.2", "walk.readout",
    "walk.loss"};
constexpr const char* kBwdSpan[] = {
    "walk.basis.bwd",         "walk.embed.bwd",
    "walk.interaction.0.bwd", "walk.interaction.1.bwd",
    "walk.interaction.2.bwd", "walk.readout.bwd",
    "walk.loss.bwd"};
constexpr std::size_t kNumLayers = std::size(kFwdSpan);

std::uint64_t kernel_launches() {
  return perf::counters().snapshot().kernel_launches;
}

/// A fresh leaf holding `x`'s value with `x`'s requires_grad (undefined
/// stays undefined).
Var leaf_like(const Var& x) {
  return x.defined() ? Var(x.value(), x.requires_grad()) : Var();
}

}  // namespace

struct LayerWalk::Modules {
  Rng rng;
  model::FeatureEmbedding embed;
  basis::RadialBasis rbf;
  basis::AngularBasis fourier;
  model::EnergyHead energy;
  model::MagmomHead magmom;
  std::vector<std::unique_ptr<model::InteractionBlock>> blocks;
  std::optional<model::ForceHead> force;
  std::optional<model::StressHead> stress;

  // Member order is CHGNet's: the init RNG is consumed by embed, the two
  // heads constructed in the initializer list, then the blocks and the
  // decoupled heads built in the constructor body.
  Modules(const model::ModelConfig& cfg, std::uint64_t seed)
      : rng(seed),
        embed(cfg, rng),
        rbf(cfg.num_radial, cfg.atom_cutoff, cfg.envelope_p,
            cfg.fused_kernels, cfg.factored_envelope),
        fourier(cfg.num_angular, cfg.fused_kernels),
        energy(cfg, rng),
        magmom(cfg, rng) {
    for (index_t l = 0; l < cfg.num_layers; ++l) {
      blocks.push_back(std::make_unique<model::InteractionBlock>(
          cfg, l + 1 == cfg.num_layers, rng));
    }
    force.emplace(cfg, rng);
    stress.emplace(cfg, rng);
  }

  void zero_grad() {
    for (nn::Module* m : std::initializer_list<nn::Module*>{
             &embed, &rbf, &energy, &magmom, &*force, &*stress}) {
      m->zero_grad();
    }
    for (auto& b : blocks) b->zero_grad();
  }
};

/// One layer of the walk: a pure function of its input Vars (plus the
/// batch), so it can be re-run on detached inputs for its backward.
struct Layer {
  std::vector<Var> in;
  std::vector<Var> out;
  std::function<std::vector<Var>(const std::vector<Var>&)> fn;
};

struct LayerWalk::Acts {
  /// Shared with the interaction layers' closures, so its address stays
  /// valid however Acts moves.
  std::shared_ptr<model::GraphTopo> topo;
  std::vector<Layer> layers;  ///< walk_layers() order
};

LayerWalk::LayerWalk(const model::ModelConfig& cfg, std::uint64_t seed) {
  FASTCHG_CHECK(cfg.batched_basis && cfg.decoupled_heads &&
                    !cfg.magmom_intermediate &&
                    cfg.num_layers == kInteractions,
                "LayerWalk covers the FastCHGNet configuration with "
                    << kInteractions << " interaction blocks");
  m_ = std::make_unique<Modules>(cfg, seed);
}

LayerWalk::~LayerWalk() = default;

LayerWalk::Acts LayerWalk::run(const data::Batch& b,
                                std::vector<double>* kernels) const {
  Acts acts;
  acts.topo = std::make_shared<model::GraphTopo>();
  model::GraphTopo& topo = *acts.topo;
  topo.num_atoms = b.num_atoms;
  topo.num_edges = b.num_edges;
  topo.num_angles = b.num_angles;
  topo.edge_src = &b.edge_src;
  topo.edge_dst = &b.edge_dst;
  topo.angle_e1 = &b.angle_e1;
  topo.angle_e2 = &b.angle_e2;
  topo.angle_center = &b.angle_center;
  // Same mixed-batch rule as CHGNet::forward: edges of angle-free
  // structures must not receive the bond update inside a fused batch.
  bool mixed = false;
  for (index_t s = 0; b.num_angles > 0 && s < b.num_structs; ++s) {
    mixed = mixed || b.angle_first[s + 1] == b.angle_first[s];
  }
  if (mixed && b.num_structs > 1) {
    Tensor mask = Tensor::empty({b.num_edges, 1});
    for (index_t s = 0; s < b.num_structs; ++s) {
      const float has = b.angle_first[s + 1] > b.angle_first[s] ? 1.0f : 0.0f;
      for (index_t e = b.edge_first[s]; e < b.edge_first[s + 1]; ++e) {
        mask.data()[e] = has;
      }
    }
    topo.bond_update_mask = constant(std::move(mask));
  }

  Modules& m = *m_;
  const std::shared_ptr<const model::GraphTopo> tp = acts.topo;
  std::vector<Layer>& L = acts.layers;
  L.resize(kNumLayers);

  // basis: geometry + sRBF + Fourier (Alg. 2, no strain) -> rij rlen rbf ft
  L[0].fn = [&m, &b](const std::vector<Var>&) {
    Var pos = constant(b.cart);
    std::vector<Var> lats;
    for (const Tensor& lat : b.lattices) lats.push_back(constant(lat));
    Var shifts = matmul(constant(b.image_blockdiag), cat(lats, 0));
    Var ri = index_select0(pos, b.edge_src);
    Var rj = index_select0(pos, b.edge_dst);
    Var rij = add(sub(rj, ri), shifts);
    Var rlen = sqrt_op(sum_dim(square(rij), 1, /*keepdim=*/true));
    Var rbf = m.rbf.forward(rlen);
    Var ft;
    if (b.num_angles > 0) {
      Var u = index_select0(rij, b.angle_e1);
      Var v = index_select0(rij, b.angle_e2);
      Var dots = sum_dim(mul(u, v), 1, /*keepdim=*/true);
      Var lens = mul(index_select0(rlen, b.angle_e1),
                     index_select0(rlen, b.angle_e2));
      Var cosq = clamp(div(dots, lens), -1.0f + 1e-6f, 1.0f - 1e-6f);
      ft = m.fourier.forward(acos_op(cosq));
    }
    return std::vector<Var>{rij, rlen, rbf, ft};
  };
  // embed: rbf ft -> v e0 ea eb a
  L[1].fn = [&m, &b](const std::vector<Var>& in) {
    model::FeatureEmbedding::BondFeatures bf = m.embed.bonds(in[0]);
    Var v = m.embed.atoms(b.species);
    Var a = b.num_angles > 0 ? m.embed.angles(in[1]) : Var();
    return std::vector<Var>{v, bf.e0, bf.ea, bf.eb, a};
  };
  // interaction.i: v e a ea eb -> v e a
  for (int i = 0; i < kInteractions; ++i) {
    const model::InteractionBlock* blk = m.blocks[static_cast<std::size_t>(i)].get();
    L[static_cast<std::size_t>(2 + i)].fn = [blk, tp](const std::vector<Var>& in) {
      model::BlockState st{in[0], in[1], in[2]};
      blk->apply(st, *tp, in[3], in[4]);
      return std::vector<Var>{st.v, st.e, st.a};
    };
  }
  // readout: v e rij rlen -> energy magmom forces stress
  L[5].fn = [&m, &b](const std::vector<Var>& in) {
    Var energy = m.energy.forward(in[0], b.atom_struct, b.num_structs, b.natoms);
    Var magmom = m.magmom.forward(in[0]);
    Var forces = m.force->forward(in[1], in[2], in[3], b.edge_src, b.num_atoms);
    Var stress = m.stress->forward(in[0], b);
    return std::vector<Var>{energy, magmom, forces, stress};
  };
  // loss: energy magmom forces stress -> total (default weights, as the
  // Trainer's default TrainConfig)
  L[6].fn = [&b](const std::vector<Var>& in) {
    model::ModelOutput o{in[0], in[2], in[3], in[1]};
    return std::vector<Var>{train::chgnet_loss(o, b).total};
  };

  for (std::size_t i = 0; i < kNumLayers; ++i) {
    const std::vector<Var>* prev = i == 0 ? nullptr : &L[i - 1].out;
    switch (i) {
      case 0: break;
      case 1: L[1].in = {L[0].out[2], L[0].out[3]}; break;
      case 2:  // embed's v e0 ea eb a -> v e a ea eb
        L[2].in = {L[1].out[0], L[1].out[1], L[1].out[4], L[1].out[2],
                   L[1].out[3]};
        break;
      case 3:
      case 4:
        L[i].in = {(*prev)[0], (*prev)[1], (*prev)[2], L[2].in[3], L[2].in[4]};
        break;
      case 5: L[5].in = {(*prev)[0], (*prev)[1], L[0].out[0], L[0].out[1]}; break;
      case 6: L[6].in = L[5].out; break;
    }
    const std::uint64_t k0 = kernels ? kernel_launches() : 0;
    {
      perf::TraceSpan span(kFwdSpan[i], kSpanCat);
      L[i].out = L[i].fn(L[i].in);
    }
    if (kernels) kernels->push_back(static_cast<double>(kernel_launches() - k0));
  }
  return acts;
}

model::ModelOutput LayerWalk::forward(const data::Batch& b) const {
  const Acts acts = run(b, nullptr);
  const std::vector<Var>& r = acts.layers[5].out;
  return model::ModelOutput{r[0], r[2], r[3], r[1]};
}

std::map<std::string, LayerCost> LayerWalk::profile(const data::Batch& b) const {
  const bool was_tracing = perf::trace_enabled();
  perf::trace_enable();
  perf::trace_clear();

  std::map<std::string, LayerCost> cost;
  std::vector<double> kernels;
  const Acts acts = run(b, &kernels);
  // Backward runs in the model's order, loss first.  An output is projected
  // only when the model's own backward sends it a gradient, i.e. some later
  // layer's input leaf received one (the angle features leaving the second
  // block feed nothing, so their update costs the model no backward and
  // must cost the walk none either).
  std::set<const ag::Node*> live;
  for (std::size_t i = kNumLayers; i-- > 0;) {
    const Layer& layer = acts.layers[i];
    std::vector<Var> in;
    for (const Var& x : layer.in) in.push_back(leaf_like(x));
    const std::vector<Var> out = layer.fn(in);
    std::vector<std::pair<Var, Tensor>> projected;  // output, random weights
    Rng rng(0xE2E0 + i);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const bool wanted = i + 1 == kNumLayers ||
                          live.count(layer.out[k].node().get()) > 0;
      if (!wanted || !out[k].defined() || !out[k].requires_grad()) continue;
      Tensor r = Tensor::empty(out[k].shape());
      rng.fill_uniform(r, -1.0f, 1.0f);
      projected.emplace_back(out[k], std::move(r));
    }
    FASTCHG_CHECK(!projected.empty(),
                  "layer " << walk_layers()[i] << " has no gradient path");
    Var root;
    Tensor seed;  // undefined: ones, for a scalar root
    if (i + 1 == kNumLayers) {
      root = out[0];  // the loss is already a scalar
    } else if (projected.size() == 1) {
      root = projected[0].first;  // the projection is the backward seed
      seed = std::move(projected[0].second);
    } else {
      cost[walk_layers()[i]].projected = static_cast<int>(projected.size());
      for (auto& [o, r] : projected) {
        Var term = sum_all(mul(o, constant(std::move(r))));
        root = root.defined() ? add(root, term) : term;
      }
    }
    const std::uint64_t k0 = kernel_launches();
    {
      perf::TraceSpan span(kBwdSpan[i], kSpanCat);
      ag::backward(root, std::move(seed));
    }
    LayerCost& c = cost[walk_layers()[i]];
    c.kernels = static_cast<double>(kernels[i]);
    c.bwd_kernels = static_cast<double>(kernel_launches() - k0);
    for (std::size_t k = 0; k < in.size(); ++k) {
      if (in[k].defined() && in[k].has_grad()) live.insert(layer.in[k].node().get());
    }
    m_->zero_grad();
  }

  for (const perf::TraceEvent& ev : perf::trace_events()) {
    if (std::strcmp(ev.cat, kSpanCat) != 0) continue;
    for (std::size_t i = 0; i < kNumLayers; ++i) {
      LayerCost& c = cost[walk_layers()[i]];
      if (std::strcmp(ev.name, kFwdSpan[i]) == 0) c.fwd_ms = ev.dur_us / 1e3;
      if (std::strcmp(ev.name, kBwdSpan[i]) == 0) c.bwd_ms = ev.dur_us / 1e3;
    }
  }
  perf::trace_clear();
  if (!was_tracing) perf::trace_disable();
  return cost;
}

double max_abs_diff(const model::ModelOutput& a, const model::ModelOutput& b) {
  double d = 0.0;
  for (auto [x, y] : {std::pair{a.energy_per_atom, b.energy_per_atom},
                      {a.forces, b.forces}, {a.stress, b.stress},
                      {a.magmom, b.magmom}}) {
    FASTCHG_CHECK(x.numel() == y.numel(), "max_abs_diff: shape mismatch");
    for (index_t i = 0; i < x.numel(); ++i) {
      d = std::max(d, static_cast<double>(
                          std::fabs(x.value().data()[i] - y.value().data()[i])));
    }
  }
  return d;
}

}  // namespace fastchg::e2e
