#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "autograd/ops.hpp"
#include "chgnet/model.hpp"
#include "data/batch.hpp"
#include "data/generator.hpp"
#include "data/verlet.hpp"
#include "layer_walk.hpp"
#include "md/md.hpp"
#include "parallel/data_parallel.hpp"
#include "perf/counters.hpp"
#include "perf/timer.hpp"
#include "perf/trace.hpp"
#include "probes.hpp"
#include "serve/engine.hpp"
#include "train/adam.hpp"
#include "train/trainer.hpp"

namespace fastchg::e2e {

namespace {

// The model is part of the program, not of the input: every workload uses
// the same weights whatever the seed.
constexpr std::uint64_t kModelSeed = 7;
// Likewise the size mix of the training sets (labelled_crystals).
constexpr std::uint64_t kSizeMixSeed = 11;
// setup_s is the median of at least kSetupMinReps set-ups, repeated until
// they add up to kSetupBudgetS (at most kSetupMaxReps): millisecond set-ups
// are noisy one at a time.
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupMaxReps = 15;
constexpr double kSetupBudgetS = 1.0;
constexpr int kWalkReps = 7;

/// FastCHGNet (F/S heads, optimization stage 3) at bench dimensions:
/// width 32, 15 radial / angular basis functions, 3 interaction blocks.
model::ModelConfig bench_model(const data::GraphConfig& gc) {
  model::ModelConfig cfg = model::ModelConfig::optimization_stage(3);
  cfg.feat_dim = 32;
  cfg.num_radial = 15;
  cfg.num_angular = 15;
  cfg.atom_cutoff = gc.atom_cutoff;
  cfg.bond_cutoff = gc.bond_cutoff;
  return cfg;
}

data::GraphConfig cutoffs(double atom, double bond) {
  data::GraphConfig gc;
  gc.atom_cutoff = atom;
  gc.bond_cutoff = bond;
  return gc;
}

/// Training-set stand-in: long-tail random crystals labelled by the oracle.
/// 24 species keep a few hundred samples learnable (as bench/ does).  The
/// atom counts are one fixed draw from the generator's lognormal size law,
/// put in the seed's order: a step's cost grows steeply with structure
/// size, and with sizes drawn per seed the mean size alone moved step
/// times by ~5 % between seeds.  The seed draws everything else.
std::vector<data::Crystal> labelled_crystals(index_t n, Rng& rng) {
  data::GeneratorConfig g;
  g.num_species = 24;
  Rng size_law(kSizeMixSeed);
  std::vector<index_t> sizes(static_cast<std::size_t>(n));
  for (index_t& s : sizes) {
    s = std::clamp<index_t>(
        std::lround(std::exp(size_law.normal(g.lognormal_mu, g.lognormal_sigma))),
        g.min_atoms, g.max_atoms);
  }
  rng.shuffle(sizes);
  const data::Oracle oracle;
  std::vector<data::Crystal> out;
  out.reserve(sizes.size());
  for (index_t s : sizes) {
    g.min_atoms = g.max_atoms = s;
    out.push_back(data::random_crystal(rng, g));
    oracle.label(out.back());
  }
  return out;
}

/// Atoms + bonds + angles over `rows`: the paper's per-sample workload
/// measure (Fig. 9).  Throughput is reported in these units so it does not
/// swing with the seed's mix of small and large structures.
double graph_elements(const data::Dataset& ds, const std::vector<index_t>& rows) {
  double n = 0.0;
  for (index_t r : rows) n += static_cast<double>(ds[r].graph.feature_number());
  return n;
}

std::vector<index_t> iota_rows(index_t n) {
  std::vector<index_t> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

/// The four end-to-end metrics every untraced run reports.
void end_to_end(Report& rep, double setup_s, double throughput,
                double latency_ms) {
  rep.metric("setup_s", setup_s);
  rep.metric("peak_rss_mb", peak_rss_mib());
  rep.metric("throughput", throughput);
  rep.metric("latency_ms", latency_ms);
}

/// Median over repeated set-ups; `once` builds the state and returns the
/// seconds it took (the last build is the one the run uses).
double measure_setup(const std::function<double()>& once) {
  std::vector<double> t;
  double spent = 0.0;
  while (t.size() < kSetupMinReps ||
         (spent < kSetupBudgetS && t.size() < kSetupMaxReps)) {
    t.push_back(once());
    spent += t.back();
  }
  return median(t);
}

// -- traced-run helpers ---------------------------------------------------------

/// Runs `unit` in untraced/traced pairs for `seconds` and reports the
/// counter rates per step inside the units plus the tracing overhead.
/// `prepare` (optional) runs untimed and uncounted before every unit.
void unit_metrics(Report& rep, double seconds, double steps_per_unit,
                  const std::function<void()>& prepare,
                  const std::function<void()>& unit) {
  if (prepare) prepare();
  unit();  // warm-up: lazy init and first-touch faults stay out
  std::uint64_t kernels = 0, allocs = 0, hits = 0, lookups = 0, fused = 0;
  std::vector<double> plain, traced;
  perf::Timer total;
  while (plain.size() < 2 || total.seconds() < seconds) {
    for (bool tracing : {false, true}) {
      if (prepare) prepare();
      const perf::Counters a = perf::counters().snapshot();
      if (tracing) perf::trace_enable();
      perf::Timer t;
      unit();
      (tracing ? traced : plain).push_back(t.seconds());
      perf::trace_disable();
      perf::trace_clear();
      const perf::Counters b = perf::counters().snapshot();
      kernels += b.kernel_launches - a.kernel_launches;
      allocs += b.system_allocs - a.system_allocs;
      hits += b.replay_hits - a.replay_hits;
      lookups += (b.replay_hits - a.replay_hits) + (b.replay_misses - a.replay_misses);
      fused += b.fuse_kernels_removed - a.fuse_kernels_removed;
    }
  }
  const double steps = steps_per_unit * static_cast<double>(2 * plain.size());
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  rep.metric("alloc.system_allocs_per_step", d(allocs) / steps);
  rep.metric("ops.kernels_per_step", d(kernels) / steps);
  rep.metric("replay.hit_rate", lookups > 0 ? d(hits) / d(lookups) : 0.0);
  rep.metric("fuse.kernel_frac", d(fused) / std::max(1.0, d(fused + kernels)));
  rep.metric("trace.overhead_frac", median(traced) / median(plain) - 1.0);
  rep.detail("trace.unit_pairs", d(plain.size()));
}

/// Layer walk, whole-model forward/backward/eval and the optimizer step on
/// the workload's representative batch `b` (labelled, for the loss).
void model_metrics(Report& rep, const model::ModelConfig& cfg,
                   const data::Batch& b) {
  const LayerWalk walk(cfg, kModelSeed);
  model::CHGNet net(cfg, kModelSeed);
  {
    const double d = max_abs_diff(walk.forward(b),
                                  net.forward(b, model::ForwardMode::kTrain));
    rep.detail("walk.max_abs_diff", d);
    rep.check("layer walk equals CHGNet::forward (max |diff| <= 1e-5)",
              d <= 1e-5);
  }

  // Walk and whole-model repetitions alternate, so drift in the machine's
  // speed hits both sides of trace.walk_ratio alike; repetition 0 warms up.
  std::map<std::string, std::vector<LayerCost>> cost;
  std::vector<double> fwd, bwd, step, eval;
  train::Adam opt(net.parameters(), 1e-4f);
  for (int r = 0; r <= kWalkReps; ++r) {
    const std::map<std::string, LayerCost> c = walk.profile(b);
    // Same tracer state as the walk, so both carry the library's spans.
    perf::trace_enable();
    perf::Timer t;
    const model::ModelOutput out = net.forward(b, model::ForwardMode::kTrain);
    const train::LossResult loss = train::chgnet_loss(out, b);
    const double f = t.millis();
    t.reset();
    ag::backward(loss.total);
    const double bw = t.millis();
    t.reset();
    opt.step();
    const double o = t.millis();
    opt.zero_grad();
    t.reset();
    (void)net.forward(b, model::ForwardMode::kEval);
    const double e = t.millis();
    perf::trace_disable();
    perf::trace_clear();
    if (r == 0) continue;
    for (const auto& [layer, lc] : c) cost[layer].push_back(lc);
    fwd.push_back(f);
    bwd.push_back(bw);
    step.push_back(o);
    eval.push_back(e);
  }
  double walk_ms = 0.0;
  for (const auto& [layer, v] : cost) {
    std::vector<double> f, bw;
    for (const LayerCost& c : v) {
      f.push_back(c.fwd_ms);
      bw.push_back(c.bwd_ms);
    }
    rep.metric(layer + ".fwd_ms", median(f));
    rep.metric(layer + ".bwd_ms", median(bw));
    rep.metric(layer + ".kernels", v.back().kernels);
    rep.metric(layer + ".bwd_kernels", v.back().bwd_kernels);
    walk_ms += median(f) + median(bw);
  }
  rep.metric("model.fwd_ms", median(fwd));
  rep.metric("model.bwd_ms", median(bwd));
  rep.metric("model.eval_ms", median(eval));
  rep.metric("optim.step_ms", median(step));
  rep.metric("trace.walk_ratio", walk_ms / (median(fwd) + median(bwd)));
  rep.detail("walk.batch_structs", static_cast<double>(b.num_structs));
  rep.detail("walk.batch_atoms", static_cast<double>(b.num_atoms));
  rep.detail("walk.batch_bonds", static_cast<double>(b.num_edges));
  rep.detail("walk.batch_angles", static_cast<double>(b.num_angles));
}

void machine_metrics(Report& rep) {
  const GemmProbe g = probe_gemm(0.5);
  const TriadProbe t = probe_triad(5);
  rep.metric("ops.gemm_gflops", g.gflops);
  rep.metric("ops.triad_gbs", t.gbs);
  rep.detail("ops.gemm_size", g.size);
  rep.detail("ops.triad_array_mib", static_cast<double>(t.array_bytes) / (1 << 20));
  rep.detail("ops.triad_footprint_mib",
             static_cast<double>(t.footprint_bytes) / (1 << 20));
  rep.detail("ops.llc_mib", static_cast<double>(t.llc_bytes) / (1 << 20));
}

/// The per-layer metrics past the workload's own units: `graph_ms` (one
/// structure's graph on the workload's path), collation and the model on
/// the representative batch `rows` of `ds`, and the machine probes.
void attribution(Report& rep, const model::ModelConfig& cfg,
                 const data::Dataset& ds, const std::vector<index_t>& rows,
                 double graph_ms) {
  rep.metric("data.graph_ms", graph_ms);
  rep.metric("data.collate_ms", 1e3 * median_seconds(10, [&] {
                                  (void)data::collate_indices(ds, rows);
                                }));
  model_metrics(rep, cfg, data::collate_indices(ds, rows));
  machine_metrics(rep);
}

/// Median over 3 repetitions of the mean per-structure build_graph time.
double graph_ms(const std::vector<data::Crystal>& cs,
                const data::GraphConfig& gc) {
  const std::size_t n = std::min<std::size_t>(cs.size(), 64);
  return 1e3 * median_seconds(3, [&] {
           for (std::size_t i = 0; i < n; ++i) (void)data::build_graph(cs[i], gc);
         }) / static_cast<double>(n);
}

// -- train ---------------------------------------------------------------------

constexpr index_t kTrainCrystals = 1024;  // 90/10 train/val split
constexpr index_t kTrainBatch = 32;
constexpr index_t kTrainEpochs = 8;       // cosine schedule length
constexpr index_t kTrainMinEpochs = 3;    // warm-up epoch + 2 measured
// Validation energy MAE the run must reach, meV/atom: above every seed's
// best after the three epochs every run trains, below every first epoch's.
constexpr double kTrainMaeTarget = 250.0;

struct TrainState {
  data::Dataset ds;
  data::Dataset::Split split;
  std::unique_ptr<model::CHGNet> net;
  std::unique_ptr<train::Trainer> trainer;
};

void run_train(const Options& opt, Report& rep) {
  Rng rng(opt.seed);
  const std::vector<data::Crystal> crystals =
      labelled_crystals(kTrainCrystals, rng);
  const data::GraphConfig gc = cutoffs(5.0, 2.5);
  const model::ModelConfig cfg = bench_model(gc);
  train::TrainConfig tc;
  tc.batch_size = kTrainBatch;
  tc.epochs = kTrainEpochs;
  tc.base_lr = 1e-3f;
  tc.shuffle_seed = opt.seed;

  std::optional<TrainState> st;
  const double setup_s = measure_setup([&] {
    std::vector<data::Crystal> copy = crystals;
    st.reset();
    perf::Timer t;
    st.emplace();
    st->ds = data::Dataset::from_crystals(std::move(copy), gc, {}, false);
    st->split = st->ds.split(0.1, 0.0, opt.seed);
    st->net = std::make_unique<model::CHGNet>(cfg, kModelSeed);
    st->trainer = std::make_unique<train::Trainer>(*st->net, tc);
    return t.seconds();
  });
  train::Trainer& trainer = *st->trainer;
  const std::vector<index_t>& rows = st->split.train;
  rep.detail("train.rows", static_cast<double>(rows.size()));
  rep.detail("val.rows", static_cast<double>(st->split.val.size()));

  if (opt.trace) {
    const std::vector<index_t> unit_rows(rows.begin(), rows.begin() + 256);
    index_t epoch = 0;
    unit_metrics(rep, 0.4 * opt.seconds, 256.0 / kTrainBatch, nullptr,
                 [&] { (void)trainer.train_epoch(st->ds, unit_rows, epoch++); });
    const std::vector<index_t> batch_rows(rows.begin(), rows.begin() + kTrainBatch);
    attribution(rep, cfg, st->ds, batch_rows, graph_ms(crystals, gc));
    return;
  }

  const double elements = graph_elements(st->ds, rows);
  std::vector<double> rate, step_ms, mae;
  double train_s = 0.0, last_epoch_s = 0.0, time_to_mae = NAN;
  index_t steps = 0, skipped = 0;
  perf::Timer total;
  for (index_t e = 0; e < kTrainEpochs; ++e) {
    // Stop before an epoch that would overrun the budget.
    if (e >= kTrainMinEpochs && total.seconds() + last_epoch_s > opt.seconds) break;
    const train::EpochStats es = trainer.train_epoch(st->ds, rows, e);
    const double m = trainer.evaluate(st->ds, st->split.val).energy_mae_mev_atom;
    if (std::isnan(time_to_mae) && m <= kTrainMaeTarget) {
      // Linear interpolation inside the epoch that crossed the target.
      const double prev = mae.empty() ? m : mae.back();
      const double frac = prev > m ? (prev - kTrainMaeTarget) / (prev - m) : 1.0;
      time_to_mae = train_s + frac * es.seconds;
    }
    train_s += es.seconds;
    last_epoch_s = es.seconds;
    mae.push_back(m);
    steps += es.iterations;
    skipped += es.skipped_steps;
    rep.detail("val_mae_mev.epoch" + std::to_string(e), m);
    rep.detail("epoch_s.epoch" + std::to_string(e), es.seconds);
    if (e == 0) continue;  // warm-up: atom-ref fit, first-touch pools
    rate.push_back(elements / es.seconds);
    step_ms.push_back(1e3 * es.seconds / static_cast<double>(es.iterations));
  }

  end_to_end(rep, setup_s, median(rate), median(step_ms));
  rep.detail("samples_per_s", median(rate) * static_cast<double>(rows.size()) / elements);
  rep.detail("graph_elements_per_sample", elements / static_cast<double>(rows.size()));
  rep.detail("epochs", static_cast<double>(mae.size()));
  rep.detail("time_to_mae_s", time_to_mae);
  rep.detail("mae_target_mev", kTrainMaeTarget);
  rep.detail("final_val_mae_mev", mae.back());
  rep.detail("replay.hits", static_cast<double>(trainer.replay_cache().stats().hits));
  rep.attempt(static_cast<std::uint64_t>(steps), static_cast<std::uint64_t>(skipped));
  rep.check("no training step skipped by the non-finite guard", skipped == 0);
  rep.check("validation energy MAE reaches the target", !std::isnan(time_to_mae));
}

// -- dp ------------------------------------------------------------------------

constexpr index_t kDpCrystals = 512;
constexpr int kDpDevices = 4;
constexpr index_t kDpGlobalBatch = 64;
constexpr index_t kDpMinEpochs = 3;

struct DpState {
  data::Dataset ds;
  std::unique_ptr<parallel::DataParallelTrainer> dp;
};

void run_dp(const Options& opt, Report& rep) {
  Rng rng(opt.seed);
  const std::vector<data::Crystal> crystals = labelled_crystals(kDpCrystals, rng);
  const data::GraphConfig gc = cutoffs(5.0, 2.5);
  const model::ModelConfig cfg = bench_model(gc);
  parallel::DataParallelConfig pc;
  pc.num_devices = kDpDevices;
  pc.global_batch = kDpGlobalBatch;
  pc.load_balance = true;
  pc.seed = opt.seed;

  std::optional<DpState> st;
  const double setup_s = measure_setup([&] {
    std::vector<data::Crystal> copy = crystals;
    st.reset();
    perf::Timer t;
    st.emplace();
    st->ds = data::Dataset::from_crystals(std::move(copy), gc, {}, false);
    st->dp = std::make_unique<parallel::DataParallelTrainer>(cfg, pc, kModelSeed);
    return t.seconds();
  });
  parallel::DataParallelTrainer& dp = *st->dp;
  const std::vector<index_t> rows = iota_rows(st->ds.size());

  if (opt.trace) {
    const std::vector<index_t> unit_rows(rows.begin(), rows.begin() + 256);
    index_t epoch = 0;
    unit_metrics(rep, 0.4 * opt.seconds, 256.0 / kDpGlobalBatch, nullptr,
                 [&] { (void)dp.train_epoch(st->ds, unit_rows, epoch++); });
    const std::vector<index_t> shard(rows.begin(),
                                     rows.begin() + kDpGlobalBatch / kDpDevices);
    attribution(rep, cfg, st->ds, shard, graph_ms(crystals, gc));
    return;
  }

  const double elements = graph_elements(st->ds, rows);
  std::vector<double> rate, device_ms, max_ms, cov, comm_ms, exposed_comm_ms,
      exposed_h2d_ms, wall_rate;
  index_t iterations = 0, skipped = 0;
  perf::Timer total;
  double last_epoch_s = 0.0;
  for (index_t e = 0;
       e < kDpMinEpochs || total.seconds() + last_epoch_s <= opt.seconds; ++e) {
    const parallel::EpochResult r = dp.train_epoch(st->ds, rows, e);
    last_epoch_s = r.measured_seconds;
    iterations += static_cast<index_t>(r.iterations.size());
    skipped += r.skipped_steps;
    if (e == 0) continue;  // warm-up
    rate.push_back(elements / r.simulated_seconds);
    wall_rate.push_back(elements / r.measured_seconds);
    for (const parallel::IterationTiming& it : r.iterations) {
      double sum = 0.0, sq = 0.0;
      for (double s : it.device_compute_s) {
        device_ms.push_back(1e3 * s);
        sum += s;
        sq += s * s;
      }
      const double n = static_cast<double>(it.device_compute_s.size());
      const double mean = sum / n;
      cov.push_back(std::sqrt(std::max(0.0, sq / n - mean * mean)) / mean);
      max_ms.push_back(1e3 * it.max_compute_s);
      comm_ms.push_back(1e3 * it.comm_s);
      exposed_comm_ms.push_back(1e3 * it.exposed_comm_s);
      exposed_h2d_ms.push_back(1e3 * it.exposed_h2d_s);
    }
  }

  end_to_end(rep, setup_s, median(rate), median(device_ms));
  rep.detail("sim_samples_per_s",
             median(rate) * static_cast<double>(rows.size()) / elements);
  rep.detail("wall_graph_elements_per_s", median(wall_rate));
  rep.detail("parallel.compute_max_ms", median(max_ms));
  rep.detail("parallel.compute_cov", median(cov));
  rep.detail("parallel.comm_ms", median(comm_ms));
  rep.detail("parallel.exposed_comm_ms", median(exposed_comm_ms));
  rep.detail("parallel.exposed_h2d_ms", median(exposed_h2d_ms));
  rep.detail("parallel.allreduce_mb", static_cast<double>(dp.gradient_bytes()) / 1e6);
  rep.detail("epochs", static_cast<double>(rate.size() + 1));
  std::uint64_t hits = 0;
  for (int d = 0; d < kDpDevices; ++d) hits += dp.replay_cache(d).stats().hits;
  rep.detail("replay.hits", static_cast<double>(hits));
  const float divergence = dp.replica_divergence();
  rep.detail("replica_divergence", divergence);
  rep.attempt(static_cast<std::uint64_t>(iterations), static_cast<std::uint64_t>(skipped));
  rep.check("replicas bit-identical (replica_divergence == 0)", divergence == 0.0f);
  rep.check("no step skipped by the non-finite guard", skipped == 0);
}

// -- md ------------------------------------------------------------------------

// The benchmark's model is untrained, and its decoupled force head is not
// the gradient of its energy: NVE heats up without bound (about 1600 K after
// 25 steps, 10^5 K after 150) and the bond graph densifies, so the cost of
// a step drifts.  Trajectories therefore restart from the seeded cell every
// segment, keeping every measured step in the near-crystalline regime.
constexpr index_t kMdSmallSegment = 25;  // steps per 64-atom trajectory
constexpr index_t kMdLargeSegment = 30;  // steps per 512-atom trajectory
constexpr int kMdSmallPerLarge = 8;      // 64-atom steps per 512-atom step

/// `base` tiled na x nb x nc, every atom displaced by N(0, 0.05 A) per
/// axis, redrawn until it passes serving validation.
data::Crystal md_cell(const data::Crystal& base, int na, int nb, int nc,
                      Rng& rng, const serve::ValidationLimits& lim) {
  for (;;) {
    data::Crystal c = data::make_supercell(base, na, nb, nc);
    const data::Mat3 inv = data::inv3(c.lattice);
    for (data::Vec3& f : c.frac) {
      const data::Vec3 d = {rng.normal(0.0, 0.05), rng.normal(0.0, 0.05),
                            rng.normal(0.0, 0.05)};
      const data::Vec3 df = data::mat_vec(inv, d);
      for (int k = 0; k < 3; ++k) f[k] += df[k];
    }
    if (serve::validate_crystal(c, lim).ok()) return c;
  }
}

/// Largest |F_sim - F_direct| over the atoms, relative to max(1, |F|max),
/// where F_direct is a fresh eval forward of the simulator's crystal.
double force_mismatch(const model::CHGNet& net, const md::MDSimulator& sim,
                      const data::GraphConfig& gc) {
  const data::Dataset ds =
      data::Dataset::from_crystals({sim.crystal()}, gc, {}, false);
  const model::ModelOutput out =
      net.forward(data::collate_indices(ds, {0}), model::ForwardMode::kEval);
  const float* f = out.forces.value().data();
  double diff = 0.0, scale = 1.0;
  for (std::size_t i = 0; i < sim.forces().size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      const double ref = f[3 * i + static_cast<std::size_t>(k)];
      diff = std::max(diff, std::fabs(sim.forces()[i][k] - ref));
      scale = std::max(scale, std::fabs(ref));
    }
  }
  return diff / scale;
}

bool forces_finite(const md::MDSimulator& sim) {
  for (const data::Vec3& f : sim.forces()) {
    for (double x : f) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

/// NVE trajectories of one cell, restarted from `start` every `segment`
/// steps with fresh seeded velocities.
class Trajectories {
 public:
  Trajectories(const model::CHGNet& net, data::Crystal start,
               md::MDConfig cfg, index_t segment)
      : net_(net), start_(std::move(start)), cfg_(cfg), segment_(segment),
        seed0_(cfg.seed) {}

  /// Start the next trajectory; false when the cell fails validation or
  /// its first forward.
  bool restart() {
    if (sim_) halvings_ += sim_->dt_halvings_total();
    sim_.reset();
    cfg_.seed = seed0_ * 1000003 + segments_++;
    auto r = md::MDSimulator::create(net_, start_, cfg_);
    if (r.ok()) sim_.emplace(std::move(r).value());
    return r.ok();
  }
  /// Restart when the current trajectory has run its segment.
  bool ready() { return sim_->steps_taken() < segment_ || restart(); }

  md::MDSimulator& sim() { return *sim_; }
  index_t halvings() const { return halvings_ + sim_->dt_halvings_total(); }
  std::uint64_t segments() const { return segments_; }

 private:
  const model::CHGNet& net_;
  data::Crystal start_;
  md::MDConfig cfg_;
  index_t segment_;
  std::uint64_t seed0_;
  std::uint64_t segments_ = 0;
  index_t halvings_ = 0;
  std::optional<md::MDSimulator> sim_;
};

struct MdState {
  std::unique_ptr<model::CHGNet> net;
  std::optional<Trajectories> small, large;
};

void run_md(const Options& opt, Report& rep) {
  const data::GraphConfig gc = cutoffs(6.0, 3.0);  // Table II setting
  const model::ModelConfig cfg = bench_model(gc);
  md::MDConfig mc;
  mc.dt_fs = 0.5;
  mc.seed = opt.seed;
  mc.graph = gc;
  mc.verlet_skin = 1.0;

  Rng rng(opt.seed);
  const data::Crystal base = data::make_reference_structure("Li9Co7O16");
  const data::Crystal small_cell = md_cell(base, 2, 1, 1, rng, mc.limits);
  const data::Crystal large_cell = md_cell(base, 2, 2, 4, rng, mc.limits);

  std::optional<MdState> st;
  bool created = true;
  const double setup_s = measure_setup([&] {
    st.reset();
    perf::Timer t;
    st.emplace();
    st->net = std::make_unique<model::CHGNet>(cfg, kModelSeed);
    st->small.emplace(*st->net, small_cell, mc, kMdSmallSegment);
    st->large.emplace(*st->net, large_cell, mc, kMdLargeSegment);
    created = created && st->small->restart() && st->large->restart();
    return t.seconds();
  });
  rep.check("both MD cells pass validation and their first forward", created);
  if (!created) return;
  Trajectories& small = *st->small;
  Trajectories& large = *st->large;

  if (opt.trace) {
    unit_metrics(rep, 0.4 * opt.seconds, 5.0,
                 [&] { FASTCHG_CHECK(small.ready(), "MD restart failed"); },
                 [&] { FASTCHG_CHECK(small.sim().try_step(5).ok(), "MD step failed"); });
    data::VerletList verlet(gc, mc.verlet_skin);
    (void)verlet.graph(small_cell);  // the one full rebuild
    const double verlet_ms = 1e3 * median_seconds(20, [&] {
                               (void)verlet.graph(small_cell);
                             });
    attribution(rep, cfg, data::Dataset::from_crystals({small_cell}, gc), {0},
                verlet_ms);
    return;
  }

  std::vector<double> small_ms, large_ms;
  std::uint64_t failed_steps = 0;
  double worst_mismatch = 0.0;
  int force_checks = 0;
  bool finite = true;
  // One timed step; forces are checked at step `check_step` of every
  // fourth trajectory.
  const auto step = [&](Trajectories& traj, std::vector<double>& ms,
                        index_t check_step) {
    if (!traj.ready()) {
      ++failed_steps;
      return;
    }
    md::MDSimulator& sim = traj.sim();
    perf::Timer t;
    const bool ok = sim.try_step(1).ok();
    const double elapsed = t.millis();
    if (!ok) {
      ++failed_steps;
      return;
    }
    ms.push_back(elapsed);
    finite = finite && forces_finite(sim);
    if (sim.steps_taken() == check_step && traj.segments() % 4 == 1) {
      worst_mismatch = std::max(worst_mismatch, force_mismatch(*st->net, sim, gc));
      ++force_checks;
    }
  };
  perf::Timer total;
  while (large_ms.size() < 5 || total.seconds() < opt.seconds) {
    for (int i = 0; i < kMdSmallPerLarge; ++i) step(small, small_ms, kMdSmallSegment);
    step(large, large_ms, 5);
    if (failed_steps > 0) break;
  }

  end_to_end(rep, setup_s, 1e3 / median(small_ms), median(large_ms));
  rep.detail("steps_per_s.64", 1e3 / median(small_ms));
  rep.detail("steps_per_s.512", 1e3 / median(large_ms));
  rep.detail("step_ms.64.p90", percentile(small_ms, 0.9));
  rep.detail("steps.64", static_cast<double>(small_ms.size()));
  rep.detail("steps.512", static_cast<double>(large_ms.size()));
  rep.detail("trajectories.64", static_cast<double>(small.segments()));
  rep.detail("trajectories.512", static_cast<double>(large.segments()));
  rep.detail("force_checks", force_checks);
  rep.detail("force_mismatch_rel", worst_mismatch);
  rep.attempt(small_ms.size() + large_ms.size() + failed_steps, failed_steps);
  rep.check("forces finite at every step", finite);
  rep.check("no dt halvings", small.halvings() == 0 && large.halvings() == 0);
  rep.check("sampled forces equal a direct CHGNet::forward (rel 1e-5)",
            force_checks > 0 && worst_mismatch <= 1e-5);
}

// -- serve ---------------------------------------------------------------------

constexpr index_t kServeMaxBatch = 8;
constexpr std::size_t kServeBurst = 200;   // requests per capacity burst
// Open-loop offered load, req/s: about a fifth of capacity, so queueing
// adds little to the median and does not amplify swings in machine speed
// (at 300 req/s, a 1.3x slower machine made the median 1.5x slower).
constexpr double kServeRate = 200.0;
constexpr std::size_t kServeCheckEvery = 50;

/// Fresh random crystals (the generator's default long tail over 89
/// species) that pass serving validation, so every failure the run counts
/// is the program's.
class CrystalStream {
 public:
  CrystalStream(std::uint64_t seed, serve::ValidationLimits lim)
      : rng_(seed), lim_(lim) {}
  std::vector<data::Crystal> take(std::size_t n) {
    std::vector<data::Crystal> out;
    out.reserve(n);
    while (out.size() < n) {
      data::Crystal c = data::random_crystal(rng_);
      if (serve::validate_crystal(c, lim_).ok()) {
        out.push_back(std::move(c));
      } else {
        ++rejected_;
      }
    }
    return out;
  }
  std::uint64_t rejected() const { return rejected_; }

 private:
  Rng rng_;
  serve::ValidationLimits lim_;
  std::uint64_t rejected_ = 0;
};

struct ServeState {
  std::unique_ptr<model::CHGNet> net;
  std::unique_ptr<serve::InferenceEngine> engine;
};

/// Largest relative difference between a queued reply and predict().
double reply_mismatch(const serve::Prediction& a, const serve::Prediction& b) {
  const auto rel = [](double x, double y) {
    return std::fabs(x - y) / std::max(1.0, std::fabs(y));
  };
  double d = rel(a.energy, b.energy);
  for (std::size_t i = 0; i < a.forces.size() && i < b.forces.size(); ++i) {
    for (int k = 0; k < 3; ++k) d = std::max(d, rel(a.forces[i][k], b.forces[i][k]));
  }
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < 3; ++k) d = std::max(d, rel(a.stress[r][k], b.stress[r][k]));
  }
  return a.forces.size() == b.forces.size() ? d : INFINITY;
}

void run_serve(const Options& opt, Report& rep) {
  const data::GraphConfig gc = cutoffs(5.0, 2.5);
  const model::ModelConfig cfg = bench_model(gc);
  serve::EngineConfig ec;
  ec.graph = gc;
  ec.max_batch = kServeMaxBatch;
  ec.queue_capacity = 4096;
  CrystalStream stream(opt.seed, ec.limits);
  const std::vector<data::Crystal> warm = stream.take(2 * kServeMaxBatch);

  std::optional<ServeState> st;
  bool warm_ok = true;
  const double setup_s = measure_setup([&] {
    st.reset();
    perf::Timer t;
    st.emplace();
    st->net = std::make_unique<model::CHGNet>(cfg, kModelSeed);
    st->engine = std::make_unique<serve::InferenceEngine>(*st->net, ec);
    for (const data::Crystal& c : warm) warm_ok = warm_ok && st->engine->submit(c).ok();
    for (const auto& r : st->engine->drain()) warm_ok = warm_ok && r.ok();
    return t.seconds();
  });
  rep.check("warm-up requests served", warm_ok);
  serve::InferenceEngine& engine = *st->engine;

  if (opt.trace) {
    unit_metrics(rep, 0.4 * opt.seconds, 32.0, nullptr, [&] {
      for (data::Crystal& c : stream.take(32)) {
        FASTCHG_CHECK(engine.submit(std::move(c)).ok(), "submit rejected");
      }
      for (const auto& r : engine.drain()) FASTCHG_CHECK(r.ok(), "reply failed");
    });
    std::vector<data::Crystal> batch = stream.take(kServeMaxBatch);
    const double build_ms = graph_ms(batch, gc);
    const data::Dataset ds = data::Dataset::from_crystals(std::move(batch), gc);
    attribution(rep, cfg, ds, iota_rows(ds.size()), build_ms);
    return;
  }

  // A refused submission and a failed reply each fail their request;
  // every kServeCheckEvery-th reply is kept for the predict() check.
  std::uint64_t requests = 0, failed = 0, replies_seen = 0;
  std::vector<std::pair<data::Crystal, serve::Prediction>> sampled;
  const auto submit = [&](const data::Crystal& c) {
    ++requests;
    const bool ok = engine.submit(c).ok();
    failed += ok ? 0 : 1;
    return ok;
  };
  const auto settle = [&](const std::vector<const data::Crystal*>& accepted,
                          const std::vector<serve::Result<serve::Prediction>>& replies) {
    if (replies.size() != accepted.size()) {
      failed += accepted.size();
      return;
    }
    for (std::size_t i = 0; i < replies.size(); ++i) {
      if (!replies[i].ok()) {
        ++failed;
      } else if (++replies_seen % kServeCheckEvery == 0) {
        sampled.emplace_back(*accepted[i], replies[i].value());
      }
    }
  };

  // Capacity: bursts all due at t = 0, drained back to back.
  std::vector<double> capacity;
  perf::Timer phase;
  while (capacity.size() < 3 || phase.seconds() < 0.25 * opt.seconds) {
    const std::vector<data::Crystal> burst = stream.take(kServeBurst);
    std::vector<const data::Crystal*> accepted;
    perf::Timer t;
    for (const data::Crystal& c : burst) {
      if (submit(c)) accepted.push_back(&c);
    }
    const auto replies = engine.drain();
    capacity.push_back(static_cast<double>(burst.size()) / t.seconds());
    settle(accepted, replies);
  }

  // Open loop: Poisson arrivals at kServeRate; latency runs from each
  // request's due time, so a stall also delays the requests behind it.
  Rng arrivals_rng(opt.seed ^ 0xA7719A15ull);
  const std::vector<double> due =
      poisson_schedule(arrivals_rng, kServeRate, 0.7 * opt.seconds);
  const std::vector<data::Crystal> pool = stream.take(due.size());
  std::vector<double> sojourn_ms, wait_ms, drain_ms;
  double late_ms = 0.0;
  const serve::EngineStats stats0 = engine.stats();
  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now() + std::chrono::milliseconds(5);
  const auto since_t0 = [&] {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  std::size_t next = 0;
  std::vector<std::size_t> queued;
  while (next < due.size()) {
    if (queued.empty() && since_t0() < due[next]) {
      // Spin rather than sleep: a sleeping generator woke up to 1.1 ms late
      // on a shared 4-vCPU VM, by an amount that followed the host's load;
      // that noise is the generator's, not the engine's.
      while (since_t0() < due[next]) std::this_thread::yield();
      late_ms = std::max(late_ms, 1e3 * (since_t0() - due[next]));
    }
    const double now = since_t0();
    for (; next < due.size() && due[next] <= now; ++next) {
      if (submit(pool[next])) queued.push_back(next);
    }
    if (queued.empty()) continue;
    const double start = since_t0();
    const auto replies = engine.drain();
    const double end = since_t0();
    drain_ms.push_back(1e3 * (end - start));
    std::vector<const data::Crystal*> accepted;
    for (std::size_t q : queued) {
      accepted.push_back(&pool[q]);
      sojourn_ms.push_back(1e3 * (end - due[q]));
      wait_ms.push_back(1e3 * (start - due[q]));
    }
    settle(accepted, replies);
    queued.clear();
  }
  const serve::EngineStats& stats1 = engine.stats();

  double worst = 0.0;
  for (const auto& [c, reply] : sampled) {
    const auto ref = engine.predict(c);
    worst = std::max(worst, ref.ok() ? reply_mismatch(reply, ref.value()) : INFINITY);
  }

  end_to_end(rep, setup_s, median(capacity), percentile(sojourn_ms, 0.5));
  rep.detail("capacity_rps", median(capacity));
  rep.detail("offered_rps", kServeRate);
  rep.detail("open_loop_requests", static_cast<double>(sojourn_ms.size()));
  rep.detail("p50_ms", percentile(sojourn_ms, 0.5));
  rep.detail("p90_ms", percentile(sojourn_ms, 0.9));
  rep.detail("p99_ms", percentile(sojourn_ms, 0.99));
  rep.detail("serve.queue_wait_ms.p50", percentile(wait_ms, 0.5));
  rep.detail("serve.queue_wait_ms.p99", percentile(wait_ms, 0.99));
  rep.detail("serve.drain_ms", median(drain_ms));
  rep.detail("serve.batch_size_mean",
             static_cast<double>(stats1.served - stats0.served) /
                 std::max<double>(1.0, static_cast<double>(stats1.micro_batches -
                                                           stats0.micro_batches)));
  const serve::CacheStats& cs = engine.cache().stats();
  rep.detail("serve.cache_hit_rate",
             static_cast<double>(cs.hits) /
                 std::max(1.0, static_cast<double>(cs.hits + cs.misses)));
  rep.detail("serve.gen_late_ms_max", late_ms);
  rep.detail("replay.hits", static_cast<double>(engine.replay_cache().stats().hits));
  rep.detail("inputs_rejected_by_validation", static_cast<double>(stream.rejected()));
  rep.detail("reply_mismatch_rel", worst);
  rep.attempt(requests, failed);
  rep.check("sampled replies equal InferenceEngine::predict (rel 1e-5)",
            !sampled.empty() && worst <= 1e-5);
}

}  // namespace

void run_workload(const Options& opt, Report& rep) {
  if (opt.workload == "train") return run_train(opt, rep);
  if (opt.workload == "dp") return run_dp(opt, rep);
  if (opt.workload == "md") return run_md(opt, rep);
  if (opt.workload == "serve") return run_serve(opt, rep);
  FASTCHG_CHECK(false, "unknown workload '" << opt.workload << "'");
}

}  // namespace fastchg::e2e
