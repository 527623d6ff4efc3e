#include "parallel/scaling.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "perf/timer.hpp"
#include "train/trainer.hpp"

namespace fastchg::parallel {

double CostModel::predict(index_t atoms, index_t bonds,
                          index_t angles) const {
  const double t = fixed + per_atom * static_cast<double>(atoms) +
                   per_bond * static_cast<double>(bonds) +
                   per_angle * static_cast<double>(angles);
  return std::max(t, 0.0);
}

double CostModel::shard_seconds(const data::Dataset& ds,
                                const std::vector<index_t>& rows) const {
  index_t atoms = 0, bonds = 0, angles = 0;
  for (index_t r : rows) {
    atoms += ds[r].graph.num_atoms;
    bonds += ds[r].graph.num_edges();
    angles += ds[r].graph.num_angles();
  }
  return predict(atoms, bonds, angles);
}

namespace {

/// Solve the 4x4 system A x = b via Gaussian elimination w/ partial pivot.
std::array<double, 4> solve4(std::array<std::array<double, 4>, 4> a,
                             std::array<double, 4> b) {
  for (int col = 0; col < 4; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 4; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    FASTCHG_CHECK(std::fabs(a[col][col]) > 1e-30,
                  "cost-model fit: singular normal equations");
    for (int r = col + 1; r < 4; ++r) {
      const double f = a[r][col] / a[col][col];
      for (int c = col; c < 4; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::array<double, 4> x{};
  for (int r = 3; r >= 0; --r) {
    double acc = b[r];
    for (int c = r + 1; c < 4; ++c) acc -= a[r][c] * x[c];
    x[r] = acc / a[r][r];
  }
  return x;
}

}  // namespace

CostModel fit_cost_model(const std::vector<CostSample>& samples) {
  FASTCHG_CHECK(!samples.empty(), "cost-model fit: no samples");
  std::array<std::array<double, 4>, 4> xtx{};
  std::array<double, 4> xty{};
  for (const CostSample& s : samples) {
    const std::array<double, 4> feat = {
        1.0, static_cast<double>(s.atoms), static_cast<double>(s.bonds),
        static_cast<double>(s.angles)};
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) xtx[i][j] += feat[i] * feat[j];
      xty[i] += feat[i] * s.seconds;
    }
  }
  // Tikhonov damping keeps the fit stable when the sampled batch sizes give
  // nearly collinear (atoms, bonds, angles) totals.
  for (int i = 0; i < 4; ++i) xtx[i][i] += 1e-9;
  const std::array<double, 4> x = solve4(xtx, xty);
  CostModel cm;
  cm.fixed = std::max(0.0, x[0]);
  cm.per_atom = std::max(0.0, x[1]);
  cm.per_bond = std::max(0.0, x[2]);
  cm.per_angle = std::max(0.0, x[3]);
  if (cm.per_atom > 0.0 || cm.per_bond > 0.0 || cm.per_angle > 0.0) {
    return cm;
  }
  // Noise swamped the size signal (a busy host can time a small batch
  // slower than a large one): charge the measured time per atom instead.
  double t_atoms = 0.0, atoms_sq = 0.0;
  for (const CostSample& s : samples) {
    const double a = static_cast<double>(s.atoms);
    t_atoms += s.seconds * a;
    atoms_sq += a * a;
  }
  FASTCHG_CHECK(atoms_sq > 0.0 && t_atoms > 0.0,
                "cost-model fit: no atoms or no measured time");
  CostModel prop;
  prop.per_atom = t_atoms / atoms_sq;
  return prop;
}

CostModel calibrate_cost_model(const model::CHGNet& net,
                               const data::Dataset& ds,
                               const std::vector<index_t>& batch_sizes,
                               int reps_per_size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<CostSample> samples;
  for (index_t bs : batch_sizes) {
    for (int rep = 0; rep < reps_per_size; ++rep) {
      std::vector<index_t> rows;
      rows.reserve(static_cast<std::size_t>(bs));
      for (index_t i = 0; i < bs; ++i) {
        rows.push_back(rng.randint(0, ds.size() - 1));
      }
      data::Batch b = data::collate_indices(ds, rows);
      perf::Timer t;
      train::train_step(net, b);
      samples.push_back(CostSample{b.num_atoms, b.num_edges, b.num_angles,
                                   t.seconds()});
    }
  }
  return fit_cost_model(samples);
}

namespace {

std::vector<ScalingPoint> simulate(const CostModel& cost,
                                   const data::Dataset& ds,
                                   std::uint64_t model_bytes,
                                   const ScalingConfig& cfg, bool weak) {
  std::vector<index_t> rows(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) {
    rows[static_cast<std::size_t>(i)] = i;
  }
  const std::vector<index_t> loads = sample_workloads(ds);

  std::vector<ScalingPoint> points;
  for (int p : cfg.device_counts) {
    SamplerConfig scfg;
    scfg.num_devices = p;
    scfg.global_batch =
        weak ? cfg.weak_per_device_batch * static_cast<index_t>(p)
             : cfg.strong_global_batch;
    scfg.seed = cfg.seed;
    ShardPlan plan = cfg.load_balance
                         ? load_balance_sharding(rows, loads, scfg)
                         : default_sharding(rows, loads, scfg);
    FASTCHG_CHECK(plan.num_iterations() > 0,
                  "scaling: dataset smaller than one global batch ("
                      << ds.size() << " samples, batch "
                      << scfg.global_batch << ")");
    // Deterministic straggler model: kernel-timing / dataloader jitter with
    // per-device sigma makes the synchronized step track the *expected
    // maximum* over P devices, ~ 1 + sigma * sqrt(2 ln P).
    const double straggler =
        1.0 + cfg.straggler_sigma *
                  std::sqrt(2.0 * std::log(static_cast<double>(p)));
    // The comm cost depends only on (bytes, ring size), not the iteration.
    const AllReduceCost comm = bucketed_allreduce_cost(model_bytes, p,
                                                       cfg.comm);
    double epoch = 0.0, comm_exposed_sum = 0.0, cov_sum = 0.0;
    for (const auto& shards : plan.iterations) {
      double max_compute = 0.0, sum = 0.0, sumsq = 0.0;
      for (const auto& shard : shards) {
        const double c = cost.shard_seconds(ds, shard) * cfg.compute_scale;
        max_compute = std::max(max_compute, c);
        sum += c;
        sumsq += c * c;
      }
      const double np = static_cast<double>(shards.size());
      const double mean = sum / np;
      if (mean > 0.0) {
        const double var = std::max(0.0, sumsq / np - mean * mean);
        cov_sum += std::sqrt(var) / mean;
      }
      max_compute *= straggler;
      // Only the bandwidth part can hide behind the backward pass; the
      // per-bucket ring latency stays exposed.
      const double exposed =
          cfg.overlap_comm
              ? exposed_comm_seconds(comm.bandwidth_s, 0.66 * max_compute,
                                     true) +
                    comm.latency_s
              : comm.total();
      epoch += max_compute + exposed;
      comm_exposed_sum += exposed;
    }
    ScalingPoint pt;
    pt.devices = p;
    pt.epoch_seconds = epoch;
    pt.iter_seconds = epoch / static_cast<double>(plan.num_iterations());
    pt.comm_fraction = comm_exposed_sum / std::max(epoch, 1e-30);
    pt.load_cov = cov_sum / static_cast<double>(plan.num_iterations());
    pt.comm_bandwidth_s = comm.bandwidth_s;
    pt.comm_latency_s = comm.latency_s;
    pt.reduce_scatter_s = comm.reduce_scatter_s;
    pt.leader_ring_s = comm.leader_ring_s;
    pt.broadcast_s = comm.broadcast_s;
    points.push_back(pt);
  }
  // Speedup/efficiency relative to the smallest device count (paper: 4).
  if (!points.empty()) {
    const double t0 = weak ? points.front().iter_seconds
                           : points.front().epoch_seconds;
    const double p0 = points.front().devices;
    for (ScalingPoint& pt : points) {
      const double t =
          weak ? pt.iter_seconds : pt.epoch_seconds;
      pt.speedup = t0 / t;
      // Weak scaling: ideal keeps iteration time flat (speedup 1).
      pt.efficiency =
          weak ? pt.speedup : pt.speedup / (pt.devices / p0);
    }
  }
  return points;
}

}  // namespace

std::vector<ScalingPoint> strong_scaling(const CostModel& cost,
                                         const data::Dataset& ds,
                                         std::uint64_t model_bytes,
                                         const ScalingConfig& cfg) {
  return simulate(cost, ds, model_bytes, cfg, /*weak=*/false);
}

std::vector<ScalingPoint> weak_scaling(const CostModel& cost,
                                       const data::Dataset& ds,
                                       std::uint64_t model_bytes,
                                       const ScalingConfig& cfg) {
  return simulate(cost, ds, model_bytes, cfg, /*weak=*/true);
}

}  // namespace fastchg::parallel
