#include "parallel/scaling.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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

/// All-reduce calls per step.  There is no parameter list to bucket here (the
/// trainer counts its own), so Fig. 10 keeps the count it was recorded with.
constexpr int kAllReduceBuckets = 40;

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
    double epoch = 0.0, comm_exposed_sum = 0.0, cov_sum = 0.0;
    for (const auto& shards : plan.iterations) {
      std::vector<double> compute(shards.size());
      std::uint64_t max_bytes = 0;
      double sum = 0.0, sumsq = 0.0;
      for (std::size_t d = 0; d < shards.size(); ++d) {
        const double c = cost.shard_seconds(ds, shards[d]);
        sum += c;
        sumsq += c * c;
        compute[d] = c * straggler;
        max_bytes = std::max(max_bytes, shard_bytes(ds, shards[d]));
      }
      const double np = static_cast<double>(shards.size());
      const double mean = sum / np;
      if (mean > 0.0) {
        const double var = std::max(0.0, sumsq / np - mean * mean);
        cov_sum += std::sqrt(var) / mean;
      }
      const IterationTiming it =
          step_timing(std::move(compute), max_bytes, model_bytes,
                      kAllReduceBuckets, cfg.comm, cfg.overlap_comm,
                      /*prefetch=*/true);
      epoch += it.step_s;
      comm_exposed_sum += it.exposed_comm_s;
    }
    // The comm-model breakdown depends only on (bytes, ring size).
    const AllReduceCost comm =
        bucketed_allreduce_cost(model_bytes, p, kAllReduceBuckets, cfg.comm);
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
