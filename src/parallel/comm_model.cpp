#include "parallel/comm_model.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"

namespace fastchg::parallel {

double ring_allreduce_seconds(std::uint64_t bytes, int num_devices,
                              const CommConfig& cfg) {
  FASTCHG_CHECK(num_devices >= 1, "ring_allreduce: devices");
  if (num_devices == 1) return 0.0;
  const double p = static_cast<double>(num_devices);
  const bool spans_nodes = num_devices > cfg.gpus_per_node;
  const double bw = spans_nodes ? cfg.inter_node_bw : cfg.intra_node_bw;
  // A flat ring spanning nodes pays the fat-tree alpha on every hop; this
  // is exactly the term the two-level schedule avoids.
  const double lat = spans_nodes ? cfg.inter_latency : cfg.latency;
  return 2.0 * (p - 1.0) / p * static_cast<double>(bytes) / bw +
         2.0 * (p - 1.0) * lat;
}

AllReduceCost bucketed_allreduce_cost(std::uint64_t bytes, int num_devices,
                                      int buckets, const CommConfig& cfg) {
  AllReduceCost cost;
  if (num_devices <= 1) return cost;
  const double p = static_cast<double>(num_devices);
  const double n = static_cast<double>(bytes);
  const double bkt = static_cast<double>(std::max(buckets, 1));
  if (num_devices <= cfg.gpus_per_node) {
    cost.bandwidth_s = 2.0 * (p - 1.0) / p * n / cfg.intra_node_bw;
    cost.latency_s = bkt * 2.0 * (p - 1.0) * cfg.latency;
    return cost;
  }
  if (!cfg.hierarchical) {
    cost.bandwidth_s = 2.0 * (p - 1.0) / p * n / cfg.inter_node_bw;
    cost.latency_s = bkt * 2.0 * (p - 1.0) * cfg.inter_latency;
    return cost;
  }
  // Two-level schedule, three phases (NCCL-style):
  //   1. reduce-scatter within each node group of up to G devices
  //   2. ring all-reduce of the node partials across the M group leaders
  //   3. broadcast of the reduced result back within each node group
  // M = ceil(P/G) so elastic (non-divisible) ring sizes are well-defined;
  // the intra phases are paced by the largest group.
  const double g =
      static_cast<double>(std::min(num_devices, cfg.gpus_per_node));
  const double m = static_cast<double>(
      (num_devices + cfg.gpus_per_node - 1) / cfg.gpus_per_node);
  const double rs_bw = (g - 1.0) / g * n / cfg.intra_node_bw;
  const double rs_lat = bkt * (g - 1.0) * cfg.latency;
  const double lr_bw = 2.0 * (m - 1.0) / m * n / cfg.inter_node_bw;
  const double lr_lat = bkt * 2.0 * (m - 1.0) * cfg.inter_latency;
  cost.reduce_scatter_s = rs_bw + rs_lat;
  cost.leader_ring_s = lr_bw + lr_lat;
  cost.broadcast_s = rs_bw + rs_lat;  // same traffic pattern in reverse
  cost.bandwidth_s = 2.0 * rs_bw + lr_bw;
  cost.latency_s = 2.0 * rs_lat + lr_lat;
  return cost;
}

namespace {

/// The all-reduce part left exposed after overlapping 80 % of the backward.
double exposed_comm_seconds(double comm_s, double backward_s) {
  return std::max(0.0, comm_s - 0.8 * backward_s);
}

double h2d_seconds(std::uint64_t bytes, const CommConfig& cfg) {
  return static_cast<double>(bytes) / cfg.h2d_bw;
}

/// The copy left exposed when prefetch (double-buffering) overlaps it.
double exposed_h2d_seconds(double copy_s, double compute_s) {
  return std::max(0.0, copy_s - compute_s);
}

}  // namespace

IterationTiming step_timing(std::vector<double> device_compute_s,
                            std::uint64_t max_shard_bytes,
                            std::uint64_t gradient_bytes, int buckets,
                            const CommConfig& cfg, bool overlap_comm,
                            bool prefetch, double recovery_s, double join_s) {
  FASTCHG_CHECK(!device_compute_s.empty(), "step_timing: no devices");
  IterationTiming it;
  it.num_alive = static_cast<int>(device_compute_s.size());
  it.device_compute_s = std::move(device_compute_s);
  it.max_compute_s = *std::max_element(it.device_compute_s.begin(),
                                       it.device_compute_s.end());
  const AllReduceCost cost =
      bucketed_allreduce_cost(gradient_bytes, it.num_alive, buckets, cfg);
  it.comm_s = cost.total();
  // Backward is roughly 2/3 of fwd+bwd compute; the all-reduce's bandwidth
  // part can hide inside it, the per-bucket latency cannot.
  it.exposed_comm_s =
      overlap_comm
          ? exposed_comm_seconds(cost.bandwidth_s, 0.66 * it.max_compute_s) +
                cost.latency_s
          : cost.total();
  it.h2d_s = h2d_seconds(max_shard_bytes, cfg);
  it.exposed_h2d_s =
      prefetch ? exposed_h2d_seconds(it.h2d_s, it.max_compute_s) : it.h2d_s;
  it.recovery_s = recovery_s;
  it.join_s = join_s;
  it.step_s = it.max_compute_s + it.exposed_comm_s + it.exposed_h2d_s +
              it.recovery_s + it.join_s;
  return it;
}

double recovery_cost_seconds(int ring_size, std::uint64_t bytes,
                             const CommConfig& cfg) {
  // Re-forming the ring costs a barrier over the survivors (NCCL-style
  // communicator re-init, charged as one latency per hop in each
  // direction) plus a parameter re-broadcast so every survivor provably
  // holds the same weights -- same traffic shape as one all-reduce.
  if (ring_size <= 1) return 2.0 * cfg.latency;  // lone survivor: barrier
  return 2.0 * (ring_size - 1) * cfg.latency +
         ring_allreduce_seconds(bytes, ring_size, cfg);
}

double join_cost_seconds(int ring_size, std::uint64_t state_bytes,
                         const CommConfig& cfg) {
  // The grown ring re-forms with the same barrier as a shrink, plus the
  // full-state broadcast (params + both Adam moments) from the lead, paid
  // at the slower tier once the ring spans nodes: a joiner lands wherever
  // the scheduler has capacity.
  const bool spans = ring_size > cfg.gpus_per_node;
  const double bw = spans ? cfg.inter_node_bw : cfg.intra_node_bw;
  const double lat = spans ? cfg.inter_latency : cfg.latency;
  return 2.0 * (ring_size - 1) * cfg.latency + lat +
         static_cast<double>(state_bytes) / bw;
}

std::vector<LaneSpan> device_lane(const IterationTiming& it, std::size_t d) {
  const double compute = it.device_compute_s.at(d);
  std::vector<LaneSpan> lane = {
      {"compute", compute}, {"straggler_slack", it.max_compute_s - compute},
      {"allreduce_exposed", it.exposed_comm_s},
      {"h2d_exposed", it.exposed_h2d_s}, {"recovery", it.recovery_s},
      {"join", it.join_s}};
  std::erase_if(lane, [](const LaneSpan& span) { return span.seconds <= 0.0; });
  return lane;
}

}  // namespace fastchg::parallel
