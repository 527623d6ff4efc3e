// Interconnect cost model for the virtual-GPU cluster (DESIGN.md Sec. 2).
//
// Ring all-reduce of N bytes over P devices:
//   t = 2 (P-1)/P * N / BW  +  2 (P-1) * latency
// BW is the NVLink-class intra-node bandwidth while the ring fits on one
// node (paper: 4 GPUs/node) and the fat-tree InfiniBand bandwidth once it
// spans nodes -- this bandwidth cliff is what bends the paper's strong-
// scaling curve (efficiency 82.5% -> 66% from 8 to 32 GPUs).
//
// Overlap accounting mirrors the paper's "Communication Overlap" and "Data
// Prefetch" optimizations: bucketed all-reduce hides up to a fraction of the
// backward pass; prefetch hides host-to-device copies behind compute.
// `step_timing` is the one ledger that prices a synchronous step from these
// rules; the Fig. 10 simulator and DataParallelTrainer both call it.
#pragma once

#include <cstdint>
#include <vector>

namespace fastchg::parallel {

struct CommConfig {
  double intra_node_bw = 150e9;  ///< B/s effective all-reduce bandwidth (NVLink)
  double inter_node_bw = 18e9;   ///< B/s across the fat-tree
  double latency = 15e-6;        ///< s per intra-node ring hop (alpha_intra)
  double inter_latency = 25e-6;  ///< s per fat-tree hop (alpha_inter)
  int gpus_per_node = 4;         ///< paper: 4 GPUs used per node
  double h2d_bw = 24e9;          ///< B/s PCIe host-to-device
  /// Two-level all-reduce when the ring spans nodes: reduce-scatter within
  /// each node over NVLink, ring the node leaders over the fat-tree, then
  /// broadcast the result back intra-node (NCCL-style).  Cheaper than a
  /// flat inter-node ring, whose every hop pays the fat-tree alpha.
  ///
  /// This switch selects the COST model and trace decomposition only: the
  /// gradient averaging arithmetic is canonical (ascending device order)
  /// in both modes, so hierarchical and flat runs are bit-identical.
  bool hierarchical = true;
};

/// Ring all-reduce wall time for `bytes` over `num_devices` in ONE call.
double ring_allreduce_seconds(std::uint64_t bytes, int num_devices,
                              const CommConfig& cfg = {});

/// Bucketed all-reduce cost, split into the overlappable bandwidth part and
/// the latency part that every one of the `buckets` DDP-style calls pays
/// and that stays exposed.  When the two-level
/// schedule is active the three phase fields decompose the same total
/// (reduce_scatter_s + leader_ring_s + broadcast_s == total()); they stay
/// zero for flat or single-node rings.
struct AllReduceCost {
  double bandwidth_s = 0.0;
  double latency_s = 0.0;
  double reduce_scatter_s = 0.0;  ///< intra-node reduce-scatter phase
  double leader_ring_s = 0.0;     ///< inter-node ring across group leaders
  double broadcast_s = 0.0;       ///< intra-node broadcast of the result
  double total() const { return bandwidth_s + latency_s; }
};
AllReduceCost bucketed_allreduce_cost(std::uint64_t bytes, int num_devices,
                                      int buckets,
                                      const CommConfig& cfg = {});

/// The simulated timing of one synchronous data-parallel step.
struct IterationTiming {
  std::vector<double> device_compute_s;  ///< per device in the ring
  double max_compute_s = 0.0;
  double comm_s = 0.0;          ///< raw all-reduce time (model)
  double exposed_comm_s = 0.0;  ///< after overlap
  double h2d_s = 0.0;
  double exposed_h2d_s = 0.0;
  double recovery_s = 0.0;      ///< ring re-form + re-broadcast charged here
  double join_s = 0.0;          ///< join re-form + state broadcast charged here
  double step_s = 0.0;          ///< simulated wall time of the step
  int num_alive = 0;            ///< ring size during this iteration
};

/// The step ledger: step_s = max_compute + exposed all-reduce of
/// `gradient_bytes` over a ring of `device_compute_s.size()` devices +
/// exposed H2D copy of the largest shard + recovery + join.  The compute
/// already carries any fault or straggler factor.
IterationTiming step_timing(std::vector<double> device_compute_s,
                            std::uint64_t max_shard_bytes,
                            std::uint64_t gradient_bytes, int buckets,
                            const CommConfig& cfg, bool overlap_comm,
                            bool prefetch, double recovery_s = 0.0,
                            double join_s = 0.0);

/// Cost of shrinking the ring to `ring_size` and re-syncing `bytes` over it.
double recovery_cost_seconds(int ring_size, std::uint64_t bytes,
                             const CommConfig& cfg);

/// Cost of growing the ring to `ring_size` and streaming `state_bytes` to
/// the joiner(s).
double join_cost_seconds(int ring_size, std::uint64_t state_bytes,
                         const CommConfig& cfg);

/// One span of a device's simulated-time lane.
struct LaneSpan {
  const char* name;
  double seconds;
};

/// Device `d`'s lane through one step: compute, slack waiting for the
/// slowest device, exposed all-reduce, exposed H2D, recovery, join.  Empty
/// spans are left out; the rest sum to `it.step_s` (to one rounding).
std::vector<LaneSpan> device_lane(const IterationTiming& it, std::size_t d);

}  // namespace fastchg::parallel
