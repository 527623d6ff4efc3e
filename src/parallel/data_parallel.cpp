#include "parallel/data_parallel.hpp"

#include <algorithm>
#include <cmath>

#include "autograd/ops.hpp"
#include "perf/timer.hpp"
#include "perf/trace.hpp"
#include "train/atom_ref.hpp"
#include "train/checkpoint.hpp"

namespace fastchg::parallel {

DataParallelTrainer::DataParallelTrainer(const model::ModelConfig& mcfg,
                                         const DataParallelConfig& cfg,
                                         std::uint64_t model_seed)
    : cfg_(cfg),
      lr_(cfg.scale_lr
              ? train::scaled_init_lr(cfg.global_batch, cfg.lr_k, cfg.base_lr)
              : cfg.base_lr) {
  FASTCHG_CHECK(cfg.num_devices >= 1, "DataParallelTrainer: devices");
  FASTCHG_CHECK(cfg.global_batch % cfg.num_devices == 0,
                "DataParallelTrainer: global batch "
                    << cfg.global_batch << " not divisible by "
                    << cfg.num_devices
                    << " devices (elastic recovery keeps the per-device "
                       "batch fixed)");
  for (int d = 0; d < cfg.num_devices; ++d) {
    // One pool per virtual device, installed while the replica and its
    // optimizer state are built so their tensors live in the device's pool
    // from the start (mirrors per-GPU caching-allocator instances).
    device_pools_.push_back(std::make_shared<alloc::PoolAllocator>());
    alloc::ArenaScope arena(device_pools_.back());
    replicas_.push_back(std::make_unique<model::CHGNet>(mcfg, model_seed));
    if (d > 0) replicas_[static_cast<std::size_t>(d)]->copy_parameters_from(*replicas_[0]);
    opts_.push_back(std::make_unique<train::Adam>(
        replicas_.back()->parameters(), lr_));
    alive_.push_back(d);
  }
  // DDP-style 64 KiB gradient buckets determine the all-reduce call count
  // in the comm-cost accounting.
  num_buckets_ = static_cast<int>(
      make_gradient_buckets(replicas_[0]->parameters(), 64 * 1024).size());
}

std::uint64_t DataParallelTrainer::gradient_bytes() const {
  return tensor_bytes(replicas_[0]->num_parameters());
}

float DataParallelTrainer::elastic_lr() const {
  const index_t per_device = cfg_.global_batch / cfg_.num_devices;
  const index_t global = per_device * static_cast<index_t>(alive_.size());
  const float base = cfg_.scale_lr
                         ? train::scaled_init_lr(global, cfg_.lr_k,
                                                 cfg_.base_lr)
                         : cfg_.base_lr;
  return base * backoff_scale_;
}

double DataParallelTrainer::join_cost_seconds(
    std::uint64_t state_bytes) const {
  // Re-forming the enlarged ring costs the same barrier as a shrink, plus
  // the full-state broadcast streamed lead -> joiner (params + both Adam
  // moments + AtomRef), paid at the slower tier once the grown ring spans
  // nodes: a joiner generally lands wherever the scheduler has capacity.
  const int p = num_alive();
  const bool spans = p > cfg_.comm.gpus_per_node;
  const double bw = spans ? cfg_.comm.inter_node_bw : cfg_.comm.intra_node_bw;
  const double lat = spans ? cfg_.comm.inter_latency : cfg_.comm.latency;
  return 2.0 * (p - 1) * cfg_.comm.latency + lat +
         static_cast<double>(state_bytes) / bw;
}

double DataParallelTrainer::recovery_cost_seconds() const {
  // Re-forming the ring costs a barrier over the survivors (NCCL-style
  // communicator re-init, charged as one latency per hop in each
  // direction) plus a parameter re-broadcast so every survivor provably
  // holds the same weights -- same traffic shape as one all-reduce.
  const int p = num_alive();
  if (p <= 1) return 2.0 * cfg_.comm.latency;  // lone survivor: barrier only
  return 2.0 * (p - 1) * cfg_.comm.latency +
         ring_allreduce_seconds(gradient_bytes(), p, cfg_.comm);
}

void DataParallelTrainer::all_reduce_gradients() {
  // Average gradients across the surviving replicas -- the arithmetic NCCL
  // would do on the shrunken communicator.
  std::vector<std::vector<ag::Var>> params;
  params.reserve(alive_.size());
  for (int d : alive_) {
    params.push_back(replicas_[static_cast<std::size_t>(d)]->parameters());
  }
  const float inv_p = 1.0f / static_cast<float>(params.size());
  for (std::size_t i = 0; i < params[0].size(); ++i) {
    // Some replicas may lack a grad (e.g. parameter unused on a shard with
    // no angles); treat missing as zero.
    Tensor sum = Tensor::zeros(params[0][i].shape());
    for (auto& dev_params : params) {
      if (dev_params[i].has_grad()) sum.add_(dev_params[i].grad());
    }
    sum.mul_(inv_p);
    for (auto& dev_params : params) {
      // Copy into the existing accumulator rather than replacing its
      // storage, so each gradient buffer stays put across steps.
      ag::Var& p = dev_params[i];
      if (p.has_grad()) {
        std::copy(sum.data(), sum.data() + sum.numel(),
                  p.mutable_grad().data());
      } else {
        p.set_grad(sum.clone());
      }
    }
  }
}

void DataParallelTrainer::broadcast_from_master() {
  const model::CHGNet& src = *replicas_[static_cast<std::size_t>(alive_.front())];
  for (std::size_t i = 1; i < alive_.size(); ++i) {
    replicas_[static_cast<std::size_t>(alive_[i])]->copy_parameters_from(src);
  }
}

float DataParallelTrainer::replica_divergence() const {
  float worst = 0.0f;
  auto ref = replicas_[static_cast<std::size_t>(alive_.front())]->parameters();
  for (std::size_t d = 1; d < alive_.size(); ++d) {
    auto other = replicas_[static_cast<std::size_t>(alive_[d])]->parameters();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const float* a = ref[i].value().data();
      const float* b = other[i].value().data();
      for (index_t k = 0; k < ref[i].numel(); ++k) {
        worst = std::max(worst, std::fabs(a[k] - b[k]));
      }
    }
  }
  return worst;
}

std::uint64_t shard_bytes(const data::Dataset& ds,
                          const std::vector<index_t>& rows) {
  std::uint64_t bytes = 0;
  for (index_t row : rows) {
    const data::GraphData& g = ds[row].graph;
    // positions + forces [A,3]*2, magmom [A], edge images [E,3],
    // src/dst int64 [E]*2, angle indices [G]*2, misc labels.
    bytes += static_cast<std::uint64_t>(g.num_atoms) * (7 * 4);
    bytes += static_cast<std::uint64_t>(g.num_edges()) * (3 * 4 + 2 * 8);
    bytes += static_cast<std::uint64_t>(g.num_angles()) * (2 * 8);
    bytes += 64;  // lattice, energy, stress
  }
  return bytes;
}

EpochResult DataParallelTrainer::train_epoch(
    const data::Dataset& ds, const std::vector<index_t>& rows,
    index_t epoch, const FaultPlan* faults) {
  perf::Timer wall;
  EpochResult result;

  if (cfg_.fit_atom_ref && !master().has_atom_ref()) {
    const std::vector<float> e0 = train::fit_atom_ref(
        ds, rows, master().config().num_species);
    for (auto& r : replicas_) r->set_atom_ref(e0);
  }

  const FaultInjector inj(faults);
  const index_t per_device = cfg_.global_batch / cfg_.num_devices;
  const std::vector<index_t> loads = sample_workloads(ds);
  const auto make_plan = [&](const std::vector<index_t>& rws) {
    SamplerConfig scfg;
    scfg.num_devices = num_alive();
    scfg.global_batch = per_device * static_cast<index_t>(alive_.size());
    scfg.seed = cfg_.seed + static_cast<std::uint64_t>(epoch);
    return cfg_.load_balance ? load_balance_sharding(rws, loads, scfg)
                             : default_sharding(rws, loads, scfg);
  };
  ShardPlan plan = make_plan(rows);

  double loss_sum = 0.0;
  index_t loss_count = 0;
  index_t iter = 0;       // epoch-local, monotone across re-sharding
  std::size_t pos = 0;    // iterations consumed from the current plan
  double pending_recovery_s = 0.0;
  double pending_join_s = 0.0;
  // Rows not yet consumed from the current plan — both elastic transitions
  // (shrink and join) re-shard exactly this set over the new ring.
  const auto collect_remaining = [&plan, &pos]() {
    std::vector<index_t> remaining;
    for (std::size_t i = pos; i < plan.iterations.size(); ++i) {
      for (const auto& shard : plan.iterations[i]) {
        remaining.insert(remaining.end(), shard.begin(), shard.end());
      }
    }
    return remaining;
  };
  while (pos < plan.iterations.size()) {
    // -- failures scheduled for this iteration: shrink the ring, re-shard
    //    the unconsumed rows, rescale the LR (Eq. 14 on the new global
    //    batch), and charge the ring re-form to the next step.
    std::vector<int> failed;
    for (int d : inj.failures_at(iter)) {
      if (std::find(alive_.begin(), alive_.end(), d) != alive_.end()) {
        failed.push_back(d);
      }
    }
    if (!failed.empty()) {
      for (int d : failed) {
        alive_.erase(std::remove(alive_.begin(), alive_.end(), d),
                     alive_.end());
        result.failed_devices.push_back(d);
      }
      FASTCHG_CHECK(!alive_.empty(),
                    "DataParallelTrainer: every device failed at iteration "
                        << iter << " of epoch " << epoch);
      const std::vector<index_t> remaining = collect_remaining();
      lr_ = elastic_lr();
      for (int d : alive_) {
        opts_[static_cast<std::size_t>(d)]->set_lr(lr_);
      }
      const double reform = recovery_cost_seconds();
      pending_recovery_s += reform;
      result.recovery_seconds += reform;
      plan = make_plan(remaining);
      pos = 0;
      if (plan.iterations.empty()) break;  // too few rows left for a batch
    }

    // -- joins scheduled for this iteration: previously-failed devices
    //    re-enter the ring.  The lead replica streams its full state to
    //    each joiner through the fixed staging buffer (bit-identical
    //    afterwards, asserted in tests), the unconsumed rows re-shard over
    //    the enlarged ring, the LR rescales back up (inverse Eq. 14), and
    //    the broadcast + ring re-form is charged to the next step.
    std::vector<int> joined;
    for (int d : inj.joins_at(iter)) {
      if (d < 0 || d >= cfg_.num_devices) continue;
      if (std::find(alive_.begin(), alive_.end(), d) == alive_.end() &&
          std::find(joined.begin(), joined.end(), d) == joined.end()) {
        joined.push_back(d);
      }
    }
    if (!joined.empty()) {
      const auto lead = static_cast<std::size_t>(alive_.front());
      train::StateStreamer streamer;
      std::uint64_t streamed = 0;
      for (int d : joined) {
        // Stream into the joiner's own pool: its replica tensors already
        // live there, and the chunked copy allocates nothing model-sized.
        alloc::ArenaScope arena(device_pools_[static_cast<std::size_t>(d)]);
        streamed += train::broadcast_state(
            *replicas_[lead], *opts_[lead],
            *replicas_[static_cast<std::size_t>(d)],
            *opts_[static_cast<std::size_t>(d)], streamer);
        alive_.push_back(d);
        result.joined_devices.push_back(d);
      }
      std::sort(alive_.begin(), alive_.end());
      lr_ = elastic_lr();
      for (int d : alive_) {
        opts_[static_cast<std::size_t>(d)]->set_lr(lr_);
      }
      const double cost = join_cost_seconds(streamed);
      pending_join_s += cost;
      result.join_seconds += cost;
      plan = make_plan(collect_remaining());
      pos = 0;
      if (plan.iterations.empty()) break;  // too few rows left for a batch
    }

    const auto& shards = plan.iterations[pos];
    IterationTiming it;
    it.num_alive = num_alive();
    it.device_compute_s.resize(shards.size());
    std::uint64_t max_bytes = 0;
    bool finite = true;
    for (std::size_t d = 0; d < shards.size(); ++d) {
      perf::TraceSpan span_dev("dp.device_compute", "dp");
      perf::Timer t;
      // Step-scoped arena on this device's own pool: batch tensors, forward
      // activations and the backward graph recycle within the device, never
      // crossing into a sibling replica's pool.
      alloc::ArenaScope arena(
          device_pools_[static_cast<std::size_t>(alive_[d])]);
      data::Batch b = data::collate_indices(ds, shards[d]);
      const int dev = alive_[d];
      model::CHGNet& net = *replicas_[static_cast<std::size_t>(dev)];
      net.zero_grad();

      float loss_value = 0.0f;
      {
        // The shard's graph tears down inside the timed device compute.
        model::ModelOutput out = net.forward(b, model::ForwardMode::kTrain);
        train::LossResult loss =
            train::chgnet_loss(out, b, cfg_.weights, cfg_.huber_delta);
        loss_value = loss.total.item();
        if (std::isfinite(loss_value) || !cfg_.guard_nonfinite) {
          ag::backward(loss.total);
        }
      }

      const bool dev_finite = std::isfinite(loss_value);
      if (dev_finite || !cfg_.guard_nonfinite) {
        // With the guard off this preserves the unguarded semantics exactly
        // (backward + stats even for a poisoned loss).
        loss_sum += loss_value;
        ++loss_count;
      }
      finite = finite && dev_finite;
      it.device_compute_s[d] =
          t.seconds() * inj.compute_multiplier(alive_[d], iter);
      max_bytes = std::max(max_bytes, shard_bytes(ds, shards[d]));
    }

    if (finite || !cfg_.guard_nonfinite) {
      perf::TraceSpan span_ar("dp.allreduce", "dp");
      all_reduce_gradients();
      if (cfg_.guard_nonfinite) {
        // A finite loss can still overflow in backward; check the averaged
        // gradient once (it is identical on every replica).
        finite = train::gradients_finite(
            replicas_[static_cast<std::size_t>(alive_.front())]->parameters());
      }
    }
    if (cfg_.guard_nonfinite && !finite) {
      // Guard: every replica skips this step together (preserving the DDP
      // invariant) and the LR backs off for the rest of the run.
      for (auto& r : replicas_) r->zero_grad();
      backoff_scale_ *= cfg_.lr_backoff;
      lr_ = elastic_lr();
      for (int d : alive_) opts_[static_cast<std::size_t>(d)]->set_lr(lr_);
      ++result.skipped_steps;
      ++skipped_steps_;
    } else {
      perf::TraceSpan span_opt("dp.optimizer", "dp");
      for (int d : alive_) opts_[static_cast<std::size_t>(d)]->step();
    }

    // -- divergence watchdog: if the bit-identity invariant is ever broken
    //    (flaky memory, a buggy kernel), repair by re-broadcasting from the
    //    lead replica; the broadcast is charged like a recovery.
    if (cfg_.divergence_check_every > 0 && num_alive() > 1 &&
        (iter + 1) % cfg_.divergence_check_every == 0) {
      if (replica_divergence() > cfg_.divergence_tolerance) {
        broadcast_from_master();
        ++result.rebroadcasts;
        const double cost =
            ring_allreduce_seconds(gradient_bytes(), num_alive(), cfg_.comm);
        pending_recovery_s += cost;
        result.recovery_seconds += cost;
      }
    }

    it.max_compute_s = *std::max_element(it.device_compute_s.begin(),
                                         it.device_compute_s.end());
    CommConfig comm_cfg = cfg_.comm;
    comm_cfg.buckets = num_buckets_;
    const double degrade = inj.comm_factor(iter);
    comm_cfg.intra_node_bw /= degrade;
    comm_cfg.inter_node_bw /= degrade;
    comm_cfg.latency *= degrade;
    const AllReduceCost cost =
        bucketed_allreduce_cost(gradient_bytes(), num_alive(), comm_cfg);
    it.comm_s = cost.total();
    // Backward is roughly 2/3 of fwd+bwd compute; the bucketed all-reduce's
    // bandwidth part can hide inside it, the per-bucket latency cannot.
    it.exposed_comm_s =
        cfg_.overlap_comm
            ? exposed_comm_seconds(cost.bandwidth_s, 0.66 * it.max_compute_s,
                                   true) +
                  cost.latency_s
            : cost.total();
    it.h2d_s = h2d_seconds(max_bytes, comm_cfg);
    it.exposed_h2d_s =
        exposed_h2d_seconds(it.h2d_s, it.max_compute_s, cfg_.prefetch);
    it.recovery_s = pending_recovery_s;
    pending_recovery_s = 0.0;
    it.join_s = pending_join_s;
    pending_join_s = 0.0;
    it.step_s = it.max_compute_s + it.exposed_comm_s + it.exposed_h2d_s +
                it.recovery_s + it.join_s;
    // Per-device simulated-time lanes: each alive device's spans tile its
    // lane exactly — compute, then slack waiting for the straggler, then the
    // exposed comm/H2D and any recovery — so every lane advances by step_s
    // and the trace is an independent witness of the timing ledger.
    if (perf::trace_enabled()) {
      for (std::size_t d = 0; d < shards.size(); ++d) {
        const int dev = alive_[d];
        double t = sim_trace_cursor_s_;
        perf::trace_sim_span("compute", "device", dev, t,
                             it.device_compute_s[d]);
        t += it.device_compute_s[d];
        const double slack = it.max_compute_s - it.device_compute_s[d];
        if (slack > 0.0) {
          perf::trace_sim_span("straggler_slack", "device", dev, t, slack);
          t += slack;
        }
        if (it.exposed_comm_s > 0.0) {
          perf::trace_sim_span("allreduce_exposed", "device", dev, t,
                               it.exposed_comm_s);
          t += it.exposed_comm_s;
        }
        if (it.exposed_h2d_s > 0.0) {
          perf::trace_sim_span("h2d_exposed", "device", dev, t,
                               it.exposed_h2d_s);
          t += it.exposed_h2d_s;
        }
        if (it.recovery_s > 0.0) {
          perf::trace_sim_span("recovery", "device", dev, t, it.recovery_s);
          t += it.recovery_s;
        }
        if (it.join_s > 0.0) {
          perf::trace_sim_span("join", "device", dev, t, it.join_s);
        }
      }
      sim_trace_cursor_s_ += it.step_s;
    }
    result.simulated_seconds += it.step_s;
    result.iterations.push_back(std::move(it));
    ++iter;
    ++pos;
  }
  // Recovery/join cost charged but never attached to a step (an elastic
  // transition on the last iteration) still counts toward the epoch.
  if (perf::trace_enabled() &&
      (pending_recovery_s > 0.0 || pending_join_s > 0.0)) {
    for (int dev : alive_) {
      double t = sim_trace_cursor_s_;
      if (pending_recovery_s > 0.0) {
        perf::trace_sim_span("recovery", "device", dev, t,
                             pending_recovery_s);
        t += pending_recovery_s;
      }
      if (pending_join_s > 0.0) {
        perf::trace_sim_span("join", "device", dev, t, pending_join_s);
      }
    }
    sim_trace_cursor_s_ += pending_recovery_s + pending_join_s;
  }
  result.simulated_seconds += pending_recovery_s + pending_join_s;
  result.mean_loss =
      loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
  result.measured_seconds = wall.seconds();
  return result;
}

void DataParallelTrainer::save_checkpoint(const std::string& path,
                                          index_t next_epoch) const {
  const auto lead = static_cast<std::size_t>(alive_.front());
  nn::PayloadWriter w;
  w.put_u64(static_cast<std::uint64_t>(cfg_.num_devices));
  w.put_u64(alive_.size());
  for (int d : alive_) w.put_u64(static_cast<std::uint64_t>(d));
  w.put_f32(lr_);
  w.put_f32(backoff_scale_);
  w.put_u64(static_cast<std::uint64_t>(skipped_steps_));
  w.put_u64(static_cast<std::uint64_t>(next_epoch));
  std::vector<nn::Section> sections;
  sections.push_back({train::kSectionElastic, w.take()});
  sections.push_back(train::adam_section(*opts_[lead]));
  sections.push_back(train::atom_ref_section(*replicas_[lead]));
  nn::save_parameters(*replicas_[lead], path, sections);
}

index_t DataParallelTrainer::resume(const std::string& path) {
  const std::vector<nn::Section> sections =
      nn::load_checkpoint(*replicas_[0], path);
  index_t next_epoch = 0;
  {
    nn::PayloadReader r(
        train::require_section(sections, train::kSectionElastic).payload);
    const auto devices = static_cast<int>(r.get_u64());
    FASTCHG_CHECK(devices == cfg_.num_devices,
                  "checkpoint: saved for " << devices << " devices, trainer "
                                           << "has " << cfg_.num_devices);
    const std::uint64_t alive_count = r.get_u64();
    FASTCHG_CHECK(alive_count >= 1 &&
                      alive_count <= static_cast<std::uint64_t>(devices),
                  "checkpoint: implausible alive count " << alive_count);
    alive_.clear();
    for (std::uint64_t i = 0; i < alive_count; ++i) {
      const auto d = static_cast<int>(r.get_u64());
      FASTCHG_CHECK(d >= 0 && d < devices,
                    "checkpoint: alive device " << d << " out of range");
      alive_.push_back(d);
    }
    lr_ = r.get_f32();
    backoff_scale_ = r.get_f32();
    skipped_steps_ = static_cast<index_t>(r.get_u64());
    next_epoch = static_cast<index_t>(r.get_u64());
    FASTCHG_CHECK(r.done(), "checkpoint: elastic section has trailing bytes");
  }
  // Weights landed in replica 0; mirror them (and the AtomRef) everywhere,
  // then give every optimizer the identical restored Adam state -- after
  // which the survivors are bit-identical, exactly as before the save.
  train::restore_atom_ref(*replicas_[0],
                          train::require_section(sections,
                                                 train::kSectionAtomRef));
  for (std::size_t d = 1; d < replicas_.size(); ++d) {
    replicas_[d]->copy_parameters_from(*replicas_[0]);
    if (replicas_[0]->has_atom_ref()) {
      replicas_[d]->set_atom_ref(replicas_[0]->atom_ref().to_vector());
    }
  }
  const nn::Section& adam = train::require_section(sections,
                                                   train::kSectionAdam);
  for (auto& opt : opts_) {
    train::restore_adam(*opt, adam);
    opt->set_lr(lr_);
  }
  return next_epoch;
}

}  // namespace fastchg::parallel
