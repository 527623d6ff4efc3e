#include "parallel/data_parallel.hpp"

#include <algorithm>
#include <utility>

#include "perf/timer.hpp"
#include "perf/trace.hpp"
#include "train/atom_ref.hpp"
#include "train/checkpoint.hpp"

namespace fastchg::parallel {

namespace {

/// Emit each device's simulated-time lane for one step from `start_s`;
/// `devices[d]` ran `it.device_compute_s[d]`.
void trace_lanes(const std::vector<int>& devices, const IterationTiming& it,
                 double start_s) {
  for (std::size_t d = 0; d < it.device_compute_s.size(); ++d) {
    double t = start_s;
    for (const LaneSpan& span : device_lane(it, d)) {
      perf::trace_sim_span(span.name, "device", devices[d], t, span.seconds);
      t += span.seconds;
    }
  }
}

}  // namespace

DataParallelTrainer::DataParallelTrainer(const model::ModelConfig& mcfg,
                                         const DataParallelConfig& cfg,
                                         std::uint64_t model_seed)
    : cfg_(cfg), model_(mcfg, model_seed), opt_(model_.parameters()) {
  FASTCHG_CHECK(cfg.num_devices >= 1, "DataParallelTrainer: devices");
  FASTCHG_CHECK(cfg.global_batch % cfg.num_devices == 0,
                "DataParallelTrainer: global batch "
                    << cfg.global_batch << " not divisible by "
                    << cfg.num_devices
                    << " devices (elastic recovery keeps the per-device "
                       "batch fixed)");
  for (int d = 0; d < cfg.num_devices; ++d) alive_.push_back(d);
  rescale_lr();
  const std::vector<ag::Var> params = model_.parameters();
  for (const ag::Var& p : params) grad_sum_.push_back(Tensor::zeros(p.shape()));
  // DDP-style 64 KiB gradient buckets determine the all-reduce call count
  // in the comm-cost accounting.
  num_buckets_ =
      static_cast<int>(make_gradient_buckets(params, 64 * 1024).size());
}

std::uint64_t DataParallelTrainer::gradient_bytes() const {
  return tensor_bytes(model_.num_parameters());
}

void DataParallelTrainer::rescale_lr() {
  const index_t per_device = cfg_.global_batch / cfg_.num_devices;
  const index_t global = per_device * static_cast<index_t>(alive_.size());
  const float base = cfg_.scale_lr
                         ? train::scaled_init_lr(global, cfg_.lr_k,
                                                 cfg_.base_lr)
                         : cfg_.base_lr;
  opt_.set_lr(base * guard_.backoff_scale);
}

void DataParallelTrainer::accumulate_device_gradients() {
  // A parameter the shard never touched (e.g. no angles) has no grad:
  // it contributes zero.
  const std::vector<ag::Var> params = model_.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].has_grad()) grad_sum_[i].add_(params[i].grad());
  }
}

void DataParallelTrainer::all_reduce_gradients() {
  // Average the summed gradients over the surviving devices -- the
  // arithmetic NCCL would do on the shrunken communicator.
  const float inv_p = 1.0f / static_cast<float>(alive_.size());
  std::vector<ag::Var> params = model_.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& sum = grad_sum_[i];
    sum.mul_(inv_p);
    // Copy into the existing accumulator rather than replacing its
    // storage, so each gradient buffer stays put across steps.
    ag::Var& p = params[i];
    if (p.has_grad()) {
      std::copy(sum.data(), sum.data() + sum.numel(), p.mutable_grad().data());
    } else {
      p.set_grad(sum.clone());
    }
  }
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

  if (cfg_.fit_atom_ref && !model_.has_atom_ref()) {
    model_.set_atom_ref(
        train::fit_atom_ref(ds, rows, model_.config().num_species));
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
      rescale_lr();
      const double reform =
          recovery_cost_seconds(num_alive(), gradient_bytes(), cfg_.comm);
      pending_recovery_s += reform;
      result.recovery_seconds += reform;
      plan = make_plan(remaining);
      pos = 0;
      if (plan.iterations.empty()) break;  // too few rows left for a batch
    }

    // -- joins scheduled for this iteration: previously-failed devices
    //    re-enter the ring and train the shared weights from the next step.
    //    The unconsumed rows re-shard over the enlarged ring, the LR
    //    rescales back up (inverse Eq. 14), and the full-state broadcast a
    //    real joiner would receive (params + both Adam moments) plus the
    //    ring re-form is charged to the next step.
    std::vector<int> joined;
    for (int d : inj.joins_at(iter)) {
      if (d < 0 || d >= cfg_.num_devices) continue;
      if (std::find(alive_.begin(), alive_.end(), d) == alive_.end() &&
          std::find(joined.begin(), joined.end(), d) == joined.end()) {
        joined.push_back(d);
      }
    }
    if (!joined.empty()) {
      for (int d : joined) {
        alive_.push_back(d);
        result.joined_devices.push_back(d);
      }
      std::sort(alive_.begin(), alive_.end());
      rescale_lr();
      const double cost = join_cost_seconds(
          num_alive(), 3 * gradient_bytes() * joined.size(), cfg_.comm);
      pending_join_s += cost;
      result.join_seconds += cost;
      plan = make_plan(collect_remaining());
      pos = 0;
      if (plan.iterations.empty()) break;  // too few rows left for a batch
    }

    const auto& shards = plan.iterations[pos];
    std::vector<double> device_compute_s(shards.size());
    std::uint64_t max_bytes = 0;
    bool finite = true;
    const double loss_sum_before = loss_sum;
    const index_t loss_count_before = loss_count;
    for (Tensor& sum : grad_sum_) sum.fill_(0.0f);
    for (std::size_t d = 0; d < shards.size(); ++d) {
      perf::TraceSpan span_dev("dp.device_compute", "dp");
      perf::Timer t;
      // Step-scoped arena: batch tensors, forward activations and the
      // backward graph recycle through the one step pool.
      alloc::ArenaScope arena(step_pool_);
      data::Batch b = data::collate_indices(ds, shards[d]);
      model_.zero_grad();
      // The shard's graph tears down inside train_step, so inside the
      // timed device compute.
      const train::StepLoss loss = train::train_step(model_, b);
      loss_sum += loss.total;
      ++loss_count;
      finite = finite && loss.finite;
      device_compute_s[d] =
          t.seconds() * inj.compute_multiplier(alive_[d], iter);
      max_bytes = std::max(max_bytes, shard_bytes(ds, shards[d]));
      accumulate_device_gradients();
    }

    if (finite) {
      perf::TraceSpan span_ar("dp.allreduce", "dp");
      all_reduce_gradients();
      // A finite loss can still overflow in backward; check the averaged
      // gradient once.
      finite = train::gradients_finite(model_.parameters());
    }
    if (!finite) {
      // Guard: skip this step, leave its losses out of the epoch mean, and
      // back off the LR for the rest of the run.
      model_.zero_grad();
      guard_.trip();
      rescale_lr();
      ++result.skipped_steps;
      loss_sum = loss_sum_before;
      loss_count = loss_count_before;
    } else {
      perf::TraceSpan span_opt("dp.optimizer", "dp");
      opt_.step();
    }

    CommConfig comm_cfg = cfg_.comm;
    const double degrade = inj.comm_factor(iter);
    comm_cfg.intra_node_bw /= degrade;
    comm_cfg.inter_node_bw /= degrade;
    comm_cfg.latency *= degrade;
    IterationTiming it = step_timing(
        std::move(device_compute_s), max_bytes, gradient_bytes(),
        num_buckets_, comm_cfg, cfg_.overlap_comm, cfg_.prefetch,
        std::exchange(pending_recovery_s, 0.0),
        std::exchange(pending_join_s, 0.0));
    // Per-device simulated-time lanes tile each step, so the trace is an
    // independent witness of the timing ledger.
    if (perf::trace_enabled()) {
      trace_lanes(alive_, it, sim_trace_cursor_s_);
      sim_trace_cursor_s_ += it.step_s;
    }
    result.simulated_seconds += it.step_s;
    result.iterations.push_back(std::move(it));
    ++iter;
    ++pos;
  }
  // Recovery/join cost charged but never attached to a step (an elastic
  // transition on the last iteration) still counts toward the epoch.
  if (perf::trace_enabled()) {
    IterationTiming tail;
    tail.device_compute_s.assign(alive_.size(), 0.0);
    tail.recovery_s = pending_recovery_s;
    tail.join_s = pending_join_s;
    trace_lanes(alive_, tail, sim_trace_cursor_s_);
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
  nn::PayloadWriter w;
  w.put_u64(static_cast<std::uint64_t>(cfg_.num_devices));
  w.put_u64(alive_.size());
  for (int d : alive_) w.put_u64(static_cast<std::uint64_t>(d));
  w.put_f32(opt_.lr());
  train::put_guard(w, guard_);
  w.put_u64(static_cast<std::uint64_t>(next_epoch));
  std::vector<nn::Section> sections;
  sections.push_back({train::kSectionElastic, w.take()});
  sections.push_back(train::adam_section(opt_));
  sections.push_back(train::atom_ref_section(model_));
  nn::save_parameters(model_, path, sections);
}

index_t DataParallelTrainer::resume(const std::string& path) {
  const std::vector<nn::Section> sections =
      nn::load_checkpoint(model_, path);
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
    r.get_f32();  // the LR; restore_adam below restores the same value
    guard_ = train::get_guard(r);
    next_epoch = static_cast<index_t>(r.get_u64());
    FASTCHG_CHECK(r.done(), "checkpoint: elastic section has trailing bytes");
  }
  train::restore_atom_ref(model_,
                          train::require_section(sections,
                                                 train::kSectionAtomRef));
  train::restore_adam(opt_,
                      train::require_section(sections, train::kSectionAdam));
  return next_epoch;
}

}  // namespace fastchg::parallel
