#include "train/trainer.hpp"

#include <cmath>
#include <optional>

#include "autograd/ops.hpp"
#include "core/rng.hpp"
#include "data/prefetch.hpp"
#include "perf/timer.hpp"
#include "perf/trace.hpp"
#include "train/checkpoint.hpp"

namespace fastchg::train {

bool gradients_finite(const std::vector<ag::Var>& params) {
  for (const ag::Var& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.grad().data();
    for (index_t k = 0; k < p.numel(); ++k) {
      if (!std::isfinite(g[k])) return false;
    }
  }
  return true;
}

Trainer::Trainer(model::CHGNet& net, const TrainConfig& cfg)
    : net_(net),
      cfg_(cfg),
      init_lr_(cfg.scale_lr ? scaled_init_lr(cfg.batch_size, cfg.lr_k,
                                             cfg.base_lr)
                            : cfg.base_lr),
      opt_(net.parameters(), init_lr_),
      shuffle_rng_(cfg.shuffle_seed) {}

EpochStats Trainer::train_epoch(const data::Dataset& ds,
                                const std::vector<index_t>& train_idx,
                                index_t epoch) {
  if (cfg_.fit_atom_ref && !net_.has_atom_ref()) {
    net_.set_atom_ref(fit_atom_ref(ds, train_idx, net_.config().num_species));
  }
  perf::Timer timer;
  perf::TraceSpan span_epoch("train.epoch", "train");
  EpochStats st;
  std::vector<index_t> order = train_idx;
  shuffle_rng_ = Rng(cfg_.shuffle_seed + static_cast<std::uint64_t>(epoch));
  shuffle_rng_.shuffle(order);

  const index_t steps_per_epoch = std::max<index_t>(
      1, (static_cast<index_t>(order.size()) + cfg_.batch_size - 1) /
             cfg_.batch_size);
  CosineAnnealingLR sched(init_lr_, cfg_.epochs * steps_per_epoch,
                          cfg_.min_lr);

  // Mini-batch plan; with prefetch on, batches are collated one step ahead
  // on a background thread (the paper's "Data Prefetch").  With gradient
  // accumulation the optimizer steps once per `accumulation_steps`
  // micro-batches, averaging their gradients (loss scaled by 1/A).
  const index_t accum = std::max<index_t>(1, cfg_.accumulation_steps);
  std::vector<std::vector<index_t>> plan;
  for (std::size_t lo = 0; lo < order.size();
       lo += static_cast<std::size_t>(cfg_.batch_size)) {
    const std::size_t hi =
        std::min(order.size(), lo + static_cast<std::size_t>(cfg_.batch_size));
    plan.emplace_back(order.begin() + lo, order.begin() + hi);
  }
  // The loader collates into the trainer's own step pool (pool-aware
  // handoff): batch blocks freed mid-step recycle straight back to the
  // collation of step N+1, so a steady-state step allocates nothing from
  // the system allocator even with prefetch on.
  std::optional<data::PrefetchLoader> loader;
  if (cfg_.prefetch) loader.emplace(ds, plan, /*depth=*/2, step_pool_);

  const std::vector<ag::Var> params = net_.parameters();
  index_t micro = 0;
  for (std::size_t step = 0; step < plan.size(); ++step) {
    perf::TraceSpan span_step("train.step", "train");
    // Step-scoped arena: forward activations, graph nodes, gradients and
    // loss temporaries all come from step_pool_ and are recycled as the
    // graph tears down, so step N+1 re-serves step N's blocks.
    alloc::ArenaScope arena(step_pool_);
    data::Batch b = [&] {
      perf::TraceSpan span("train.data_prefetch", "train");
      return cfg_.prefetch ? std::move(*loader->next())
                           : data::collate_indices(ds, plan[step]);
    }();

    opt_.set_lr(sched.lr_at(global_step_) * backoff_scale_);
    if (micro == 0) opt_.zero_grad();

    double loss_total = 0.0, loss_energy = 0.0, loss_force = 0.0,
           loss_stress = 0.0, loss_magmom = 0.0;
    bool finite = true;
    {
      // The step's graph lives in this scope and tears down before the
      // optimizer runs.
      model::ModelOutput out;
      LossResult loss;
      {
        perf::TraceSpan span("train.forward", "train");
        out = net_.forward(b, model::ForwardMode::kTrain);
        loss = chgnet_loss(out, b, cfg_.weights, cfg_.huber_delta);
      }
      loss_total = loss.total.item();
      loss_energy = loss.energy;
      loss_force = loss.force;
      loss_stress = loss.stress;
      loss_magmom = loss.magmom;

      // With the guard on, a non-finite loss skips backward entirely (its
      // gradients would be garbage anyway); a finite loss can still produce
      // non-finite gradients, so those are checked after backward.
      finite = !cfg_.guard_nonfinite || std::isfinite(loss_total);
      if (finite) {
        perf::TraceSpan span("train.backward", "train");
        ag::backward(accum == 1
                         ? loss.total
                         : ag::ops::mul_scalar(
                               loss.total, 1.0f / static_cast<float>(accum)));
        if (cfg_.guard_nonfinite) finite = gradients_finite(params);
      }
    }

    if (cfg_.guard_nonfinite && !finite) {
      // Training guard: drop this step (and the current accumulation
      // window) so NaN/Inf never reaches the weights, and back the LR off
      // for the rest of the run.  The scheduler still advances, keeping
      // the LR trajectory aligned with the planned step count.
      opt_.zero_grad();
      micro = 0;
      backoff_scale_ *= cfg_.lr_backoff;
      ++st.skipped_steps;
      ++skipped_steps_;
      ++global_step_;
      continue;
    }

    if (++micro == accum || step + 1 == plan.size()) {
      perf::TraceSpan span("train.optimizer", "train");
      opt_.step();
      micro = 0;
    }

    st.mean_loss += loss_total;
    st.energy_loss += loss_energy;
    st.force_loss += loss_force;
    st.stress_loss += loss_stress;
    st.magmom_loss += loss_magmom;
    ++st.iterations;
    ++global_step_;
  }
  const double n = std::max<double>(1.0, static_cast<double>(st.iterations));
  st.mean_loss /= n;
  st.energy_loss /= n;
  st.force_loss /= n;
  st.stress_loss /= n;
  st.magmom_loss /= n;
  st.seconds = timer.seconds();
  next_epoch_ = epoch + 1;
  return st;
}

std::vector<EpochStats> Trainer::fit(const data::Dataset& ds,
                                     const std::vector<index_t>& train_idx) {
  std::vector<EpochStats> history;
  for (index_t e = next_epoch_; e < cfg_.epochs; ++e) {
    history.push_back(train_epoch(ds, train_idx, e));
    if (on_epoch) on_epoch(e, history.back());
  }
  return history;
}

std::vector<EpochStats> Trainer::fit(const data::Dataset& ds,
                                     const std::vector<index_t>& train_idx,
                                     const std::vector<index_t>& val_idx,
                                     index_t patience) {
  FASTCHG_CHECK(!val_idx.empty(), "fit: empty validation split");
  std::vector<EpochStats> history;
  double best_score = std::numeric_limits<double>::max();
  index_t since_best = 0;
  std::vector<Tensor> best_weights;
  auto params = net_.parameters();
  for (index_t e = next_epoch_; e < cfg_.epochs; ++e) {
    EpochStats st = train_epoch(ds, train_idx, e);
    EvalMetrics m = evaluate(ds, val_idx);
    st.val_score = cfg_.weights.energy * m.energy_mae_mev_atom +
                   cfg_.weights.force * m.force_mae_mev_a +
                   cfg_.weights.stress * m.stress_mae_gpa +
                   cfg_.weights.magmom * m.magmom_mae_mmub;
    history.push_back(st);
    if (on_epoch) on_epoch(e, history.back());
    // A NaN val_score must count as "no improvement": NaN comparisons are
    // all false, so make the branch explicit rather than relying on the
    // ordering of the two arms.
    const bool improved =
        std::isfinite(st.val_score) && st.val_score < best_score;
    if (improved) {
      best_score = st.val_score;
      since_best = 0;
      best_weights.clear();
      for (const auto& p : params) best_weights.push_back(p.value().clone());
    } else if (++since_best > patience) {
      break;  // early stop
    }
  }
  // Restore the best-validation weights.
  if (!best_weights.empty()) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      Tensor& dst = params[i].node()->value;
      std::copy(best_weights[i].data(),
                best_weights[i].data() + best_weights[i].numel(),
                dst.data());
    }
  }
  return history;
}

EvalMetrics Trainer::evaluate(const data::Dataset& ds,
                              const std::vector<index_t>& idx) const {
  return evaluate_model(net_, ds, idx, cfg_.batch_size);
}

void Trainer::save_checkpoint(const std::string& path) const {
  nn::PayloadWriter w;
  w.put_u64(static_cast<std::uint64_t>(global_step_));
  w.put_u64(static_cast<std::uint64_t>(next_epoch_));
  w.put_f32(backoff_scale_);
  w.put_u64(static_cast<std::uint64_t>(skipped_steps_));
  std::vector<nn::Section> sections;
  sections.push_back({kSectionTrainer, w.take()});
  sections.push_back(adam_section(opt_));
  sections.push_back(atom_ref_section(net_));
  sections.push_back(rng_section(kSectionRng, shuffle_rng_));
  nn::save_parameters(net_, path, sections);
}

void Trainer::resume(const std::string& path) {
  const std::vector<nn::Section> sections = nn::load_checkpoint(net_, path);
  {
    nn::PayloadReader r(require_section(sections, kSectionTrainer).payload);
    global_step_ = static_cast<index_t>(r.get_u64());
    next_epoch_ = static_cast<index_t>(r.get_u64());
    backoff_scale_ = r.get_f32();
    skipped_steps_ = static_cast<index_t>(r.get_u64());
    FASTCHG_CHECK(r.done(), "checkpoint: trainer section has trailing bytes");
  }
  restore_adam(opt_, require_section(sections, kSectionAdam));
  restore_atom_ref(net_, require_section(sections, kSectionAtomRef));
  if (const nn::Section* s = find_section(sections, kSectionRng)) {
    restore_rng(shuffle_rng_, *s);
  }
}

}  // namespace fastchg::train
