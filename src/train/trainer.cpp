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

StepLoss train_step(const model::CHGNet& net, const data::Batch& b,
                    float grad_scale) {
  model::ModelOutput out;
  LossResult loss;
  {
    perf::TraceSpan span("train.forward", "train");
    out = net.forward(b, model::ForwardMode::kTrain);
    loss = chgnet_loss(out, b);
  }
  StepLoss s{loss.total.item(), loss.energy, loss.force, loss.stress,
             loss.magmom};
  // A non-finite loss skips backward: its gradients would be garbage.
  s.finite = std::isfinite(s.total);
  if (s.finite) {
    perf::TraceSpan span("train.backward", "train");
    ag::backward(grad_scale == 1.0f
                     ? loss.total
                     : ag::ops::mul_scalar(loss.total, grad_scale));
  }
  return s;
}

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
      opt_(net.parameters(), init_lr_) {}

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
  Rng(cfg_.shuffle_seed + static_cast<std::uint64_t>(epoch)).shuffle(order);

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
  // The epoch stats as they stood when the open accumulation window began:
  // a guard trip drops the window's gradients, so it drops the losses the
  // window already counted too.
  EpochStats window_start;
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

    opt_.set_lr(sched.lr_at(global_step_) * guard_.backoff_scale);
    if (micro == 0) {
      opt_.zero_grad();
      window_start = st;
    }

    // A finite loss can still produce non-finite gradients.
    const StepLoss loss =
        train_step(net_, b, 1.0f / static_cast<float>(accum));
    if (!loss.finite || !gradients_finite(params)) {
      // Training guard: drop this step (and the current accumulation
      // window, losses included) so NaN/Inf never reaches the weights, and
      // back the LR off for the rest of the run.  The scheduler still
      // advances, keeping the LR trajectory aligned with the planned step
      // count.
      opt_.zero_grad();
      micro = 0;
      guard_.trip();
      const index_t skipped = st.skipped_steps + 1;
      st = window_start;
      st.skipped_steps = skipped;
      ++global_step_;
      continue;
    }

    if (++micro == accum || step + 1 == plan.size()) {
      perf::TraceSpan span("train.optimizer", "train");
      opt_.step();
      micro = 0;
    }

    st.mean_loss += loss.total;
    st.energy_loss += loss.energy;
    st.force_loss += loss.force;
    st.stress_loss += loss.stress;
    st.magmom_loss += loss.magmom;
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
  constexpr LossWeights w;
  for (index_t e = next_epoch_; e < cfg_.epochs; ++e) {
    EpochStats st = train_epoch(ds, train_idx, e);
    EvalMetrics m = evaluate(ds, val_idx);
    st.val_score = w.energy * m.energy_mae_mev_atom +
                   w.force * m.force_mae_mev_a +
                   w.stress * m.stress_mae_gpa +
                   w.magmom * m.magmom_mae_mmub;
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
  put_guard(w, guard_);
  std::vector<nn::Section> sections;
  sections.push_back({kSectionTrainer, w.take()});
  sections.push_back(adam_section(opt_));
  sections.push_back(atom_ref_section(net_));
  nn::save_parameters(net_, path, sections);
}

void Trainer::resume(const std::string& path) {
  const std::vector<nn::Section> sections = nn::load_checkpoint(net_, path);
  {
    nn::PayloadReader r(require_section(sections, kSectionTrainer).payload);
    global_step_ = static_cast<index_t>(r.get_u64());
    next_epoch_ = static_cast<index_t>(r.get_u64());
    guard_ = get_guard(r);
    FASTCHG_CHECK(r.done(), "checkpoint: trainer section has trailing bytes");
  }
  restore_adam(opt_, require_section(sections, kSectionAdam));
  restore_atom_ref(net_, require_section(sections, kSectionAtomRef));
}

}  // namespace fastchg::train
