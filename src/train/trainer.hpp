// Single-device trainer: mini-batch loop, Adam, cosine annealing, optional
// Eq.-14 LR scaling, per-epoch loss/metric tracking, non-finite training
// guards, and full-state checkpoint / resume.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "core/alloc.hpp"
#include "perf/counters.hpp"
#include "train/adam.hpp"
#include "train/atom_ref.hpp"
#include "train/loss.hpp"
#include "train/metrics.hpp"
#include "train/scheduler.hpp"

namespace fastchg::train {

struct TrainConfig {
  index_t batch_size = 32;
  index_t epochs = 10;
  float base_lr = 3e-4f;
  bool scale_lr = false;   ///< apply Eq. 14 with lr_k
  index_t lr_k = 128;
  float min_lr = 1e-5f;
  LossWeights weights;
  float huber_delta = 0.1f;
  std::uint64_t shuffle_seed = 42;
  /// Fit CHGNet's AtomRef composition baseline on the training rows before
  /// the first epoch (strongly recommended; see atom_ref.hpp).
  bool fit_atom_ref = true;
  /// Collate the next mini-batch on a background thread while the current
  /// one trains (the paper's "Data Prefetch" optimization).
  bool prefetch = true;
  /// Gradient accumulation: each optimizer step averages the gradients of
  /// this many consecutive mini-batches (large-batch training on a memory
  /// budget; 1 = off).
  index_t accumulation_steps = 1;
  /// Training guard: when a step produces a non-finite loss or gradient,
  /// skip the optimizer update (so NaN/Inf never reaches the weights) and
  /// multiply the effective LR by `lr_backoff` for the rest of the run.
  bool guard_nonfinite = true;
  float lr_backoff = 0.5f;
};

struct EpochStats {
  double mean_loss = 0.0;
  double energy_loss = 0.0;
  double force_loss = 0.0;
  double stress_loss = 0.0;
  double magmom_loss = 0.0;
  double seconds = 0.0;
  index_t iterations = 0;
  /// Steps the non-finite guard skipped (loss or gradient NaN/Inf).
  index_t skipped_steps = 0;
  /// Weighted validation loss (energy+force+stress+magmom MAEs, loss
  /// weights applied); NaN when fit() ran without a validation split.
  double val_score = std::numeric_limits<double>::quiet_NaN();
};

class Trainer {
 public:
  Trainer(model::CHGNet& net, const TrainConfig& cfg);

  /// Train on the given dataset rows; returns per-epoch stats.  After a
  /// resume() this continues from the checkpointed epoch up to cfg.epochs.
  std::vector<EpochStats> fit(const data::Dataset& ds,
                              const std::vector<index_t>& train_idx);

  /// Train with validation-based early stopping: stops after `patience`
  /// epochs without val_score improvement and restores the best weights.
  /// A non-finite val_score counts as "no improvement".
  std::vector<EpochStats> fit(const data::Dataset& ds,
                              const std::vector<index_t>& train_idx,
                              const std::vector<index_t>& val_idx,
                              index_t patience);

  /// One epoch (exposed for the benchmarks' fine-grained control).
  EpochStats train_epoch(const data::Dataset& ds,
                         const std::vector<index_t>& train_idx,
                         index_t epoch);

  EvalMetrics evaluate(const data::Dataset& ds,
                       const std::vector<index_t>& idx) const;

  /// Full-state checkpoint: weights, AtomRef, Adam moments, global step,
  /// epoch position, guard state, and the data-order RNG stream.  Written
  /// atomically (temp file + rename).  resume() restores all of it so
  /// continuing the run is bit-identical to never having stopped.
  void save_checkpoint(const std::string& path) const;
  void resume(const std::string& path);

  /// Effective initial LR after optional Eq.-14 scaling.
  float initial_lr() const { return init_lr_; }
  Adam& optimizer() { return opt_; }
  /// The next epoch fit() would run (0 on a fresh trainer; restored by
  /// resume()).
  index_t next_epoch() const { return next_epoch_; }
  /// Scheduler steps taken so far (restored by resume()).
  index_t global_step() const { return global_step_; }
  /// Cumulative LR multiplier applied by the non-finite guard (1 = never
  /// triggered).
  float lr_backoff_scale() const { return backoff_scale_; }
  /// Total steps skipped by the guard across all epochs.
  index_t skipped_steps() const { return skipped_steps_; }

  /// Always-empty replay statistics (see perf::ReplayCacheStub).
  perf::ReplayCacheStub replay_cache() const { return {}; }

  /// Optional per-epoch callback (epoch index, stats).
  std::function<void(index_t, const EpochStats&)> on_epoch;

 private:
  model::CHGNet& net_;
  TrainConfig cfg_;
  float init_lr_;
  Adam opt_;
  index_t global_step_ = 0;
  index_t next_epoch_ = 0;
  float backoff_scale_ = 1.0f;
  index_t skipped_steps_ = 0;
  Rng shuffle_rng_{0};  ///< data-order stream; reseeded per epoch
  /// Step arena: every step's graph (activations, Nodes, gradients) is
  /// allocated here and recycled on teardown, so after the first step's
  /// warm-up a steady-state step touches the system allocator ~zero times
  /// (see docs/memory.md; asserted by bench_memory_arena).
  alloc::AllocatorPtr step_pool_ = std::make_shared<alloc::PoolAllocator>();
};

/// True when every accumulated gradient of `params` is finite (params
/// without a gradient are ignored).
bool gradients_finite(const std::vector<ag::Var>& params);

}  // namespace fastchg::train
