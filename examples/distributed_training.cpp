// Distributed-training example: FastCHGNet on a 4-device virtual cluster
// with the load-balance sampler, gradient all-reduce, Eq.-14 LR scaling,
// communication overlap and prefetch -- the full multi-GPU recipe of the
// paper, at laptop scale.
//
//   $ ./examples/distributed_training
#include <cstdio>

#include "parallel/data_parallel.hpp"

int main() {
  using namespace fastchg;

  data::Dataset ds = data::Dataset::generate(128, 21);
  std::vector<index_t> rows;
  for (index_t i = 0; i < ds.size(); ++i) rows.push_back(i);

  model::ModelConfig mcfg = model::ModelConfig::fast();
  mcfg.feat_dim = 16;
  mcfg.num_radial = 9;
  mcfg.num_angular = 9;
  mcfg.num_layers = 2;

  for (const bool balanced : {false, true}) {
    parallel::DataParallelConfig cfg;
    cfg.num_devices = 4;
    cfg.global_batch = 32;
    cfg.load_balance = balanced;
    cfg.scale_lr = true;  // Eq. 14 on the global batch
    parallel::DataParallelTrainer dp(mcfg, cfg, /*model_seed=*/5);
    std::printf("\n=== %s sampler (4 virtual GPUs, global batch 32, "
                "LR %.2e) ===\n",
                balanced ? "load-balance" : "default", dp.effective_lr());
    for (index_t epoch = 0; epoch < 2; ++epoch) {
      parallel::EpochResult res = dp.train_epoch(ds, rows, epoch);
      double worst_skew = 0.0;
      for (const auto& it : res.iterations) {
        const double mean =
            std::accumulate(it.device_compute_s.begin(),
                            it.device_compute_s.end(), 0.0) /
            it.device_compute_s.size();
        worst_skew = std::max(worst_skew, it.max_compute_s / mean);
      }
      std::printf("epoch %lld: loss %.4f | simulated step time %.3fs/iter, "
                  "worst compute skew %.2fx\n",
                  static_cast<long long>(epoch), res.mean_loss,
                  res.simulated_seconds / res.iterations.size(), worst_skew);
    }
  }
  std::printf("\nThe load-balance sampler should show a smaller worst "
              "compute skew (paper Fig. 9: CoV 0.186 -> 0.064).\n");
  return 0;
}
