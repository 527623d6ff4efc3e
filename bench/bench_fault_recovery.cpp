// Fault tolerance -- checkpoint overhead and elastic-recovery cost on the
// virtual cluster.  No paper figure maps 1:1 here; the reference points are
// the paper's scale claims (32 GPUs, 1.5 h wall): at that scale a failure
// per epoch is routine, so recovery must cost iterations, not the run.
//
// Part 1 measures full-state checkpoint save/resume latency and file size.
// Part 2 sweeps device failures (kill 0/1/2/4 of 8 mid-epoch) and reports
// the simulated epoch time, the recovery surcharge, and the rescaled LR.
#include "bench_common.hpp"

#include <cmath>
#include <filesystem>

#include "parallel/data_parallel.hpp"
#include "parallel/fault.hpp"
#include "perf/timer.hpp"
#include "train/trainer.hpp"

namespace fastchg::bench {
namespace {

int run(int argc, char** argv) {
  using namespace parallel;
  BenchOptions opt = parse_options(argc, argv);
  BenchRecorder rec("fault_recovery", argc, argv);
  print_header("Fault recovery",
               "checkpoint overhead + elastic recovery cost, 8 devices");

  const index_t n = opt.full ? 512 : 128;
  data::Dataset ds = bench_dataset(n, 515, opt);
  std::vector<index_t> rows(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) rows[static_cast<std::size_t>(i)] = i;
  model::ModelConfig mcfg = bench_model_config(3, opt);

  // -- Part 1: checkpoint save / resume latency vs one epoch of training.
  model::CHGNet net(mcfg, 1);
  train::TrainConfig tc;
  tc.batch_size = 16;
  tc.epochs = 2;
  train::Trainer trainer(net, tc);
  const train::EpochStats ep = trainer.train_epoch(ds, rows, 0);

  const std::string path =
      (std::filesystem::temp_directory_path() / "fastchg_bench_ckpt.bin")
          .string();
  constexpr int kReps = 10;
  perf::Timer t_save;
  for (int r = 0; r < kReps; ++r) trainer.save_checkpoint(path);
  const double save_s = t_save.seconds() / kReps;
  const auto file_bytes = std::filesystem::file_size(path);

  model::CHGNet net2(mcfg, 2);
  train::Trainer restored(net2, tc);
  perf::Timer t_load;
  for (int r = 0; r < kReps; ++r) restored.resume(path);
  const double load_s = t_load.seconds() / kReps;
  std::filesystem::remove(path);

  std::printf("\nfull-state checkpoint (weights + Adam moments + RNG):\n");
  std::printf("  file size        : %.2f MiB (%lld params)\n",
              static_cast<double>(file_bytes) / (1024.0 * 1024.0),
              static_cast<long long>(net.num_parameters()));
  std::printf("  save latency     : %.2f ms (atomic tmp+rename)\n",
              1e3 * save_s);
  std::printf("  resume latency   : %.2f ms\n", 1e3 * load_s);
  std::printf("  one train epoch  : %.2f s -> save every epoch costs "
              "%.3f%% overhead\n",
              ep.seconds, 100.0 * save_s / std::max(1e-9, ep.seconds));
  rec.metric("checkpoint.save.seconds", save_s);
  rec.metric("checkpoint.resume.seconds", load_s);
  rec.metric("checkpoint.file_bytes", static_cast<double>(file_bytes));

  // -- Part 2: elastic recovery. Kill k of 8 devices mid-epoch and compare
  //    the simulated epoch cost against the failure-free run.
  print_rule();
  std::printf("elastic recovery, 8 virtual devices, global batch 32:\n");
  std::printf("%8s %10s %12s %12s %10s\n", "killed", "alive",
              "sim epoch(s)", "recovery(s)", "LR");
  double baseline_s = 0.0;
  bool shape_ok = true;
  for (int kills : {0, 1, 2, 4}) {
    DataParallelConfig pc;
    pc.num_devices = 8;
    pc.global_batch = 32;
    pc.scale_lr = true;
    DataParallelTrainer dp(mcfg, pc, 3);
    std::string spec;
    for (int k = 0; k < kills; ++k) {
      // Correlated failure (a host with 2*k+1 odd-numbered devices dies)
      // after the first iteration.
      if (!spec.empty()) spec += ",";
      spec += "fail:" + std::to_string(2 * k + 1) + "@1";
    }
    const FaultPlan plan =
        spec.empty() ? FaultPlan{} : parse_fault_plan(spec);
    const EpochResult r =
        dp.train_epoch(ds, rows, 0, plan.empty() ? nullptr : &plan);
    if (kills == 0) baseline_s = r.simulated_seconds;
    std::printf("%8d %10d %12.3f %12.2e %10.2e\n", kills, dp.num_alive(),
                r.simulated_seconds, r.recovery_seconds,
                static_cast<double>(dp.effective_lr()));
    shape_ok = shape_ok && dp.num_alive() == 8 - kills &&
               std::isfinite(r.mean_loss) &&
               (kills == 0 || r.recovery_seconds > 0.0);
    const std::string key = "kills" + std::to_string(kills);
    rec.metric(key + ".sim_epoch.seconds", r.simulated_seconds);
    rec.metric(key + ".recovery.seconds", r.recovery_seconds);
  }

  print_rule();
  std::printf("baseline epoch %.3f s; failures add recovery cost but the "
              "epoch always completes on the survivors\n", baseline_s);
  std::printf("[shape %s] kills shrink the ring, training stays finite,"
              " recovery is charged\n", shape_ok ? "OK" : "MISMATCH");
  rec.finish();
  return shape_ok ? 0 : 1;
}

}  // namespace
}  // namespace fastchg::bench

int main(int argc, char** argv) { return fastchg::bench::run(argc, argv); }
