// Fig. 10 -- Strong and weak scaling of FastCHGNet on the virtual cluster.
//
// Paper (strong, global batch 2048, baseline 4 GPUs):
//   8 GPUs: 1.65x speedup (82.5% eff), 16: 3.18x (79.5%), 32: 5.26x (66%).
// Paper (weak, 512 samples/GPU): efficiencies 91.5% / 84.6% / 74.6%.
//
// Method (DESIGN.md Sec. 2): price each device's shard by the load-balance
// sampler's workload measure (atoms + bonds + angles, parallel::
// sample_workloads) at one shared per-unit cost, set so one 4-GPU iteration
// over 2048 samples costs ~1.25 s (the A100 figure implied by the paper's
// epoch times), then simulate the exact shard assignments + ring all-reduce
// + straggler model.  Nothing is timed, so the report is the same on every
// run and host.
//
// Beyond the paper: the sweep continues to 64-256 virtual devices under
// both the flat and the two-level hierarchical all-reduce, tracking the
// load-balance sampler's CoV and the per-phase comm breakdown, and reports
// where the comm model says scaling dies (efficiency < 50%).
#include "bench_common.hpp"

#include <algorithm>

#include "parallel/scaling.hpp"

namespace fastchg::bench {
namespace {

void print_points(const char* title,
                  const std::vector<parallel::ScalingPoint>& pts,
                  const double paper_speedup[], const double paper_eff[]) {
  print_rule();
  std::printf("%s\n", title);
  std::printf("%8s %14s %10s %12s | %12s %12s\n", "GPUs", "epoch(s)",
              "speedup", "efficiency", "paper spd", "paper eff");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::printf("%8d %14.1f %9.2fx %11.1f%% | %11.2fx %11.1f%%\n",
                pts[i].devices, pts[i].epoch_seconds, pts[i].speedup,
                100.0 * pts[i].efficiency, paper_speedup[i],
                100.0 * paper_eff[i]);
  }
}

void print_extended(const char* title,
                    const std::vector<parallel::ScalingPoint>& hier,
                    const std::vector<parallel::ScalingPoint>& flat) {
  print_rule();
  std::printf("%s\n", title);
  std::printf("%8s %12s %10s %8s %8s | %10s %10s %10s | %10s\n", "GPUs",
              "epoch(s)", "eff", "comm%", "CoV", "rs(us)", "ring(us)",
              "bcast(us)", "flat/hier");
  for (std::size_t i = 0; i < hier.size(); ++i) {
    const auto& h = hier[i];
    const double ratio =
        flat[i].epoch_seconds / std::max(h.epoch_seconds, 1e-30);
    std::printf("%8d %12.1f %9.1f%% %7.1f%% %8.3f | %10.1f %10.1f %10.1f "
                "| %9.3fx\n",
                h.devices, h.epoch_seconds, 100.0 * h.efficiency,
                100.0 * h.comm_fraction, h.load_cov,
                1e6 * h.reduce_scatter_s, 1e6 * h.leader_ring_s,
                1e6 * h.broadcast_s, ratio);
  }
}

int run(int argc, char** argv) {
  using namespace parallel;
  BenchOptions opt = parse_options(argc, argv);
  BenchRecorder rec("fig10_scaling", argc, argv);
  print_header("Fig. 10", "strong & weak scaling on the virtual cluster");

  // 1. Large synthetic workload set (one epoch's worth of global batches).
  //    Weak scaling at 32 devices needs >= 32 * per_device_batch samples;
  //    quick mode scales the per-device batch down to keep generation fast.
  const index_t pool = opt.full ? 16384 : 4096;
  data::Dataset ds = bench_dataset(pool, 1002, opt);
  const model::CHGNet net(bench_model_config(3, opt), 3);
  const std::uint64_t model_bytes = tensor_bytes(net.num_parameters());

  // 2. Price a sample by the sampler's workload measure, scaled to
  //    A100-equivalent: the paper's epoch times imply ~1.25 s per
  //    2048-sample iteration on 4 A100s.
  ScalingConfig cfg;
  cfg.strong_global_batch = 2048;
  cfg.weak_per_device_batch = opt.full ? 512 : 128;
  CostModel cm;
  cm.per_atom = cm.per_bond = cm.per_angle = 1.0;
  {
    ScalingConfig probe = cfg;
    probe.straggler_sigma = 0.0;
    probe.device_counts = {4};
    const double units = strong_scaling(cm, ds, model_bytes, probe)[0]
                             .iter_seconds;
    cm.per_atom = cm.per_bond = cm.per_angle = 1.25 / units;
    std::printf("unit price: 4-device iteration %.4g workload units -> "
                "A100-equiv 1.25 s (%.3e s per atom, bond or angle)\n",
                units, cm.per_atom);
  }

  auto strong = strong_scaling(cm, ds, model_bytes, cfg);
  const double paper_strong_spd[] = {1.0, 1.65, 3.18, 5.26};
  const double paper_strong_eff[] = {1.0, 0.825, 0.795, 0.66};
  print_points("(a) strong scaling, global batch 2048", strong,
               paper_strong_spd, paper_strong_eff);

  auto weak = weak_scaling(cm, ds, model_bytes, cfg);
  const double paper_weak_spd[] = {1.0, 0.915, 0.846, 0.746};
  const double paper_weak_eff[] = {1.0, 0.915, 0.846, 0.746};
  const std::string weak_title =
      "(b) weak scaling, " + std::to_string(cfg.weak_per_device_batch) +
      " samples/GPU (paper: 512)";
  print_points(weak_title.c_str(), weak, paper_weak_spd, paper_weak_eff);

  // 3. Beyond the paper: 64-256 virtual devices, hierarchical vs flat.
  ScalingConfig xcfg = cfg;
  xcfg.device_counts = {4, 8, 16, 32, 64, 128, 256};
  auto xstrong = strong_scaling(cm, ds, model_bytes, xcfg);
  ScalingConfig xflat = xcfg;
  xflat.comm.hierarchical = false;
  auto xstrong_flat = strong_scaling(cm, ds, model_bytes, xflat);
  print_extended("(c) extended strong scaling, two-level all-reduce "
                 "(flat/hier = epoch-time ratio under the flat ring)",
                 xstrong, xstrong_flat);

  // Weak scaling past 32 devices needs per-device batch small enough that
  // 256 * batch fits the sample pool.
  ScalingConfig wcfg = xcfg;
  wcfg.weak_per_device_batch = opt.full ? 64 : 16;
  wcfg.device_counts = {32, 64, 128, 256};
  auto xweak = weak_scaling(cm, ds, model_bytes, wcfg);
  ScalingConfig wflat = wcfg;
  wflat.comm.hierarchical = false;
  auto xweak_flat = weak_scaling(cm, ds, model_bytes, wflat);
  print_extended("(d) extended weak scaling (efficiency relative to 32 "
                 "devices)",
                 xweak, xweak_flat);

  // Where does the comm model say scaling dies?  First extended-strong
  // point under 50% efficiency: per-device compute shrinks ~1/P while the
  // exposed per-bucket latency term keeps growing with the leader-ring
  // hops, so past this point adding devices buys almost nothing.
  int death = 0;
  for (const auto& p : xstrong) {
    if (p.efficiency < 0.5) {
      death = p.devices;
      break;
    }
  }
  print_rule();
  if (death > 0) {
    std::printf("scaling death (strong eff < 50%%): %d devices\n", death);
  } else {
    std::printf("scaling death (strong eff < 50%%): not reached by %d "
                "devices\n",
                xcfg.device_counts.back());
  }

  // Every row below is a pure function of the dataset, the sampler, the
  // ledger and CommConfig, so perf_gate holds it to the tight tolerance.
  const auto record_epochs = [&](const std::string& prefix,
                                 const std::vector<ScalingPoint>& pts,
                                 int min_devices) {
    for (const auto& p : pts) {
      if (p.devices < min_devices) continue;
      rec.metric(prefix + ".gpus" + std::to_string(p.devices) +
                     ".epoch.simulated_s",
                 p.epoch_seconds);
    }
  };
  record_epochs("strong", strong, 0);
  record_epochs("weak", weak, 0);
  record_epochs("strongx", xstrong, 64);
  record_epochs("weakx", xweak, 0);
  for (std::size_t i = 0; i < xstrong.size(); ++i) {
    const auto& h = xstrong[i];
    if (h.devices < 32) continue;
    const std::string tag = "gpus" + std::to_string(h.devices);
    rec.metric("comm.hier." + tag + ".us",
               1e6 * (h.comm_bandwidth_s + h.comm_latency_s));
    rec.metric("comm.flat." + tag + ".us",
               1e6 * (xstrong_flat[i].comm_bandwidth_s +
                      xstrong_flat[i].comm_latency_s));
  }
  const auto& top = xstrong.back();
  rec.metric("comm.hier.gpus256.reduce_scatter.us",
             1e6 * top.reduce_scatter_s);
  rec.metric("comm.hier.gpus256.leader_ring.us", 1e6 * top.leader_ring_s);
  rec.metric("comm.hier.gpus256.broadcast.us", 1e6 * top.broadcast_s);

  // Load-balance sampler quality (per-device workload CoV) at 64 and 256.
  for (const auto& p : xstrong) {
    if (p.devices == 64 || p.devices == 256) {
      rec.metric("cov.loadbalance.gpus" + std::to_string(p.devices),
                 p.load_cov);
    }
  }

  print_rule();
  bool shape_ok = true;
  for (std::size_t i = 1; i < strong.size(); ++i) {
    shape_ok = shape_ok && strong[i].speedup > strong[i - 1].speedup;
    shape_ok = shape_ok &&
               strong[i].speedup <
                   static_cast<double>(strong[i].devices) / 4.0;  // sublinear
  }
  shape_ok = shape_ok && strong.back().efficiency < strong[1].efficiency;
  shape_ok = shape_ok && weak.back().efficiency < 1.0;
  // Extended-sweep invariants: the two-level schedule must beat the flat
  // ring once the ring spans nodes, and by a growing margin.
  for (std::size_t i = 0; i < xstrong.size(); ++i) {
    if (xstrong[i].devices <= 4) continue;
    shape_ok =
        shape_ok && xstrong_flat[i].epoch_seconds > xstrong[i].epoch_seconds;
  }
  std::printf("[shape %s] monotone sub-linear strong speedup with decaying "
              "efficiency; weak efficiency below 100%%; hierarchical beats "
              "flat past one node\n",
              shape_ok ? "OK" : "MISMATCH");
  rec.finish();
  return shape_ok ? 0 : 1;
}

}  // namespace
}  // namespace fastchg::bench

int main(int argc, char** argv) { return fastchg::bench::run(argc, argv); }
