// fastchgnet -- command-line interface to the library.
//
//   fastchgnet generate --n 512 --seed 7 --out stats        dataset statistics
//   fastchgnet train    --n 256 --epochs 8 --fast           train + evaluate
//   fastchgnet dp       --devices 8 --fault-plan fail:3@2   data-parallel train
//   fastchgnet md       --crystal LiMnO2 --steps 50         run MD
//   fastchgnet relax    --seed 5                            relax a structure
//   fastchgnet charges  --seed 5                            infer charges
//   fastchgnet serve    --requests 200 --quantize           robust inference
//   fastchgnet trace dp --devices 4 --fault-plan slow:1@2*3#2   span tracing
//   fastchgnet info                                         build/config info
//
// Every subcommand prints human-readable output; flags have sensible
// defaults so `fastchgnet train` alone gives a working demo.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "chgnet/charge.hpp"
#include "chgnet/model.hpp"
#include "core/parallel_for.hpp"
#include "data/generator.hpp"
#include "md/md.hpp"
#include "md/observables.hpp"
#include "md/relax.hpp"
#include "nn/serialize.hpp"
#include "parallel/data_parallel.hpp"
#include "parallel/fault.hpp"
#include "perf/counters.hpp"
#include "perf/report.hpp"
#include "perf/trace.hpp"
#include "serve/engine.hpp"
#include "serve/fuzz.hpp"
#include "train/trainer.hpp"

namespace fastchg::cli {
namespace {

/// Minimal --key value parser; flags without a value store "1".
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = std::string("1");
    }
  }
  return flags;
}

index_t flag_i(const std::map<std::string, std::string>& f,
               const std::string& key, index_t fallback) {
  auto it = f.find(key);
  return it == f.end() ? fallback
                       : static_cast<index_t>(std::stoll(it->second));
}

bool flag_b(const std::map<std::string, std::string>& f,
            const std::string& key) {
  return f.count(key) > 0;
}

model::ModelConfig cli_model_config(
    const std::map<std::string, std::string>& flags) {
  model::ModelConfig cfg = flag_b(flags, "reference")
                               ? model::ModelConfig::reference()
                               : model::ModelConfig::fast();
  cfg.feat_dim = flag_i(flags, "width", 24);
  cfg.num_radial = flag_i(flags, "radial", 11);
  cfg.num_angular = cfg.num_radial;
  cfg.num_layers = flag_i(flags, "layers", 3);
  return cfg;
}

int cmd_info() {
  std::printf("FastCHGNet C++ reproduction\n");
  std::printf("  worker threads : %d (FASTCHG_NUM_THREADS overrides)\n",
              num_threads());
  model::CHGNet fast(model::ModelConfig::fast(), 0);
  model::CHGNet ref(model::ModelConfig::reference(), 0);
  std::printf("  FastCHGNet params (paper dims): %lld\n",
              static_cast<long long>(fast.num_parameters()));
  std::printf("  CHGNet params (paper dims)    : %lld\n",
              static_cast<long long>(ref.num_parameters()));
  std::printf("  see DESIGN.md / EXPERIMENTS.md for the paper mapping\n");
  return 0;
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
  const index_t n = flag_i(flags, "n", 512);
  const auto seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 7));
  std::printf("generating %lld oracle-labelled structures (seed %llu)...\n",
              static_cast<long long>(n),
              static_cast<unsigned long long>(seed));
  data::Dataset ds = data::Dataset::generate(n, seed);
  auto st = ds.distribution(12);
  std::printf("mean atoms %.1f  bonds %.1f  angles %.1f\n", st.mean_atoms,
              st.mean_bonds, st.mean_angles);
  std::printf("max  atoms %lld  bonds %lld  angles %lld (long tail)\n",
              static_cast<long long>(st.max_atoms),
              static_cast<long long>(st.max_bonds),
              static_cast<long long>(st.max_angles));
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  const index_t n = flag_i(flags, "n", 192);
  const auto seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 7));
  data::GeneratorConfig gen;
  gen.num_species = 24;
  data::Dataset ds = data::Dataset::generate(n, seed, gen);
  auto split = ds.split(0.0, 0.1, 1);

  model::CHGNet net(cli_model_config(flags), seed);
  std::printf("model %s, %lld parameters\n", net.config().tag().c_str(),
              static_cast<long long>(net.num_parameters()));
  train::TrainConfig tc;
  tc.batch_size = flag_i(flags, "batch", 16);
  tc.epochs = flag_i(flags, "epochs", 6);
  tc.base_lr = 1e-3f;
  train::Trainer trainer(net, tc);
  if (auto it = flags.find("resume"); it != flags.end()) {
    trainer.resume(it->second);
    std::printf("resumed from %s at epoch %lld (global step %lld)\n",
                it->second.c_str(),
                static_cast<long long>(trainer.next_epoch()),
                static_cast<long long>(trainer.global_step()));
  }
  const index_t ckpt_every = flag_i(flags, "checkpoint-every", 0);
  std::string ckpt_path;
  if (auto it = flags.find("checkpoint"); it != flags.end()) {
    ckpt_path = it->second;
  }
  trainer.on_epoch = [&](index_t e, const train::EpochStats& st) {
    std::printf("epoch %2lld  loss %.4f  (%.1fs)\n",
                static_cast<long long>(e), st.mean_loss, st.seconds);
    if (!ckpt_path.empty() && ckpt_every > 0 && (e + 1) % ckpt_every == 0) {
      trainer.save_checkpoint(ckpt_path);
      std::printf("  checkpoint -> %s\n", ckpt_path.c_str());
    }
  };
  trainer.fit(ds, split.train);
  if (!ckpt_path.empty()) {
    trainer.save_checkpoint(ckpt_path);
    std::printf("checkpoint -> %s\n", ckpt_path.c_str());
  }
  train::EvalMetrics m = trainer.evaluate(ds, split.test);
  std::printf("test MAE: E %.1f meV/atom  F %.1f meV/A  S %.3f GPa  "
              "M %.1f m.muB\n",
              m.energy_mae_mev_atom, m.force_mae_mev_a, m.stress_mae_gpa,
              m.magmom_mae_mmub);
  if (auto it = flags.find("save"); it != flags.end()) {
    nn::save_parameters(net, it->second);
    std::printf("checkpoint saved to %s\n", it->second.c_str());
  }
  return 0;
}

int cmd_dp(const std::map<std::string, std::string>& flags) {
  const index_t n = flag_i(flags, "n", 128);
  const auto seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 7));
  const index_t epochs = flag_i(flags, "epochs", 4);
  data::GeneratorConfig gen;
  gen.num_species = 24;
  data::Dataset ds = data::Dataset::generate(n, seed, gen);
  std::vector<index_t> rows(static_cast<std::size_t>(ds.size()));
  for (index_t i = 0; i < ds.size(); ++i) rows[static_cast<std::size_t>(i)] = i;

  parallel::DataParallelConfig pc;
  pc.num_devices = static_cast<int>(flag_i(flags, "devices", 4));
  pc.global_batch = flag_i(flags, "batch", 8 * pc.num_devices);
  pc.seed = seed;
  if (auto it = flags.find("comm"); it != flags.end()) {
    if (it->second == "flat") {
      pc.comm.hierarchical = false;
    } else if (it->second == "hier") {
      pc.comm.hierarchical = true;
    } else {
      std::fprintf(stderr, "--comm must be 'flat' or 'hier', got '%s'\n",
                   it->second.c_str());
      return 2;
    }
  }
  parallel::DataParallelTrainer dp(cli_model_config(flags), pc, seed);
  std::printf("data-parallel training on %d virtual devices, "
              "global batch %lld, LR %.2e, %s all-reduce\n",
              dp.num_devices(), static_cast<long long>(pc.global_batch),
              dp.effective_lr(),
              pc.comm.hierarchical ? "hierarchical" : "flat");

  parallel::FaultPlan plan;
  if (auto it = flags.find("fault-plan"); it != flags.end()) {
    plan = parallel::parse_fault_plan(it->second);
    std::printf("fault plan: %zu event(s) injected into the first epoch\n",
                plan.events.size());
  }
  index_t start = 0;
  if (auto it = flags.find("resume"); it != flags.end()) {
    start = dp.resume(it->second);
    std::printf("resumed from %s at epoch %lld (%d/%d devices alive)\n",
                it->second.c_str(), static_cast<long long>(start),
                dp.num_alive(), dp.num_devices());
  }
  const index_t ckpt_every = flag_i(flags, "checkpoint-every", 0);
  std::string ckpt_path;
  if (auto it = flags.find("checkpoint"); it != flags.end()) {
    ckpt_path = it->second;
  }
  for (index_t e = start; e < epochs; ++e) {
    const parallel::FaultPlan* faults =
        (e == start && !plan.empty()) ? &plan : nullptr;
    parallel::EpochResult r = dp.train_epoch(ds, rows, e, faults);
    std::printf("epoch %2lld  loss %.4f  sim %.2fs  wall %.1fs  alive %d",
                static_cast<long long>(e), r.mean_loss, r.simulated_seconds,
                r.measured_seconds, dp.num_alive());
    if (!r.failed_devices.empty()) {
      std::printf("  failed:");
      for (int d : r.failed_devices) std::printf(" %d", d);
      std::printf("  recovery %.2fs  new LR %.2e", r.recovery_seconds,
                  dp.effective_lr());
    }
    if (!r.joined_devices.empty()) {
      std::printf("  joined:");
      for (int d : r.joined_devices) std::printf(" %d", d);
      std::printf("  join %.2fs  new LR %.2e", r.join_seconds,
                  dp.effective_lr());
    }
    if (r.skipped_steps > 0) {
      std::printf("  skipped %lld", static_cast<long long>(r.skipped_steps));
    }
    std::printf("\n");
    if (!ckpt_path.empty() && ckpt_every > 0 && (e + 1) % ckpt_every == 0) {
      dp.save_checkpoint(ckpt_path, e + 1);
      std::printf("  checkpoint -> %s\n", ckpt_path.c_str());
    }
  }
  const float divergence = dp.replica_divergence();
  std::printf("replica divergence: %.3g (0 = DDP invariant holds)\n",
              static_cast<double>(divergence));
  if (!ckpt_path.empty()) {
    dp.save_checkpoint(ckpt_path, epochs);
    std::printf("checkpoint -> %s\n", ckpt_path.c_str());
  }
  // Non-zero exit so CI fault-plan runs actually guard the invariant.
  if (divergence != 0.0f) {
    std::fprintf(stderr, "DDP invariant violated: replicas diverged\n");
    return 1;
  }
  return 0;
}

int cmd_md(const std::map<std::string, std::string>& flags) {
  const index_t steps = flag_i(flags, "steps", 50);
  std::string crystal_name = "LiMnO2";
  if (auto it = flags.find("crystal"); it != flags.end()) {
    crystal_name = it->second;
  }
  data::Crystal c = data::make_reference_structure(crystal_name);
  model::CHGNet net(cli_model_config(flags), 42);
  md::MDConfig cfg;
  cfg.dt_fs = 0.25;
  cfg.init_temperature_k = 300.0;
  if (flag_b(flags, "nvt")) {
    cfg.ensemble = md::Ensemble::kNVTLangevin;
    cfg.target_temperature_k =
        static_cast<double>(flag_i(flags, "temperature", 300));
  }
  // Typed-error entry point: a bad structure or a poisoned model is a
  // diagnostic message and exit code, never a crash or a NaN trajectory.
  auto made = md::MDSimulator::create(net, c, cfg);
  if (!made.ok()) {
    std::fprintf(stderr, "md rejected [%s]: %s\n",
                 serve::to_string(made.code()), made.error().message.c_str());
    return 2;
  }
  md::MDSimulator sim = std::move(made).value();
  md::RdfAccumulator rdf(5.0, 20);
  md::MsdTracker msd(sim.crystal());
  std::printf("%8s %12s %12s %10s %10s\n", "step", "E_tot(eV)", "T(K)",
              "MSD(A^2)", "s/step");
  double per_step = 0.0;
  for (index_t done = 0; done < steps; done += 10) {
    auto r = sim.try_step(std::min<index_t>(10, steps - done));
    if (!r.ok()) {
      std::fprintf(stderr, "md aborted [%s]: %s\n",
                   serve::to_string(r.code()), r.error().message.c_str());
      if (sim.last_fault().has_value()) {
        const md::MDFaultSnapshot& s = *sim.last_fault();
        std::fprintf(stderr,
                     "  snapshot: step %lld, dt %.4f fs, |F|max %.3g eV/A, "
                     "T %.1f K\n",
                     static_cast<long long>(s.step), s.dt_fs, s.fmax,
                     s.temperature);
      }
      return 2;
    }
    per_step = r.value();
    rdf.add_snapshot(sim.crystal());
    msd.update(sim.crystal());
    std::printf("%8lld %12.4f %12.1f %10.4f %10.4f\n",
                static_cast<long long>(sim.steps_taken()),
                sim.total_energy(), sim.temperature(), msd.msd(), per_step);
  }
  std::printf("g(r) peak: ");
  auto g = rdf.g();
  std::size_t best = 0;
  for (std::size_t b = 1; b < g.size(); ++b) {
    if (g[b] > g[best]) best = b;
  }
  std::printf("r = %.2f A (g = %.2f)\n", rdf.r_centers()[best], g[best]);
  return 0;
}

int cmd_relax(const std::map<std::string, std::string>& flags) {
  const auto seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 5));
  Rng rng(seed);
  data::GeneratorConfig gen;
  gen.min_atoms = 4;
  gen.max_atoms = 10;
  data::Crystal c = data::random_crystal(rng, gen);
  model::CHGNet net(cli_model_config(flags), 42);
  md::RelaxConfig rc;
  rc.max_steps = flag_i(flags, "steps", 60);
  auto r = md::try_relax(net, c, rc);
  if (!r.ok()) {
    std::fprintf(stderr, "relax failed [%s]: %s\n",
                 serve::to_string(r.code()), r.error().message.c_str());
    return 2;
  }
  const md::RelaxResult& res = r.value();
  std::printf("relaxed %lld atoms in %lld steps: E %.4f -> %.4f eV, "
              "|F|max %.3f -> %.3f eV/A (%s)\n",
              static_cast<long long>(c.natoms()),
              static_cast<long long>(res.steps), res.initial_energy,
              res.final_energy, res.initial_fmax, res.final_fmax,
              res.converged    ? "converged"
              : res.oscillating ? "stopped: oscillating"
                                : "not converged");
  return 0;
}

int cmd_serve(const std::map<std::string, std::string>& flags) {
  const index_t requests = flag_i(flags, "requests", 200);
  const auto seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 5));
  model::CHGNet net(cli_model_config(flags), 42);

  serve::EngineConfig cfg;
  cfg.quantize = flag_b(flags, "quantize");
  cfg.strict = flag_b(flags, "strict");
  cfg.default_deadline_ms =
      static_cast<double>(flag_i(flags, "deadline-ms", 1000000));
  cfg.max_batch = flag_i(flags, "max-batch", 8);
  cfg.batch_workers = static_cast<int>(flag_i(flags, "batch-workers", 1));

  parallel::FaultPlan plan;
  if (auto it = flags.find("fault-plan"); it != flags.end()) {
    plan = parallel::parse_fault_plan(it->second);
  }
  serve::InferenceEngine eng(net, cfg);
  if (!plan.empty()) {
    eng.set_fault_plan(&plan);
    std::printf("fault plan: %zu transient event(s) over the request "
                "stream\n", plan.events.size());
  }
  if (cfg.quantize) {
    const model::QuantizationReport& q = eng.quantization_report();
    std::printf("serving int8 replica (max |err| %.2e, %lld non-finite "
                "weight(s) clamped), fp32 retained for fallback\n",
                q.max_abs_error, static_cast<long long>(q.nonfinite));
  }

  Rng rng(seed);
  data::GeneratorConfig gen;
  gen.min_atoms = 2;
  gen.max_atoms = 12;
  std::map<std::string, index_t> outcomes;
  const auto record = [&](const serve::Result<serve::Prediction>& r) {
    ++outcomes[r.ok() ? (r.value().degraded ? "served (degraded)" : "served")
                      : serve::to_string(r.code())];
  };
  // Requests flow through the queued micro-batched pipeline: submit until a
  // full tick is queued, then drain (fused forward of up to max-batch
  // structures, bisection fault isolation).
  const auto tick =
      static_cast<std::size_t>(std::max<index_t>(1, cfg.max_batch));
  for (index_t i = 0; i < requests; ++i) {
    data::Crystal c;
    (void)serve::fuzz_crystal(rng, c, 0.3, gen);
    auto ticket = eng.submit(std::move(c));
    if (!ticket.ok()) {
      ++outcomes[serve::to_string(ticket.code())];
      continue;
    }
    if (eng.queue_depth() >= tick) {
      for (const auto& r : eng.drain()) record(r);
    }
  }
  for (const auto& r : eng.drain()) record(r);
  std::printf("%lld fuzzed requests (30%% corrupted):\n",
              static_cast<long long>(requests));
  for (const auto& [k, n] : outcomes) {
    std::printf("  %-18s %6lld\n", k.c_str(), static_cast<long long>(n));
  }
  const serve::EngineStats& st = eng.stats();
  std::printf("stats: served %llu  invalid %llu  numeric %llu  timeout %llu"
              "  overloaded %llu  retries %llu  degraded %llu\n",
              static_cast<unsigned long long>(st.served),
              static_cast<unsigned long long>(st.rejected_invalid),
              static_cast<unsigned long long>(st.numeric_faults),
              static_cast<unsigned long long>(st.timeouts),
              static_cast<unsigned long long>(st.overloaded),
              static_cast<unsigned long long>(st.retries),
              static_cast<unsigned long long>(st.degraded));
  std::printf("recovery events: retry %llu  fp32_fallback %llu\n",
              static_cast<unsigned long long>(
                  perf::event_count("serve.retry")),
              static_cast<unsigned long long>(
                  perf::event_count("serve.fp32_fallback")));
  std::printf("batching: micro-batches %llu  bisections %llu  isolated "
              "faults %llu\n",
              static_cast<unsigned long long>(st.micro_batches),
              static_cast<unsigned long long>(st.bisections),
              static_cast<unsigned long long>(st.isolated_faults));
  return 0;
}

int cmd_charges(const std::map<std::string, std::string>& flags) {
  const auto seed = static_cast<std::uint64_t>(flag_i(flags, "seed", 5));
  Rng rng(seed);
  data::GeneratorConfig gen;
  gen.min_atoms = 6;
  gen.max_atoms = 10;
  data::Crystal c = data::random_crystal(rng, gen);
  data::Oracle oracle;
  oracle.label(c);
  auto res = model::infer_charges(c.species, c.magmom);
  std::printf("%6s %8s %10s %10s\n", "atom", "Z", "magmom", "oxidation");
  for (index_t i = 0; i < c.natoms(); ++i) {
    std::printf("%6lld %8lld %10.3f %+10d\n", static_cast<long long>(i),
                static_cast<long long>(c.species[i]), c.magmom[i],
                res.oxidation[i]);
  }
  std::printf("total charge %+d (%s), assignment penalty %.3f mu_B\n",
              res.total_charge, res.neutral ? "neutral" : "not neutral",
              res.penalty);
  return 0;
}

/// `fastchgnet trace <train|dp|serve|md> [--flags]`: run the target
/// subcommand with the span tracer on, then write a Chrome trace_event JSON
/// (open in chrome://tracing or Perfetto) and print the per-phase summary.
/// `--trace-out PATH` overrides the default `trace_<target>.json`; the
/// target's own flags pass through unchanged.
int cmd_trace(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: fastchgnet trace <train|dp|serve|md> [--flags]\n");
    return 1;
  }
  const std::string target = argv[2];
  auto flags = parse_flags(argc, argv, 3);
  perf::trace_enable(static_cast<std::size_t>(
      flag_i(flags, "trace-capacity",
             static_cast<index_t>(perf::Trace::kDefaultCapacity))));
  int rc;
  if (target == "train") {
    rc = cmd_train(flags);
  } else if (target == "dp") {
    rc = cmd_dp(flags);
  } else if (target == "md") {
    rc = cmd_md(flags);
  } else if (target == "serve") {
    rc = cmd_serve(flags);
  } else {
    std::fprintf(stderr, "trace: unknown target '%s' "
                 "(expected train, dp, serve or md)\n", target.c_str());
    perf::trace_disable();
    return 1;
  }

  const std::vector<perf::TraceEvent> events = perf::trace_events();
  std::string out = "trace_" + target + ".json";
  if (auto it = flags.find("trace-out"); it != flags.end()) out = it->second;
  perf::write_chrome_trace(out, events);
  std::printf("\n%s", perf::summary_table(perf::summarize(events)).c_str());
  std::printf("chrome trace -> %s (%zu spans", out.c_str(), events.size());
  if (perf::Trace::instance().dropped() > 0) {
    std::printf(", %llu dropped -- raise --trace-capacity",
                static_cast<unsigned long long>(
                    perf::Trace::instance().dropped()));
  }
  std::printf(")\n");
  perf::trace_disable();
  return rc;
}

int usage() {
  std::printf(
      "usage: fastchgnet <command> [--flags]\n"
      "  info                          build and model info\n"
      "  generate --n N --seed S       dataset statistics\n"
      "  train --n N --epochs E [--reference] [--save PATH]\n"
      "        [--checkpoint PATH --checkpoint-every K] [--resume PATH]\n"
      "  dp --devices D --epochs E [--fault-plan \"fail:3@2,join:3@6\"]\n"
      "        [--comm flat|hier] (all-reduce cost model, default hier)\n"
      "        [--checkpoint PATH --checkpoint-every K] [--resume PATH]\n"
      "  md --crystal NAME --steps N [--nvt --temperature T]\n"
      "  relax --seed S --steps N\n"
      "  charges --seed S              infer oxidation states from magmoms\n"
      "  serve --requests N [--quantize --strict --deadline-ms D]\n"
      "        [--max-batch B --batch-workers W]\n"
      "        [--fault-plan \"fail:0@3\"]   fuzzed robust-inference demo\n"
      "  trace <train|dp|serve|md> [--trace-out PATH] [target flags]\n"
      "        run the target with span tracing on; writes a Chrome trace\n");
  return 1;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  auto flags = parse_flags(argc, argv, 2);
  try {
    if (cmd == "info") return cmd_info();
    if (cmd == "generate") return cmd_generate(flags);
    if (cmd == "train") return cmd_train(flags);
    if (cmd == "dp") return cmd_dp(flags);
    if (cmd == "md") return cmd_md(flags);
    if (cmd == "relax") return cmd_relax(flags);
    if (cmd == "charges") return cmd_charges(flags);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "trace") return cmd_trace(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // Last-ditch guard (bad flag values, std::stoll, allocation): report
    // and exit instead of aborting with an uncaught exception.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}

}  // namespace
}  // namespace fastchg::cli

int main(int argc, char** argv) { return fastchg::cli::run(argc, argv); }
