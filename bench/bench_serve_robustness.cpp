// Serving-layer robustness under fire (ISSUE acceptance bench): >= 1000
// fuzzed inference requests plus watchdog-supervised MD, all driven under a
// seeded parallel::FaultPlan.  The bar is zero crashes and zero silent NaN:
// every reply is either a finite prediction or a typed ServeError, and the
// recovery machinery reports how often each rung fired.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "md/md.hpp"
#include "parallel/fault.hpp"
#include "perf/counters.hpp"
#include "perf/timer.hpp"
#include "serve/engine.hpp"
#include "serve/fuzz.hpp"

namespace fastchg::bench {
namespace {

const char* code_name(serve::ErrorCode c) { return serve::to_string(c); }

int run(int argc, char** argv) {
  using namespace serve;
  BenchOptions opt = parse_options(argc, argv);
  BenchRecorder rec("serve_robustness", argc, argv);
  print_header("Serving robustness",
               "fuzzed + fault-injected requests, typed errors only");

  const int requests = opt.full ? 4000 : 1000;
  model::ModelConfig mcfg = bench_model_config(3, opt);
  model::CHGNet net(mcfg, 17);

  EngineConfig cfg;
  cfg.graph = bench_graph_config(opt);
  cfg.base_latency_ms = 0.05;
  cfg.default_deadline_ms = 1e6;
  InferenceEngine eng(net, cfg);

  // Seeded fault schedule over the request stream: ~3% transient device
  // faults, ~2% stragglers.  Identical seed -> identical run.
  const parallel::FaultPlan plan = parallel::FaultPlan::random(
      /*seed=*/99, /*num_devices=*/1, /*iterations=*/requests,
      /*failure_prob=*/0.03, /*straggler_prob=*/0.02);
  eng.set_fault_plan(&plan);
  perf::reset_events();

  Rng rng(4242);
  data::GeneratorConfig gen;
  gen.min_atoms = 2;
  gen.max_atoms = opt.full ? 24 : 12;

  std::map<Corruption, int> sent;
  std::map<ErrorCode, int> errors;
  int ok = 0, retried_ok = 0;
  bool silent_nan = false, untyped = false;
  perf::Timer wall;
  for (int i = 0; i < requests; ++i) {
    data::Crystal c;
    const Corruption kind = fuzz_crystal(rng, c, 0.4, gen);
    ++sent[kind];
    try {
      auto r = eng.predict(c);
      if (r.ok()) {
        ++ok;
        const Prediction& p = r.value();
        if (p.retries > 0) ++retried_ok;
        bool finite = std::isfinite(p.energy);
        for (const auto& f : p.forces) {
          for (int d = 0; d < 3; ++d) finite = finite && std::isfinite(f[d]);
        }
        if (!finite) silent_nan = true;
      } else {
        ++errors[r.code()];
      }
    } catch (...) {
      untyped = true;  // a throw escaping predict() is a failed bar
    }
  }
  const double wall_s = wall.seconds();

  std::printf("\n%d requests in %.2f s (%.2f ms/req, corruption rate 40%%)\n",
              requests, wall_s, 1e3 * wall_s / requests);
  std::printf("\nrequest mix:\n");
  for (const auto& [kind, n] : sent) {
    std::printf("  %-18s %6d\n", to_string(kind), n);
  }
  std::printf("\noutcomes:\n");
  std::printf("  %-18s %6d  (%d after retries)\n", "served", ok, retried_ok);
  for (const auto& [code, n] : errors) {
    std::printf("  %-18s %6d\n", code_name(code), n);
  }

  const EngineStats& st = eng.stats();
  std::printf("\nengine stats: submitted %llu served %llu invalid %llu "
              "numeric %llu timeout %llu overloaded %llu retries %llu\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.served),
              static_cast<unsigned long long>(st.rejected_invalid),
              static_cast<unsigned long long>(st.numeric_faults),
              static_cast<unsigned long long>(st.timeouts),
              static_cast<unsigned long long>(st.overloaded),
              static_cast<unsigned long long>(st.retries));

  // -- MD watchdog under an aggressive timestep: the dt-halving ladder must
  //    keep the trajectory alive (or abort with a typed snapshot), never
  //    crash or emit NaN state.
  print_rule();
  std::printf("MD watchdog: 16-step NVE at dt = 8x nominal, drift-bounded\n");
  Rng md_rng(7);
  data::GeneratorConfig md_gen;
  md_gen.min_atoms = 4;
  md_gen.max_atoms = 8;
  int md_ok = 0, md_abort = 0;
  bool md_nan = false;
  const int md_runs = opt.full ? 16 : 8;
  for (int i = 0; i < md_runs; ++i) {
    md::MDConfig mc;
    mc.dt_fs = 8.0;
    mc.graph = cfg.graph;
    mc.init_temperature_k = 300.0;
    mc.max_drift_ev_per_atom = 0.05;
    mc.max_dt_halvings = 6;
    mc.seed = static_cast<std::uint64_t>(i);
    auto made = md::MDSimulator::create(
        net, data::random_crystal(md_rng, md_gen), mc);
    if (!made.ok()) continue;
    md::MDSimulator sim = std::move(made).value();
    auto r = sim.try_step(16);
    if (r.ok()) ++md_ok; else ++md_abort;
    if (!std::isfinite(sim.total_energy())) md_nan = true;
  }
  std::printf("  trajectories: %d completed, %d typed aborts, dt halvings "
              "%llu\n", md_ok, md_abort,
              static_cast<unsigned long long>(
                  perf::event_count("md.dt_halved")));

  // -- Micro-batched serving: the pipeline at max_batch=8 must reproduce
  //    the single-request path's (max_batch=1) replies within 1e-10 on a
  //    stream of distinct fresh crystals.  The speedup is reported, not
  //    gated: wall time is host-dependent, and batching amortisation is
  //    gated deterministically by bench_serve_batching's
  //    fused_over_single.kernel_ratio.
  print_rule();
  std::printf("micro-batched serving: batched pipeline vs single-request\n");
  const int batch_requests = opt.full ? 512 : 256;
  Rng brng(808);
  std::vector<data::Crystal> stream;
  stream.reserve(static_cast<std::size_t>(batch_requests));
  for (int i = 0; i < batch_requests; ++i) {
    stream.push_back(data::random_crystal(brng, gen));
  }

  EngineConfig base_cfg;
  base_cfg.graph = cfg.graph;
  base_cfg.queue_capacity = 8;
  EngineConfig single_cfg = base_cfg;
  single_cfg.max_batch = 1;  // one request per drain tick
  EngineConfig fused_cfg = base_cfg;
  fused_cfg.max_batch = 8;

  const auto pump = [&](InferenceEngine& e) {
    std::vector<Prediction> out;
    out.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size();) {
      for (std::size_t j = 0; j < 8 && i < stream.size(); ++j, ++i) {
        (void)e.submit(stream[i]);
      }
      for (auto& r : e.drain()) out.push_back(std::move(r).value());
    }
    return out;
  };

  InferenceEngine single_eng(net, single_cfg);
  perf::Timer single_wall;
  const std::vector<Prediction> single_out = pump(single_eng);
  const double single_s = single_wall.seconds();

  InferenceEngine fused_eng(net, fused_cfg);
  perf::Timer fused_wall;
  const std::vector<Prediction> fused_out = pump(fused_eng);
  const double fused_s = fused_wall.seconds();

  double max_diff = 0.0;
  for (std::size_t i = 0; i < single_out.size(); ++i) {
    const Prediction& a = single_out[i];
    const Prediction& b = fused_out[i];
    max_diff = std::max(max_diff, std::fabs(a.energy - b.energy));
    for (std::size_t k = 0; k < a.forces.size(); ++k) {
      for (int d = 0; d < 3; ++d) {
        max_diff = std::max(max_diff, std::fabs(a.forces[k][d] - b.forces[k][d]));
      }
    }
    for (int r = 0; r < 3; ++r) {
      for (int c2 = 0; c2 < 3; ++c2) {
        max_diff = std::max(max_diff, std::fabs(a.stress[r][c2] - b.stress[r][c2]));
      }
    }
    for (std::size_t k = 0; k < a.magmom.size(); ++k) {
      max_diff = std::max(max_diff, std::fabs(a.magmom[k] - b.magmom[k]));
    }
  }
  const double speedup = single_s / fused_s;
  std::printf("  single-request  %6.1f req/s (%.2f ms/req)\n",
              batch_requests / single_s, 1e3 * single_s / batch_requests);
  std::printf("  batched (8)     %6.1f req/s (%.2f ms/req)  %.2fx  "
              "[%llu micro-batches]\n",
              batch_requests / fused_s, 1e3 * fused_s / batch_requests,
              speedup,
              static_cast<unsigned long long>(
                  fused_eng.stats().micro_batches));
  std::printf("  per-request max |batched - single| = %.3e (bar: 1e-10)\n",
              max_diff);
  const bool batch_pass =
      max_diff <= 1e-10 && single_out.size() == fused_out.size();

  // -- Fuzzed stream through the batched queue: the bisection machinery
  //    must keep every reply typed while batches carry corrupted requests.
  print_rule();
  std::printf("fuzzed stream through the micro-batched queue\n");
  InferenceEngine fz_eng(net, fused_cfg);
  fz_eng.set_fault_plan(&plan);
  Rng fz_rng(909);
  const int fz_requests = opt.full ? 1000 : 400;
  int fz_replies = 0, fz_ok = 0;
  bool fz_untyped = false;
  for (int i = 0; i < fz_requests && !fz_untyped;) {
    try {
      for (int j = 0; j < 8 && i < fz_requests; ++j, ++i) {
        data::Crystal c;
        (void)fuzz_crystal(fz_rng, c, 0.4, gen);
        (void)fz_eng.submit(std::move(c));
      }
      for (const auto& r : fz_eng.drain()) {
        ++fz_replies;
        if (r.ok()) ++fz_ok;
      }
    } catch (...) {
      fz_untyped = true;
    }
  }
  std::printf("  %d fuzzed requests -> %d typed replies (%d served); "
              "bisections %llu, isolated faults %llu\n",
              fz_requests, fz_replies, fz_ok,
              static_cast<unsigned long long>(fz_eng.stats().bisections),
              static_cast<unsigned long long>(fz_eng.stats().isolated_faults));

  // -- Poisoned model: corrupt the served weights in place (as a bad
  //    weight transfer would) and keep serving.  Nothing is left to fall
  //    back to, so every valid request must get a typed kNumericFault:
  //    none served, no silent NaN, nothing thrown.  Runs last because it
  //    ruins `net` for the sections above.
  print_rule();
  std::printf("poisoned model: every valid request must fail typed\n");
  eng.set_fault_plan(nullptr);
  for (auto& [name, p] : net.named_parameters()) {
    p.node()->value.fill_(std::numeric_limits<float>::quiet_NaN());
  }
  int poisoned_faults = 0, hard_failures = 0;
  const int poisoned_requests = 25;
  for (int i = 0; i < poisoned_requests; ++i) {
    data::Crystal c = data::random_crystal(rng, gen);
    try {
      auto r = eng.predict(c);
      if (!r.ok() && r.code() == ErrorCode::kNumericFault) {
        ++poisoned_faults;
      } else if (r.ok() || r.code() != ErrorCode::kInvalidInput) {
        ++hard_failures;  // served from NaN weights, or the wrong code
      }
    } catch (...) {
      ++hard_failures;
    }
  }
  std::printf("  %d/%d replies typed numeric_fault (%d hard failures)\n",
              poisoned_faults, poisoned_requests, hard_failures);

  print_rule();
  std::printf("recovery event counters:\n");
  for (const char* ev : {"serve.retry", "md.dt_halved", "md.watchdog_abort",
                         "md.verlet_fallback"}) {
    std::printf("  %-22s %llu\n", ev,
                static_cast<unsigned long long>(perf::event_count(ev)));
  }

  const bool pass = !untyped && !silent_nan && !md_nan &&
                    poisoned_faults > 0 && hard_failures == 0 &&
                    batch_pass && !fz_untyped;
  std::printf("\n[shape %s] zero crashes, zero silent NaN across %d fuzzed "
              "requests + %d MD trajectories; fused batching %.2fx "
              "at max diff %.1e (bar: 1e-10)\n",
              pass ? "OK" : "MISMATCH", requests, md_runs, speedup, max_diff);
  rec.metric("per_request.seconds", wall_s / requests);
  rec.metric("hard_failures", static_cast<double>(hard_failures));
  rec.metric("silent_nan", silent_nan ? 1.0 : 0.0);
  rec.metric("untyped_throws", untyped ? 1.0 : 0.0);
  rec.metric("batched.per_request.seconds", fused_s / batch_requests);
  // Lower is better: batched wall over single wall and the equivalence gap.
  rec.metric("batched_over_single.ratio", fused_s / single_s);
  rec.metric("batched.equiv.max_abs_diff", max_diff);
  rec.finish();
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace fastchg::bench

int main(int argc, char** argv) { return fastchg::bench::run(argc, argv); }
