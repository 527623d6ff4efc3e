// Micro-batched serving perf fixture (perf-gate wired): a fixed seeded
// stream of valid crystals served two ways --
//
//   single : max_batch=1, one forward per request (the baseline the paper's
//            batching argument is made against)
//   fused  : max_batch=8, disjoint-union forwards (Alg. 2 batched basis +
//            packed GEMMs amortize per-forward dispatch)
//
// Kernel-launch counts are deterministic (fixed seeds) and gate
// at the tight tolerance; wall-clock metrics use the
// ".seconds" suffix for the loose tolerance.  tools/perf_gate compares the
// emitted BENCH_trace_serve_batching.json against
// bench/baselines/BENCH_trace_serve_batching.json in CI.
#include "bench_common.hpp"

#include <vector>

#include "data/generator.hpp"
#include "perf/timer.hpp"
#include "serve/engine.hpp"

namespace fastchg::bench {
namespace {

int run(int argc, char** argv) {
  using namespace serve;
  BenchOptions opt = parse_options(argc, argv);
  BenchRecorder rec("serve_batching", argc, argv);
  print_header("Serving micro-batch perf",
               "fused forwards vs single-request serving");

  const int requests = opt.full ? 256 : 96;
  model::CHGNet net(bench_model_config(3, opt), 17);

  Rng rng(4321);
  data::GeneratorConfig gen;
  gen.min_atoms = 2;
  gen.max_atoms = opt.full ? 24 : 12;
  std::vector<data::Crystal> stream;
  stream.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    stream.push_back(data::random_crystal(rng, gen));
  }

  EngineConfig base;
  base.graph = bench_graph_config(opt);
  base.queue_capacity = 8;

  struct Mode {
    const char* name;
    index_t max_batch;
  };
  const Mode modes[] = {
      {"single", 1},
      {"fused", 8},
  };

  std::printf("\n%-8s %10s %14s %12s\n", "mode", "req/s", "kernels/req",
              "peak MiB");
  double single_kernels_per_req = 0.0, fused_kernels_per_req = 0.0;
  for (const Mode& m : modes) {
    EngineConfig cfg = base;
    cfg.max_batch = m.max_batch;
    InferenceEngine eng(net, cfg);

    reset_counters();
    perf::Timer wall;
    std::size_t served = 0;
    for (std::size_t i = 0; i < stream.size();) {
      for (std::size_t j = 0; j < 8 && i < stream.size(); ++j, ++i) {
        (void)eng.submit(stream[i]);
      }
      for (const auto& r : eng.drain()) served += r.ok() ? 1 : 0;
    }
    const double secs = wall.seconds();
    const perf::Counters snap = perf::counters().snapshot();
    const std::size_t total = stream.size();
    FASTCHG_CHECK(served == total, m.name << " served " << served << "/"
                                          << total);

    const double kernels_per_req =
        static_cast<double>(snap.kernel_launches) / static_cast<double>(total);
    if (std::string(m.name) == "single") single_kernels_per_req = kernels_per_req;
    if (std::string(m.name) == "fused") fused_kernels_per_req = kernels_per_req;
    std::printf("%-8s %10.1f %14.1f %12.2f\n", m.name, total / secs,
                kernels_per_req,
                static_cast<double>(snap.bytes_peak) / (1024.0 * 1024.0));

    const std::string p(m.name);
    rec.metric(p + ".per_request.seconds", secs / static_cast<double>(total));
    rec.metric(p + ".kernels_per_request", kernels_per_req);
    rec.metric(p + ".peak_bytes", static_cast<double>(snap.bytes_peak));
  }

  // Deterministic amortization ratio (kernel launches, not wall time): the
  // paper's Fig. 8b argument applied to serving.  Lower is better; ~1/8 of
  // the single-request count when fusion amortizes perfectly.
  rec.metric("fused_over_single.kernel_ratio",
             fused_kernels_per_req / single_kernels_per_req);
  rec.finish();
  return 0;
}

}  // namespace
}  // namespace fastchg::bench

int main(int argc, char** argv) { return fastchg::bench::run(argc, argv); }
