// bench_e2e: end-to-end benchmark of the FastCHGNet reproduction.
//
//   bench_e2e --workload <train|dp|md|serve> [--seed N] [--seconds S]
//             [--trace [0|1]] [--allow-env]
//
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// ones; both run the workload's correctness checks, write
// e2e_<workload>.json into the working directory and end stdout with one
// JSON line {"correct", "attempted", "failed", "metrics"}.  Exit status:
// 0 measured (even when a check failed: the JSON line says so), 1 harness
// error, 2 usage error or a FASTCHG_* override without --allow-env.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/error.hpp"
#include "core/parallel_for.hpp"
#include "harness.hpp"
#include "ops/dispatch.hpp"
#include "workloads.hpp"

namespace {

using fastchg::e2e::Options;

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload <train|dp|md|serve> "
               "[--seed N] [--seconds S] [--trace [0|1]] [--allow-env]\n",
               msg);
  return 2;
}

bool parse(int argc, char** argv, Options* opt, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    const std::string v = has_value ? argv[i + 1] : "";
    try {
      if (a == "--workload" && has_value) {
        opt->workload = v;
        ++i;
      } else if (a == "--seed" && has_value) {
        opt->seed = std::stoull(v);
        ++i;
      } else if (a == "--seconds" && has_value) {
        opt->seconds = std::stod(v);
        ++i;
      } else if (a == "--trace") {
        opt->trace = !has_value || v != "0";
        if (has_value) ++i;
      } else if (a == "--allow-env") {
        opt->allow_env = true;
      } else {
        *err = "unexpected argument '" + a + "'";
        return false;
      }
    } catch (const std::exception&) {
      *err = "bad value '" + v + "' for " + a;
      return false;
    }
  }
  bool known = false;
  for (const std::string& w : fastchg::e2e::workload_names()) known |= w == opt->workload;
  if (!known) {
    *err = "--workload must be one of train, dp, md, serve";
    return false;
  }
  if (!(opt->seconds > 0.0 && opt->seconds <= 600.0)) {
    *err = "--seconds must be in (0, 600]";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fastchg;
  Options opt;
  std::string err;
  if (!parse(argc, argv, &opt, &err)) return usage(err.c_str());

  // Parent and change must both measure the default program.
  const std::vector<std::string> env = e2e::guarded_env_set();
  if (!env.empty() && !opt.allow_env) {
    std::string names;
    for (const std::string& n : env) names += " " + n;
    return usage(("FASTCHG_* override set without --allow-env:" + names).c_str());
  }

  e2e::Report rep(opt);
  rep.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.info("num_threads", std::to_string(num_threads()));
  rep.info("simd_tier", ops::tier_name(ops::active_tier()));
  rep.info("llc_bytes", std::to_string(e2e::llc_bytes()));
  for (const std::string& n : e2e::guarded_env()) {
    const char* v = std::getenv(n.c_str());
    rep.info(n, v ? v : "(unset)");
  }
  std::printf("bench_e2e workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%d simd=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, num_threads(),
              ops::tier_name(ops::active_tier()));
  try {
    e2e::run_workload(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return rep.finish() ? 0 : 1;
}
