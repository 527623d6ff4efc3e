// Shared machinery of the end-to-end benchmark: the metric dictionary,
// order statistics, the seeded arrival schedule, the run report and the
// run-configuration record.  Nothing here calls into the model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace fastchg::e2e {

/// One metric of the benchmark contract (BENCHMARK.json).
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, printed by every untraced run (same order as
/// BENCHMARK.json's "end_to_end").
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, printed by every traced run (same order as
/// BENCHMARK.json's "per_layer").
const std::vector<MetricSpec>& per_layer_metrics();
/// The walk's layers, in CHGNet::forward order.
const std::vector<std::string>& walk_layers();

/// The four workloads.
const std::vector<std::string>& workload_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool allow_env = false;
};

// -- order statistics ------------------------------------------------------

/// Percentile by linear interpolation between closest ranks:
/// rank = q * (n - 1) over the sorted sample (q in [0, 1]).  0 when empty.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// -- workload generation -----------------------------------------------------

/// Open-loop Poisson arrival times (seconds from t = 0, ascending) at
/// `rate_per_s` over [0, horizon_s).  Exponential gaps drawn from `rng`, so
/// the schedule is a pure function of the generator's seed.
std::vector<double> poisson_schedule(Rng& rng, double rate_per_s,
                                     double horizon_s);

// -- run configuration -------------------------------------------------------

/// The FASTCHG_* switches that select a non-default program.
const std::vector<std::string>& guarded_env();
/// Names of guarded variables set in this process's environment.
std::vector<std::string> guarded_env_set();

/// Peak resident set size of this process, MiB.
double peak_rss_mib();
/// Last-level cache size in bytes (0 when the C library cannot tell).
std::uint64_t llc_bytes();

// -- reporting ---------------------------------------------------------------

/// Everything one run measured.  `metrics` holds the contract metrics;
/// `detail` holds workload-specific numbers that only go to the artifact.
class Report {
 public:
  explicit Report(const Options& opt);

  void metric(const std::string& name, double value);
  void detail(const std::string& name, double value);
  void info(const std::string& key, const std::string& value);

  /// Count `n` attempted operations of which `failed` failed.
  void attempt(std::uint64_t n, std::uint64_t failed = 0);
  /// A correctness check; a failed check counts one failed attempt.
  void check(const std::string& what, bool ok);

  bool correct() const { return failed_ == 0 && checks_failed_ == 0; }

  /// Print the human-readable table to stdout, write e2e_<workload>.json
  /// into the working directory, and print the one-line JSON result last.
  /// Returns false (and prints nothing else) when a contract metric is
  /// missing.
  bool finish() const;

 private:
  Options opt_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> detail_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// Run `fn` `n` times and return the median wall seconds.
double median_seconds(int n, const std::function<void()>& fn);

}  // namespace fastchg::e2e
