#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "perf/timer.hpp"

namespace fastchg::e2e {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"throughput", "1/s"},
      {"latency_ms", "ms"},
  };
  return m;
}

const std::vector<std::string>& walk_layers() {
  static const std::vector<std::string> l = {
      "basis",         "embed",         "interaction.0", "interaction.1",
      "interaction.2", "readout",       "loss"};
  return l;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = [] {
    std::vector<MetricSpec> out;
    for (const std::string& layer : walk_layers()) {
      out.push_back({layer + ".fwd_ms", "ms"});
      out.push_back({layer + ".bwd_ms", "ms"});
      out.push_back({layer + ".kernels", "count"});
      out.push_back({layer + ".bwd_kernels", "count"});
    }
    const std::vector<MetricSpec> rest = {
        {"model.fwd_ms", "ms"},
        {"model.bwd_ms", "ms"},
        {"model.eval_ms", "ms"},
        {"optim.step_ms", "ms"},
        {"data.graph_ms", "ms"},
        {"data.collate_ms", "ms"},
        {"alloc.system_allocs_per_step", "count"},
        {"ops.kernels_per_step", "count"},
        {"replay.hit_rate", "ratio"},
        {"fuse.kernel_frac", "ratio"},
        {"ops.gemm_gflops", "GFLOP/s"},
        {"ops.triad_gbs", "GB/s"},
        {"trace.overhead_frac", "ratio"},
        {"trace.walk_ratio", "ratio"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
  }();
  return m;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> w = {"train", "dp", "md", "serve"};
  return w;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::vector<double> poisson_schedule(Rng& rng, double rate_per_s,
                                     double horizon_s) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(rate_per_s * horizon_s * 1.1) + 16);
  double now = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    now += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (now >= horizon_s) break;
    t.push_back(now);
  }
  return t;
}

const std::vector<std::string>& guarded_env() {
  static const std::vector<std::string> e = {
      "FASTCHG_ALLOC", "FASTCHG_REPLAY", "FASTCHG_FUSE", "FASTCHG_SIMD",
      "FASTCHG_NUM_THREADS"};
  return e;
}

std::vector<std::string> guarded_env_set() {
  std::vector<std::string> set;
  for (const std::string& name : guarded_env()) {
    if (std::getenv(name.c_str()) != nullptr) set.push_back(name);
  }
  return set;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t llc_bytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 0;
}

double median_seconds(int n, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    perf::Timer timer;
    fn();
    t.push_back(timer.seconds());
  }
  return median(t);
}

// -- Report --------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Full-precision JSON number (non-finite values become null).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Report::Report(const Options& opt) : opt_(opt) {}

void Report::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::detail(const std::string& name, double value) {
  detail_[name] = value;
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::attempt(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::check(const std::string& what, bool ok) {
  checks_.emplace_back(what, ok);
  ++attempted_;
  if (!ok) ++checks_failed_;
}

bool Report::finish() const {
  const std::vector<MetricSpec>& specs =
      opt_.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& s : specs) {
    if (metrics_.count(s.name) == 0) {
      std::fprintf(stderr, "error: metric %s was not measured\n",
                   s.name.c_str());
      return false;
    }
  }

  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const MetricSpec& s : specs) {
    std::printf("%-34s %16.6g  %s\n", s.name.c_str(), metrics_.at(s.name),
                s.unit.c_str());
  }
  if (!detail_.empty()) {
    std::printf("\n%-34s %16s\n", "detail (artifact only)", "value");
    for (const auto& [k, v] : detail_) {
      std::printf("%-34s %16.6g\n", k.c_str(), v);
    }
  }
  std::printf("\n");
  for (const auto& [what, ok] : checks_) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  }

  std::string metrics_json;
  for (const MetricSpec& s : specs) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + s.name + "\": {\"value\": " +
                    json_number(metrics_.at(s.name)) + ", \"unit\": \"" +
                    s.unit + "\"}";
  }
  const std::uint64_t failed = failed_ + checks_failed_;
  const std::string head = "{\"correct\": " +
                           std::string(correct() ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(attempted_) +
                           ", \"failed\": " + std::to_string(failed);

  const std::string path = "e2e_" + opt_.workload + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s,\n \"workload\": \"%s\", \"seed\": %llu, "
                    "\"seconds\": %s, \"trace\": %s,\n \"metrics\": {%s},\n",
                 head.c_str(), json_escape(opt_.workload).c_str(),
                 static_cast<unsigned long long>(opt_.seed),
                 json_number(opt_.seconds).c_str(),
                 opt_.trace ? "true" : "false", metrics_json.c_str());
    std::fprintf(f, " \"detail\": {");
    bool first = true;
    for (const auto& [k, v] : detail_) {
      std::fprintf(f, "%s\"%s\": %s", first ? "" : ", ",
                   json_escape(k).c_str(), json_number(v).c_str());
      first = false;
    }
    std::fprintf(f, "},\n \"config\": {");
    first = true;
    for (const auto& [k, v] : info_) {
      std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ",
                   json_escape(k).c_str(), json_escape(v).c_str());
      first = false;
    }
    std::fprintf(f, "},\n \"checks\": [");
    first = true;
    for (const auto& [what, ok] : checks_) {
      std::fprintf(f, "%s{\"check\": \"%s\", \"ok\": %s}", first ? "" : ", ",
                   json_escape(what).c_str(), ok ? "true" : "false");
      first = false;
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("artifact -> %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }

  std::printf("%s, \"metrics\": {%s}}\n", head.c_str(), metrics_json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace fastchg::e2e
