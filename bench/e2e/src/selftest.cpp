// Self-test of the benchmark harness (ctest -L e2e): the arrival schedule,
// the percentile rule, the metric dictionary against BENCHMARK.json, and
// the layer walk against CHGNet::forward.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "data/batch.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "harness.hpp"
#include "layer_walk.hpp"
#include "perf/counters.hpp"
#include "train/loss.hpp"

namespace {

using namespace fastchg;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? " ok " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_poisson_schedule() {
  const double rate = 300.0, horizon = 200.0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng a(seed), b(seed);
    const std::vector<double> s1 = e2e::poisson_schedule(a, rate, horizon);
    const std::vector<double> s2 = e2e::poisson_schedule(b, rate, horizon);
    expect(s1 == s2, "poisson schedule is a pure function of seed " +
                         std::to_string(seed));
    const double mean_rate = static_cast<double>(s1.size()) / horizon;
    expect(std::fabs(mean_rate / rate - 1.0) <= 0.02,
           "poisson mean rate " + std::to_string(mean_rate) + " within 2% of " +
               std::to_string(rate));
    bool sorted = true;
    for (std::size_t i = 1; i < s1.size(); ++i) sorted &= s1[i] >= s1[i - 1];
    expect(sorted && !s1.empty() && s1.front() >= 0.0 && s1.back() < horizon,
           "poisson arrivals ascending inside [0, horizon)");
  }
  Rng a(1), b(2);
  expect(e2e::poisson_schedule(a, rate, 10.0) != e2e::poisson_schedule(b, rate, 10.0),
         "different seeds give different schedules");
}

void test_percentile() {
  using e2e::percentile;
  const std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  expect(percentile(v, 0.0) == 1.0 && percentile(v, 1.0) == 5.0,
         "percentile end points are min and max");
  expect(percentile(v, 0.5) == 3.0 && e2e::median(v) == 3.0, "median of 1..5 is 3");
  expect(percentile(v, 0.25) == 2.0, "p25 of 1..5 is 2 (rank q*(n-1))");
  expect(std::fabs(percentile({1, 2}, 0.5) - 1.5) < 1e-12,
         "percentile interpolates between closest ranks");
  std::vector<double> h(101);
  for (int i = 0; i <= 100; ++i) h[static_cast<std::size_t>(i)] = i;
  expect(percentile(h, 0.99) == 99.0 && percentile(h, 0.9) == 90.0,
         "p90/p99 of 0..100 are 90/99");
  expect(percentile({}, 0.5) == 0.0, "percentile of an empty sample is 0");
}

struct JsonMetric {
  std::string name, unit;
};

/// The {"name", "unit"} objects of BENCHMARK.json's array `key`.
std::vector<JsonMetric> json_metrics(const std::string& text, const std::string& key) {
  std::vector<JsonMetric> out;
  const std::size_t k = text.find("\"" + key + "\"");
  if (k == std::string::npos) return out;
  const std::size_t open = text.find('[', k);
  const std::size_t close = text.find(']', open);
  const std::string body = text.substr(open, close - open);
  const std::regex obj(R"(\{[^}]*\})");
  const std::regex name(R"re("name"\s*:\s*"([^"]*)")re");
  const std::regex unit(R"re("unit"\s*:\s*"([^"]*)")re");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), obj);
       it != std::sregex_iterator(); ++it) {
    const std::string o = it->str();
    std::smatch n, u;
    JsonMetric m;
    if (std::regex_search(o, n, name)) m.name = n[1];
    if (std::regex_search(o, u, unit)) m.unit = u[1];
    out.push_back(m);
  }
  return out;
}

void compare(const std::vector<e2e::MetricSpec>& code,
             const std::vector<JsonMetric>& json, const std::string& key) {
  bool same = code.size() == json.size();
  for (std::size_t i = 0; same && i < code.size(); ++i) {
    same = code[i].name == json[i].name && code[i].unit == json[i].unit;
  }
  expect(same, key + ": " + std::to_string(code.size()) +
                   " metrics in the harness match BENCHMARK.json (" +
                   std::to_string(json.size()) + ") in name, unit and order");
  const std::regex ok_name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  bool names_ok = true;
  for (const e2e::MetricSpec& m : code) names_ok &= std::regex_match(m.name, ok_name);
  expect(names_ok, key + ": metric names match [A-Za-z0-9_.-]+");
}

void test_metric_names() {
  std::ifstream f(FASTCHG_E2E_BENCHMARK_JSON);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  expect(!text.empty(), std::string("read ") + FASTCHG_E2E_BENCHMARK_JSON);
  compare(e2e::end_to_end_metrics(), json_metrics(text, "end_to_end"), "end_to_end");
  compare(e2e::per_layer_metrics(), json_metrics(text, "per_layer"), "per_layer");
  const std::vector<JsonMetric> w = json_metrics(text, "workloads");
  bool same = w.size() == e2e::workload_names().size();
  for (std::size_t i = 0; same && i < w.size(); ++i) {
    same = w[i].name == e2e::workload_names()[i];
  }
  expect(same, "workloads match BENCHMARK.json");
  expect(e2e::per_layer_metrics().size() <= 128, "at most 128 per-layer metrics");
}

void test_layer_walk() {
  model::ModelConfig cfg = model::ModelConfig::optimization_stage(3);
  cfg.feat_dim = 16;
  cfg.num_radial = 9;
  cfg.num_angular = 9;
  cfg.atom_cutoff = 5.0;
  cfg.bond_cutoff = 2.5;
  data::GraphConfig gc;
  gc.atom_cutoff = 5.0;
  gc.bond_cutoff = 2.5;
  data::GeneratorConfig g;
  g.num_species = 24;
  g.max_atoms = 12;
  Rng rng(5);
  std::vector<data::Crystal> cs;
  for (int i = 0; i < 11; ++i) cs.push_back(data::random_crystal(rng, g));
  // One atom in a 4 A cube: its nearest images are beyond the 2.5 A bond
  // cutoff, so it has edges but no angles (the mixed-batch mask path).
  data::Crystal lone;
  lone.lattice = {{{4.0, 0.0, 0.0}, {0.0, 4.0, 0.0}, {0.0, 0.0, 4.0}}};
  lone.frac = {{0.0, 0.0, 0.0}};
  lone.species = {3};
  cs.insert(cs.begin() + 3, lone);
  const data::Dataset ds = data::Dataset::from_crystals(std::move(cs), gc);
  bool has_angle_free = false;
  for (index_t i = 0; i < ds.size(); ++i) has_angle_free |= ds[i].graph.num_angles() == 0;

  const std::uint64_t seed = 11;
  const model::CHGNet net(cfg, seed);
  const e2e::LayerWalk walk(cfg, seed);
  std::vector<index_t> all;
  for (index_t i = 0; i < ds.size(); ++i) all.push_back(i);
  for (const std::vector<index_t>& rows : {std::vector<index_t>{0}, all}) {
    const data::Batch b = data::collate_indices(ds, rows);
    const double d = e2e::max_abs_diff(walk.forward(b),
                                       net.forward(b, model::ForwardMode::kTrain));
    expect(d <= 1e-5, "layer walk equals CHGNet::forward on " +
                          std::to_string(rows.size()) + " structure(s): max |diff| " +
                          std::to_string(d));
  }
  expect(has_angle_free, "walk test batch mixes angle-free structures in");

  const data::Batch b = data::collate_indices(ds, all);
  const auto cost = walk.profile(b);
  bool complete = cost.size() == e2e::walk_layers().size();
  for (const auto& [layer, c] : cost) {
    complete &= c.fwd_ms > 0.0 && c.bwd_ms > 0.0 && c.kernels > 0.0 && c.bwd_kernels > 0.0;
  }
  expect(complete, "profile times and counts every layer's forward and backward");

  // Kernel counts are exact, so they check the walk's coverage: its
  // forward kernels sum to the model's forward + loss, and its backward
  // kernels to the model's backward plus at most 3 per projected output (a
  // backward through an unused branch would add dozens).
  double walk_fwd = 0.0, walk_bwd = 0.0, projected = 0.0;
  for (const auto& [layer, c] : cost) {
    walk_fwd += c.kernels;
    walk_bwd += c.bwd_kernels;
    projected += c.projected;
  }
  const auto launches = [] {
    return static_cast<double>(perf::counters().snapshot().kernel_launches);
  };
  const double k0 = launches();
  const train::LossResult loss =
      train::chgnet_loss(net.forward(b, model::ForwardMode::kTrain), b);
  const double model_fwd = launches() - k0;
  ag::backward(loss.total);
  const double model_bwd = launches() - k0 - model_fwd;
  expect(walk_fwd == model_fwd, "walk forward kernels " + std::to_string(walk_fwd) +
                                    " equal the model's " + std::to_string(model_fwd));
  expect(walk_bwd >= model_bwd && walk_bwd <= model_bwd + 3 * projected,
         "walk backward kernels " + std::to_string(walk_bwd) + " = the model's " +
             std::to_string(model_bwd) + " + at most 3 x " +
             std::to_string(projected) + " projected outputs");
}

}  // namespace

int main() {
  test_poisson_schedule();
  test_percentile();
  test_metric_names();
  test_layer_walk();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
