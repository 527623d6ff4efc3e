// Randomized autograd fuzzing: build seeded random expression graphs from a
// safe op alphabet (mixing elementwise, broadcast, matmul, concat, slicing
// and gather/scatter) and verify every one against numeric gradients --
// first order on every graph, second order on the smaller ones.  This
// catches op-composition bugs that per-op unit tests cannot (wrong
// accumulation on diamond fan-out, broadcast-reduction mismatches, etc.).
// Seeded random forward chains are also checked for byte-identical taps and
// equal launch counts across thread counts and pooling modes.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "autograd/gradcheck.hpp"
#include "nn/layernorm.hpp"
#include "autograd/ops.hpp"
#include "core/alloc.hpp"
#include "core/parallel_for.hpp"
#include "core/rng.hpp"
#include "perf/counters.hpp"

namespace fastchg::ag {
namespace {

using namespace ops;

/// Grow a random graph over a pool of [4,3] nodes rooted at two leaves.
/// All values stay O(1) and away from singular points by construction:
/// inputs are in [0.4, 1.6] and the alphabet avoids division by small
/// numbers and domain-edge functions.
Var random_graph(Rng& rng, const std::vector<Var>& leaves, int depth) {
  std::vector<Var> pool = leaves;
  auto pick = [&]() -> const Var& {
    return pool[static_cast<std::size_t>(
        rng.randint(0, static_cast<index_t>(pool.size()) - 1))];
  };
  for (int step = 0; step < depth; ++step) {
    const index_t choice = rng.randint(0, 10);
    Var next;
    switch (choice) {
      case 0: next = add(pick(), pick()); break;
      case 1: next = mul(pick(), pick()); break;
      case 2: next = sub(pick(), pick()); break;
      case 3: next = sigmoid(pick()); break;
      case 4: next = silu(pick()); break;
      case 5: next = mul_scalar(pick(), 0.7f); break;
      case 6: {
        // matmul with a fixed random [3,3] constant keeps shapes stable.
        Tensor w = Tensor::empty({3, 3});
        rng.fill_uniform(w, -0.6f, 0.6f);
        next = matmul(pick(), constant(std::move(w)));
        break;
      }
      case 7: {
        // row gather + scatter back (the GNN message primitive).
        std::vector<index_t> idx{3, 0, 2, 2, 1};
        Var sel = index_select0(pick(), idx);
        next = index_add0(4, {0, 1, 2, 3, 1}, sel);
        break;
      }
      case 8: {
        // split and re-concatenate with a twist.
        const Var& x = pick();
        next = cat({narrow(x, 1, 1, 2), narrow(x, 1, 0, 1)}, 1);
        break;
      }
      case 9: {
        // column-broadcast scaling by the row sums.
        const Var& x = pick();
        next = mul(x, mul_scalar(sum_dim(x, 1, true), 0.2f));
        break;
      }
      default: {
        // fused layer norm (custom kernel with op-composed backward).
        Tensor gamma = Tensor::empty({3});
        Tensor beta = Tensor::empty({3});
        rng.fill_uniform(gamma, 0.5f, 1.5f);
        rng.fill_uniform(beta, -0.3f, 0.3f);
        next = nn::layernorm_fused(pick(), constant(std::move(gamma)),
                                   constant(std::move(beta)), 1e-5f);
        break;
      }
    }
    pool.push_back(next);
  }
  return mean_all(square(pool.back()));
}

class AutogradFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AutogradFuzz, FirstOrderGradientsMatchNumeric) {
  Rng rng(GetParam());
  std::vector<Var> leaves;
  for (int i = 0; i < 2; ++i) {
    Tensor t = Tensor::empty({4, 3});
    rng.fill_uniform(t, 0.4f, 1.6f);
    leaves.emplace_back(std::move(t), /*requires_grad=*/true);
  }
  // The graph must be rebuilt identically inside the gradcheck lambda, so
  // freeze the structure by pre-drawing the random choices via a fixed
  // inner seed.
  const std::uint64_t structure_seed = GetParam() * 31 + 7;
  auto f = [&]() -> Var {
    Rng inner(structure_seed);
    return random_graph(inner, leaves, 8);
  };
  GradCheckOptions opt;
  opt.max_per_leaf = 12;
  // Deep random graphs (especially 3-wide layer norms) can be sharply
  // curved; use a finer step than the default to keep truncation error of
  // the central difference itself below the tolerance.
  opt.eps = 2e-3f;
  auto res = gradcheck(f, leaves, opt);
  EXPECT_TRUE(res.ok) << "seed " << GetParam() << ": " << res.detail
                      << " (abs " << res.max_abs_err << ", rel "
                      << res.max_rel_err << ")";
}

TEST_P(AutogradFuzz, SecondOrderGradientsMatchNumeric) {
  Rng rng(GetParam() + 1000);
  std::vector<Var> leaves;
  for (int i = 0; i < 2; ++i) {
    Tensor t = Tensor::empty({4, 3});
    rng.fill_uniform(t, 0.4f, 1.6f);
    leaves.emplace_back(std::move(t), /*requires_grad=*/true);
  }
  const std::uint64_t structure_seed = GetParam() * 53 + 11;
  auto f = [&]() -> Var {
    Rng inner(structure_seed);
    return random_graph(inner, leaves, 5);  // shallower for 2nd order cost
  };
  GradCheckOptions opt;
  opt.max_per_leaf = 6;
  opt.rtol = 8e-2f;
  auto res = gradcheck_double(f, leaves, opt);
  EXPECT_TRUE(res.ok) << "seed " << GetParam() << ": " << res.detail
                      << " (abs " << res.max_abs_err << ", rel "
                      << res.max_rel_err << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

Tensor random_tensor(std::mt19937_64& rng, const Shape& shape, float lo = -1.0f,
                     float hi = 1.0f) {
  index_t n = 1;
  for (index_t d : shape) n *= d;
  std::vector<float> v(static_cast<std::size_t>(n));
  std::uniform_real_distribution<float> dist(lo, hi);
  for (float& f : v) f = dist(rng);
  return Tensor::from_vector(std::move(v), shape);
}

/// Bit-level equality: NaNs with identical payloads compare equal, so a
/// deterministic non-finite excursion in a random chain still matches.
void expect_bytes_equal(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

/// Deterministic random op chain over three leaves: X [N,C] (working set),
/// T [R,C] (gather table), W [C,C] (matmul operand).  The structure (which
/// ops, which indices) comes from `structure_seed`; the float payloads come
/// from the leaves.  Returns the tapped tensors: reduction outputs, scatter
/// results and the final value.  N = 48 rows lets a matmul (row grain 16)
/// split across 4 threads.
struct ChainSpec {
  std::uint64_t structure_seed = 0;
  index_t n = 48;
  index_t c = 5;
  index_t r = 4;
  int num_ops = 18;
};

std::vector<Tensor> eval_chain(const ChainSpec& cs, const Tensor& x,
                               const Tensor& t, const Tensor& w) {
  std::mt19937_64 rng(cs.structure_seed);
  ag::Var vt = ag::ops::constant(t);
  ag::Var vw = ag::ops::constant(w);
  std::vector<ag::Var> pool;  // every entry is [N,C]
  pool.push_back(ag::ops::constant(x));
  std::vector<Tensor> taps;
  auto pick = [&]() -> const ag::Var& {
    return pool[static_cast<std::size_t>(rng() % pool.size())];
  };
  for (int k = 0; k < cs.num_ops; ++k) {
    switch (rng() % 12) {
      case 0: {  // gather fresh rows from the table
        std::vector<index_t> idx(static_cast<std::size_t>(cs.n));
        for (index_t& v : idx) v = static_cast<index_t>(rng() % cs.r);
        pool.push_back(ag::ops::index_select0(vt, std::move(idx)));
        break;
      }
      case 1: {  // scatter-add the value into R rows
        std::vector<index_t> idx(static_cast<std::size_t>(cs.n));
        for (index_t& v : idx) v = static_cast<index_t>(rng() % cs.r);
        taps.push_back(
            ag::ops::index_add0(cs.r, std::move(idx), pick()).value());
        break;
      }
      case 2:  // reductions
        taps.push_back(ag::ops::sum_all(pick()).value());
        break;
      case 3:
        taps.push_back(
            ag::ops::sum_dim(pick(), static_cast<index_t>(rng() % 2),
                             /*keepdim=*/false)
                .value());
        break;
      case 4: {  // binary, same shape
        const ag::Var& a = pick();
        const ag::Var& b = pick();
        switch (rng() % 3) {
          case 0:
            pool.push_back(ag::ops::add(a, b));
            break;
          case 1:
            pool.push_back(ag::ops::sub(a, b));
            break;
          default:
            pool.push_back(ag::ops::mul(a, b));
            break;
        }
        break;
      }
      case 5: {  // broadcast binary: row / col / scalar operand from a
                 // reduction of another pool value
        const ag::Var& a = pick();
        const ag::Var& b = pick();
        switch (rng() % 3) {
          case 0:
            pool.push_back(
                ag::ops::mul(a, ag::ops::sum_dim(b, 0, /*keepdim=*/true)));
            break;
          case 1:
            pool.push_back(
                ag::ops::add(a, ag::ops::sum_dim(b, 1, /*keepdim=*/true)));
            break;
          default:
            pool.push_back(ag::ops::add(a, ag::ops::sum_all(b)));
            break;
        }
        break;
      }
      case 6:
        pool.push_back(ag::ops::matmul(pick(), vw));
        break;
      default: {  // elementwise unary (bounded ones keep values tame)
        const ag::Var& a = pick();
        switch (rng() % 8) {
          case 0:
            pool.push_back(ag::ops::tanh_op(a));
            break;
          case 1:
            pool.push_back(ag::ops::sigmoid(a));
            break;
          case 2:
            pool.push_back(ag::ops::silu(a));
            break;
          case 3:
            pool.push_back(ag::ops::neg(a));
            break;
          case 4:
            pool.push_back(ag::ops::sin_op(a));
            break;
          case 5:
            pool.push_back(ag::ops::mul_scalar(a, 0.5f));
            break;
          case 6:
            pool.push_back(ag::ops::clamp(a, -2.0f, 2.0f));
            break;
          default:
            pool.push_back(ag::ops::square(a));
            break;
        }
        break;
      }
    }
  }
  taps.push_back(pool.back().value());
  return taps;
}

ChainSpec chain_spec(std::uint64_t structure) {
  ChainSpec cs;
  cs.structure_seed = 0xc0ffee00u + structure;
  return cs;
}

TEST(RandomChains, TapsBitExactAcrossThreadsAndPooling) {
  // Gathers, scatters, reductions, broadcasts and matmuls in seeded random
  // order: every tap is byte-identical, and the launch count equal, at 1
  // and 4 threads with pooling on and off.
  struct Setting {
    int threads;
    bool pooling;
  };
  const Setting settings[] = {{1, true}, {4, true}, {1, false}, {4, false}};
  const int saved_threads = num_threads();
  const bool saved_pooling = alloc::pooling_enabled();
  for (std::uint64_t structure = 0; structure < 20; ++structure) {
    const ChainSpec cs = chain_spec(structure);
    SCOPED_TRACE("structure_seed=" + std::to_string(cs.structure_seed));
    std::mt19937_64 rng(cs.structure_seed * 31 + 1);
    const Tensor x = random_tensor(rng, {cs.n, cs.c});
    const Tensor t = random_tensor(rng, {cs.r, cs.c});
    const Tensor w = random_tensor(rng, {cs.c, cs.c});
    std::vector<Tensor> ref;
    std::uint64_t ref_launches = 0;
    for (const Setting& s : settings) {
      set_num_threads(s.threads);
      alloc::set_pooling_enabled(s.pooling);
      const std::uint64_t before =
          perf::counters().snapshot().kernel_launches;
      std::vector<Tensor> taps;
      {
        alloc::ArenaScope arena;
        taps = eval_chain(cs, x, t, w);
      }
      const std::uint64_t launches =
          perf::counters().snapshot().kernel_launches - before;
      if (ref.empty()) {
        ref = std::move(taps);
        ref_launches = launches;
        EXPECT_GT(launches, 0u);
        continue;
      }
      const std::string what = std::to_string(s.threads) + " threads, pool " +
                               (s.pooling ? "on" : "off");
      EXPECT_EQ(launches, ref_launches) << what;
      ASSERT_EQ(taps.size(), ref.size()) << what;
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_bytes_equal(taps[i], ref[i], what + ", tap " + std::to_string(i));
      }
    }
  }
  set_num_threads(saved_threads);
  alloc::set_pooling_enabled(saved_pooling);
}

}  // namespace
}  // namespace fastchg::ag
