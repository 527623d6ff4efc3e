// Parameterized property sweeps over the op x broadcast-pattern matrix:
// every elementwise binary op must be numerically correct (value + gradient
// + double backward) under every supported broadcast pattern, and every
// activation across input regimes.  One body, the full matrix.  None of
// these ops reads the SIMD tier, so each case also checks that the forward
// value and first-order gradients are the same bytes at the scalar tier and
// at the active tier.  A reference sweep runs every element-wise, gather,
// scatter and reduce op at odd sizes against an independent in-order loop.
// A last sweep runs every autograd op (plus the fused layernorm and gated
// activation) at several thread counts and with pooling on and off, and
// requires the same bytes and launch count each time; the families the
// size rule threads run once below the rule and once above it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <utility>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "core/alloc.hpp"
#include "core/parallel_for.hpp"
#include "core/rng.hpp"
#include "nn/gated_mlp.hpp"
#include "nn/layernorm.hpp"
#include "ops/dispatch.hpp"
#include "perf/counters.hpp"

namespace fastchg::ag {
namespace {

using namespace ops;

/// Forward value of `f` plus the first-order gradients of sum(f()^2) with
/// respect to `leaves`, as raw floats.
std::vector<std::vector<float>> value_and_grads(
    const std::function<Var()>& f, const std::vector<Var>& leaves) {
  const Var y = f();
  std::vector<std::vector<float>> out = {y.value().to_vector()};
  for (const Var& g : grad(sum_all(square(y)), leaves)) {
    out.push_back(g.value().to_vector());
  }
  return out;
}

/// The value and gradient bytes of `f` are identical at the scalar tier and
/// at the active tier: the op never reads the tier.
void expect_tier_bit_exact(const std::function<Var()>& f,
                           const std::vector<Var>& leaves) {
  namespace dispatch = ::fastchg::ops;
  const dispatch::Tier active = dispatch::active_tier();
  dispatch::set_simd_tier(dispatch::Tier::kScalar);
  const auto scalar = value_and_grads(f, leaves);
  dispatch::set_simd_tier(active);
  const auto tiered = value_and_grads(f, leaves);
  ASSERT_EQ(scalar.size(), tiered.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(scalar[i].size(), tiered[i].size()) << i;
    EXPECT_EQ(0, std::memcmp(scalar[i].data(), tiered[i].data(),
                             scalar[i].size() * sizeof(float)))
        << (i == 0 ? "value" : "gradient " + std::to_string(i - 1))
        << " differs between the scalar and "
        << dispatch::tier_name(active) << " tiers";
  }
}

enum class BinOp { kAdd, kSub, kMul, kDiv };
/// Which operand broadcasts, and how.  The `*Lhs` patterns put the
/// broadcast shape on the first operand instead of the second.
enum class Pattern {
  kSame, kRow, kRow1, kCol, kScalar,
  kRowLhs, kRow1Lhs, kColLhs, kScalarLhs
};

const char* op_name(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "add";
    case BinOp::kSub: return "sub";
    case BinOp::kMul: return "mul";
    case BinOp::kDiv: return "div";
  }
  return "?";
}

Var apply(BinOp op, const Var& a, const Var& b) {
  switch (op) {
    case BinOp::kAdd: return add(a, b);
    case BinOp::kSub: return sub(a, b);
    case BinOp::kMul: return mul(a, b);
    case BinOp::kDiv: return div(a, b);
  }
  return Var();
}

Shape broadcast_shape(Pattern p) {
  switch (p) {
    case Pattern::kSame: return {4, 3};
    case Pattern::kRow: case Pattern::kRowLhs: return {3};
    case Pattern::kRow1: case Pattern::kRow1Lhs: return {1, 3};
    case Pattern::kCol: case Pattern::kColLhs: return {4, 1};
    case Pattern::kScalar: case Pattern::kScalarLhs: return {1};
  }
  return {};
}

bool lhs_broadcasts(Pattern p) {
  return p == Pattern::kRowLhs || p == Pattern::kRow1Lhs ||
         p == Pattern::kColLhs || p == Pattern::kScalarLhs;
}

class BinaryBroadcastSweep
    : public ::testing::TestWithParam<std::tuple<BinOp, Pattern>> {};

TEST_P(BinaryBroadcastSweep, ValueShapeAndBothGradOrders) {
  const auto [op, pattern] = GetParam();
  Rng rng(static_cast<std::uint64_t>(1000 + 10 * static_cast<int>(op) +
                                     static_cast<int>(pattern)));
  const bool lhs = lhs_broadcasts(pattern);
  Tensor ta = Tensor::empty(lhs ? broadcast_shape(pattern) : Shape{4, 3});
  Tensor tb = Tensor::empty(lhs ? Shape{4, 3} : broadcast_shape(pattern));
  // Keep div well-conditioned: operands bounded away from zero.
  rng.fill_uniform(ta, 0.5f, 1.5f);
  rng.fill_uniform(tb, 0.5f, 1.5f);
  Var a(std::move(ta), true);
  Var b(std::move(tb), true);

  Var out = apply(op, a, b);
  ASSERT_EQ(out.shape(), (Shape{4, 3})) << op_name(op);

  // Spot-check one element against scalar arithmetic.
  const float av = a.value().data()[0];
  const float* pb = b.value().data();
  const float bv = pb[0];
  float expect = 0;
  switch (op) {
    case BinOp::kAdd: expect = av + bv; break;
    case BinOp::kSub: expect = av - bv; break;
    case BinOp::kMul: expect = av * bv; break;
    case BinOp::kDiv: expect = av / bv; break;
  }
  EXPECT_NEAR(out.value().data()[0], expect, 1e-6f);
  expect_tier_bit_exact([&] { return apply(op, a, b); }, {a, b});

  GradCheckOptions opt;
  auto first = gradcheck(
      [&] { return sum_all(square(apply(op, a, b))); }, {a, b}, opt);
  EXPECT_TRUE(first.ok) << op_name(op) << ": " << first.detail;

  opt.rtol = 8e-2f;
  auto second = gradcheck_double(
      [&] { return sum_all(square(apply(op, a, b))); }, {a, b}, opt);
  EXPECT_TRUE(second.ok) << op_name(op) << " (2nd order): " << second.detail;
}

INSTANTIATE_TEST_SUITE_P(
    OpsByPattern, BinaryBroadcastSweep,
    ::testing::Combine(::testing::Values(BinOp::kAdd, BinOp::kSub,
                                         BinOp::kMul, BinOp::kDiv),
                       ::testing::Values(Pattern::kSame, Pattern::kRow,
                                         Pattern::kRow1, Pattern::kCol,
                                         Pattern::kScalar)));

// The same ops with the broadcast operand on the left: the first operand's
// gradient is then the one reduced back to a smaller shape.
INSTANTIATE_TEST_SUITE_P(
    OpsByLhsPattern, BinaryBroadcastSweep,
    ::testing::Combine(::testing::Values(BinOp::kAdd, BinOp::kSub,
                                         BinOp::kMul, BinOp::kDiv),
                       ::testing::Values(Pattern::kRowLhs, Pattern::kRow1Lhs,
                                         Pattern::kColLhs,
                                         Pattern::kScalarLhs)));

// ---------------------------------------------------------------------------
// activations across input regimes
// ---------------------------------------------------------------------------

enum class Act { kSigmoid, kSilu, kTanh };

class ActivationSweep
    : public ::testing::TestWithParam<std::tuple<Act, float>> {};

TEST_P(ActivationSweep, GradAndDoubleGradInEveryRegime) {
  const auto [act, center] = GetParam();
  Rng rng(77);
  Tensor t = Tensor::empty({10});
  rng.fill_uniform(t, center - 0.5f, center + 0.5f);
  Var x(std::move(t), true);
  auto y = [&, act = act]() -> Var {
    switch (act) {
      case Act::kSigmoid: return sigmoid(x);
      case Act::kSilu: return silu(x);
      case Act::kTanh: return tanh_op(x);
    }
    return Var();
  };
  auto f = [&] { return sum_all(y()); };
  expect_tier_bit_exact(y, {x});
  GradCheckOptions opt;
  auto first = gradcheck(f, {x}, opt);
  EXPECT_TRUE(first.ok) << first.detail;
  opt.rtol = 8e-2f;
  auto second = gradcheck_double(f, {x}, opt);
  EXPECT_TRUE(second.ok) << second.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ActivationSweep,
    ::testing::Combine(::testing::Values(Act::kSigmoid, Act::kSilu,
                                         Act::kTanh),
                       // saturated-negative, linear, saturated-positive
                       ::testing::Values(-3.0f, 0.0f, 3.0f)));

// ---------------------------------------------------------------------------
// odd sizes against an independent per-element reference
// ---------------------------------------------------------------------------

// Singleton, primes and vector-width boundaries (8k +/- 1) up to > 1000.
const std::vector<index_t> kOddSizes = {1,  2,  3,  7,   8,   9,   13,
                                        17, 31, 97, 255, 257, 1003};
// Row widths of the gather/scatter cases.
const std::vector<index_t> kRowWidths = {1, 3, 8, 17, 64};

/// One comparison: the op's bytes and the reference's.
struct Outcome {
  std::string what;
  std::vector<float> got, want;
};

/// One op under the reference oracle: `run` builds inputs from the rng,
/// runs the op over its sizes and returns each result with its reference.
struct RefCase {
  const char* name;
  std::function<std::vector<Outcome>(std::mt19937&)> run;
};

void PrintTo(const RefCase& c, std::ostream* os) { *os << c.name; }

Tensor uniform_tensor(std::mt19937& rng, Shape shape, float lo, float hi) {
  std::uniform_real_distribution<float> d(lo, hi);
  Tensor t = Tensor::empty(std::move(shape));
  for (index_t i = 0; i < t.numel(); ++i) t.data()[i] = d(rng);
  return t;
}

Var uniform_leaf(std::mt19937& rng, Shape shape, float lo, float hi) {
  return Var(uniform_tensor(rng, std::move(shape), lo, hi), true);
}

std::vector<index_t> uniform_indices(std::mt19937& rng, index_t count,
                                     index_t rows) {
  std::uniform_int_distribution<index_t> pick(0, rows - 1);
  std::vector<index_t> idx(static_cast<std::size_t>(count));
  for (auto& i : idx) i = pick(rng);
  return idx;
}

std::string at_n(const char* what, index_t n) {
  return std::string(what) + " n=" + std::to_string(n);
}

/// Unary op with its per-element formula.  Inputs include an exact zero
/// (sign and the clamp mask branch on it).  For abs and clamp the gradient
/// of sum(op(x)) is also checked: it is exactly their sign / mask constant.
RefCase unary_ref(const char* name, std::function<Var(const Var&)> op,
                  std::function<float(float)> ref, float lo, float hi,
                  std::function<float(float)> dref = nullptr) {
  return {name, [=](std::mt19937& rng) {
            std::vector<Outcome> out;
            for (index_t n : kOddSizes) {
              Tensor t = uniform_tensor(rng, {n}, lo, hi);
              if (lo < 0.0f && hi > 0.0f && n > 2) t.data()[n / 2] = 0.0f;
              const std::vector<float> xs = t.to_vector();
              Var x(std::move(t), true);
              std::vector<float> want(xs.size()), dwant(xs.size());
              for (std::size_t i = 0; i < xs.size(); ++i) {
                want[i] = ref(xs[i]);
                if (dref) dwant[i] = dref(xs[i]);
              }
              out.push_back(
                  {at_n("value", n), op(x).value().to_vector(), want});
              if (dref) {
                Var g = grad(sum_all(op(x)), {x})[0];
                out.push_back(
                    {at_n("gradient", n), g.value().to_vector(), dwant});
              }
            }
            return out;
          }};
}

/// Binary op with its per-element formula, at every broadcast pattern of a
/// [5, n] result: same shape, row [n] and column [5, 1] on either side, and
/// a one-element operand on either side.
RefCase binary_ref(const char* name, Var (*op)(const Var&, const Var&),
                   float (*ref)(float, float), float lo, float hi) {
  return {name, [=](std::mt19937& rng) {
            constexpr index_t kR = 5;
            std::vector<Outcome> out;
            for (index_t n : kOddSizes) {
              const Shape full = {kR, n};
              const std::pair<const char*, Shape> small[] = {
                  {"same", full},
                  {"row", {n}},
                  {"col", {kR, 1}},
                  {"scalar", {1}}};
              for (const auto& [pattern, shape] : small) {
                for (bool lhs : {false, true}) {
                  if (lhs && same_shape(shape, full)) continue;
                  Var a = uniform_leaf(rng, lhs ? shape : full, lo, hi);
                  Var b = uniform_leaf(rng, lhs ? full : shape, lo, hi);
                  // Element (r, c) of a possibly broadcast operand.
                  auto at = [&](const Var& v, index_t r, index_t c) {
                    const Tensor& t = v.value();
                    if (t.numel() == 1) return t.data()[0];
                    if (same_shape(t.shape(), full))
                      return t.data()[r * n + c];
                    if (t.shape().back() == 1) return t.data()[r];
                    return t.data()[c];
                  };
                  std::vector<float> want(static_cast<std::size_t>(kR * n));
                  for (index_t r = 0; r < kR; ++r)
                    for (index_t c = 0; c < n; ++c)
                      want[r * n + c] = ref(at(a, r, c), at(b, r, c));
                  const std::string what =
                      std::string(pattern) + (lhs ? " lhs" : "");
                  out.push_back({at_n(what.c_str(), n),
                                 op(a, b).value().to_vector(), want});
                }
              }
            }
            return out;
          }};
}

std::vector<RefCase> ref_cases() {
  return {
      binary_ref("add", add, [](float x, float y) { return x + y; }, -4, 4),
      binary_ref("sub", sub, [](float x, float y) { return x - y; }, -4, 4),
      binary_ref("mul", mul, [](float x, float y) { return x * y; }, -4, 4),
      binary_ref("div", div, [](float x, float y) { return x / y; }, 0.25f, 4),
      unary_ref("add_scalar", [](const Var& x) { return add_scalar(x, 1.7f); },
                [](float v) { return v + 1.7f; }, -4, 4),
      unary_ref("mul_scalar", [](const Var& x) { return mul_scalar(x, 1.7f); },
                [](float v) { return v * 1.7f; }, -4, 4),
      unary_ref("pow_scalar", [](const Var& x) { return pow_scalar(x, 1.5f); },
                [](float v) { return std::pow(v, 1.5f); }, 0.25f, 4),
      unary_ref("neg", neg, [](float v) { return -v; }, -4, 4),
      unary_ref("abs", abs_op, [](float v) { return std::fabs(v); }, -4, 4,
                [](float v) {
                  return v > 0.0f ? 1.0f : (v < 0.0f ? -1.0f : 0.0f);
                }),
      unary_ref("square", square, [](float v) { return v * v; }, -4, 4),
      unary_ref("reciprocal", reciprocal, [](float v) { return 1.0f / v; },
                0.25f, 4),
      unary_ref("sqrt", sqrt_op, [](float v) { return std::sqrt(v); }, 0, 16),
      unary_ref("exp", exp_op, [](float v) { return std::exp(v); }, -4, 4),
      unary_ref("log", log_op, [](float v) { return std::log(v); }, 0.25f, 4),
      unary_ref("sin", sin_op, [](float v) { return std::sin(v); }, -4, 4),
      unary_ref("cos", cos_op, [](float v) { return std::cos(v); }, -4, 4),
      unary_ref("acos", acos_op, [](float v) { return std::acos(v); }, -0.9f,
                0.9f),
      unary_ref("tanh", tanh_op, [](float v) { return std::tanh(v); }, -4, 4),
      unary_ref("sigmoid", sigmoid,
                [](float v) { return 1.0f / (1.0f + std::exp(-v)); }, -4, 4),
      unary_ref("silu", silu,
                [](float v) { return v / (1.0f + std::exp(-v)); }, -4, 4),
      unary_ref(
          "clamp", [](const Var& x) { return clamp(x, -1.0f, 1.0f); },
          [](float v) { return v < -1.0f ? -1.0f : (v > 1.0f ? 1.0f : v); },
          -4, 4,
          [](float v) { return (v >= -1.0f && v <= 1.0f) ? 1.0f : 0.0f; }),
      {"index_select0",
       [](std::mt19937& rng) {
         std::vector<Outcome> out;
         for (index_t w : kRowWidths) {
           const index_t rows = 29, k = 57;
           Var x = uniform_leaf(rng, {rows, w}, -4, 4);
           const std::vector<index_t> idx = uniform_indices(rng, k, rows);
           std::vector<float> want;
           for (index_t src : idx)
             for (index_t c = 0; c < w; ++c)
               want.push_back(x.value().data()[src * w + c]);
           out.push_back(
               {at_n("w", w), index_select0(x, idx).value().to_vector(), want});
         }
         return out;
       }},
      {"index_add0",
       [](std::mt19937& rng) {
         std::vector<Outcome> out;
         for (index_t w : kRowWidths) {
           // rows << k: most destinations collide, and must sum in source
           // order.
           const index_t rows = 5, k = 97;
           Var s = uniform_leaf(rng, {k, w}, -4, 4);
           const std::vector<index_t> idx = uniform_indices(rng, k, rows);
           std::vector<float> want(static_cast<std::size_t>(rows * w), 0.0f);
           for (index_t r = 0; r < k; ++r)
             for (index_t c = 0; c < w; ++c)
               want[idx[r] * w + c] += s.value().data()[r * w + c];
           out.push_back({at_n("w", w),
                          index_add0(rows, idx, s).value().to_vector(), want});
         }
         return out;
       }},
      {"sum_all",
       [](std::mt19937& rng) {
         std::vector<Outcome> out;
         for (index_t n : kOddSizes) {
           Var x = uniform_leaf(rng, {13, n}, -4, 4);
           double acc = 0.0;
           for (index_t i = 0; i < x.numel(); ++i) acc += x.value().data()[i];
           out.push_back({at_n("cols", n), sum_all(x).value().to_vector(),
                          {static_cast<float>(acc)}});
         }
         return out;
       }},
      {"sum_dim",
       [](std::mt19937& rng) {
         std::vector<Outcome> out;
         for (index_t n : kOddSizes) {
           const index_t rows = 37;
           Var x = uniform_leaf(rng, {rows, n}, -4, 4);
           const float* px = x.value().data();
           // dim 0: one float chain per column, in row order.
           std::vector<float> cols(static_cast<std::size_t>(n), 0.0f);
           for (index_t r = 0; r < rows; ++r)
             for (index_t c = 0; c < n; ++c) cols[c] += px[r * n + c];
           out.push_back({at_n("dim 0 cols", n),
                          sum_dim(x, 0).value().to_vector(), cols});
           // dim 1: a double chain per row.
           std::vector<float> row_sums;
           for (index_t r = 0; r < rows; ++r) {
             double acc = 0.0;
             for (index_t c = 0; c < n; ++c) acc += px[r * n + c];
             row_sums.push_back(static_cast<float>(acc));
           }
           out.push_back({at_n("dim 1 cols", n),
                          sum_dim(x, 1).value().to_vector(), row_sums});
         }
         return out;
       }},
      {"tensor_add_mul_inplace",
       [](std::mt19937& rng) {
         std::vector<Outcome> out;
         for (index_t n : kOddSizes) {
           Tensor o = uniform_tensor(rng, {n}, -4, 4);
           const Tensor a = uniform_tensor(rng, {n}, -4, 4);
           std::vector<float> want = o.to_vector();
           for (index_t i = 0; i < n; ++i) want[i] += 0.37f * a.data()[i];
           o.add_(a, 0.37f);
           out.push_back({at_n("add_", n), o.to_vector(), want});
           for (float& v : want) v *= 1.3f;
           o.mul_(1.3f);
           out.push_back({at_n("mul_", n), o.to_vector(), want});
         }
         return out;
       }},
  };
}

class ReferenceSweep : public ::testing::TestWithParam<RefCase> {};

TEST_P(ReferenceSweep, OddSizesMatchInOrderLoopAtEveryTier) {
  namespace dispatch = ::fastchg::ops;
  const RefCase& c = GetParam();
  const dispatch::Tier active = dispatch::active_tier();
  struct TierRestore {
    dispatch::Tier tier;
    ~TierRestore() { dispatch::set_simd_tier(tier); }
  } restore{active};
  for (dispatch::Tier tier : {dispatch::Tier::kScalar, active}) {
    dispatch::set_simd_tier(tier);
    std::mt19937 rng(20260808u);
    for (const Outcome& o : c.run(rng)) {
      ASSERT_EQ(o.got.size(), o.want.size()) << o.what;
      EXPECT_EQ(0, std::memcmp(o.got.data(), o.want.data(),
                               o.want.size() * sizeof(float)))
          << c.name << " " << o.what << " differs from the reference at the "
          << dispatch::tier_name(tier) << " tier";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ReferenceSweep, ::testing::ValuesIn(ref_cases()),
    [](const ::testing::TestParamInfo<RefCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// thread-count and pooling oracle over every op
// ---------------------------------------------------------------------------

constexpr bool is_prime(index_t n) {
  if (n < 2) return false;
  for (index_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

constexpr index_t next_prime(index_t n) {
  while (!is_prime(n)) ++n;
  return n;
}

// Leaves are [kRows, kCols] unless a case says otherwise: a prime row count
// splits unevenly across 2, 3 and 4 threads, and an odd column count leaves
// a SIMD remainder in every row.  kRows puts an element-wise pass over a
// leaf just above the size rule (core/parallel_for.hpp), so the threaded
// branch of every family runs; kSmallRows keeps the same pass well below
// it, so the inline branch runs too.
constexpr index_t kCols = 37;
constexpr index_t kRows = next_prime(kParallelMinWork / kCols + 1);
constexpr index_t kSmallRows = next_prime(kParallelMinWork / kCols / 8);
static_assert(kRows * kCols >= kParallelMinWork);
static_assert(kSmallRows * kCols * 4 < kParallelMinWork);
// The scatter-add case: a width that is not a multiple of the column
// block, into few destination rows, so every row collides many times.
constexpr index_t kWideCols = 150;
constexpr index_t kFewRows = 61;

/// Which side of the size rule a case's kernels run at 4 threads:
/// kAbove requires at least one pool dispatch, kBelow none.
enum class Rule { kUnchecked, kBelow, kAbove };

/// One op under the oracle: `build` maps leaves drawn uniformly from
/// [lo, hi], with the listed shapes, to the op's output.
struct OracleCase {
  const char* name;
  std::vector<Shape> shapes;
  std::function<Var(const std::vector<Var>&)> build;
  float lo = -1.0f;
  float hi = 1.0f;
  Rule rule = Rule::kUnchecked;
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

/// Gather/scatter row indices into `rows` rows: every row is hit, most of
/// them several times, in no sorted order.
std::vector<index_t> scattered_rows(index_t count, index_t rows) {
  std::vector<index_t> idx(static_cast<std::size_t>(count));
  for (index_t k = 0; k < count; ++k) idx[k] = (k * 7919) % rows;
  return idx;
}

/// Restores the thread count and pooling switch the test found.
struct ThreadsAndPoolingRestore {
  int threads = num_threads();
  bool pooling = alloc::pooling_enabled();
  ~ThreadsAndPoolingRestore() {
    set_num_threads(threads);
    alloc::set_pooling_enabled(pooling);
  }
};

class ThreadOracleSweep : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ThreadOracleSweep, ValueAndGradBytesIndependentOfThreadsAndPooling) {
  const OracleCase& c = GetParam();
  Rng rng(4242);
  std::vector<Var> leaves;
  for (const Shape& shape : c.shapes) {
    Tensor t = Tensor::empty(shape);
    rng.fill_uniform(t, c.lo, c.hi);
    leaves.emplace_back(std::move(t), true);
  }
  struct Setting {
    int threads;
    bool pooling;
  };
  const Setting settings[] = {
      {1, true}, {2, true}, {3, true}, {4, true}, {1, false}, {4, false}};
  const ThreadsAndPoolingRestore restore;
  std::vector<std::vector<float>> ref;
  std::uint64_t ref_launches = 0;
  for (const Setting& s : settings) {
    set_num_threads(s.threads);
    alloc::set_pooling_enabled(s.pooling);
    const perf::Counters before = perf::counters().snapshot();
    std::vector<std::vector<float>> got;
    {
      alloc::ArenaScope arena;
      got = value_and_grads([&] { return c.build(leaves); }, leaves);
    }
    const perf::Counters after = perf::counters().snapshot();
    const std::uint64_t launches =
        after.kernel_launches - before.kernel_launches;
    const std::uint64_t dispatches =
        after.pool_dispatches - before.pool_dispatches;
    if (s.threads == 4 && c.rule == Rule::kAbove) {
      EXPECT_GT(dispatches, 0u) << "no kernel went to the pool";
    }
    if (s.threads == 4 && c.rule == Rule::kBelow) {
      EXPECT_EQ(dispatches, 0u) << "a kernel below the size rule was threaded";
    }
    if (ref.empty()) {
      ref = std::move(got);
      ref_launches = launches;
      EXPECT_GT(launches, 0u);
      continue;
    }
    const std::string what = std::to_string(s.threads) + " threads, pool " +
                             (s.pooling ? "on" : "off");
    EXPECT_EQ(launches, ref_launches) << what;
    ASSERT_EQ(got.size(), ref.size()) << what;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i].size(), ref[i].size()) << what;
      EXPECT_EQ(0, std::memcmp(got[i].data(), ref[i].data(),
                               ref[i].size() * sizeof(float)))
          << (i == 0 ? "value" : "gradient " + std::to_string(i - 1))
          << " differs at " << what;
    }
  }
}

using Leaves = std::vector<Var>;

OracleCase unary(const char* name, Var (*op)(const Var&), float lo = -1.0f,
                 float hi = 1.0f) {
  return {name, {{kRows, kCols}},
          [op](const Leaves& v) { return op(v[0]); }, lo, hi};
}

/// Binary ops take a bias-shaped second operand, so the backward also
/// reduces it over rows.
OracleCase binary(const char* name, Var (*op)(const Var&, const Var&),
                  float lo = -1.0f, float hi = 1.0f) {
  return {name, {{kRows, kCols}, {kCols}},
          [op](const Leaves& v) { return op(v[0], v[1]); }, lo, hi};
}

/// `c` at the given side of the size rule.
OracleCase at(Rule rule, OracleCase c) {
  c.rule = rule;
  return c;
}

/// The families the size rule threads, once below it and once above it.
std::vector<OracleCase> rule_cases() {
  const Shape row = {kCols};
  std::vector<OracleCase> out;
  for (const Rule rule : {Rule::kBelow, Rule::kAbove}) {
    const bool above = rule == Rule::kAbove;
    const index_t n = above ? kRows : kSmallRows;
    const Shape x = {n, kCols};
    // Matmul multiply-adds per row are kCols * kMatCols: the small case
    // stays under the GEMM rule, the large one clears it.
    const index_t mat_cols = 45;
    static_assert(kSmallRows * kCols * 45 < kParallelMinWork * kMacsPerWorkUnit);
    static_assert(kRows * kCols * 45 >= kParallelMinWork * kMacsPerWorkUnit);
    // A gated-act row weighs kCols * kGatedActUnitsPerElement units.
    static_assert(kSmallRows / 4 * kCols * kGatedActUnitsPerElement <
                  kParallelMinWork);
    static_assert(kRows / 4 * kCols * kGatedActUnitsPerElement >=
                  kParallelMinWork);
    const auto rows_of = [n](index_t rows) { return scattered_rows(n, rows); };
    out.push_back(at(rule, {above ? "add_above" : "add_below", {x, row},
                            [](const Leaves& v) { return add(v[0], v[1]); }}));
    out.push_back(at(rule, {above ? "mul_same_above" : "mul_same_below", {x, x},
                            [](const Leaves& v) { return mul(v[0], v[1]); }}));
    out.push_back(at(rule, {above ? "exp_above" : "exp_below", {x},
                            [](const Leaves& v) { return exp_op(v[0]); }}));
    out.push_back(at(rule, {above ? "index_select0_above" : "index_select0_below",
                            {{257, kCols}},
                            [rows_of](const Leaves& v) {
                              return index_select0(v[0], rows_of(257));
                            }}));
    out.push_back(at(rule, {above ? "index_add0_above" : "index_add0_below",
                            {{n, kWideCols}},
                            [rows_of](const Leaves& v) {
                              return index_add0(kFewRows, rows_of(kFewRows),
                                                v[0]);
                            }}));
    out.push_back(at(rule, {above ? "gated_act_above" : "gated_act_below",
                            {{n / 4, 2 * kCols}, row, row, row, row},
                            [](const Leaves& v) {
                              return nn::gated_act_fused(v[0], v[1], v[2], v[3],
                                                         v[4], 1e-5f);
                            }}));
    out.push_back(at(rule, {above ? "matmul_above" : "matmul_below",
                            {x, {kCols, mat_cols}},
                            [](const Leaves& v) { return matmul(v[0], v[1]); }}));
  }
  return out;
}

std::vector<OracleCase> oracle_cases() {
  const Shape x = {kRows, kCols};
  const Shape row = {kCols};
  return {
      binary("add", add),
      binary("sub", sub),
      binary("mul", mul),
      binary("div", div, 0.5f, 1.5f),
      {"add_scalar", {x}, [](const Leaves& v) { return add_scalar(v[0], 0.7f); }},
      {"mul_scalar", {x}, [](const Leaves& v) { return mul_scalar(v[0], -3.0f); }},
      {"pow_scalar", {x}, [](const Leaves& v) { return pow_scalar(v[0], 1.5f); },
       0.5f, 1.5f},
      unary("neg", neg),
      unary("exp", exp_op),
      unary("log", log_op, 0.5f, 1.5f),
      unary("sqrt", sqrt_op, 0.5f, 1.5f),
      unary("sin", sin_op),
      unary("cos", cos_op),
      unary("acos", acos_op, -0.9f, 0.9f),
      unary("tanh", tanh_op),
      unary("sigmoid", sigmoid),
      unary("silu", silu),
      unary("abs", abs_op),
      unary("reciprocal", reciprocal, 0.5f, 1.5f),
      unary("square", square),
      {"clamp", {x}, [](const Leaves& v) { return clamp(v[0], -0.5f, 0.5f); }},
      {"matmul", {x, {kCols, 45}},
       [](const Leaves& v) { return matmul(v[0], v[1]); }},
      unary("transpose2d", transpose2d),
      unary("sum_all", sum_all),
      {"sum_dim0", {x}, [](const Leaves& v) { return sum_dim(v[0], 0); }},
      {"sum_dim1", {x}, [](const Leaves& v) { return sum_dim(v[0], 1); }},
      {"mean_dim0", {x}, [](const Leaves& v) { return mean_dim(v[0], 0); }},
      unary("mean_all", mean_all),
      {"broadcast_to", {row},
       [x](const Leaves& v) { return broadcast_to(v[0], x); }},
      {"sum_to", {x},
       [](const Leaves& v) { return sum_to(v[0], Shape{1, kCols}); }},
      {"index_select0", {{257, kCols}},
       [](const Leaves& v) {
         return index_select0(v[0], scattered_rows(kRows, 257));
       }},
      {"index_add0", {x},
       [](const Leaves& v) {
         return index_add0(257, scattered_rows(kRows, 257), v[0]);
       }},
      {"reshape", {x},
       [](const Leaves& v) { return square(reshape(v[0], {kCols, kRows})); }},
      {"cat", {x, {kRows, 11}},
       [](const Leaves& v) { return cat({v[0], v[1]}, 1); }},
      {"narrow", {x}, [](const Leaves& v) { return narrow(v[0], 1, 5, 20); }},
      {"pad_slice", {x},
       [](const Leaves& v) { return pad_slice(v[0], 0, 40, kRows + 69); }},
      {"layernorm_fused", {x, row, row},
       [](const Leaves& v) {
         return nn::layernorm_fused(v[0], v[1], v[2], 1e-5f);
       }},
      {"gated_act_fused", {{kRows, 2 * kCols}, row, row, row, row},
       [](const Leaves& v) {
         return nn::gated_act_fused(v[0], v[1], v[2], v[3], v[4], 1e-5f);
       }},
  };
}

INSTANTIATE_TEST_SUITE_P(
    SizeRule, ThreadOracleSweep, ::testing::ValuesIn(rule_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    Ops, ThreadOracleSweep, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fastchg::ag
