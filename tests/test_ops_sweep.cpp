// Parameterized property sweeps over the op x broadcast-pattern matrix:
// every elementwise binary op must be numerically correct (value + gradient
// + double backward) under every supported broadcast pattern, and every
// activation across input regimes.  One body, the full matrix.  Both sit in
// docs/ops.md's bit-exact class, so each case also checks that the forward
// value and first-order gradients are the same bytes at the scalar tier and
// at the active SIMD tier.  A third sweep runs every autograd op (plus the
// fused layernorm and gated activation) at several thread counts and with
// pooling on and off, and requires the same bytes and launch count each time.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

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
/// at the active tier.
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
// thread-count and pooling oracle over every op
// ---------------------------------------------------------------------------

// Leaves are [kRows, kCols] unless a case says otherwise: a prime row count
// splits unevenly across 2, 3 and 4 threads, and an odd column count leaves
// a SIMD remainder in every row.
constexpr index_t kRows = 1031;
constexpr index_t kCols = 37;

/// One op under the oracle: `build` maps leaves drawn uniformly from
/// [lo, hi], with the listed shapes, to the op's output.
struct OracleCase {
  const char* name;
  std::vector<Shape> shapes;
  std::function<Var(const std::vector<Var>&)> build;
  float lo = -1.0f;
  float hi = 1.0f;
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
    const std::uint64_t before = perf::counters().snapshot().kernel_launches;
    std::vector<std::vector<float>> got;
    {
      alloc::ArenaScope arena;
      got = value_and_grads([&] { return c.build(leaves); }, leaves);
    }
    const std::uint64_t launches =
        perf::counters().snapshot().kernel_launches - before;
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
    Ops, ThreadOracleSweep, ::testing::ValuesIn(oracle_cases()),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fastchg::ag
