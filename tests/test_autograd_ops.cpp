// Unit tests for autograd primitives: forward values, first-order gradients
// (numeric gradcheck), and second-order gradients (double backward), which
// the reference CHGNet training path depends on.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "core/rng.hpp"

namespace fastchg::ag {
namespace {

using namespace ops;

Var leaf(const std::vector<float>& v, Shape shape) {
  return Var(Tensor::from_vector(v, std::move(shape)), true);
}

Var random_leaf(Shape shape, Rng& rng, float lo = -1.0f, float hi = 1.0f) {
  Tensor t = Tensor::empty(std::move(shape));
  rng.fill_uniform(t, lo, hi);
  return Var(std::move(t), true);
}

// ---------------------------------------------------------------------------
// forward values
// ---------------------------------------------------------------------------

TEST(OpsForward, AddSameShape) {
  Var a = leaf({1, 2}, {2}), b = leaf({10, 20}, {2});
  EXPECT_EQ(add(a, b).value().to_vector(), (std::vector<float>{11, 22}));
}

TEST(OpsForward, BroadcastRowAndCol) {
  Var m = leaf({1, 2, 3, 4, 5, 6}, {2, 3});
  Var row = leaf({10, 20, 30}, {3});
  Var col = leaf({100, 200}, {2, 1});
  EXPECT_EQ(add(m, row).value().to_vector(),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
  EXPECT_EQ(add(m, col).value().to_vector(),
            (std::vector<float>{101, 102, 103, 204, 205, 206}));
}

TEST(OpsForward, BroadcastScalar) {
  Var m = leaf({1, 2}, {2});
  Var s = leaf({5}, {1});
  EXPECT_EQ(mul(m, s).value().to_vector(), (std::vector<float>{5, 10}));
}

TEST(OpsForward, UnsupportedBroadcastThrows) {
  Var a = leaf({1, 2, 3}, {3});
  Var b = leaf({1, 2}, {2});
  EXPECT_THROW(add(a, b), Error);
}

TEST(OpsForward, MatmulKnownValues) {
  Var a = leaf({1, 2, 3, 4}, {2, 2});
  Var b = leaf({5, 6, 7, 8}, {2, 2});
  EXPECT_EQ(matmul(a, b).value().to_vector(),
            (std::vector<float>{19, 22, 43, 50}));
}

TEST(OpsForward, TransposeRoundTrip) {
  Var a = leaf({1, 2, 3, 4, 5, 6}, {2, 3});
  Var t = transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(transpose2d(t).value().to_vector(), a.value().to_vector());
}

TEST(OpsForward, Reductions) {
  Var a = leaf({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_FLOAT_EQ(sum_all(a).item(), 21.0f);
  EXPECT_EQ(sum_dim(a, 0).value().to_vector(), (std::vector<float>{5, 7, 9}));
  EXPECT_EQ(sum_dim(a, 1).value().to_vector(), (std::vector<float>{6, 15}));
  EXPECT_EQ(mean_dim(a, 1).value().to_vector(), (std::vector<float>{2, 5}));
}

TEST(OpsForward, IndexSelectAndAdd) {
  Var x = leaf({1, 2, 3, 4, 5, 6}, {3, 2});
  Var sel = index_select0(x, {2, 0, 2});
  EXPECT_EQ(sel.value().to_vector(), (std::vector<float>{5, 6, 1, 2, 5, 6}));
  Var acc = index_add0(2, {0, 1, 1}, sel);
  EXPECT_EQ(acc.value().to_vector(), (std::vector<float>{5, 6, 6, 8}));
}

TEST(OpsForward, IndexOutOfRangeThrows) {
  Var x = leaf({1, 2}, {2, 1});
  EXPECT_THROW(index_select0(x, {2}), Error);
  EXPECT_THROW(index_add0(1, {1}, x), Error);
}

TEST(OpsForward, CatNarrowPad) {
  Var a = leaf({1, 2}, {1, 2});
  Var b = leaf({3, 4, 5, 6}, {2, 2});
  Var c0 = cat({a, b}, 0);
  EXPECT_EQ(c0.shape(), (Shape{3, 2}));
  EXPECT_EQ(narrow(c0, 0, 1, 2).value().to_vector(), b.value().to_vector());
  Var c1 = cat({b, b}, 1);
  EXPECT_EQ(c1.shape(), (Shape{2, 4}));
  EXPECT_EQ(narrow(c1, 1, 2, 2).value().to_vector(), b.value().to_vector());
  Var p = pad_slice(a, 0, 1, 3);
  EXPECT_EQ(p.value().to_vector(), (std::vector<float>{0, 0, 1, 2, 0, 0}));
}

TEST(OpsForward, ActivationValues) {
  Var x = leaf({0.0f}, {1});
  EXPECT_FLOAT_EQ(sigmoid(x).item(), 0.5f);
  EXPECT_FLOAT_EQ(silu(x).item(), 0.0f);
  EXPECT_FLOAT_EQ(tanh_op(x).item(), 0.0f);
  Var y = leaf({2.0f}, {1});
  EXPECT_NEAR(silu(y).item(), 2.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
}

TEST(OpsForward, ClampValuesAndMask) {
  // NaN fails both comparisons: the value passes it through, and the mask,
  // and therefore the gradient, is 0 there.
  Var x = leaf({-2, 0.5f, 2, std::nanf("")}, {4});
  const std::vector<float> y = clamp(x, -1, 1).value().to_vector();
  EXPECT_EQ(std::vector<float>(y.begin(), y.begin() + 3),
            (std::vector<float>{-1, 0.5f, 1}));
  EXPECT_TRUE(std::isnan(y[3]));
  EXPECT_EQ(grad(sum_all(clamp(x, -1, 1)), {x})[0].value().to_vector(),
            (std::vector<float>{0, 1, 0, 0}));
}

// ---------------------------------------------------------------------------
// gradients (numeric verification)
// ---------------------------------------------------------------------------

class GradCheckCase : public ::testing::Test {
 protected:
  Rng rng{20240601};
  GradCheckOptions opt;
  void expect_ok(const GradCheckResult& r) {
    EXPECT_TRUE(r.ok) << r.detail << " (abs " << r.max_abs_err << ", rel "
                      << r.max_rel_err << ")";
  }
};

TEST_F(GradCheckCase, BinaryOpsSameShape) {
  Var a = random_leaf({3, 4}, rng, 0.5f, 1.5f);
  Var b = random_leaf({3, 4}, rng, 0.5f, 1.5f);
  expect_ok(gradcheck([&] { return sum_all(mul(add(a, b), sub(a, b))); },
                      {a, b}, opt));
  expect_ok(gradcheck([&] { return sum_all(div(a, b)); }, {a, b}, opt));
}

TEST_F(GradCheckCase, BroadcastGrads) {
  Var m = random_leaf({4, 3}, rng);
  Var row = random_leaf({3}, rng);
  Var col = random_leaf({4, 1}, rng);
  Var s = random_leaf({1}, rng, 0.5f, 1.0f);
  expect_ok(gradcheck(
      [&] { return sum_all(mul(add(m, row), mul(col, s))); },
      {m, row, col, s}, opt));
}

TEST_F(GradCheckCase, MatmulGrad) {
  Var a = random_leaf({3, 5}, rng);
  Var b = random_leaf({5, 2}, rng);
  expect_ok(gradcheck([&] { return sum_all(square(matmul(a, b))); }, {a, b},
                      opt));
}

TEST_F(GradCheckCase, UnaryChain) {
  Var x = random_leaf({8}, rng, 0.2f, 0.9f);
  expect_ok(gradcheck(
      [&] {
        return sum_all(mul(sin_op(x), exp_op(neg(square(x)))));
      },
      {x}, opt));
  expect_ok(gradcheck([&] { return sum_all(log_op(add_scalar(square(x), 1))); },
                      {x}, opt));
  expect_ok(gradcheck([&] { return sum_all(sqrt_op(add_scalar(x, 1))); }, {x},
                      opt));
}

TEST_F(GradCheckCase, ActivationGrads) {
  Var x = random_leaf({12}, rng, -2.0f, 2.0f);
  expect_ok(gradcheck([&] { return sum_all(sigmoid(x)); }, {x}, opt));
  expect_ok(gradcheck([&] { return sum_all(silu(x)); }, {x}, opt));
  expect_ok(gradcheck([&] { return sum_all(tanh_op(x)); }, {x}, opt));
}

TEST_F(GradCheckCase, AcosGrad) {
  Var x = random_leaf({6}, rng, -0.7f, 0.7f);
  expect_ok(gradcheck([&] { return sum_all(acos_op(x)); }, {x}, opt));
}

TEST_F(GradCheckCase, PowAndReciprocal) {
  Var x = random_leaf({6}, rng, 0.5f, 1.5f);
  expect_ok(gradcheck([&] { return sum_all(pow_scalar(x, 3.0f)); }, {x}, opt));
  expect_ok(gradcheck([&] { return sum_all(reciprocal(x)); }, {x}, opt));
}

TEST_F(GradCheckCase, ReductionGrads) {
  Var x = random_leaf({4, 3}, rng);
  expect_ok(gradcheck([&] { return sum_all(square(sum_dim(x, 0))); }, {x},
                      opt));
  expect_ok(gradcheck([&] { return sum_all(square(sum_dim(x, 1))); }, {x},
                      opt));
  expect_ok(gradcheck([&] { return mean_all(square(x)); }, {x}, opt));
}

TEST_F(GradCheckCase, IndexGrads) {
  Var x = random_leaf({5, 2}, rng);
  std::vector<index_t> idx{4, 0, 0, 3, 2, 2};
  expect_ok(gradcheck(
      [&] { return sum_all(square(index_select0(x, idx))); }, {x}, opt));
  expect_ok(gradcheck(
      [&] {
        Var msgs = index_select0(x, idx);
        Var agg = index_add0(3, {0, 1, 2, 0, 1, 2}, msgs);
        return sum_all(square(agg));
      },
      {x}, opt));
}

TEST_F(GradCheckCase, CatNarrowGrads) {
  Var a = random_leaf({2, 3}, rng);
  Var b = random_leaf({2, 3}, rng);
  expect_ok(gradcheck(
      [&] { return sum_all(square(cat({a, b}, 0))); }, {a, b}, opt));
  expect_ok(gradcheck(
      [&] { return sum_all(square(narrow(cat({a, b}, 1), 1, 2, 3))); },
      {a, b}, opt));
}

TEST_F(GradCheckCase, ReshapeGrad) {
  Var x = random_leaf({2, 6}, rng);
  expect_ok(gradcheck(
      [&] { return sum_all(square(reshape(x, {3, 4}))); }, {x}, opt));
}

// ---------------------------------------------------------------------------
// second-order (double backward) -- the force-training code path
// ---------------------------------------------------------------------------

TEST_F(GradCheckCase, DoubleBackwardPolynomial) {
  Var x = random_leaf({4}, rng, 0.3f, 1.0f);
  expect_ok(gradcheck_double(
      [&] { return sum_all(mul(pow_scalar(x, 3.0f), sin_op(x))); }, {x},
      opt));
}

TEST_F(GradCheckCase, DoubleBackwardMatmulChain) {
  Var w = random_leaf({3, 3}, rng);
  Var x = random_leaf({2, 3}, rng);
  expect_ok(gradcheck_double(
      [&] { return sum_all(silu(matmul(x, w))); }, {w, x}, opt));
}

TEST_F(GradCheckCase, DoubleBackwardThroughGather) {
  Var x = random_leaf({4, 2}, rng);
  std::vector<index_t> idx{0, 1, 3, 3};
  expect_ok(gradcheck_double(
      [&] {
        Var m = index_select0(x, idx);
        return sum_all(square(index_add0(2, {0, 1, 0, 1}, m)));
      },
      {x}, opt));
}

TEST_F(GradCheckCase, ForceLikeSecondOrderLoss) {
  // Mimics the reference-CHGNet structure: E = f(pos, w); F = -dE/dpos;
  // loss = sum(F^2) must be differentiable w.r.t. w.
  Var pos = random_leaf({5, 3}, rng, -1.0f, 1.0f);
  Var w = random_leaf({3, 3}, rng);
  auto energy = [&]() -> Var {
    Var h = tanh_op(matmul(pos, w));
    return sum_all(square(h));
  };
  auto loss = [&]() -> Var {
    Var e = energy();
    std::vector<Var> g = grad(e, {pos}, Var(), /*create_graph=*/true);
    Var force = neg(g[0]);
    return sum_all(square(force));
  };
  expect_ok(gradcheck(loss, {w}, opt));
}

// ---------------------------------------------------------------------------
// engine behaviour
// ---------------------------------------------------------------------------

TEST(Engine, BackwardAccumulatesIntoLeaves) {
  Var x(Tensor::from_vector({2, 3}, {2}), true);
  Var y = sum_all(square(x));
  backward(y);
  EXPECT_FLOAT_EQ(x.grad().to_vector()[0], 4.0f);
  EXPECT_FLOAT_EQ(x.grad().to_vector()[1], 6.0f);
  backward(sum_all(square(x)));  // accumulates
  EXPECT_FLOAT_EQ(x.grad().to_vector()[0], 8.0f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad().to_vector()[0], 0.0f);
}

TEST(Engine, DiamondGraphAccumulation) {
  Var x(Tensor::scalar(3.0f), true);
  Var a = mul_scalar(x, 2.0f);
  Var y = add(mul(a, x), a);  // y = 2x^2 + 2x; dy/dx = 4x + 2 = 14
  backward(y);
  EXPECT_FLOAT_EQ(x.grad().item(), 14.0f);
}

TEST(Engine, GradDoesNotTouchLeafGrad) {
  Var x(Tensor::scalar(2.0f), true);
  Var y = square(x);
  std::vector<Var> g = grad(y, {x});
  EXPECT_FLOAT_EQ(g[0].item(), 4.0f);
  EXPECT_FALSE(x.has_grad());
}

TEST(Engine, UnreachableInputGivesUndefinedGrad) {
  Var x(Tensor::scalar(2.0f), true);
  Var z(Tensor::scalar(5.0f), true);
  std::vector<Var> g = grad(square(x), {x, z});
  EXPECT_TRUE(g[0].defined());
  EXPECT_FALSE(g[1].defined());
}

TEST(Engine, NoGradGuardProducesConstants) {
  Var x(Tensor::scalar(2.0f), true);
  {
    NoGradGuard ng;
    Var y = square(x);
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_TRUE(square(x).requires_grad());
}

TEST(Engine, DetachCutsGraph) {
  Var x(Tensor::scalar(2.0f), true);
  Var y = square(x).detach();
  EXPECT_FALSE(y.requires_grad());
  EXPECT_FLOAT_EQ(y.item(), 4.0f);
}

TEST(Engine, BackwardOnNonScalarWithSeed) {
  Var x(Tensor::from_vector({1, 2, 3}, {3}), true);
  Var y = square(x);
  backward(y, Tensor::from_vector({1, 0, 2}, {3}));
  EXPECT_EQ(x.grad().to_vector(), (std::vector<float>{2, 0, 12}));
}

TEST(Engine, SecondOrderKnownValue) {
  // y = x^3, dy/dx = 3x^2, d2y/dx2 = 6x; at x=2: 24... checked via grad of
  // grad contracted with ones.
  Var x(Tensor::scalar(2.0f), true);
  Var y = pow_scalar(x, 3.0f);
  std::vector<Var> g1 = grad(y, {x}, Var(), /*create_graph=*/true);
  EXPECT_FLOAT_EQ(g1[0].item(), 12.0f);
  std::vector<Var> g2 = grad(g1[0], {x});
  EXPECT_FLOAT_EQ(g2[0].item(), 12.0f);  // d(3x^2)/dx = 6x = 12
}

}  // namespace
}  // namespace fastchg::ag
