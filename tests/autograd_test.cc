// Autograd correctness: every differentiable op is checked against central
// finite differences, plus tape-mechanics tests (accumulation, NoGrad,
// broadcast reduction, diamond-shaped graphs).

#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "util/rng.h"

namespace dquag {
namespace {

/// Central-difference gradient check: builds `fn(x)` twice per coordinate
/// and compares numeric gradients with backward() results.
void CheckGradient(const std::function<VarPtr(const VarPtr&)>& fn,
                   Tensor x0, float epsilon = 1e-2f, float tolerance = 2e-2f) {
  VarPtr x = MakeVar(x0, /*requires_grad=*/true);
  VarPtr y = fn(x);
  VarPtr loss = ag::SumAll(y);
  Backward(loss);
  const Tensor& analytic = x->grad();

  for (int64_t i = 0; i < x0.numel(); ++i) {
    Tensor plus = x0;
    plus[i] += epsilon;
    Tensor minus = x0;
    minus[i] -= epsilon;
    const float f_plus = SumAll(fn(MakeVar(plus))->value());
    const float f_minus = SumAll(fn(MakeVar(minus))->value());
    const float numeric = (f_plus - f_minus) / (2.0f * epsilon);
    EXPECT_NEAR(analytic[i], numeric, tolerance)
        << "coordinate " << i;
  }
}

TEST(AutogradTest, AddGradient) {
  Rng rng(1);
  Tensor b = Tensor::Randn({2, 3}, rng);
  CheckGradient(
      [&](const VarPtr& x) { return ag::Add(x, MakeVar(b)); },
      Tensor::Randn({2, 3}, rng));
}

TEST(AutogradTest, SubMulGradients) {
  Rng rng(2);
  Tensor b = AddScalar(Abs(Tensor::Randn({2, 2}, rng)), 1.0f);
  CheckGradient([&](const VarPtr& x) { return ag::Sub(x, MakeVar(b)); },
                Tensor::Randn({2, 2}, rng));
  CheckGradient([&](const VarPtr& x) { return ag::Mul(x, MakeVar(b)); },
                Tensor::Randn({2, 2}, rng));
}

TEST(AutogradTest, BroadcastGradientsReduceCorrectly) {
  Rng rng(4);
  Tensor big = Tensor::Randn({3, 4, 2}, rng);
  // x is the small operand: its gradient must be summed over broadcasts.
  CheckGradient(
      [&](const VarPtr& x) { return ag::Mul(MakeVar(big), x); },
      Tensor::Randn({4, 2}, rng));
  CheckGradient(
      [&](const VarPtr& x) { return ag::Add(MakeVar(big), x); },
      Tensor::Randn({2}, rng));
}

TEST(AutogradTest, ScalarOps) {
  Rng rng(5);
  CheckGradient([](const VarPtr& x) { return ag::AddScalar(x, 3.0f); },
                Tensor::Randn({5}, rng));
  CheckGradient([](const VarPtr& x) { return ag::MulScalar(x, -2.0f); },
                Tensor::Randn({5}, rng));
}

TEST(AutogradTest, ActivationGradients) {
  Rng rng(6);
  // Offset away from the LeakyReLU kink for stable finite differences.
  Tensor x = AddScalar(Tensor::Randn({8}, rng), 0.3f);
  CheckGradient([](const VarPtr& v) { return ag::LeakyRelu(v, 0.2f); }, x);
  CheckGradient([](const VarPtr& v) { return ag::Elu(v); }, x);
  CheckGradient([](const VarPtr& v) { return ag::Square(v); }, x);
}

TEST(AutogradTest, MatMul2DGradients) {
  Rng rng(7);
  Tensor w = Tensor::Randn({3, 2}, rng);
  CheckGradient(
      [&](const VarPtr& x) { return ag::MatMul(x, MakeVar(w)); },
      Tensor::Randn({4, 3}, rng));
  Tensor a = Tensor::Randn({4, 3}, rng);
  CheckGradient(
      [&](const VarPtr& x) { return ag::MatMul(MakeVar(a), x); },
      Tensor::Randn({3, 2}, rng));
}

TEST(AutogradTest, MatMul3DSharedWeightGradients) {
  Rng rng(8);
  Tensor w = Tensor::Randn({3, 2}, rng);
  CheckGradient(
      [&](const VarPtr& x) { return ag::MatMul(x, MakeVar(w)); },
      Tensor::Randn({2, 4, 3}, rng));
  Tensor a = Tensor::Randn({2, 4, 3}, rng);
  CheckGradient(
      [&](const VarPtr& x) { return ag::MatMul(MakeVar(a), x); },
      Tensor::Randn({3, 2}, rng));
}

// The shapes above never fill a 16-column GEMM tile. At the model's width
// ([.., 64] x [64, 64]) and at an odd one ([.., 17] x [17, 33], tile plus
// remainder) dX and dW run through the vector backward kernels, checked
// here against finite differences rather than only against the scalar
// table. A random output weighting makes dY non-uniform. The function is
// linear in x, so a large epsilon is exact up to rounding.
TEST(AutogradTest, MatMulGradientsAtModelWidth) {
  Rng rng(81);
  const int64_t shapes[][2] = {{64, 64}, {17, 33}};
  for (const auto& [k, n] : shapes) {
    SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
    const Tensor w = Tensor::Randn({k, n}, rng);
    const Tensor a = Tensor::Randn({2, 5, k}, rng);
    const VarPtr dy = MakeVar(Tensor::Randn({2, 5, n}, rng));
    CheckGradient(
        [&](const VarPtr& x) {
          return ag::Mul(ag::MatMul(x, MakeVar(w)), dy);
        },
        Tensor::Randn({2, 5, k}, rng), /*epsilon=*/0.5f, /*tolerance=*/1e-2f);
    CheckGradient(
        [&](const VarPtr& x) {
          return ag::Mul(ag::MatMul(MakeVar(a), x), dy);
        },
        Tensor::Randn({k, n}, rng), /*epsilon=*/0.5f, /*tolerance=*/1e-2f);
  }
}

TEST(AutogradTest, ReshapeGradient) {
  Rng rng(9);
  CheckGradient(
      [](const VarPtr& x) { return ag::Reshape(x, {6}); },
      Tensor::Randn({2, 3}, rng));
}

TEST(AutogradTest, ReductionGradients) {
  Rng rng(10);
  CheckGradient([](const VarPtr& x) { return ag::Sum(x, 0); },
                Tensor::Randn({3, 4}, rng));
  CheckGradient([](const VarPtr& x) { return ag::Sum(x, 1, true); },
                Tensor::Randn({3, 4}, rng));
  CheckGradient([](const VarPtr& x) { return ag::Mean(x, 1); },
                Tensor::Randn({3, 4}, rng));
  CheckGradient([](const VarPtr& x) { return ag::SumAll(x); },
                Tensor::Randn({3, 4}, rng));
}

TEST(AutogradTest, GatherScatterGradients) {
  Rng rng(11);
  const std::vector<int32_t> indices = {2, 0, 2, 1};
  CheckGradient(
      [&](const VarPtr& x) { return ag::GatherAxis1(x, indices); },
      Tensor::Randn({2, 3, 2}, rng));
  CheckGradient(
      [&](const VarPtr& x) { return ag::ScatterAddAxis1(x, indices, 3); },
      Tensor::Randn({2, 4, 2}, rng));
}

TEST(AutogradTest, SegmentSoftmaxGradient) {
  Rng rng(12);
  const std::vector<int32_t> segments = {0, 0, 1, 1, 1};
  CheckGradient(
      [&](const VarPtr& x) {
        // Weight the softmax so the gradient is not identically zero
        // (softmax rows sum to 1, so SumAll of plain softmax has zero grad).
        VarPtr alpha = ag::SegmentSoftmaxAxis1(x, segments, 2);
        Tensor weights({2, 5}, {1, 2, 3, 4, 5, 5, 4, 3, 2, 1});
        return ag::Mul(alpha, MakeVar(weights));
      },
      Tensor::Randn({2, 5}, rng), /*epsilon=*/5e-3f, /*tolerance=*/3e-2f);
}

// ---- Tape mechanics ----------------------------------------------------------

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  // y = x + x: dy/dx = 2.
  VarPtr x = MakeVar(Tensor::Scalar(3.0f), true);
  Backward(ag::SumAll(ag::Add(x, x)));
  EXPECT_FLOAT_EQ(x->grad()[0], 2.0f);
}

TEST(AutogradTest, DiamondGraph) {
  // y = (x*x) + (x*x) computed through two separate nodes sharing x.
  VarPtr x = MakeVar(Tensor::Scalar(2.0f), true);
  VarPtr a = ag::Square(x);
  VarPtr b = ag::Square(x);
  Backward(ag::SumAll(ag::Add(a, b)));
  EXPECT_FLOAT_EQ(x->grad()[0], 8.0f);  // 2*2x + 2*2x... = 4x = 8
}

TEST(AutogradTest, NoGradLeavesReceiveNothing) {
  VarPtr x = MakeVar(Tensor::Scalar(2.0f), /*requires_grad=*/false);
  VarPtr w = MakeVar(Tensor::Scalar(3.0f), /*requires_grad=*/true);
  Backward(ag::SumAll(ag::Mul(x, w)));
  EXPECT_FALSE(x->has_grad());
  EXPECT_FLOAT_EQ(w->grad()[0], 2.0f);
}

TEST(AutogradTest, NoGradGuardDisablesTape) {
  VarPtr w = MakeVar(Tensor::Scalar(3.0f), /*requires_grad=*/true);
  VarPtr y;
  {
    NoGradGuard guard;
    y = ag::Square(w);
  }
  EXPECT_FALSE(y->has_backward());
  EXPECT_FALSE(y->requires_grad());
}

TEST(AutogradTest, ZeroGradResets) {
  VarPtr x = MakeVar(Tensor::Scalar(1.0f), true);
  Backward(ag::SumAll(ag::Square(x)));
  EXPECT_FLOAT_EQ(x->grad()[0], 2.0f);
  x->ZeroGrad();
  EXPECT_FLOAT_EQ(x->grad()[0], 0.0f);
  Backward(ag::SumAll(ag::Square(x)));
  EXPECT_FLOAT_EQ(x->grad()[0], 2.0f);  // fresh, not 4
}

TEST(AutogradTest, DetachBlocksGradient) {
  VarPtr x = MakeVar(Tensor::Scalar(2.0f), true);
  VarPtr d = Detach(ag::Square(x));
  Backward(ag::SumAll(ag::Mul(d, x)));
  // d treated as constant 4: d(loss)/dx = 4, not 4 + 2x*x.
  EXPECT_FLOAT_EQ(x->grad()[0], 4.0f);
}

/// Parameterized chain-depth property: gradient of a deep ELU chain stays
/// finite and matches finite differences.
class DeepChainTest : public ::testing::TestWithParam<int> {};

TEST_P(DeepChainTest, MatchesFiniteDifference) {
  const int depth = GetParam();
  Rng rng(100 + static_cast<uint64_t>(depth));
  CheckGradient(
      [depth](const VarPtr& x) {
        VarPtr h = x;
        for (int i = 0; i < depth; ++i) h = ag::Elu(h);
        return h;
      },
      Tensor::Randn({4}, rng), /*epsilon=*/1e-2f, /*tolerance=*/3e-2f);
}

INSTANTIATE_TEST_SUITE_P(Depths, DeepChainTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace dquag
