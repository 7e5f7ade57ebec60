// Randomized autograd verification: random op chains and random DAGs are
// checked against central finite differences. This catches interaction bugs
// (broadcast + reduction + reuse) that the per-op tests cannot.

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "util/rng.h"

namespace dquag {
namespace {

/// Applies a randomly chosen unary op from those the model's tape runs. Op
/// choice is driven by `pick` so the same chain can be rebuilt for finite
/// differences.
VarPtr ApplyUnary(int pick, const VarPtr& x) {
  switch (pick % 5) {
    case 0: return ag::Elu(x);
    case 1: return ag::LeakyRelu(x);
    case 2: return ag::Square(x);
    case 3: return ag::MulScalar(x, 0.7f);
    default: return ag::AddScalar(x, 0.1f);
  }
}

/// Mean over every element, built from the tape ops the trainer uses.
VarPtr MeanAll(const VarPtr& x) {
  return ag::MulScalar(ag::SumAll(x),
                       1.0f / static_cast<float>(x->value().numel()));
}

/// Applies a randomly chosen binary op against a constant.
VarPtr ApplyBinary(int pick, const VarPtr& x, const Tensor& constant) {
  VarPtr c = MakeVar(constant);
  switch (pick % 3) {
    case 0: return ag::Add(x, c);
    case 1: return ag::Mul(x, c);
    default: return ag::Sub(x, c);
  }
}

struct ChainSpec {
  std::vector<int> unary_picks;
  std::vector<int> binary_picks;
  std::vector<Tensor> constants;
};

VarPtr BuildChain(const ChainSpec& spec, const VarPtr& input) {
  VarPtr h = input;
  for (size_t i = 0; i < spec.unary_picks.size(); ++i) {
    h = ApplyUnary(spec.unary_picks[i], h);
    h = ApplyBinary(spec.binary_picks[i], h, spec.constants[i]);
  }
  return MeanAll(ag::Square(h));
}

class AutogradFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AutogradFuzzTest, RandomChainMatchesFiniteDifference) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const int64_t rows = rng.UniformInt(1, 4);
  const int64_t cols = rng.UniformInt(1, 5);
  const int depth = static_cast<int>(rng.UniformInt(1, 5));

  ChainSpec spec;
  for (int i = 0; i < depth; ++i) {
    spec.unary_picks.push_back(static_cast<int>(rng.UniformInt(0, 4)));
    spec.binary_picks.push_back(static_cast<int>(rng.UniformInt(0, 2)));
    // Constants broadcast either exactly or over rows.
    if (rng.Bernoulli(0.5)) {
      spec.constants.push_back(Tensor::Randn({rows, cols}, rng, 0.5f));
    } else {
      spec.constants.push_back(Tensor::Randn({cols}, rng, 0.5f));
    }
  }

  Tensor x0 = Tensor::Randn({rows, cols}, rng, 0.8f);
  VarPtr x = MakeVar(x0, /*requires_grad=*/true);
  Backward(BuildChain(spec, x));
  const Tensor& analytic = x->grad();

  const float eps = 1e-2f;
  for (int64_t i = 0; i < x0.numel(); ++i) {
    Tensor plus = x0, minus = x0;
    plus[i] += eps;
    minus[i] -= eps;
    const float f_plus = BuildChain(spec, MakeVar(plus))->value()[0];
    const float f_minus = BuildChain(spec, MakeVar(minus))->value()[0];
    const float numeric = (f_plus - f_minus) / (2.0f * eps);
    ASSERT_NEAR(analytic[i], numeric, 3e-2f)
        << "seed " << seed << " coordinate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradFuzzTest,
                         ::testing::Range(1, 17));

TEST(AutogradDagTest, SharedSubexpressionGradients) {
  // f(x) = mean((elu(x) * leaky_relu(x) + elu(x))^2): elu(x) reused.
  Rng rng(99);
  Tensor x0 = Tensor::Randn({3, 3}, rng);
  auto build = [](const VarPtr& x) {
    VarPtr t = ag::Elu(x);
    VarPtr s = ag::LeakyRelu(x);
    return MeanAll(ag::Square(ag::Add(ag::Mul(t, s), t)));
  };
  VarPtr x = MakeVar(x0, true);
  Backward(build(x));
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x0.numel(); ++i) {
    Tensor plus = x0, minus = x0;
    plus[i] += eps;
    minus[i] -= eps;
    const float numeric =
        (build(MakeVar(plus))->value()[0] -
         build(MakeVar(minus))->value()[0]) /
        (2.0f * eps);
    EXPECT_NEAR(x->grad()[i], numeric, 2e-2f);
  }
}

TEST(AutogradDagTest, GraphKernelCompositionGradient) {
  // Mimics one GAT step end to end: gather -> mul by segment softmax ->
  // scatter -> matmul, differentiated through every kernel at once.
  Rng rng(123);
  const std::vector<int32_t> src = {0, 1, 2, 1, 0};
  const std::vector<int32_t> dst = {1, 0, 1, 2, 2};
  Tensor x0 = Tensor::Randn({2, 3, 4}, rng, 0.7f);
  Tensor w0 = Tensor::Randn({4, 2}, rng, 0.7f);
  Tensor scores0 = Tensor::Randn({2, 5}, rng, 0.7f);

  auto build = [&](const VarPtr& x, const VarPtr& scores, const VarPtr& w) {
    VarPtr gathered = ag::GatherAxis1(x, src);             // [2,5,4]
    VarPtr alpha = ag::SegmentSoftmaxAxis1(scores, dst, 3);  // [2,5]
    VarPtr alpha3 = ag::Reshape(alpha, {2, 5, 1});
    VarPtr weighted = ag::Mul(gathered, alpha3);
    VarPtr pooled = ag::ScatterAddAxis1(weighted, dst, 3);  // [2,3,4]
    return MeanAll(ag::Square(ag::MatMul(pooled, w)));
  };

  VarPtr x = MakeVar(x0, true);
  VarPtr scores = MakeVar(scores0, true);
  VarPtr w = MakeVar(w0, true);
  Backward(build(x, scores, w));

  const float eps = 1e-2f;
  // Check a sample of coordinates from each input.
  auto check = [&](const Tensor& base, const Tensor& grad,
                   const std::function<VarPtr(const Tensor&)>& rebuild,
                   int64_t index) {
    Tensor plus = base, minus = base;
    plus[index] += eps;
    minus[index] -= eps;
    const float numeric =
        (rebuild(plus)->value()[0] - rebuild(minus)->value()[0]) /
        (2.0f * eps);
    EXPECT_NEAR(grad[index], numeric, 3e-2f) << "index " << index;
  };
  for (int64_t i : {0L, 5L, 11L, 23L}) {
    check(x0, x->grad(),
          [&](const Tensor& t) {
            return build(MakeVar(t), MakeVar(scores0), MakeVar(w0));
          },
          i);
  }
  for (int64_t i : {0L, 4L, 9L}) {
    check(scores0, scores->grad(),
          [&](const Tensor& t) {
            return build(MakeVar(x0), MakeVar(t), MakeVar(w0));
          },
          i);
  }
  for (int64_t i : {0L, 7L}) {
    check(w0, w->grad(),
          [&](const Tensor& t) {
            return build(MakeVar(x0), MakeVar(scores0), MakeVar(t));
          },
          i);
  }
}

}  // namespace
}  // namespace dquag
