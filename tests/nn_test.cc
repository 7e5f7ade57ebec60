// Tests for the nn module: Linear/MLP shapes and gradients, the feature
// tokenizer, Adam convergence, losses, initializers.

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "nn/adam.h"
#include "nn/feature_tokenizer.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/losses.h"

namespace dquag {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  VarPtr x = MakeVar(Tensor::Randn({5, 4}, rng));
  VarPtr y = layer.Forward(x);
  EXPECT_EQ(y->value().shape(), (Shape{5, 3}));
  VarPtr x3 = MakeVar(Tensor::Randn({2, 5, 4}, rng));
  EXPECT_EQ(layer.Forward(x3)->value().shape(), (Shape{2, 5, 3}));
}

TEST(LinearTest, ParameterCount) {
  Rng rng(3);
  Linear layer(4, 3, rng);
  EXPECT_EQ(layer.NumParameters(), 4 * 3 + 3);
}

TEST(MlpTest, StackAppliesActivationBetweenLayers) {
  Rng rng(4);
  Mlp mlp({4, 8, 2}, rng);
  const Tensor x = Tensor::Randn({3, 4}, rng);
  const Tensor y = mlp.Forward(MakeVar(x))->value();
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  const std::vector<VarPtr> params = mlp.Parameters();
  ASSERT_EQ(params.size(), 4u);  // two layers x (W, b)
  // y = elu(x W1 + b1) W2 + b2: ELU between the layers, none after the
  // last. Some pre-activations are negative, so ELU differs from identity
  // and from ReLU here.
  const Tensor pre = Add(MatMul(x, params[0]->value()), params[1]->value());
  EXPECT_LT(MinAll(pre), 0.0f);
  const Tensor expected =
      Add(MatMul(Elu(pre), params[2]->value()), params[3]->value());
  EXPECT_TRUE(y.Equals(expected));
  // The engine forward applies the same ELU in place (its fused GEMM may
  // round differently from the tape's).
  InferenceContext ctx;
  EXPECT_TRUE(mlp.InferForward(x, ctx).AllClose(expected, 1e-5f));
}

TEST(FeatureTokenizerTest, PerFeatureAffine) {
  Rng rng(5);
  FeatureTokenizer tok(3, 4, rng);
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  VarPtr h = tok.Forward(MakeVar(x));
  ASSERT_EQ(h->value().shape(), (Shape{2, 3, 4}));
  // h[b, f, k] must be linear in x[b, f]: h(2x) - h(x) == h(x) - h(0).
  Tensor zeros = Tensor::Zeros({2, 3});
  Tensor h0 = tok.Forward(MakeVar(zeros))->value();
  Tensor hx = h->value();
  Tensor h2 = tok.Forward(MakeVar(MulScalar(x, 2.0f)))->value();
  EXPECT_TRUE(Sub(h2, hx).AllClose(Sub(hx, h0), 1e-4f));
}

TEST(FeatureTokenizerTest, ColumnsDoNotMix) {
  Rng rng(6);
  FeatureTokenizer tok(2, 3, rng);
  Tensor a({1, 2}, {1.0f, 0.0f});
  Tensor b({1, 2}, {1.0f, 9.0f});
  Tensor ha = tok.Forward(MakeVar(a))->value();
  Tensor hb = tok.Forward(MakeVar(b))->value();
  // Changing column 1 must not change column 0's embedding.
  for (int64_t k = 0; k < 3; ++k) {
    EXPECT_FLOAT_EQ(ha(0, 0, k), hb(0, 0, k));
  }
}

TEST(AdamTest, ConvergesOnLeastSquares) {
  // Fit y = 2x + 1 with a 1-d linear model.
  Rng rng(7);
  VarPtr w = MakeVar(Tensor::Scalar(0.0f), true);
  VarPtr b = MakeVar(Tensor::Scalar(0.0f), true);
  Adam adam({w, b}, /*learning_rate=*/0.05f);
  Tensor xs({16});
  Tensor ys({16});
  for (int64_t i = 0; i < 16; ++i) {
    xs[i] = static_cast<float>(i) / 8.0f - 1.0f;
    ys[i] = 2.0f * xs[i] + 1.0f;
  }
  for (int step = 0; step < 400; ++step) {
    VarPtr pred = ag::Add(ag::Mul(MakeVar(xs), w), b);
    VarPtr loss = ag::Mean(ag::Square(ag::Sub(pred, MakeVar(ys))), 0);
    adam.ZeroGrad();
    Backward(loss);
    adam.Step();
  }
  EXPECT_NEAR(w->value()[0], 2.0f, 0.05f);
  EXPECT_NEAR(b->value()[0], 1.0f, 0.05f);
}

TEST(AdamTest, StepCountAndZeroGrad) {
  VarPtr w = MakeVar(Tensor::Scalar(1.0f), true);
  Adam adam({w});
  EXPECT_EQ(adam.step_count(), 0);
  Backward(ag::SumAll(ag::Square(w)));
  adam.Step();
  EXPECT_EQ(adam.step_count(), 1);
  adam.ZeroGrad();
  EXPECT_FLOAT_EQ(w->grad()[0], 0.0f);
}

TEST(LossTest, SquaredErrorSumValue) {
  // Squared errors 1 and 4: their mean over B * d = 2 elements is 2.5.
  VarPtr pred = MakeVar(Tensor({1, 2}, {1.0f, 3.0f}));
  VarPtr target = MakeVar(Tensor({1, 2}, {0.0f, 1.0f}));
  EXPECT_FLOAT_EQ(SquaredErrorSum(pred, target)->value()[0], 1.0f + 4.0f);
}

TEST(LossTest, WeightedPerSampleErrorSumRespectsWeights) {
  // Two samples with per-sample errors 1 and 4; B = 2, so each sum is the
  // weighted mean (2.5 uniform, 1.0 skewed) times 2.
  VarPtr pred = MakeVar(Tensor({2, 1}, {1.0f, 2.0f}));
  VarPtr target = MakeVar(Tensor({2, 1}, {0.0f, 0.0f}));
  Tensor uniform({2}, {1.0f, 1.0f});
  EXPECT_FLOAT_EQ(
      WeightedPerSampleErrorSum(pred, target, uniform)->value()[0], 5.0f);
  Tensor skewed({2}, {2.0f, 0.0f});
  EXPECT_FLOAT_EQ(
      WeightedPerSampleErrorSum(pred, target, skewed)->value()[0], 2.0f);
}

TEST(LossTest, PerSampleAndPerFeatureErrors) {
  Tensor pred({2, 2}, {1, 1, 3, 3});
  Tensor target({2, 2}, {0, 0, 0, 0});
  EXPECT_FLOAT_EQ(PerSampleError(pred.data(), target.data(), 2), 1.0f);
  EXPECT_FLOAT_EQ(PerSampleError(pred.data() + 2, target.data() + 2, 2),
                  9.0f);
  Tensor per_feature = PerFeatureErrors(pred, target);
  EXPECT_FLOAT_EQ(per_feature(1, 1), 9.0f);
}

TEST(LossTest, ErrorsToWeightsFavoursSmallErrors) {
  const float errors[] = {0.01f, 0.01f, 10.0f};
  Tensor weights;
  ErrorsToWeightsInto(errors, 3, weights);
  ASSERT_EQ(weights.shape(), Shape({3}));
  EXPECT_GT(weights[0], weights[2]);
  // Weights average to 1.
  EXPECT_NEAR((weights[0] + weights[1] + weights[2]) / 3.0f, 1.0f, 1e-4f);
}

TEST(InitTest, XavierUniformBounds) {
  Rng rng(8);
  Tensor w = XavierUniform(100, 50, rng);
  const float limit = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(MaxAll(w), limit);
  EXPECT_GE(MinAll(w), -limit);
  // Not degenerate.
  EXPECT_GT(MaxAll(Abs(w)), limit * 0.5f);
}

TEST(InitTest, HeNormalVariance) {
  Rng rng(9);
  Tensor w = HeNormal(256, 64, rng);
  const float mean = MeanAll(w);
  float var = 0.0f;
  for (int64_t i = 0; i < w.numel(); ++i) {
    var += (w[i] - mean) * (w[i] - mean);
  }
  var /= static_cast<float>(w.numel());
  EXPECT_NEAR(var, 2.0f / 256.0f, 2e-3f);
}

TEST(ModuleTest, CopyParametersFrom) {
  Rng rng1(10), rng2(11);
  Linear a(3, 2, rng1), b(3, 2, rng2);
  EXPECT_FALSE(
      a.Parameters()[0]->value().AllClose(b.Parameters()[0]->value()));
  b.CopyParametersFrom(a);
  EXPECT_TRUE(
      a.Parameters()[0]->value().AllClose(b.Parameters()[0]->value()));
}

}  // namespace
}  // namespace dquag
