// Unit tests for the tensor substrate: construction, elementwise ops,
// broadcasting, reductions, matmul variants, and the graph kernels.

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace dquag {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(-1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FactoryFunctions) {
  EXPECT_EQ(Tensor::Ones({2, 2})[3], 1.0f);
  EXPECT_EQ(Tensor::Full({3}, 2.5f)[1], 2.5f);
  EXPECT_EQ(Tensor::Scalar(7.0f).numel(), 1);
  Tensor ar = Tensor::Arange(4);
  EXPECT_EQ(ar[0], 0.0f);
  EXPECT_EQ(ar[3], 3.0f);
}

TEST(TensorTest, RandomFactoriesAreDeterministic) {
  Rng rng1(5), rng2(5);
  Tensor a = Tensor::Randn({32}, rng1);
  Tensor b = Tensor::Randn({32}, rng2);
  EXPECT_TRUE(a.Equals(b));
}

TEST(TensorTest, ElementAccess) {
  Tensor t({2, 3});
  t(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  Tensor t3({2, 3, 4});
  t3(1, 2, 3) = 9.0f;
  EXPECT_EQ(t3[23], 9.0f);
}

TEST(TensorTest, ReshapeKeepsDataAndInfersDim) {
  Tensor t = Tensor::Arange(12);
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.dim(1), 4);
  EXPECT_EQ(r(2, 3), 11.0f);
}

TEST(TensorTest, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c(1, 1), 44.0f);
}

TEST(TensorTest, BroadcastTrailing) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c(0, 0), 11.0f);
  EXPECT_EQ(c(1, 2), 36.0f);
}

TEST(TensorTest, BroadcastMiddleOnes) {
  // [2,1,2] * [3,1] (right-aligned) -> [2,3,2]
  Tensor a({2, 1, 2}, {1, 2, 3, 4});
  Tensor b({3, 1}, {1, 10, 100});
  Tensor c = Mul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 3, 2}));
  EXPECT_EQ(c(0, 0, 0), 1.0f);
  EXPECT_EQ(c(0, 2, 1), 200.0f);
  EXPECT_EQ(c(1, 1, 0), 30.0f);
}

TEST(TensorTest, BroadcastScalar) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor c = Mul(a, Tensor::Scalar(3.0f));
  EXPECT_EQ(c(1, 0), 9.0f);
}

TEST(TensorTest, ReduceToShapeInvertsBroadcast) {
  Tensor g({2, 3}, {1, 1, 1, 1, 1, 1});
  Tensor reduced = ReduceToShape(g, {3});
  EXPECT_EQ(reduced.numel(), 3);
  EXPECT_EQ(reduced[0], 2.0f);
  Tensor reduced2 = ReduceToShape(g, {2, 1});
  EXPECT_EQ(reduced2(0, 0), 3.0f);
}

TEST(TensorTest, UnaryOps) {
  Tensor a({3}, {-1.0f, 0.0f, 2.0f});
  EXPECT_FLOAT_EQ(LeakyRelu(a, 0.1f)[0], -0.1f);
  EXPECT_FLOAT_EQ(Abs(a)[0], 1.0f);
  EXPECT_FLOAT_EQ(Square(a)[2], 4.0f);
  EXPECT_NEAR(Elu(a)[0], std::exp(-1.0f) - 1.0f, 1e-6);
  EXPECT_EQ(Elu(a)[2], 2.0f);
}

TEST(TensorTest, MatMul2DMatchesManual) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 58.0f);
  EXPECT_EQ(c(0, 1), 64.0f);
  EXPECT_EQ(c(1, 0), 139.0f);
  EXPECT_EQ(c(1, 1), 154.0f);
}

TEST(TensorTest, MatMul3DSharedWeight) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 5, 6}, rng);
  Tensor w = Tensor::Randn({6, 2}, rng);
  Tensor c = MatMul(a, w);
  ASSERT_EQ(c.shape(), (Shape{4, 5, 2}));
  // Cross-check one batch against 2-D matmul.
  Tensor a0 = Slice(a, 0, 1, 2).Reshape({5, 6});
  Tensor c0 = MatMul(a0, w);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(c(1, i, j), c0(i, j), 1e-4);
    }
  }
}

TEST(TensorTest, MatMulBatchedBothSides) {
  Rng rng(4);
  Tensor a = Tensor::Randn({3, 2, 4}, rng);
  Tensor b = Tensor::Randn({3, 4, 2}, rng);
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{3, 2, 2}));
  // Verify one element by hand.
  float expected = 0.0f;
  for (int64_t k = 0; k < 4; ++k) expected += a(2, 1, k) * b(2, k, 0);
  EXPECT_NEAR(c(2, 1, 0), expected, 1e-4);
}

TEST(TensorTest, MatMulTransAMatchesExplicitTranspose) {
  Rng rng(5);
  Tensor a = Tensor::Randn({7, 3}, rng);
  Tensor b = Tensor::Randn({7, 4}, rng);
  Tensor direct = MatMulTransA(a, b);
  Tensor reference = MatMul(TransposeLast2(a), b);
  EXPECT_TRUE(direct.AllClose(reference, 1e-4f));
}

TEST(TensorTest, MatMulTransBMatchesExplicitTranspose) {
  Rng rng(6);
  Tensor a = Tensor::Randn({5, 4}, rng);
  Tensor b = Tensor::Randn({3, 4}, rng);
  Tensor direct = MatMulTransB(a, b);
  Tensor reference = MatMul(a, TransposeLast2(b));
  EXPECT_TRUE(direct.AllClose(reference, 1e-4f));
}

TEST(TensorTest, MatMulTransA3DFlattensLeading) {
  Rng rng(7);
  Tensor a = Tensor::Randn({2, 5, 3}, rng);
  Tensor g = Tensor::Randn({2, 5, 4}, rng);
  Tensor direct = MatMulTransA(a, g);
  Tensor reference =
      MatMul(TransposeLast2(a.Reshape({10, 3})), g.Reshape({10, 4}));
  EXPECT_TRUE(direct.AllClose(reference, 1e-4f));
}

TEST(TensorTest, Reductions) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(SumAll(a), 21.0f);
  EXPECT_FLOAT_EQ(MeanAll(a), 3.5f);
  EXPECT_FLOAT_EQ(MaxAll(a), 6.0f);
  EXPECT_FLOAT_EQ(MinAll(a), 1.0f);
  Tensor s0 = Sum(a, 0);
  ASSERT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0[0], 5.0f);
  Tensor s1 = Sum(a, 1, /*keepdims=*/true);
  ASSERT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1[1], 15.0f);
  Tensor m1 = Mean(a, 1);
  EXPECT_FLOAT_EQ(m1[0], 2.0f);
}

TEST(TensorTest, SliceCopiesRange) {
  Tensor c({2, 5}, {1, 2, 5, 6, 7, 3, 4, 8, 9, 10});
  Tensor back = Slice(c, 1, 2, 5);
  EXPECT_TRUE(back.Equals(Tensor({2, 3}, {5, 6, 7, 8, 9, 10})));
  Tensor rows = Slice(c, 0, 1, 2);
  EXPECT_TRUE(rows.Equals(Tensor({1, 5}, {3, 4, 8, 9, 10})));
}

TEST(TensorTest, GatherAxis1Batched) {
  Tensor t({2, 3, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor g = GatherAxis1(t, {2, 0});
  ASSERT_EQ(g.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(g(0, 0, 0), 4.0f);  // row 2 of batch 0
  EXPECT_EQ(g(0, 1, 1), 1.0f);  // row 0 of batch 0
  EXPECT_EQ(g(1, 0, 0), 10.0f);
}

TEST(TensorTest, ScatterAddAxis1AccumulatesDuplicates) {
  Tensor src({1, 3, 2}, {1, 1, 2, 2, 3, 3});
  Tensor out = ScatterAddAxis1(src, {0, 0, 1}, 2);
  ASSERT_EQ(out.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(out(0, 0, 0), 3.0f);  // 1 + 2
  EXPECT_EQ(out(0, 1, 1), 3.0f);
}

TEST(TensorTest, GatherScatterRoundTripIsIdentityForPermutation) {
  Rng rng(9);
  Tensor t = Tensor::Randn({3, 4, 5}, rng);
  std::vector<int32_t> perm = {2, 0, 3, 1};
  Tensor gathered = GatherAxis1(t, perm);
  Tensor restored = ScatterAddAxis1(gathered, perm, 4);
  EXPECT_TRUE(restored.AllClose(t));
}

TEST(TensorTest, SegmentSoftmaxNormalizesPerSegment) {
  Tensor scores({1, 4}, {1.0f, 2.0f, 3.0f, 4.0f});
  std::vector<int32_t> segments = {0, 0, 1, 1};
  Tensor alpha = SegmentSoftmaxAxis1(scores, segments, 2);
  EXPECT_NEAR(alpha(0, 0) + alpha(0, 1), 1.0f, 1e-5);
  EXPECT_NEAR(alpha(0, 2) + alpha(0, 3), 1.0f, 1e-5);
  EXPECT_GT(alpha(0, 1), alpha(0, 0));  // larger score, larger weight
}

TEST(TensorTest, SegmentSoftmaxHandlesEmptySegments) {
  Tensor scores({1, 2}, {1.0f, 2.0f});
  // Segment 1 has no entries; should not crash or produce NaN.
  Tensor alpha = SegmentSoftmaxAxis1(scores, {0, 0}, 3);
  EXPECT_NEAR(alpha(0, 0) + alpha(0, 1), 1.0f, 1e-5);
}

TEST(TensorTest, SegmentSumMatchesManual) {
  Tensor values({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor sums = SegmentSumAxis1(values, {1, 1, 0}, 2);
  ASSERT_EQ(sums.shape(), (Shape{2, 2}));
  EXPECT_EQ(sums(0, 0), 3.0f);
  EXPECT_EQ(sums(0, 1), 3.0f);
  EXPECT_EQ(sums(1, 0), 6.0f);
  EXPECT_EQ(sums(1, 1), 9.0f);
}

TEST(TensorTest, TransposeLast2) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = TransposeLast2(a);
  ASSERT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t(2, 1), 6.0f);
  Tensor b({1, 2, 2}, {1, 2, 3, 4});
  Tensor tb = TransposeLast2(b);
  EXPECT_EQ(tb(0, 0, 1), 3.0f);
}

TEST(TensorTest, AllCloseRespectsTolerance) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f + 1e-6f, 2.0f});
  EXPECT_TRUE(a.AllClose(b, 1e-5f));
  EXPECT_FALSE(a.AllClose(b, 1e-8f));
}

/// Property sweep: broadcasting Add equals manual loop for random shapes.
class BroadcastPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BroadcastPropertyTest, AddMatchesManualBroadcast) {
  auto [b, n, h] = GetParam();
  Rng rng(static_cast<uint64_t>(b * 100 + n * 10 + h));
  Tensor x = Tensor::Randn({b, n, h}, rng);
  Tensor y = Tensor::Randn({n, h}, rng);
  Tensor z = Add(x, y);
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t k = 0; k < h; ++k) {
        ASSERT_NEAR(z(i, j, k), x(i, j, k) + y(j, k), 1e-5);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastPropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(3, 8, 2),
                      std::make_tuple(7, 5, 3)));

/// Property sweep: MatMul matches a naive triple loop.
class MatMulPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulPropertyTest, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 31 + k * 7 + n));
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float expected = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) expected += a(i, kk) * b(kk, j);
      ASSERT_NEAR(c(i, j), expected, 1e-3) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulPropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(16, 8, 1), std::make_tuple(1, 64, 64),
                      std::make_tuple(33, 17, 9),
                      std::make_tuple(128, 64, 64)));

}  // namespace
}  // namespace dquag
