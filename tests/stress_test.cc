// Stress and large-input tests: big tensors through the elementwise,
// matmul and gather/scatter kernels, plus thread-pool contention.

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dquag {
namespace {

TEST(StressTest, LargeElementwiseMatchesDirectArithmetic) {
  // 8M elements.
  Rng rng(1);
  Tensor a = Tensor::Randn({2048, 64, 64}, rng);
  Tensor b = Tensor::Randn({2048, 64, 64}, rng);
  Tensor sum = Add(a, b);
  // Spot-check against direct arithmetic.
  for (int64_t i : {0L, 123456L, 8388607L}) {
    EXPECT_FLOAT_EQ(sum[i], a[i] + b[i]);
  }
  Tensor act = Elu(sum);
  for (int64_t i : {7L, 4194304L}) {
    EXPECT_NEAR(act[i], sum[i] > 0 ? sum[i] : std::expm1(sum[i]), 1e-6f);
  }
}

TEST(StressTest, LargeBroadcastCorrect) {
  // [4096, 16, 64] op [16, 64]: the rank-3 broadcast path.
  Rng rng(2);
  Tensor a = Tensor::Randn({4096, 16, 64}, rng);
  Tensor b = Tensor::Randn({16, 64}, rng);
  Tensor out = Mul(a, b);
  for (int64_t batch : {0L, 1000L, 4095L}) {
    for (int64_t i : {0L, 7L}) {
      for (int64_t j : {0L, 63L}) {
        ASSERT_FLOAT_EQ(out(batch, i, j), a(batch, i, j) * b(i, j));
      }
    }
  }
}

TEST(StressTest, LargeMatMulMatchesNaiveProduct) {
  // Spot-check the tiled kernel against a naive dot product.
  Rng rng(3);
  Tensor a = Tensor::Randn({4096, 64}, rng);
  Tensor b = Tensor::Randn({64, 64}, rng);
  Tensor c = MatMul(a, b);
  for (int64_t i : {0L, 2047L, 4095L}) {
    for (int64_t j : {0L, 63L}) {
      float expected = 0.0f;
      for (int64_t k = 0; k < 64; ++k) expected += a(i, k) * b(k, j);
      ASSERT_NEAR(c(i, j), expected, 1e-2f);
    }
  }
}

TEST(StressTest, LargeGatherScatter) {
  Rng rng(4);
  Tensor t = Tensor::Randn({4096, 20, 64}, rng);
  std::vector<int32_t> indices;
  for (int32_t e = 0; e < 40; ++e) {
    indices.push_back(static_cast<int32_t>(rng.UniformInt(0, 19)));
  }
  Tensor gathered = GatherAxis1(t, indices);
  ASSERT_EQ(gathered.shape(), (Shape{4096, 40, 64}));
  for (int64_t b : {0L, 4095L}) {
    for (size_t e : {size_t{0}, size_t{39}}) {
      for (int64_t k : {0L, 63L}) {
        ASSERT_FLOAT_EQ(gathered(b, static_cast<int64_t>(e), k),
                        t(b, indices[e], k));
      }
    }
  }
  // Scatter of all-ones counts index multiplicity.
  Tensor ones = Tensor::Ones({4096, 40, 64});
  Tensor scattered = ScatterAddAxis1(ones, indices, 20);
  std::vector<int> multiplicity(20, 0);
  for (int32_t idx : indices) ++multiplicity[static_cast<size_t>(idx)];
  for (int64_t v = 0; v < 20; ++v) {
    ASSERT_FLOAT_EQ(scattered(0, v, 0),
                    static_cast<float>(multiplicity[static_cast<size_t>(v)]));
    ASSERT_FLOAT_EQ(scattered(4095, v, 63),
                    static_cast<float>(multiplicity[static_cast<size_t>(v)]));
  }
}

TEST(StressTest, LargeSegmentSoftmax) {
  Rng rng(5);
  const int64_t batch = 8192, num = 64;
  Tensor scores = Tensor::Randn({batch, num}, rng);
  std::vector<int32_t> segments;
  for (int64_t e = 0; e < num; ++e) {
    segments.push_back(static_cast<int32_t>(e % 8));
  }
  Tensor alpha = SegmentSoftmaxAxis1(scores, segments, 8);
  for (int64_t b : {0L, 8191L}) {
    std::vector<float> sums(8, 0.0f);
    for (int64_t e = 0; e < num; ++e) {
      sums[static_cast<size_t>(segments[static_cast<size_t>(e)])] +=
          alpha(b, e);
    }
    for (float s : sums) ASSERT_NEAR(s, 1.0f, 1e-4f);
  }
}

TEST(StressTest, ConcurrentRunTasksAndWaitDriversLoseNoWork) {
  // Four external threads fan out back to back on one shared pool. Each
  // round waits on its own latch, so it must see exactly its own work
  // finished, whatever the other drivers have queued.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&pool, &total] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<int64_t> sum{0};
        RunTasksAndWait(pool, 512, [&](int64_t i) {
          sum.fetch_add(i, std::memory_order_relaxed);
        });
        ASSERT_EQ(sum.load(), 512LL * 511 / 2);
        total.fetch_add(512);
      }
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(total.load(), 4 * 20 * 512);
}

TEST(StressTest, ReduceToShapeLargeBroadcastGrad) {
  // Gradient reduction over a big broadcast: [4096,16,64] -> [16,64].
  Tensor g = Tensor::Ones({4096, 16, 64});
  Tensor reduced = ReduceToShape(g, {16, 64});
  ASSERT_EQ(reduced.shape(), (Shape{16, 64}));
  for (int64_t i : {0L, 1023L}) EXPECT_FLOAT_EQ(reduced[i], 4096.0f);
}

}  // namespace
}  // namespace dquag
