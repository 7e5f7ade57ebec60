// Kernel-by-kernel bit-identity of the SIMD dispatch layer.
//
// The contract (tensor/simd.h): the scalar reference table and every vector
// table execute the same per-element IEEE operation sequence, so their
// outputs are memcmp-equal — not merely close. Each suite runs once per
// table the CPU can run (an AVX-512 host checks its AVX2 table too), and
// every kernel is swept over sizes that exercise full vector blocks,
// row/column remainders, and the scalar tails on both sides of them.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/quantized.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace dquag {
namespace {

std::vector<float> RandomVector(int64_t n, Rng& rng, double lo = -2.0,
                                double hi = 2.0) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(lo, hi));
  return v;
}

void ExpectBytesEqual(const std::vector<float>& a, const std::vector<float>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << label;
}

// Size sweep: k crosses the 8-lane boundary and its tails; n crosses the
// 8-column AVX2 tile and its remainders; m crosses the 4-row block.
const int64_t kKs[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67};
const int64_t kNs[] = {1, 3, 5, 8, 11, 16, 64};
const int64_t kMs[] = {1, 2, 3, 4, 5, 7, 9};

// The float GEMMs' wide sweep: output widths around the 16-, 32- and
// 64-column tiles and the 8/16-output trans_b strips, odd row counts (the
// AVX-512 trans_b strip takes two rows at a time) and row counts that cross
// a matmul_trans_a row panel (64), and a dot longer than a trans_b strip
// holds (256).
const int64_t kGemmKs[] = {1, 5, 8, 17, 64, 67, 300};
const int64_t kGemmNs[] = {17, 33, 65, 80, 128};
const int64_t kGemmMs[] = {1, 3, 8, 13, 64, 70, 133};

/// Runs `suite` once per vector table the CPU supports, labelled by name.
template <typename Suite>
void ForEachVectorTable(const Suite& suite) {
  for (const simd::SimdKernelTable* table : simd::SupportedKernelTables()) {
    if (table == &simd::ScalarKernels()) continue;
    SCOPED_TRACE(std::string("table ") + table->name);
    suite(*table);
  }
}

/// matmul, matmul_trans_a and matmul_trans_b of `vec` against scalar at
/// one (m, k, n).
void CheckMatMulFamily(const simd::SimdKernelTable& vec, int64_t m, int64_t k,
                       int64_t n, Rng& rng) {
  const simd::SimdKernelTable& scalar = simd::ScalarKernels();
  const std::string label = "m=" + std::to_string(m) +
                            " k=" + std::to_string(k) +
                            " n=" + std::to_string(n);
  std::vector<float> a = RandomVector(m * k, rng);
  std::vector<float> b = RandomVector(k * n, rng);
  std::vector<float> seed = RandomVector(m * n, rng);

  std::vector<float> c0 = seed;
  std::vector<float> c1 = seed;
  scalar.matmul(a.data(), b.data(), c0.data(), m, k, n);
  vec.matmul(a.data(), b.data(), c1.data(), m, k, n);
  ExpectBytesEqual(c0, c1, "matmul " + label);

  // A^T B: A is [m,k], B is [m,n], C is [k,n].
  std::vector<float> bt = RandomVector(m * n, rng);
  std::vector<float> ct = RandomVector(k * n, rng);
  std::vector<float> t0 = ct;
  std::vector<float> t1 = ct;
  scalar.matmul_trans_a(a.data(), bt.data(), t0.data(), m, k, n);
  vec.matmul_trans_a(a.data(), bt.data(), t1.data(), m, k, n);
  ExpectBytesEqual(t0, t1, "matmul_trans_a " + label);

  // A B^T: A is [m,k], B is [n,k] here, C is [m,n].
  std::vector<float> bb = RandomVector(n * k, rng);
  std::vector<float> cb = RandomVector(m * n, rng);
  std::vector<float> u0 = cb;
  std::vector<float> u1 = cb;
  scalar.matmul_trans_b(a.data(), bb.data(), u0.data(), m, k, n);
  vec.matmul_trans_b(a.data(), bb.data(), u1.data(), m, k, n);
  ExpectBytesEqual(u0, u1, "matmul_trans_b " + label);
}

TEST(SimdKernelTest, MatMulFamilyMatchesScalar) {
  ForEachVectorTable([](const simd::SimdKernelTable& vec) {
    Rng rng(101);
    for (int64_t m : kMs) {
      for (int64_t k : kKs) {
        for (int64_t n : kNs) CheckMatMulFamily(vec, m, k, n, rng);
      }
    }
  });
}

TEST(SimdKernelTest, MatMulFamilyWideTilesMatchScalar) {
  ForEachVectorTable([](const simd::SimdKernelTable& vec) {
    Rng rng(107);
    for (int64_t m : kGemmMs) {
      for (int64_t k : kGemmKs) {
        for (int64_t n : kGemmNs) CheckMatMulFamily(vec, m, k, n, rng);
      }
    }
  });
}

TEST(SimdKernelTest, DualMatVecAndReadoutMatchScalar) {
  const simd::SimdKernelTable& scalar = simd::ScalarKernels();
  ForEachVectorTable([&](const simd::SimdKernelTable& vec) {
    Rng rng(102);
    for (int64_t rows : kMs) {
      for (int64_t k : kKs) {
        const std::string label =
            "rows=" + std::to_string(rows) + " k=" + std::to_string(k);
        std::vector<float> x = RandomVector(rows * k, rng);
        std::vector<float> w1 = RandomVector(k, rng);
        std::vector<float> w2 = RandomVector(k, rng);
        std::vector<float> o1a(rows), o2a(rows), o1b(rows), o2b(rows);
        scalar.dual_matvec(x.data(), w1.data(), w2.data(), o1a.data(),
                           o2a.data(), rows, k);
        vec.dual_matvec(x.data(), w1.data(), w2.data(), o1b.data(), o2b.data(),
                         rows, k);
        ExpectBytesEqual(o1a, o1b, "dual_matvec o1 " + label);
        ExpectBytesEqual(o2a, o2b, "dual_matvec o2 " + label);

        // readout_dot: z is [rows, d, h] with d features of width h = k.
        const int64_t d = 5;
        std::vector<float> z = RandomVector(rows * d * k, rng);
        std::vector<float> w = RandomVector(d * k, rng);
        std::vector<float> bias = RandomVector(d, rng);
        std::vector<float> ra(rows * d), rb(rows * d);
        scalar.readout_dot(z.data(), w.data(), bias.data(), ra.data(), rows, d,
                           k);
        vec.readout_dot(z.data(), w.data(), bias.data(), rb.data(), rows, d,
                         k);
        ExpectBytesEqual(ra, rb, "readout_dot " + label);
      }
    }
  });
}

TEST(SimdKernelTest, ElementwiseKernelsMatchScalar) {
  const simd::SimdKernelTable& scalar = simd::ScalarKernels();
  ForEachVectorTable([&](const simd::SimdKernelTable& vec) {
    Rng rng(103);
    for (int64_t n : kKs) {
      const std::string label = "n=" + std::to_string(n);
      std::vector<float> x = RandomVector(n, rng, -6.0, 6.0);

      std::vector<float> e0 = x;
      std::vector<float> e1 = x;
      scalar.exp_inplace(e0.data(), n);
      vec.exp_inplace(e1.data(), n);
      ExpectBytesEqual(e0, e1, "exp_inplace " + label);

      std::vector<float> l0(n), l1(n);
      scalar.elu(x.data(), l0.data(), n, 1.0f);
      vec.elu(x.data(), l1.data(), n, 1.0f);
      ExpectBytesEqual(l0, l1, "elu " + label);

      const float s = 0.37f;
      std::vector<float> seed = RandomVector(n, rng);
      std::vector<float> a0 = seed;
      std::vector<float> a1 = seed;
      scalar.axpy(x.data(), s, a0.data(), n);
      vec.axpy(x.data(), s, a1.data(), n);
      ExpectBytesEqual(a0, a1, "axpy " + label);

      std::vector<float> b = RandomVector(n, rng);
      std::vector<float> p0 = seed;
      std::vector<float> p1 = seed;
      scalar.add_product(x.data(), b.data(), s, p0.data(), n);
      vec.add_product(x.data(), b.data(), s, p1.data(), n);
      ExpectBytesEqual(p0, p1, "add_product " + label);
    }
  });
}

TEST(SimdKernelTest, SegmentSoftmaxMatchesScalar) {
  const simd::SimdKernelTable& scalar = simd::ScalarKernels();
  ForEachVectorTable([&](const simd::SimdKernelTable& vec) {
    Rng rng(104);
    // Segments of wildly different sizes, scattered through `order`.
    const std::vector<int64_t> offsets = {0, 1, 4, 4, 13, 20};
    const size_t num_segments = offsets.size() - 1;
    const int64_t num_entries = offsets.back();
    std::vector<int32_t> order(static_cast<size_t>(num_entries));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int32_t>((i * 7) % order.size());
    }
    // `order` must be a permutation; the stride-7 walk is one for size 20.
    std::vector<float> row = RandomVector(num_entries, rng, -4.0, 4.0);
    std::vector<float> r0 = row;
    std::vector<float> r1 = row;
    scalar.segment_softmax_csr(r0.data(), offsets.data(), num_segments,
                               order.data());
    vec.segment_softmax_csr(r1.data(), offsets.data(), num_segments,
                             order.data());
    ExpectBytesEqual(r0, r1, "segment_softmax_csr");
  });
}

TEST(SimdKernelTest, QuantizePathMatchesScalar) {
  const simd::SimdKernelTable& scalar = simd::ScalarKernels();
  ForEachVectorTable([&](const simd::SimdKernelTable& vec) {
    Rng rng(105);
    for (int64_t rows : kMs) {
      for (int64_t k : kKs) {
        for (int64_t n : kNs) {
          const std::string label = "rows=" + std::to_string(rows) +
                                    " k=" + std::to_string(k) +
                                    " n=" + std::to_string(n);
          const int64_t kp = (k + 1) & ~int64_t{1};
          std::vector<float> x = RandomVector(rows * k, rng);
          if (rows > 2) {
            // An all-zero row exercises the scale-0 path.
            std::fill(x.begin() + static_cast<size_t>(k),
                      x.begin() + static_cast<size_t>(2 * k), 0.0f);
          }

          std::vector<int8_t> q0(rows * kp, 99), q1(rows * kp, 99);
          std::vector<float> s0(rows), s1(rows);
          scalar.quantize_rows(x.data(), rows, k, kp, q0.data(), s0.data());
          vec.quantize_rows(x.data(), rows, k, kp, q1.data(), s1.data());
          ASSERT_EQ(0, std::memcmp(q0.data(), q1.data(), q0.size()))
              << "quantize_rows values " << label;
          ExpectBytesEqual(s0, s1, "quantize_rows scales " + label);

          // Weights through the production quantize + pack pipeline.
          Tensor w({k, n});
          for (int64_t i = 0; i < w.numel(); ++i) {
            w.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
          }
          QuantizedWeight qw = QuantizeWeight(w);
          PackQuantizedWeight(qw);
          ASSERT_EQ(qw.in_padded(), kp) << label;
          std::vector<float> bias = RandomVector(n, rng);

          for (const float* pb :
               {static_cast<const float*>(bias.data()),
                static_cast<const float*>(nullptr)}) {
            std::vector<float> g0(rows * n, -7.0f), g1(rows * n, -7.0f);
            scalar.qgemm(q0.data(), s0.data(), qw.packed.data(),
                         qw.scales.data(), pb, g0.data(), rows, kp, n);
            vec.qgemm(q0.data(), s0.data(), qw.packed.data(), qw.scales.data(),
                       pb, g1.data(), rows, kp, n);
            ExpectBytesEqual(g0, g1,
                             std::string("qgemm ") +
                                 (pb != nullptr ? "bias " : "nobias ") + label);
          }
        }
      }
    }
  });
}

// The runnable tables start at the scalar reference and end at the table
// ActiveKernels() would pick.
TEST(SimdKernelTest, SupportedTablesRunFromScalarToBest) {
  const std::vector<const simd::SimdKernelTable*> tables =
      simd::SupportedKernelTables();
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables.front(), &simd::ScalarKernels());
  EXPECT_EQ(tables.back(), &simd::BestSupportedKernels());
}

// The override hook swaps the process-wide table and back.
TEST(SimdKernelTest, OverrideHookSwapsActiveTable) {
  const simd::SimdKernelTable& scalar = simd::ScalarKernels();
  simd::SetKernelTableOverride(&scalar);
  EXPECT_EQ(&simd::ActiveKernels(), &scalar);
  simd::SetKernelTableOverride(nullptr);
  EXPECT_NE(simd::ActiveKernels().name, nullptr);
}

// Row-position independence: validating rows in one block or split into
// arbitrary sub-blocks yields byte-identical outputs (the streaming
// chunking contract at the kernel level).
TEST(SimdKernelTest, MatMulIsRowPositionIndependent) {
  const simd::SimdKernelTable& kt = simd::ActiveKernels();
  Rng rng(106);
  const int64_t m = 9, k = 33, n = 11;
  std::vector<float> a = RandomVector(m * k, rng);
  std::vector<float> b = RandomVector(k * n, rng);
  std::vector<float> whole(m * n, 0.0f);
  kt.matmul(a.data(), b.data(), whole.data(), m, k, n);
  std::vector<float> split(m * n, 0.0f);
  for (int64_t lo = 0, step = 1; lo < m; lo += step, ++step) {
    const int64_t hi = std::min(m, lo + step);
    kt.matmul(a.data() + lo * k, b.data(), split.data() + lo * n, hi - lo, k,
              n);
  }
  ExpectBytesEqual(whole, split, "row-split matmul");
}

}  // namespace
}  // namespace dquag
