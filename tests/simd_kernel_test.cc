// Kernel-by-kernel bit-identity of the SIMD dispatch layer.
//
// The contract (tensor/simd.h): the scalar reference table and every vector
// table execute the same per-element IEEE operation sequence, so their
// outputs are memcmp-equal — not merely close. Each suite runs once per
// table the CPU can run (an AVX-512 host checks its AVX2 table too), and
// every kernel is swept over sizes that exercise full vector blocks,
// row/column remainders, and the scalar tails on both sides of them.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/fast_math.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
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

/// Runs `suite` once per runnable table, scalar included.
template <typename Suite>
void ForEachTable(const Suite& suite) {
  for (const simd::SimdKernelTable* table : simd::SupportedKernelTables()) {
    SCOPED_TRACE(std::string("table ") + table->name);
    suite(*table);
  }
}

/// ELU (alpha 1) written out: the per-element sequence every table's `elu`
/// and every fused ELU epilogue must reproduce.
float ReferenceElu(float v) { return v > 0.0f ? v : FastExpf(v) - 1.0f; }

/// The matmul contract written as plain loops: seed (bias[j] or 0), then
/// one FusedMulAdd per k ascending — or, at n == 1, seed + the 8-lane dot
/// (lane l takes k = l, l+8, ..., folded by the fixed tree) — then ELU.
std::vector<float> ReferenceMatMul(const std::vector<float>& a,
                                   const std::vector<float>& b,
                                   const float* bias, int64_t m, int64_t k,
                                   int64_t n, bool elu) {
  std::vector<float> c(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float seed = bias != nullptr ? bias[j] : 0.0f;
      float acc;
      if (n == 1) {
        float lane[8] = {};
        for (int64_t kk = 0; kk < k; ++kk) {
          lane[kk % 8] = FusedMulAdd(a[i * k + kk], b[kk], lane[kk % 8]);
        }
        const float fold = ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
                           ((lane[1] + lane[5]) + (lane[3] + lane[7]));
        acc = seed + fold;
      } else {
        acc = seed;
        for (int64_t kk = 0; kk < k; ++kk) {
          acc = FusedMulAdd(a[i * k + kk], b[kk * n + j], acc);
        }
      }
      c[i * n + j] = elu ? ReferenceElu(acc) : acc;
    }
  }
  return c;
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
  std::vector<float> bias = RandomVector(n, rng);

  for (const bool elu : {false, true}) {
    for (const float* pb : {static_cast<const float*>(nullptr),
                            static_cast<const float*>(bias.data())}) {
      // matmul overwrites C: stale contents must not leak into the result.
      std::vector<float> c0(m * n, -7.0f), c1(m * n, 9.0f);
      scalar.matmul(a.data(), b.data(), pb, c0.data(), m, k, n, elu);
      vec.matmul(a.data(), b.data(), pb, c1.data(), m, k, n, elu);
      ExpectBytesEqual(c0, c1,
                       std::string("matmul ") + (pb ? "bias " : "nobias ") +
                           (elu ? "elu " : "identity ") + label);
    }
  }

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
// chunking contract at the kernel level), epilogue included.
TEST(SimdKernelTest, MatMulIsRowPositionIndependent) {
  ForEachTable([](const simd::SimdKernelTable& kt) {
    Rng rng(106);
    for (const int64_t n : {1, 11, 80}) {
      const int64_t m = 29, k = 33;
      std::vector<float> a = RandomVector(m * k, rng);
      std::vector<float> b = RandomVector(k * n, rng);
      std::vector<float> bias = RandomVector(n, rng);
      for (const bool elu : {false, true}) {
        std::vector<float> whole(m * n);
        kt.matmul(a.data(), b.data(), bias.data(), whole.data(), m, k, n, elu);
        std::vector<float> split(m * n);
        for (int64_t lo = 0, step = 1; lo < m; lo += step, ++step) {
          const int64_t hi = std::min(m, lo + step);
          kt.matmul(a.data() + lo * k, b.data(), bias.data(),
                    split.data() + lo * n, hi - lo, k, n, elu);
        }
        ExpectBytesEqual(whole, split,
                         "row-split matmul n=" + std::to_string(n) +
                             (elu ? " elu" : " identity"));
      }
    }
  });
}

// The forward GEMM's epilogue: every table against the contract written as
// plain loops (which is also how the scalar table must behave), over bias
// null and non-null, ELU on and off, every row count 1..133 (the 4-row
// tiles and their remainders) and widths around the 16/32/64-column tiles.
TEST(SimdKernelTest, MatMulEpilogueMatchesPlainReference) {
  const int64_t kEpilogueNs[] = {1, 17, 33, 64, 65, 80, 128};
  ForEachTable([&](const simd::SimdKernelTable& kt) {
    Rng rng(108);
    for (const int64_t n : kEpilogueNs) {
      for (const int64_t k : {1, 9, 67}) {
        const int64_t max_m = 133;
        std::vector<float> a = RandomVector(max_m * k, rng);
        std::vector<float> b = RandomVector(k * n, rng);
        std::vector<float> bias = RandomVector(n, rng);
        for (const bool elu : {false, true}) {
          for (const float* pb : {static_cast<const float*>(nullptr),
                                  static_cast<const float*>(bias.data())}) {
            // Rows are independent, so the reference for the first m rows
            // is a prefix of the reference for all 133.
            const std::vector<float> ref =
                ReferenceMatMul(a, b, pb, max_m, k, n, elu);
            for (int64_t m = 1; m <= max_m; ++m) {
              std::vector<float> c(m * n, 3.0f);
              kt.matmul(a.data(), b.data(), pb, c.data(), m, k, n, elu);
              ASSERT_EQ(0, std::memcmp(c.data(), ref.data(),
                                       c.size() * sizeof(float)))
                  << "m=" << m << " k=" << k << " n=" << n
                  << (pb ? " bias" : " nobias") << (elu ? " elu" : "");
            }
          }
        }
      }
    }
  });
}

/// CsrAggregateInto's contract written in arc order, the way the scatter
/// passes it replaces ran: seed every row, add each arc's product in
/// ascending arc id, then ELU.
Tensor ReferenceAggregate(const Tensor& x, const std::vector<int32_t>& src,
                          const std::vector<int32_t>& dst,
                          const Tensor* coeff, const Tensor* bias,
                          float self_scale, bool elu) {
  const int64_t batch = x.dim(0), nodes = x.dim(1), h = x.dim(2);
  const int64_t arcs = static_cast<int64_t>(src.size());
  Tensor out(x.shape());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t v = 0; v < nodes; ++v) {
      for (int64_t c = 0; c < h; ++c) {
        out.data()[(b * nodes + v) * h + c] =
            bias != nullptr ? bias->data()[c]
                            : self_scale * x.data()[(b * nodes + v) * h + c];
      }
    }
    for (int64_t e = 0; e < arcs; ++e) {
      float w = 1.0f;
      if (coeff != nullptr) {
        w = coeff->data()[(coeff->numel() == arcs ? 0 : b * arcs) + e];
      }
      const float* from = x.data() + (b * nodes + src[e]) * h;
      float* to = out.data() + (b * nodes + dst[e]) * h;
      for (int64_t c = 0; c < h; ++c) to[c] = FusedMulAdd(w, from[c], to[c]);
    }
  }
  if (elu) {
    for (int64_t i = 0; i < out.numel(); ++i) {
      out.data()[i] = ReferenceElu(out.data()[i]);
    }
  }
  return out;
}

// The one aggregation pass of GCN, GAT and GIN against the arc-order
// reference, bit for bit, under every table (its ELU is the table's): one
// weight per arc (GCN), one weight row per batch row (GAT) and unit weights
// with the (1 + eps) h seed (GIN). Node 5 has no in-arcs, as GIN's
// un-looped graph often leaves a node; its output is the seed alone.
TEST(SimdKernelTest, CsrAggregateMatchesArcOrderReference) {
  const int64_t batch = 3, nodes = 6;
  // Arcs listed out of destination order, with a repeated pair, so the
  // CSR grouping and the within-node arc order both matter.
  const std::vector<int32_t> src = {1, 0, 2, 3, 0, 4, 2, 1, 3, 0, 4, 2};
  const std::vector<int32_t> dst = {0, 1, 0, 2, 3, 0, 4, 2, 1, 4, 2, 0};
  const int64_t arcs = static_cast<int64_t>(src.size());
  std::vector<int64_t> offsets(nodes + 1, 0);
  for (int32_t d : dst) ++offsets[d + 1];
  for (int64_t v = 0; v < nodes; ++v) offsets[v + 1] += offsets[v];
  ASSERT_EQ(offsets[5], offsets[6]);  // node 5 has no in-arcs
  std::vector<int32_t> order;
  for (int32_t v = 0; v < nodes; ++v) {
    for (int32_t e = 0; e < arcs; ++e) {
      if (dst[e] == v) order.push_back(e);
    }
  }
  ForEachTable([&](const simd::SimdKernelTable& kt) {
    simd::SetKernelTableOverride(&kt);
    Rng rng(109);
    for (const int64_t h : {1, 7, 24, 64, 67}) {
      Tensor x = Tensor::Randn({batch, nodes, h}, rng);
      Tensor bias = Tensor::Randn({h}, rng);
      Tensor per_arc = Tensor::Randn({arcs, 1}, rng);
      Tensor per_row = Tensor::Randn({batch, arcs}, rng);
      const float self_scale = 1.0f + 0.37f;
      struct Form {
        const char* name;
        const Tensor* coeff;
        const Tensor* bias;
      };
      for (const Form& form : {Form{"gcn", &per_arc, &bias},
                               Form{"gat", &per_row, &bias},
                               Form{"gin", nullptr, nullptr}}) {
        for (const bool elu : {false, true}) {
          Tensor out = Tensor::Full(x.shape(), 5.0f);
          CsrAggregateInto(x, offsets, order, src, form.coeff, form.bias,
                           self_scale, elu, out);
          const Tensor ref = ReferenceAggregate(x, src, dst, form.coeff,
                                                form.bias, self_scale, elu);
          EXPECT_EQ(0, std::memcmp(out.data(), ref.data(),
                                   out.numel() * sizeof(float)))
              << form.name << " h=" << h << (elu ? " elu" : "");
        }
      }
    }
    simd::SetKernelTableOverride(nullptr);
  });
}

}  // namespace
}  // namespace dquag
