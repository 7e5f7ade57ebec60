#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <vector>

#include "tensor/fast_math.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define DQUAG_SIMD_HAVE_AVX2 1
#else
#define DQUAG_SIMD_HAVE_AVX2 0
#endif

#if defined(__ARM_NEON)
#include <arm_neon.h>
#define DQUAG_SIMD_HAVE_NEON 1
#else
#define DQUAG_SIMD_HAVE_NEON 0
#endif

// The AVX-512 table needs only AVX-512F; it also reuses AVX2 kernels (the
// dot-product family, remainder strips and tails), so it only exists when
// the AVX2 table does.
#if DQUAG_SIMD_HAVE_AVX2 && defined(__AVX512F__)
#define DQUAG_SIMD_HAVE_AVX512 1
#else
#define DQUAG_SIMD_HAVE_AVX512 0
#endif

namespace dquag {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Shared reduction semantics.
//
// Horizontal dot products are DEFINED as eight strided partial sums (lane l
// accumulates j = l, l+8, l+16, ... and the tail element j lands in lane
// j - j0) folded by the fixed binary tree below — exactly what an 8-lane
// vector accumulator plus the standard split-and-add reduction computes.
// Scalar code implements the same sequence, so every table agrees bitwise.
// ---------------------------------------------------------------------------

inline float ReduceTree8(const float* l) {
  // 256-bit fold: [l0+l4, l1+l5, l2+l6, l3+l7], then the 128-bit tree.
  const float s04 = l[0] + l[4];
  const float s15 = l[1] + l[5];
  const float s26 = l[2] + l[6];
  const float s37 = l[3] + l[7];
  const float a = s04 + s26;
  const float b = s15 + s37;
  return a + b;
}

float ScalarDot8(const float* x, const float* w, int64_t k) {
  float l0 = 0.0f, l1 = 0.0f, l2 = 0.0f, l3 = 0.0f;
  float l4 = 0.0f, l5 = 0.0f, l6 = 0.0f, l7 = 0.0f;
  int64_t j = 0;
  for (; j + 8 <= k; j += 8) {
    l0 = FusedMulAdd(x[j + 0], w[j + 0], l0);
    l1 = FusedMulAdd(x[j + 1], w[j + 1], l1);
    l2 = FusedMulAdd(x[j + 2], w[j + 2], l2);
    l3 = FusedMulAdd(x[j + 3], w[j + 3], l3);
    l4 = FusedMulAdd(x[j + 4], w[j + 4], l4);
    l5 = FusedMulAdd(x[j + 5], w[j + 5], l5);
    l6 = FusedMulAdd(x[j + 6], w[j + 6], l6);
    l7 = FusedMulAdd(x[j + 7], w[j + 7], l7);
  }
  float lanes[8] = {l0, l1, l2, l3, l4, l5, l6, l7};
  for (int t = 0; j < k; ++j, ++t) {
    lanes[t] = FusedMulAdd(x[j], w[j], lanes[t]);
  }
  return ReduceTree8(lanes);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

void ScalarElu(const float* x, float* y, int64_t n, float alpha) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float e = alpha * (FastExpf(v) - 1.0f);
    y[i] = v > 0.0f ? v : e;
  }
}

void ScalarMatMul(const float* a, const float* b, const float* bias, float* c,
                  int64_t m, int64_t k, int64_t n, bool elu) {
  auto seed = [bias](int64_t j) { return bias != nullptr ? bias[j] : 0.0f; };
  if (n == 1) {
    for (int64_t i = 0; i < m; ++i) {
      c[i] = seed(0) + ScalarDot8(a + i * k, b, k);
    }
    if (elu) ScalarElu(c, c, m, 1.0f);
    return;
  }
  // Register-tiled 4x16 micro-kernel (see tensor_ops.cc history): four A
  // rows against a 16-column C tile, each element seeded, then kk-ascending
  // FusedMulAdd everywhere so the tile, column-remainder and row-remainder
  // paths produce identical bits for any row position.
  constexpr int kTile = 16;
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + (i + 0) * k;
    const float* a1 = a + (i + 1) * k;
    const float* a2 = a + (i + 2) * k;
    const float* a3 = a + (i + 3) * k;
    float* c0 = c + (i + 0) * n;
    float* c1 = c + (i + 1) * n;
    float* c2 = c + (i + 2) * n;
    float* c3 = c + (i + 3) * n;
    int64_t jj = 0;
    for (; jj + kTile <= n; jj += kTile) {
      float t0[kTile], t1[kTile], t2[kTile], t3[kTile];
      for (int q = 0; q < kTile; ++q) {
        t0[q] = t1[q] = t2[q] = t3[q] = seed(jj + q);
      }
      for (int64_t kk = 0; kk < k; ++kk) {
        const float a0k = a0[kk];
        const float a1k = a1[kk];
        const float a2k = a2[kk];
        const float a3k = a3[kk];
        const float* brow = b + kk * n + jj;
        for (int q = 0; q < kTile; ++q) {
          const float bq = brow[q];
          t0[q] = FusedMulAdd(a0k, bq, t0[q]);
          t1[q] = FusedMulAdd(a1k, bq, t1[q]);
          t2[q] = FusedMulAdd(a2k, bq, t2[q]);
          t3[q] = FusedMulAdd(a3k, bq, t3[q]);
        }
      }
      for (int q = 0; q < kTile; ++q) {
        c0[jj + q] = t0[q];
        c1[jj + q] = t1[q];
        c2[jj + q] = t2[q];
        c3[jj + q] = t3[q];
      }
    }
    for (; jj < n; ++jj) {  // column remainder
      float t0 = seed(jj), t1 = t0, t2 = t0, t3 = t0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float bj = b[kk * n + jj];
        t0 = FusedMulAdd(a0[kk], bj, t0);
        t1 = FusedMulAdd(a1[kk], bj, t1);
        t2 = FusedMulAdd(a2[kk], bj, t2);
        t3 = FusedMulAdd(a3[kk], bj, t3);
      }
      c0[jj] = t0;
      c1[jj] = t1;
      c2[jj] = t2;
      c3[jj] = t3;
    }
  }
  for (; i < m; ++i) {  // row remainder
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = seed(j);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = a[i * k + kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = FusedMulAdd(aik, brow[j], crow[j]);
      }
    }
  }
  if (elu) ScalarElu(c, c, m * n, 1.0f);
}

void ScalarMatMulTransA(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      float* crow = c + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = FusedMulAdd(aik, brow[j], crow[j]);
      }
    }
  }
}

void ScalarMatMulTransB(const float* a, const float* b, float* c, int64_t m,
                        int64_t n, int64_t kb) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * kb;
    for (int64_t kk = 0; kk < kb; ++kk) {
      crow[kk] += ScalarDot8(arow, b + kk * n, n);
    }
  }
}

void ScalarDualMatVec(const float* x, const float* w1, const float* w2,
                      float* o1, float* o2, int64_t rows, int64_t k) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    o1[r] = ScalarDot8(xr, w1, k);
    o2[r] = ScalarDot8(xr, w2, k);
  }
}

void ScalarReadoutDot(const float* z, const float* w, const float* bias,
                      float* out, int64_t rows, int64_t d, int64_t h) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* zr = z + r * d * h;
    float* orow = out + r * d;
    for (int64_t f = 0; f < d; ++f) {
      const float acc = ScalarDot8(zr + f * h, w + f * h, h);
      orow[f] = bias != nullptr ? acc + bias[f] : acc;
    }
  }
}

void ScalarExpInplace(float* p, int64_t n) {
  for (int64_t i = 0; i < n; ++i) p[i] = FastExpf(p[i]);
}

void ScalarAxpy(const float* x, float s, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = FusedMulAdd(s, x[i], out[i]);
}

void ScalarAddProduct(const float* a, const float* b, float s, float* out,
                      int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float t = s * a[i];
    out[i] = FusedMulAdd(t, b[i], out[i]);
  }
}

// Shared by every table: the scattered CSR walk does not vectorize (the
// wins here are FastExpf over libm expf and staying in cache), and sharing
// one body makes cross-table bit-identity trivial.
void SharedSegmentSoftmaxCsr(float* row, const int64_t* offsets,
                             size_t num_segments, const int32_t* order) {
  for (size_t s = 0; s < num_segments; ++s) {
    const int64_t lo = offsets[s];
    const int64_t hi = offsets[s + 1];
    if (lo == hi) continue;
    float seg_max = -std::numeric_limits<float>::infinity();
    for (int64_t i = lo; i < hi; ++i) {
      seg_max = std::max(seg_max, row[order[i]]);
    }
    float seg_sum = 0.0f;
    for (int64_t i = lo; i < hi; ++i) {
      float& v = row[order[i]];
      v = FastExpf(v - seg_max);
      seg_sum += v;
    }
    const float inv = 1.0f / seg_sum;
    for (int64_t i = lo; i < hi; ++i) {
      row[order[i]] *= inv;
    }
  }
}

const SimdKernelTable kScalarTable = {
    "scalar",        ScalarMatMul,     ScalarMatMulTransA,
    ScalarMatMulTransB, ScalarDualMatVec, ScalarReadoutDot,
    ScalarExpInplace,   ScalarElu,        ScalarAxpy,
    ScalarAddProduct,   SharedSegmentSoftmaxCsr,
};

}  // namespace

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels. Guarded so the scalar path always builds; only used
// when the running CPU reports avx2+fma.
// ---------------------------------------------------------------------------

#if DQUAG_SIMD_HAVE_AVX2
namespace {

/// Same contract as ScalarDot8: 8 strided lane accumulators, tail folded
/// into lanes 0..rem-1, ReduceTree8 fold.
inline float Avx2Dot8(const float* x, const float* w, int64_t k) {
  __m256 acc = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 8 <= k; j += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + j), _mm256_loadu_ps(w + j), acc);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int t = 0; j < k; ++j, ++t) {
    lanes[t] = FusedMulAdd(x[j], w[j], lanes[t]);
  }
  return ReduceTree8(lanes);
}

/// Lane-exact vector clone of FastExpf (fast_math.h): identical IEEE
/// operation sequence, so each lane matches the scalar call bit-for-bit.
inline __m256 Avx2Exp8(__m256 x) {
  const __m256 kMagic = _mm256_set1_ps(12582912.0f);  // 1.5 * 2^23
  // Clamp order mirrors std::min(88, std::max(-87, x)): NaN maps to -87.
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.0f));
  x = _mm256_min_ps(x, _mm256_set1_ps(88.0f));
  // Explicitly fused range reduction, mirroring FastExpf step for step
  // (see the contraction note there): plain mul/add intrinsics are fair
  // game for -ffp-contract=fast, so the fusion is spelled out on both
  // sides instead of left to the compiler.
  const __m256 kInvLn2 = _mm256_set1_ps(1.44269504088896341f);
  const __m256 zr = _mm256_fmadd_ps(x, kInvLn2, kMagic);
  const __m256i n = _mm256_sub_epi32(_mm256_castps_si256(zr),
                                     _mm256_castps_si256(kMagic));
  const __m256 t = _mm256_sub_ps(zr, kMagic);
  const __m256 f = _mm256_mul_ps(_mm256_fmsub_ps(x, kInvLn2, t),
                                 _mm256_set1_ps(0.693147180559945309f));
  __m256 p = _mm256_set1_ps(1.0f / 720.0f);
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f / 120.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f / 24.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f / 6.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(0.5f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f));
  const __m256 scale = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  return _mm256_mul_ps(p, scale);
}

/// ScalarElu's per-element sequence on 8 lanes: v > 0 ? v
/// : alpha * (FastExpf(v) - 1).
inline __m256 Avx2Elu8(__m256 v, __m256 alpha) {
  const __m256 e =
      _mm256_mul_ps(alpha, _mm256_sub_ps(Avx2Exp8(v), _mm256_set1_ps(1.0f)));
  const __m256 gt = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
  return _mm256_blendv_ps(e, v, gt);
}

// ---- Register-tiled float GEMM micro-kernel --------------------------------
//
// One body serves matmul (C = act(seed + A B)) and matmul_trans_a
// (C += A^T B). A tile of R rows of C by V vectors of columns starts from its
// seed — zero, a bias row, or C itself — and accumulates, for steps s
// ascending, A(r, s) * B(s, :) with one FMA per element, where A(r, s) is
// a[r * a_row + s * a_step] and B(s, :) is row s of a row-major matrix with
// C's width n. matmul reads A along a row (a_row = k, a_step = 1) and
// matmul_trans_a reads it down a column (a_row = 1, a_step = k). kElu applies
// the table's ELU to the finished registers before the one store. Every
// output element therefore runs the scalar reference's sequence — its seed,
// one fused multiply-add per step in ascending order, then the activation —
// whatever the tile shape; masked lanes past the last column are never
// stored, and a tile stored and reloaded between step panels changes no
// bits.

/// Lanes 0 .. tail-1 of a ymm mask (tail in 1..7).
inline __m256i Avx2TailMask(int64_t tail) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(tail)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// The tile's seed: row r of `seed` (row stride seed_row: n for C itself,
/// 0 for a bias row shared by every row), or zero when seed is null.
template <int R, int V, bool kMasked, bool kElu>
inline void Avx2Tile(const float* a, int64_t a_row, int64_t a_step,
                     const float* b, const float* seed, int64_t seed_row,
                     float* c, int64_t n, int64_t steps, __m256i tail) {
  __m256 t[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      if (seed == nullptr) {
        t[r][v] = _mm256_setzero_ps();
        continue;
      }
      const float* sp = seed + r * seed_row + 8 * v;
      t[r][v] = kMasked && v == V - 1 ? _mm256_maskload_ps(sp, tail)
                                      : _mm256_loadu_ps(sp);
    }
  }
  for (int64_t s = 0; s < steps; ++s) {
    const float* brow = b + s * n;
    __m256 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = kMasked && v == V - 1 ? _mm256_maskload_ps(brow + 8 * v, tail)
                                    : _mm256_loadu_ps(brow + 8 * v);
    }
    const float* as = a + s * a_step;
    for (int r = 0; r < R; ++r) {
      const __m256 ar = _mm256_set1_ps(as[r * a_row]);
      for (int v = 0; v < V; ++v) {
        t[r][v] = _mm256_fmadd_ps(ar, bv[v], t[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      if (kElu) t[r][v] = Avx2Elu8(t[r][v], _mm256_set1_ps(1.0f));
      float* cp = c + r * n + 8 * v;
      if (kMasked && v == V - 1) {
        _mm256_maskstore_ps(cp, tail, t[r][v]);
      } else {
        _mm256_storeu_ps(cp, t[r][v]);
      }
    }
  }
}

/// R rows of C across all n columns: 16-column tiles, an 8-column tile,
/// then a masked tail.
template <int R, bool kElu>
inline void Avx2TileRow(const float* a, int64_t a_row, int64_t a_step,
                        const float* b, const float* seed, int64_t seed_row,
                        float* c, int64_t n, int64_t steps) {
  auto at = [seed](int64_t j) { return seed != nullptr ? seed + j : nullptr; };
  const __m256i all = _mm256_set1_epi32(-1);
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    Avx2Tile<R, 2, false, kElu>(a, a_row, a_step, b + j, at(j), seed_row,
                                c + j, n, steps, all);
  }
  if (j + 8 <= n) {
    Avx2Tile<R, 1, false, kElu>(a, a_row, a_step, b + j, at(j), seed_row,
                                c + j, n, steps, all);
    j += 8;
  }
  if (j < n) {
    Avx2Tile<R, 1, true, kElu>(a, a_row, a_step, b + j, at(j), seed_row,
                               c + j, n, steps, Avx2TailMask(n - j));
  }
}

/// C[rows, n] = act(seed + sum over `steps` of A(:, s) B(s, :)): 4-row
/// tiles, then single rows.
template <bool kElu>
inline void Avx2Gemm(const float* a, int64_t a_row, int64_t a_step,
                     const float* b, const float* seed, int64_t seed_row,
                     float* c, int64_t rows, int64_t n, int64_t steps) {
  auto at = [&](int64_t r) {
    return seed != nullptr ? seed + r * seed_row : nullptr;
  };
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    Avx2TileRow<4, kElu>(a + r * a_row, a_row, a_step, b, at(r), seed_row,
                         c + r * n, n, steps);
  }
  for (; r < rows; ++r) {
    Avx2TileRow<1, kElu>(a + r * a_row, a_row, a_step, b, at(r), seed_row,
                         c + r * n, n, steps);
  }
}

/// Rows of A (and of B) per matmul_trans_a panel: every C tile sweeps one
/// panel before the next, so the panel's A and B rows (16 KiB each at
/// width 64) stay in L1 across the tiles instead of streaming from L2 once
/// per tile.
constexpr int64_t kTransAPanelRows = 64;

void Avx2Elu(const float* x, float* y, int64_t n, float alpha) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, Avx2Elu8(_mm256_loadu_ps(x + i), av));
  }
  for (; i < n; ++i) {
    const float v = x[i];
    const float e = alpha * (FastExpf(v) - 1.0f);
    y[i] = v > 0.0f ? v : e;
  }
}

void Avx2MatMul(const float* a, const float* b, const float* bias, float* c,
                int64_t m, int64_t k, int64_t n, bool elu) {
  if (n == 1) {
    const float seed = bias != nullptr ? bias[0] : 0.0f;
    for (int64_t i = 0; i < m; ++i) c[i] = seed + Avx2Dot8(a + i * k, b, k);
    if (elu) Avx2Elu(c, c, m, 1.0f);
    return;
  }
  if (elu) {
    Avx2Gemm<true>(a, /*a_row=*/k, /*a_step=*/1, b, bias, /*seed_row=*/0, c,
                   m, n, /*steps=*/k);
  } else {
    Avx2Gemm<false>(a, /*a_row=*/k, /*a_step=*/1, b, bias, /*seed_row=*/0, c,
                    m, n, /*steps=*/k);
  }
}

void Avx2MatMulTransA(const float* a, const float* b, float* c, int64_t m,
                      int64_t k, int64_t n) {
  for (int64_t i0 = 0; i0 < m; i0 += kTransAPanelRows) {
    Avx2Gemm<false>(a + i0 * k, /*a_row=*/1, /*a_step=*/k, b + i0 * n,
                    /*seed=*/c, /*seed_row=*/n, c, k, n,
                    std::min(kTransAPanelRows, m - i0));
  }
}

// ---- matmul_trans_b: dots vectorised across outputs ------------------------
//
// Each output C[i, q] += Dot8(A row i, W row q) keeps the dot contract —
// eight strided lane sums (lane l takes j = l, l+8, ...; the tail j lands
// in lane j - j0), folded by ReduceTree8, then one add into C — but runs
// it for a strip of 8 (ymm) or 16 (zmm) outputs at once: the strip's W
// rows are copied, transposed, into a stack buffer (wt[j * width + q] =
// W[q0 + q, j]), so lane accumulator l of output q is lane q of vector l.

/// Longest dot a transposed strip holds on the stack (16 KiB at 16
/// outputs); longer dots take the per-output path.
constexpr int64_t kTransBMaxDot = 256;

/// Eight lane vectors, folded by the ReduceTree8 tree on whole vectors.
inline __m256 Avx2ReduceTree8(const __m256* l) {
  const __m256 s04 = _mm256_add_ps(l[0], l[4]);
  const __m256 s15 = _mm256_add_ps(l[1], l[5]);
  const __m256 s26 = _mm256_add_ps(l[2], l[6]);
  const __m256 s37 = _mm256_add_ps(l[3], l[7]);
  return _mm256_add_ps(_mm256_add_ps(s04, s26), _mm256_add_ps(s15, s37));
}

/// C[i, q0 .. q0+8) += Dot8(A row i, W row q0 + q) for every row i, from
/// the strip's transposed W in wt[n * 8].
void Avx2TransBStrip8(const float* a, const float* wt, float* c, int64_t m,
                      int64_t n, int64_t kb) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    __m256 l[8];
    for (int t = 0; t < 8; ++t) l[t] = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      for (int t = 0; t < 8; ++t) {
        l[t] = _mm256_fmadd_ps(_mm256_set1_ps(arow[j + t]),
                               _mm256_loadu_ps(wt + (j + t) * 8), l[t]);
      }
    }
    for (int t = 0; t < 8; ++t) {  // tail: j0 + t lands in lane t
      if (j + t < n) {
        l[t] = _mm256_fmadd_ps(_mm256_set1_ps(arow[j + t]),
                               _mm256_loadu_ps(wt + (j + t) * 8), l[t]);
      }
    }
    float* crow = c + i * kb;
    _mm256_storeu_ps(crow,
                     _mm256_add_ps(_mm256_loadu_ps(crow), Avx2ReduceTree8(l)));
  }
}

/// Copies W rows q0 .. q0+width, transposed, into wt[n * width].
inline void TransposeStrip(const float* b, int64_t n, int64_t q0, int width,
                           float* wt) {
  for (int q = 0; q < width; ++q) {
    const float* wrow = b + (q0 + q) * n;
    for (int64_t j = 0; j < n; ++j) wt[j * width + q] = wrow[j];
  }
}

/// Outputs q0 .. kb of every row, one Dot8 each.
void Avx2TransBPerOutput(const float* a, const float* b, float* c, int64_t m,
                         int64_t n, int64_t kb, int64_t q0) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * kb;
    for (int64_t q = q0; q < kb; ++q) crow[q] += Avx2Dot8(arow, b + q * n, n);
  }
}

void Avx2MatMulTransB(const float* a, const float* b, float* c, int64_t m,
                      int64_t n, int64_t kb) {
  int64_t q0 = 0;
  if (n <= kTransBMaxDot) {
    alignas(32) float wt[kTransBMaxDot * 8];
    for (; q0 + 8 <= kb; q0 += 8) {
      TransposeStrip(b, n, q0, 8, wt);
      Avx2TransBStrip8(a, wt, c + q0, m, n, kb);
    }
  }
  Avx2TransBPerOutput(a, b, c, m, n, kb, q0);
}

void Avx2DualMatVec(const float* x, const float* w1, const float* w2,
                    float* o1, float* o2, int64_t rows, int64_t k) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= k; j += 8) {
      const __m256 xv = _mm256_loadu_ps(xr + j);
      acc1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w1 + j), acc1);
      acc2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w2 + j), acc2);
    }
    alignas(32) float l1[8], l2[8];
    _mm256_store_ps(l1, acc1);
    _mm256_store_ps(l2, acc2);
    for (int t = 0; j < k; ++j, ++t) {
      l1[t] = FusedMulAdd(xr[j], w1[j], l1[t]);
      l2[t] = FusedMulAdd(xr[j], w2[j], l2[t]);
    }
    o1[r] = ReduceTree8(l1);
    o2[r] = ReduceTree8(l2);
  }
}

void Avx2ExpInplace(float* p, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(p + i, Avx2Exp8(_mm256_loadu_ps(p + i)));
  }
  for (; i < n; ++i) p[i] = FastExpf(p[i]);
}

void Avx2Axpy(const float* x, float s, float* out, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_fmadd_ps(sv, _mm256_loadu_ps(x + i),
                                              _mm256_loadu_ps(out + i)));
  }
  for (; i < n; ++i) out[i] = FusedMulAdd(s, x[i], out[i]);
}

void Avx2AddProduct(const float* a, const float* b, float s, float* out,
                    int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(sv, _mm256_loadu_ps(a + i));
    _mm256_storeu_ps(out + i, _mm256_fmadd_ps(t, _mm256_loadu_ps(b + i),
                                              _mm256_loadu_ps(out + i)));
  }
  for (; i < n; ++i) {
    const float t = s * a[i];
    out[i] = FusedMulAdd(t, b[i], out[i]);
  }
}

const SimdKernelTable kAvx2Table = {
    "avx2",          Avx2MatMul,     Avx2MatMulTransA,
    Avx2MatMulTransB,   Avx2DualMatVec, ScalarReadoutDot,
    Avx2ExpInplace,     Avx2Elu,        Avx2Axpy,
    Avx2AddProduct,     SharedSegmentSoftmaxCsr,
};

}  // namespace
#endif  // DQUAG_SIMD_HAVE_AVX2

// ---------------------------------------------------------------------------
// AVX-512 kernels. Bit-identity dictates what may widen to 16 lanes:
//
//  * matmul / matmul_trans_a vectorize over the COLUMN axis — each output
//    element accumulates its products in ascending step order with one
//    fused multiply-add per step, regardless of how many columns ride in a
//    vector. Widening the column tile from ymm to zmm (4 rows x 64 columns
//    here) therefore preserves every per-element IEEE sequence.
//  * Elementwise kernels (exp, elu, axpy, add_product) are per-lane pure, so
//    any width matches the scalar loop.
//  * The dot-product family (matmul n==1, matmul_trans_b, dual_matvec,
//    readout_dot) is DEFINED as 8 strided lanes + ReduceTree8; a 16-lane
//    accumulator along the dot would change the sum order. matmul_trans_b
//    instead widens across OUTPUTS: 16 outputs ride in a zmm, each keeping
//    its own 8 lane accumulators (see Avx2TransBStrip8). matmul n==1 and
//    dual_matvec stay on the AVX2 bodies; readout_dot runs the scalar body
//    on both x86 tables (its 64-wide dots were slower through a ymm
//    accumulator and a stack fold than as the compiler's own code).
// ---------------------------------------------------------------------------

#if DQUAG_SIMD_HAVE_AVX512
namespace {

// GCC implements unmasked AVX-512 intrinsics (max, min, cvt, ...) via their
// masked builtins with an undefined merge operand; every inlined use reports
// the header's "__Y may be used uninitialized" (GCC PR105593), and inside the
// GEMM tile's ELU epilogue as "__Y is used uninitialized". The operand is
// never read with an all-ones mask.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/// 16-lane clone of FastExpf — same per-lane IEEE sequence as Avx2Exp8 and
/// the scalar function (see the contraction note in fast_math.h).
inline __m512 Avx512Exp16(__m512 x) {
  const __m512 kMagic = _mm512_set1_ps(12582912.0f);  // 1.5 * 2^23
  // vmaxps/vminps return the second operand on NaN, so NaN maps to -87
  // exactly like std::min(88, std::max(-87, x)).
  x = _mm512_max_ps(x, _mm512_set1_ps(-87.0f));
  x = _mm512_min_ps(x, _mm512_set1_ps(88.0f));
  const __m512 kInvLn2 = _mm512_set1_ps(1.44269504088896341f);
  const __m512 zr = _mm512_fmadd_ps(x, kInvLn2, kMagic);
  const __m512i n = _mm512_sub_epi32(_mm512_castps_si512(zr),
                                     _mm512_castps_si512(kMagic));
  const __m512 t = _mm512_sub_ps(zr, kMagic);
  const __m512 f = _mm512_mul_ps(_mm512_fmsub_ps(x, kInvLn2, t),
                                 _mm512_set1_ps(0.693147180559945309f));
  __m512 p = _mm512_set1_ps(1.0f / 720.0f);
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.0f / 120.0f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.0f / 24.0f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.0f / 6.0f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(0.5f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.0f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.0f));
  const __m512 scale = _mm512_castsi512_ps(_mm512_slli_epi32(
      _mm512_add_epi32(n, _mm512_set1_epi32(127)), 23));
  return _mm512_mul_ps(p, scale);
}

/// Avx2Elu8 on 16 lanes.
inline __m512 Avx512Elu16(__m512 v, __m512 alpha) {
  const __m512 e =
      _mm512_mul_ps(alpha, _mm512_sub_ps(Avx512Exp16(v), _mm512_set1_ps(1.0f)));
  const __mmask16 gt = _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_GT_OQ);
  return _mm512_mask_blend_ps(gt, e, v);
}

/// The AVX2 micro-kernel's zmm twin (see Avx2Tile): R rows x V vectors of
/// 16 columns, the last vector masked to `tail` when kMasked.
template <int R, int V, bool kMasked, bool kElu>
inline void Avx512Tile(const float* a, int64_t a_row, int64_t a_step,
                       const float* b, const float* seed, int64_t seed_row,
                       float* c, int64_t n, int64_t steps, __mmask16 tail) {
  __m512 t[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      if (seed == nullptr) {
        t[r][v] = _mm512_setzero_ps();
        continue;
      }
      const float* sp = seed + r * seed_row + 16 * v;
      t[r][v] = kMasked && v == V - 1 ? _mm512_maskz_loadu_ps(tail, sp)
                                      : _mm512_loadu_ps(sp);
    }
  }
  for (int64_t s = 0; s < steps; ++s) {
    const float* brow = b + s * n;
    __m512 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = kMasked && v == V - 1
                  ? _mm512_maskz_loadu_ps(tail, brow + 16 * v)
                  : _mm512_loadu_ps(brow + 16 * v);
    }
    const float* as = a + s * a_step;
    for (int r = 0; r < R; ++r) {
      const __m512 ar = _mm512_set1_ps(as[r * a_row]);
      for (int v = 0; v < V; ++v) {
        t[r][v] = _mm512_fmadd_ps(ar, bv[v], t[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      if (kElu) t[r][v] = Avx512Elu16(t[r][v], _mm512_set1_ps(1.0f));
      float* cp = c + r * n + 16 * v;
      if (kMasked && v == V - 1) {
        _mm512_mask_storeu_ps(cp, tail, t[r][v]);
      } else {
        _mm512_storeu_ps(cp, t[r][v]);
      }
    }
  }
}

/// R rows of C across all n columns: 64-column tiles (16 zmm accumulators
/// at R = 4), then 32- and 16-column tiles and a masked tail.
template <int R, bool kElu>
inline void Avx512TileRow(const float* a, int64_t a_row, int64_t a_step,
                          const float* b, const float* seed, int64_t seed_row,
                          float* c, int64_t n, int64_t steps) {
  auto at = [seed](int64_t j) { return seed != nullptr ? seed + j : nullptr; };
  int64_t j = 0;
  for (; j + 64 <= n; j += 64) {
    Avx512Tile<R, 4, false, kElu>(a, a_row, a_step, b + j, at(j), seed_row,
                                  c + j, n, steps, 0);
  }
  if (j + 32 <= n) {
    Avx512Tile<R, 2, false, kElu>(a, a_row, a_step, b + j, at(j), seed_row,
                                  c + j, n, steps, 0);
    j += 32;
  }
  if (j + 16 <= n) {
    Avx512Tile<R, 1, false, kElu>(a, a_row, a_step, b + j, at(j), seed_row,
                                  c + j, n, steps, 0);
    j += 16;
  }
  if (j < n) {
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - j)) - 1u);
    Avx512Tile<R, 1, true, kElu>(a, a_row, a_step, b + j, at(j), seed_row,
                                 c + j, n, steps, tail);
  }
}

/// Avx2Gemm at zmm width.
template <bool kElu>
inline void Avx512Gemm(const float* a, int64_t a_row, int64_t a_step,
                       const float* b, const float* seed, int64_t seed_row,
                       float* c, int64_t rows, int64_t n, int64_t steps) {
  auto at = [&](int64_t r) {
    return seed != nullptr ? seed + r * seed_row : nullptr;
  };
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    Avx512TileRow<4, kElu>(a + r * a_row, a_row, a_step, b, at(r), seed_row,
                           c + r * n, n, steps);
  }
  for (; r < rows; ++r) {
    Avx512TileRow<1, kElu>(a + r * a_row, a_row, a_step, b, at(r), seed_row,
                           c + r * n, n, steps);
  }
}

void Avx512Elu(const float* x, float* y, int64_t n, float alpha) {
  const __m512 av = _mm512_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, Avx512Elu16(_mm512_loadu_ps(x + i), av));
  }
  Avx2Elu(x + i, y + i, n - i, alpha);
}

void Avx512MatMul(const float* a, const float* b, const float* bias, float* c,
                  int64_t m, int64_t k, int64_t n, bool elu) {
  if (n == 1) {  // dot-product contract: keep the 8-lane sequence
    const float seed = bias != nullptr ? bias[0] : 0.0f;
    for (int64_t i = 0; i < m; ++i) c[i] = seed + Avx2Dot8(a + i * k, b, k);
    if (elu) Avx512Elu(c, c, m, 1.0f);
    return;
  }
  if (elu) {
    Avx512Gemm<true>(a, /*a_row=*/k, /*a_step=*/1, b, bias, /*seed_row=*/0,
                     c, m, n, /*steps=*/k);
  } else {
    Avx512Gemm<false>(a, /*a_row=*/k, /*a_step=*/1, b, bias, /*seed_row=*/0,
                      c, m, n, /*steps=*/k);
  }
}

void Avx512MatMulTransA(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n) {
  for (int64_t i0 = 0; i0 < m; i0 += kTransAPanelRows) {
    Avx512Gemm<false>(a + i0 * k, /*a_row=*/1, /*a_step=*/k, b + i0 * n,
                      /*seed=*/c, /*seed_row=*/n, c, k, n,
                      std::min(kTransAPanelRows, m - i0));
  }
}

/// Avx2ReduceTree8 at zmm width.
inline __m512 Avx512ReduceTree8(const __m512* l) {
  const __m512 s04 = _mm512_add_ps(l[0], l[4]);
  const __m512 s15 = _mm512_add_ps(l[1], l[5]);
  const __m512 s26 = _mm512_add_ps(l[2], l[6]);
  const __m512 s37 = _mm512_add_ps(l[3], l[7]);
  return _mm512_add_ps(_mm512_add_ps(s04, s26), _mm512_add_ps(s15, s37));
}

/// R rows of Avx2TransBStrip8 at 16 outputs per vector; R = 2 shares each
/// transposed W load between two rows' 8 + 8 lane accumulators.
template <int R>
inline void Avx512TransBRows(const float* a, const float* wt, float* c,
                             int64_t n, int64_t kb) {
  __m512 l[R][8];
  for (int r = 0; r < R; ++r) {
    for (int t = 0; t < 8; ++t) l[r][t] = _mm512_setzero_ps();
  }
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (int t = 0; t < 8; ++t) {
      const __m512 w = _mm512_loadu_ps(wt + (j + t) * 16);
      for (int r = 0; r < R; ++r) {
        l[r][t] = _mm512_fmadd_ps(_mm512_set1_ps(a[r * n + j + t]), w,
                                  l[r][t]);
      }
    }
  }
  for (int t = 0; t < 8; ++t) {  // tail: j0 + t lands in lane t
    if (j + t < n) {
      const __m512 w = _mm512_loadu_ps(wt + (j + t) * 16);
      for (int r = 0; r < R; ++r) {
        l[r][t] = _mm512_fmadd_ps(_mm512_set1_ps(a[r * n + j + t]), w,
                                  l[r][t]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * kb;
    _mm512_storeu_ps(crow, _mm512_add_ps(_mm512_loadu_ps(crow),
                                         Avx512ReduceTree8(l[r])));
  }
}

void Avx512MatMulTransB(const float* a, const float* b, float* c, int64_t m,
                        int64_t n, int64_t kb) {
  int64_t q0 = 0;
  if (n <= kTransBMaxDot) {
    alignas(64) float wt[kTransBMaxDot * 16];
    for (; q0 + 16 <= kb; q0 += 16) {
      TransposeStrip(b, n, q0, 16, wt);
      int64_t i = 0;
      for (; i + 2 <= m; i += 2) {
        Avx512TransBRows<2>(a + i * n, wt, c + i * kb + q0, n, kb);
      }
      if (i < m) Avx512TransBRows<1>(a + i * n, wt, c + i * kb + q0, n, kb);
    }
    if (q0 + 8 <= kb) {
      TransposeStrip(b, n, q0, 8, wt);
      Avx2TransBStrip8(a, wt, c + q0, m, n, kb);
      q0 += 8;
    }
  }
  Avx2TransBPerOutput(a, b, c, m, n, kb, q0);
}

void Avx512ExpInplace(float* p, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(p + i, Avx512Exp16(_mm512_loadu_ps(p + i)));
  }
  Avx2ExpInplace(p + i, n - i);
}

void Avx512Axpy(const float* x, float s, float* out, int64_t n) {
  const __m512 sv = _mm512_set1_ps(s);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_fmadd_ps(sv, _mm512_loadu_ps(x + i),
                                              _mm512_loadu_ps(out + i)));
  }
  Avx2Axpy(x + i, s, out + i, n - i);
}

void Avx512AddProduct(const float* a, const float* b, float s, float* out,
                      int64_t n) {
  const __m512 sv = _mm512_set1_ps(s);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 t = _mm512_mul_ps(sv, _mm512_loadu_ps(a + i));
    _mm512_storeu_ps(out + i, _mm512_fmadd_ps(t, _mm512_loadu_ps(b + i),
                                              _mm512_loadu_ps(out + i)));
  }
  Avx2AddProduct(a + i, b + i, s, out + i, n - i);
}

const SimdKernelTable kAvx512Table = {
    "avx512",        Avx512MatMul,   Avx512MatMulTransA,
    Avx512MatMulTransB, Avx2DualMatVec, ScalarReadoutDot,
    Avx512ExpInplace,   Avx512Elu,      Avx512Axpy,
    Avx512AddProduct,   SharedSegmentSoftmaxCsr,
};

#pragma GCC diagnostic pop

}  // namespace
#endif  // DQUAG_SIMD_HAVE_AVX512

// ---------------------------------------------------------------------------
// NEON kernels: the dot-product family and elementwise math, emulating the
// 8-lane semantics with paired float32x4 accumulators (lanes 0-3 / 4-7) so
// the fixed reduction tree matches. The GEMM kernels fall back to the scalar
// reference, which autovectorizes well on aarch64.
// ---------------------------------------------------------------------------

#if DQUAG_SIMD_HAVE_NEON
namespace {

inline float NeonDot8(const float* x, const float* w, int64_t k) {
  float32x4_t lo = vdupq_n_f32(0.0f);
  float32x4_t hi = vdupq_n_f32(0.0f);
  int64_t j = 0;
  for (; j + 8 <= k; j += 8) {
    lo = vfmaq_f32(lo, vld1q_f32(x + j), vld1q_f32(w + j));
    hi = vfmaq_f32(hi, vld1q_f32(x + j + 4), vld1q_f32(w + j + 4));
  }
  float lanes[8];
  vst1q_f32(lanes, lo);
  vst1q_f32(lanes + 4, hi);
  for (int t = 0; j < k; ++j, ++t) {
    lanes[t] = FusedMulAdd(x[j], w[j], lanes[t]);
  }
  return ReduceTree8(lanes);
}

void NeonDualMatVec(const float* x, const float* w1, const float* w2,
                    float* o1, float* o2, int64_t rows, int64_t k) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    o1[r] = NeonDot8(xr, w1, k);
    o2[r] = NeonDot8(xr, w2, k);
  }
}

void NeonReadoutDot(const float* z, const float* w, const float* bias,
                    float* out, int64_t rows, int64_t d, int64_t h) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* zr = z + r * d * h;
    float* orow = out + r * d;
    for (int64_t f = 0; f < d; ++f) {
      const float acc = NeonDot8(zr + f * h, w + f * h, h);
      orow[f] = bias != nullptr ? acc + bias[f] : acc;
    }
  }
}

void NeonMatMulTransB(const float* a, const float* b, float* c, int64_t m,
                      int64_t n, int64_t kb) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * kb;
    for (int64_t kk = 0; kk < kb; ++kk) {
      crow[kk] += NeonDot8(arow, b + kk * n, n);
    }
  }
}

void NeonAxpy(const float* x, float s, float* out, int64_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vfmaq_f32(vld1q_f32(out + i), sv, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) out[i] = FusedMulAdd(s, x[i], out[i]);
}

void NeonAddProduct(const float* a, const float* b, float s, float* out,
                    int64_t n) {
  const float32x4_t sv = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t t = vmulq_f32(sv, vld1q_f32(a + i));
    vst1q_f32(out + i, vfmaq_f32(vld1q_f32(out + i), t, vld1q_f32(b + i)));
  }
  for (; i < n; ++i) {
    const float t = s * a[i];
    out[i] = FusedMulAdd(t, b[i], out[i]);
  }
}

const SimdKernelTable kNeonTable = {
    "neon",          ScalarMatMul,   ScalarMatMulTransA,
    NeonMatMulTransB,   NeonDualMatVec, NeonReadoutDot,
    ScalarExpInplace,   ScalarElu,      NeonAxpy,
    NeonAddProduct,     SharedSegmentSoftmaxCsr,
};

}  // namespace
#endif  // DQUAG_SIMD_HAVE_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

namespace {

std::atomic<const SimdKernelTable*> g_override{nullptr};

bool EnvForcesScalar() {
  const char* e = std::getenv("DQUAG_FORCE_SCALAR");
  return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}

}  // namespace

const SimdKernelTable& ScalarKernels() { return kScalarTable; }

std::vector<const SimdKernelTable*> SupportedKernelTables() {
  std::vector<const SimdKernelTable*> tables = {&kScalarTable};
#if DQUAG_SIMD_HAVE_AVX2
  // Compile-time availability still needs a runtime check: the binary may
  // have been built on a newer machine than it runs on.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    tables.push_back(&kAvx2Table);
#if DQUAG_SIMD_HAVE_AVX512
    if (__builtin_cpu_supports("avx512f")) {
      tables.push_back(&kAvx512Table);
    }
#endif
  }
#elif DQUAG_SIMD_HAVE_NEON
  tables.push_back(&kNeonTable);
#endif
  return tables;
}

const SimdKernelTable& BestSupportedKernels() {
  static const SimdKernelTable* best = SupportedKernelTables().back();
  return *best;
}

const SimdKernelTable& ActiveKernels() {
  const SimdKernelTable* o = g_override.load(std::memory_order_acquire);
  if (o != nullptr) return *o;
  static const SimdKernelTable* chosen =
      EnvForcesScalar() ? &kScalarTable : &BestSupportedKernels();
  return *chosen;
}

void SetKernelTableOverride(const SimdKernelTable* table) {
  g_override.store(table, std::memory_order_release);
}

}  // namespace simd
}  // namespace dquag
