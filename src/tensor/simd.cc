#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
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

// The AVX-512 table needs BW (16-bit lane ops for the int8 GEMM) and VNNI
// (vpdpwssd) on top of F; it also reuses AVX2 kernels (the dot-product
// family, remainder strips and tails), so it only exists when the AVX2 table
// does.
#if DQUAG_SIMD_HAVE_AVX2 && defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VNNI__)
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

void ScalarQuantizeRows(const float* x, int64_t rows, int64_t k,
                        int64_t k_padded, int8_t* xq, float* scales) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    int8_t* q = xq + r * k_padded;
    float maxabs = 0.0f;
    for (int64_t j = 0; j < k; ++j) {
      maxabs = std::max(maxabs, std::fabs(xr[j]));
    }
    if (maxabs == 0.0f) {
      scales[r] = 0.0f;
      std::memset(q, 0, static_cast<size_t>(k_padded));
      continue;
    }
    scales[r] = maxabs / 127.0f;
    const float inv = 127.0f / maxabs;
    for (int64_t j = 0; j < k; ++j) {
      // Round-to-nearest-even (default mode), matching cvtps2dq lanes.
      int32_t v = static_cast<int32_t>(std::lrintf(xr[j] * inv));
      v = std::min(127, std::max(-127, v));
      q[j] = static_cast<int8_t>(v);
    }
    for (int64_t j = k; j < k_padded; ++j) q[j] = 0;
  }
}

void ScalarQgemm(const int8_t* xq, const float* x_scales,
                 const int16_t* w_packed, const float* w_scales,
                 const float* bias, float* out, int64_t rows, int64_t k_padded,
                 int64_t n) {
  const int64_t pairs = k_padded / 2;
  for (int64_t r = 0; r < rows; ++r) {
    const int8_t* xr = xq + r * k_padded;
    const float xs = x_scales[r];
    float* orow = out + r * n;
    for (int64_t c = 0; c < n; ++c) {
      const int16_t* wp = w_packed + c * 2;
      int32_t acc = 0;
      for (int64_t p = 0; p < pairs; ++p) {
        acc += static_cast<int32_t>(xr[2 * p]) * wp[p * 2 * n + 0] +
               static_cast<int32_t>(xr[2 * p + 1]) * wp[p * 2 * n + 1];
      }
      const float combined = xs * w_scales[c];
      const float accf = static_cast<float>(acc);
      orow[c] = bias != nullptr ? FusedMulAdd(accf, combined, bias[c])
                                : accf * combined;
    }
  }
}

const SimdKernelTable kScalarTable = {
    "scalar",        ScalarMatMul,     ScalarMatMulTransA,
    ScalarMatMulTransB, ScalarDualMatVec, ScalarReadoutDot,
    ScalarExpInplace,   ScalarElu,        ScalarAxpy,
    ScalarAddProduct,   SharedSegmentSoftmaxCsr, ScalarQuantizeRows,
    ScalarQgemm,
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

void Avx2QuantizeRows(const float* x, int64_t rows, int64_t k,
                      int64_t k_padded, int8_t* xq, float* scales) {
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    int8_t* q = xq + r * k_padded;
    // max|x| is order-independent over finite floats, so the vector
    // reduction matches the scalar loop's value exactly.
    __m256 mv = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= k; j += 8) {
      mv = _mm256_max_ps(mv, _mm256_and_ps(_mm256_loadu_ps(xr + j), absmask));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, mv);
    float maxabs = 0.0f;
    for (int t = 0; t < 8; ++t) maxabs = std::max(maxabs, lanes[t]);
    for (; j < k; ++j) maxabs = std::max(maxabs, std::fabs(xr[j]));
    if (maxabs == 0.0f) {
      scales[r] = 0.0f;
      std::memset(q, 0, static_cast<size_t>(k_padded));
      continue;
    }
    scales[r] = maxabs / 127.0f;
    const float inv = 127.0f / maxabs;
    const __m256 invv = _mm256_set1_ps(inv);
    const __m256i lo = _mm256_set1_epi32(-127);
    const __m256i hi = _mm256_set1_epi32(127);
    j = 0;
    for (; j + 8 <= k; j += 8) {
      __m256i vi =
          _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(xr + j), invv));
      vi = _mm256_min_epi32(hi, _mm256_max_epi32(lo, vi));
      const __m128i a = _mm256_castsi256_si128(vi);
      const __m128i b = _mm256_extracti128_si256(vi, 1);
      const __m128i w16 = _mm_packs_epi32(a, b);
      const __m128i w8 = _mm_packs_epi16(w16, w16);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(q + j), w8);
    }
    for (; j < k; ++j) {
      int32_t v = static_cast<int32_t>(std::lrintf(xr[j] * inv));
      v = std::min(127, std::max(-127, v));
      q[j] = static_cast<int8_t>(v);
    }
    for (j = k; j < k_padded; ++j) q[j] = 0;
  }
}

/// int8 GEMM on the interleaved k-pair weight layout: vpmaddwd retires two
/// k-steps per int32 lane, 8 output columns per vector. Activation pairs
/// come from a cvtepi8_epi16 register, broadcast per pair with vpermd.
/// Integer accumulation is exact, so this matches ScalarQgemm bit-for-bit;
/// the single float requantization step uses the same mul+FMA sequence.
void Avx2Qgemm(const int8_t* xq, const float* x_scales,
               const int16_t* w_packed, const float* w_scales,
               const float* bias, float* out, int64_t rows, int64_t k_padded,
               int64_t n) {
  const int64_t pairs = k_padded / 2;
  const int64_t pair_groups = pairs / 8;  // 8 pairs = 16 activation bytes
  int64_t r = 0;
  auto scalar_cols = [&](int64_t row, int64_t c_begin) {
    const int8_t* xr = xq + row * k_padded;
    const float xs = x_scales[row];
    float* orow = out + row * n;
    for (int64_t c = c_begin; c < n; ++c) {
      const int16_t* wp = w_packed + c * 2;
      int32_t acc = 0;
      for (int64_t p = 0; p < pairs; ++p) {
        acc += static_cast<int32_t>(xr[2 * p]) * wp[p * 2 * n + 0] +
               static_cast<int32_t>(xr[2 * p + 1]) * wp[p * 2 * n + 1];
      }
      const float combined = xs * w_scales[c];
      const float accf = static_cast<float>(acc);
      orow[c] = bias != nullptr ? FusedMulAdd(accf, combined, bias[c])
                                : accf * combined;
    }
  };
  for (; r + 4 <= rows; r += 4) {
    const int8_t* x0 = xq + (r + 0) * k_padded;
    const int8_t* x1 = xq + (r + 1) * k_padded;
    const int8_t* x2 = xq + (r + 2) * k_padded;
    const int8_t* x3 = xq + (r + 3) * k_padded;
    int64_t c0 = 0;
    for (; c0 + 8 <= n; c0 += 8) {
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      const int16_t* wbase = w_packed + c0 * 2;
      for (int64_t g = 0; g < pair_groups; ++g) {
        const int64_t pbase = g * 8;
        const __m256i cv0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x0 + 2 * pbase)));
        const __m256i cv1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x1 + 2 * pbase)));
        const __m256i cv2 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x2 + 2 * pbase)));
        const __m256i cv3 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x3 + 2 * pbase)));
        for (int64_t q = 0; q < 8; ++q) {
          const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              wbase + (pbase + q) * 2 * n));
          const __m256i sel = _mm256_set1_epi32(static_cast<int>(q));
          acc0 = _mm256_add_epi32(
              acc0, _mm256_madd_epi16(
                        w, _mm256_permutevar8x32_epi32(cv0, sel)));
          acc1 = _mm256_add_epi32(
              acc1, _mm256_madd_epi16(
                        w, _mm256_permutevar8x32_epi32(cv1, sel)));
          acc2 = _mm256_add_epi32(
              acc2, _mm256_madd_epi16(
                        w, _mm256_permutevar8x32_epi32(cv2, sel)));
          acc3 = _mm256_add_epi32(
              acc3, _mm256_madd_epi16(
                        w, _mm256_permutevar8x32_epi32(cv3, sel)));
        }
      }
      for (int64_t p = pair_groups * 8; p < pairs; ++p) {  // pair tail
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wbase + p * 2 * n));
        auto pair = [&](const int8_t* xr) {
          const int32_t v =
              static_cast<int32_t>(static_cast<uint16_t>(
                  static_cast<int16_t>(xr[2 * p]))) |
              (static_cast<int32_t>(xr[2 * p + 1]) << 16);
          return _mm256_set1_epi32(v);
        };
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(w, pair(x0)));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(w, pair(x1)));
        acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(w, pair(x2)));
        acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(w, pair(x3)));
      }
      const __m256 ws = _mm256_loadu_ps(w_scales + c0);
      const __m256 bv =
          bias != nullptr ? _mm256_loadu_ps(bias + c0) : _mm256_setzero_ps();
      auto store = [&](int64_t row, __m256i acc) {
        const __m256 combined =
            _mm256_mul_ps(_mm256_set1_ps(x_scales[row]), ws);
        const __m256 accf = _mm256_cvtepi32_ps(acc);
        const __m256 res = bias != nullptr
                               ? _mm256_fmadd_ps(accf, combined, bv)
                               : _mm256_mul_ps(accf, combined);
        _mm256_storeu_ps(out + row * n + c0, res);
      };
      store(r + 0, acc0);
      store(r + 1, acc1);
      store(r + 2, acc2);
      store(r + 3, acc3);
    }
    if (c0 < n) {
      scalar_cols(r + 0, c0);
      scalar_cols(r + 1, c0);
      scalar_cols(r + 2, c0);
      scalar_cols(r + 3, c0);
    }
  }
  for (; r < rows; ++r) {  // row remainder
    const int8_t* x0 = xq + r * k_padded;
    int64_t c0 = 0;
    for (; c0 + 8 <= n; c0 += 8) {
      __m256i acc0 = _mm256_setzero_si256();
      const int16_t* wbase = w_packed + c0 * 2;
      for (int64_t g = 0; g < pair_groups; ++g) {
        const int64_t pbase = g * 8;
        const __m256i cv0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x0 + 2 * pbase)));
        for (int64_t q = 0; q < 8; ++q) {
          const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              wbase + (pbase + q) * 2 * n));
          acc0 = _mm256_add_epi32(
              acc0, _mm256_madd_epi16(
                        w, _mm256_permutevar8x32_epi32(
                               cv0, _mm256_set1_epi32(static_cast<int>(q)))));
        }
      }
      for (int64_t p = pair_groups * 8; p < pairs; ++p) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(wbase + p * 2 * n));
        const int32_t v = static_cast<int32_t>(static_cast<uint16_t>(
                              static_cast<int16_t>(x0[2 * p]))) |
                          (static_cast<int32_t>(x0[2 * p + 1]) << 16);
        acc0 = _mm256_add_epi32(acc0,
                                _mm256_madd_epi16(w, _mm256_set1_epi32(v)));
      }
      const __m256 ws = _mm256_loadu_ps(w_scales + c0);
      const __m256 combined = _mm256_mul_ps(_mm256_set1_ps(x_scales[r]), ws);
      const __m256 accf = _mm256_cvtepi32_ps(acc0);
      const __m256 res =
          bias != nullptr
              ? _mm256_fmadd_ps(accf, combined, _mm256_loadu_ps(bias + c0))
              : _mm256_mul_ps(accf, combined);
      _mm256_storeu_ps(out + r * n + c0, res);
    }
    if (c0 < n) scalar_cols(r, c0);
  }
}

const SimdKernelTable kAvx2Table = {
    "avx2",          Avx2MatMul,     Avx2MatMulTransA,
    Avx2MatMulTransB,   Avx2DualMatVec, ScalarReadoutDot,
    Avx2ExpInplace,     Avx2Elu,        Avx2Axpy,
    Avx2AddProduct,     SharedSegmentSoftmaxCsr, Avx2QuantizeRows,
    Avx2Qgemm,
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
//  * Elementwise kernels (exp, elu, axpy, add_product, the quantize scale
//    pass) are per-lane pure, so any width matches the scalar loop.
//  * The dot-product family (matmul n==1, matmul_trans_b, dual_matvec,
//    readout_dot) is DEFINED as 8 strided lanes + ReduceTree8; a 16-lane
//    accumulator along the dot would change the sum order. matmul_trans_b
//    instead widens across OUTPUTS: 16 outputs ride in a zmm, each keeping
//    its own 8 lane accumulators (see Avx2TransBStrip8). matmul n==1 and
//    dual_matvec stay on the AVX2 bodies; readout_dot runs the scalar body
//    on both x86 tables (its 64-wide dots were slower through a ymm
//    accumulator and a stack fold than as the compiler's own code).
//  * qgemm accumulates in int32 — exact at any width — which is where
//    AVX-512 VNNI's vpdpwssd (32 int16 MACs per instruction, accumulating)
//    earns the table its keep.
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

void Avx512QuantizeRows(const float* x, int64_t rows, int64_t k,
                        int64_t k_padded, int8_t* xq, float* scales) {
  // Pass 1: per-row max|x|. An exact (order-independent) reduction over
  // finite floats, so the vector fold matches the scalar scan bitwise.
  thread_local std::vector<float> maxbuf;
  thread_local std::vector<float> invbuf;
  maxbuf.resize(static_cast<size_t>(std::max<int64_t>(rows, 1)));
  invbuf.resize(static_cast<size_t>(std::max<int64_t>(rows, 1)));
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    // (|x| via sign-bit mask and a shuffle-tree fold instead of
    // _mm512_abs_ps/_mm512_reduce_max_ps: same values, but those two expand
    // to masked builtins with an undefined operand that trips GCC's
    // -Wmaybe-uninitialized.)
    const __m512i absmask = _mm512_set1_epi32(0x7fffffff);
    __m512 mv = _mm512_setzero_ps();
    int64_t j = 0;
    for (; j + 16 <= k; j += 16) {
      // Integer-domain AND clears the sign bit (plain _mm512_and_ps would
      // need AVX512DQ, which this table does not require).
      const __m512 av = _mm512_castsi512_ps(_mm512_and_si512(
          _mm512_castps_si512(_mm512_loadu_ps(xr + j)), absmask));
      mv = _mm512_max_ps(mv, av);
    }
    // max is associative and exact, so the fold order cannot change the
    // result versus the scalar scan.
    __m512 t = _mm512_max_ps(mv, _mm512_shuffle_f32x4(mv, mv, 0x4E));
    t = _mm512_max_ps(t, _mm512_shuffle_f32x4(t, t, 0xB1));
    t = _mm512_max_ps(t, _mm512_permute_ps(t, 0x4E));
    t = _mm512_max_ps(t, _mm512_permute_ps(t, 0xB1));
    float maxabs = _mm512_cvtss_f32(t);
    for (; j < k; ++j) maxabs = std::max(maxabs, std::fabs(xr[j]));
    maxbuf[static_cast<size_t>(r)] = maxabs;
  }
  // Pass 2: scale = maxabs/127 and inv = 127/maxabs for 16 rows per vdivps
  // (each lane is the same IEEE divide the scalar kernel issues per row,
  // just batched — divss back-to-back per row costs more than the rest of
  // the row's quantization). An all-zero row divides to +0.0 and +inf; the
  // +0.0 is bitwise the scalar kernel's literal 0.0f scale and the inf is
  // never read (pass 3 branches on maxabs, exactly like the scalar code).
  {
    const __m512 k127 = _mm512_set1_ps(127.0f);
    int64_t r = 0;
    for (; r + 16 <= rows; r += 16) {
      const __m512 m = _mm512_loadu_ps(maxbuf.data() + r);
      _mm512_storeu_ps(scales + r, _mm512_div_ps(m, k127));
      _mm512_storeu_ps(invbuf.data() + r, _mm512_div_ps(k127, m));
    }
    for (; r < rows; ++r) {
      const float m = maxbuf[static_cast<size_t>(r)];
      scales[r] = m / 127.0f;
      invbuf[static_cast<size_t>(r)] = 127.0f / m;
    }
  }
  // Pass 3: quantize each row with its precomputed reciprocal scale.
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * k;
    int8_t* q = xq + r * k_padded;
    if (maxbuf[static_cast<size_t>(r)] == 0.0f) {
      scales[r] = 0.0f;
      std::memset(q, 0, static_cast<size_t>(k_padded));
      continue;
    }
    const float inv = invbuf[static_cast<size_t>(r)];
    const __m512 invv = _mm512_set1_ps(inv);
    const __m512i lo = _mm512_set1_epi32(-127);
    const __m512i hi = _mm512_set1_epi32(127);
    int64_t j = 0;
    for (; j + 16 <= k; j += 16) {
      // cvtps rounds to nearest-even, matching the scalar lrintf lanes.
      __m512i vi =
          _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(xr + j), invv));
      vi = _mm512_min_epi32(hi, _mm512_max_epi32(lo, vi));
      // maskz variant: all lanes kept, but the zeroed source operand keeps
      // GCC's -Wmaybe-uninitialized quiet (the plain form passes undef).
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + j),
                       _mm512_maskz_cvtsepi32_epi8(0xFFFF, vi));
    }
    for (; j < k; ++j) {
      int32_t v = static_cast<int32_t>(std::lrintf(xr[j] * inv));
      v = std::min(127, std::max(-127, v));
      q[j] = static_cast<int8_t>(v);
    }
    for (j = k; j < k_padded; ++j) q[j] = 0;
  }
}

/// int8 GEMM on the same interleaved k-pair layout as Avx2Qgemm, but with
/// VNNI: vpdpwssd retires 16 column-pairs (32 MACs) per instruction with the
/// accumulate folded in — no permute or separate add. Activation rows are
/// pre-widened once into sign-extended int16 pairs so the inner loop
/// broadcasts each pair with a single vpbroadcastd load. Integer
/// accumulation is exact, so results match ScalarQgemm bit-for-bit.
/// Small-batch fallback for Avx512Qgemm below, which repacks the weights per
/// call — only worth it when enough rows amortize the repack.
void Avx512QgemmPairs(const int8_t* xq, const float* x_scales,
                      const int16_t* w_packed, const float* w_scales,
                      const float* bias, float* out, int64_t rows,
                      int64_t k_padded, int64_t n) {
  const int64_t pairs = k_padded / 2;
  auto scalar_cols = [&](int64_t row, int64_t c_begin) {
    const int8_t* xr = xq + row * k_padded;
    const float xs = x_scales[row];
    float* orow = out + row * n;
    for (int64_t c = c_begin; c < n; ++c) {
      const int16_t* wp = w_packed + c * 2;
      int32_t acc = 0;
      for (int64_t p = 0; p < pairs; ++p) {
        acc += static_cast<int32_t>(xr[2 * p]) * wp[p * 2 * n + 0] +
               static_cast<int32_t>(xr[2 * p + 1]) * wp[p * 2 * n + 1];
      }
      const float combined = xs * w_scales[c];
      const float accf = static_cast<float>(acc);
      orow[c] = bias != nullptr ? FusedMulAdd(accf, combined, bias[c])
                                : accf * combined;
    }
  };
  // Per-thread staging for the widened activation pairs (4 rows in flight).
  thread_local std::vector<int32_t> widened;
  widened.resize(static_cast<size_t>(4 * std::max<int64_t>(pairs, 1)));
  auto widen_row = [&](const int8_t* xr, int32_t* buf) {
    int64_t p = 0;
    for (; (p + 16) * 2 <= k_padded; p += 16) {
      const __m256i bytes = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(xr + 2 * p));
      _mm512_storeu_si512(buf + p, _mm512_cvtepi8_epi16(bytes));
    }
    for (; p < pairs; ++p) {
      buf[p] = static_cast<int32_t>(static_cast<uint16_t>(
                   static_cast<int16_t>(xr[2 * p]))) |
               (static_cast<int32_t>(xr[2 * p + 1]) << 16);
    }
  };
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    int32_t* b0 = widened.data();
    int32_t* b1 = b0 + pairs;
    int32_t* b2 = b1 + pairs;
    int32_t* b3 = b2 + pairs;
    widen_row(xq + (r + 0) * k_padded, b0);
    widen_row(xq + (r + 1) * k_padded, b1);
    widen_row(xq + (r + 2) * k_padded, b2);
    widen_row(xq + (r + 3) * k_padded, b3);
    // Requantize one 16-column stripe of one row. Same op order everywhere:
    // combined = xs * ws, then fmadd(accf, combined, bias) or mul.
    auto store16 = [&](int64_t row, int64_t c0, __m512i acc) {
      const __m512 ws = _mm512_loadu_ps(w_scales + c0);
      const __m512 combined = _mm512_mul_ps(_mm512_set1_ps(x_scales[row]), ws);
      const __m512 accf = _mm512_cvtepi32_ps(acc);
      const __m512 res =
          bias != nullptr
              ? _mm512_fmadd_ps(accf, combined, _mm512_loadu_ps(bias + c0))
              : _mm512_mul_ps(accf, combined);
      _mm512_storeu_ps(out + row * n + c0, res);
    };
    int64_t c0 = 0;
    // 4 rows x 64 columns: the four activation broadcasts are hoisted across
    // four weight stripes, so each pair costs 4 loads + 4 broadcasts + 16
    // vpdpwssd for 512 MACs (vs 16 broadcasts when striping 16 columns at a
    // time). 16 accumulators + 4 weight vectors stay within 32 zmm regs.
    for (; c0 + 64 <= n; c0 += 64) {
      __m512i acc00 = _mm512_setzero_si512(), acc01 = _mm512_setzero_si512();
      __m512i acc02 = _mm512_setzero_si512(), acc03 = _mm512_setzero_si512();
      __m512i acc10 = _mm512_setzero_si512(), acc11 = _mm512_setzero_si512();
      __m512i acc12 = _mm512_setzero_si512(), acc13 = _mm512_setzero_si512();
      __m512i acc20 = _mm512_setzero_si512(), acc21 = _mm512_setzero_si512();
      __m512i acc22 = _mm512_setzero_si512(), acc23 = _mm512_setzero_si512();
      __m512i acc30 = _mm512_setzero_si512(), acc31 = _mm512_setzero_si512();
      __m512i acc32 = _mm512_setzero_si512(), acc33 = _mm512_setzero_si512();
      const int16_t* wbase = w_packed + c0 * 2;
      for (int64_t p = 0; p < pairs; ++p) {
        const int16_t* wp = wbase + p * 2 * n;
        const __m512i w0 = _mm512_loadu_si512(wp);
        const __m512i w1 = _mm512_loadu_si512(wp + 32);
        const __m512i w2 = _mm512_loadu_si512(wp + 64);
        const __m512i w3 = _mm512_loadu_si512(wp + 96);
        const __m512i a0 = _mm512_set1_epi32(b0[p]);
        const __m512i a1 = _mm512_set1_epi32(b1[p]);
        const __m512i a2 = _mm512_set1_epi32(b2[p]);
        const __m512i a3 = _mm512_set1_epi32(b3[p]);
        acc00 = _mm512_dpwssd_epi32(acc00, w0, a0);
        acc01 = _mm512_dpwssd_epi32(acc01, w1, a0);
        acc02 = _mm512_dpwssd_epi32(acc02, w2, a0);
        acc03 = _mm512_dpwssd_epi32(acc03, w3, a0);
        acc10 = _mm512_dpwssd_epi32(acc10, w0, a1);
        acc11 = _mm512_dpwssd_epi32(acc11, w1, a1);
        acc12 = _mm512_dpwssd_epi32(acc12, w2, a1);
        acc13 = _mm512_dpwssd_epi32(acc13, w3, a1);
        acc20 = _mm512_dpwssd_epi32(acc20, w0, a2);
        acc21 = _mm512_dpwssd_epi32(acc21, w1, a2);
        acc22 = _mm512_dpwssd_epi32(acc22, w2, a2);
        acc23 = _mm512_dpwssd_epi32(acc23, w3, a2);
        acc30 = _mm512_dpwssd_epi32(acc30, w0, a3);
        acc31 = _mm512_dpwssd_epi32(acc31, w1, a3);
        acc32 = _mm512_dpwssd_epi32(acc32, w2, a3);
        acc33 = _mm512_dpwssd_epi32(acc33, w3, a3);
      }
      store16(r + 0, c0, acc00);
      store16(r + 0, c0 + 16, acc01);
      store16(r + 0, c0 + 32, acc02);
      store16(r + 0, c0 + 48, acc03);
      store16(r + 1, c0, acc10);
      store16(r + 1, c0 + 16, acc11);
      store16(r + 1, c0 + 32, acc12);
      store16(r + 1, c0 + 48, acc13);
      store16(r + 2, c0, acc20);
      store16(r + 2, c0 + 16, acc21);
      store16(r + 2, c0 + 32, acc22);
      store16(r + 2, c0 + 48, acc23);
      store16(r + 3, c0, acc30);
      store16(r + 3, c0 + 16, acc31);
      store16(r + 3, c0 + 32, acc32);
      store16(r + 3, c0 + 48, acc33);
    }
    for (; c0 + 16 <= n; c0 += 16) {
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      const int16_t* wbase = w_packed + c0 * 2;
      for (int64_t p = 0; p < pairs; ++p) {
        const __m512i w = _mm512_loadu_si512(wbase + p * 2 * n);
        acc0 = _mm512_dpwssd_epi32(acc0, w, _mm512_set1_epi32(b0[p]));
        acc1 = _mm512_dpwssd_epi32(acc1, w, _mm512_set1_epi32(b1[p]));
        acc2 = _mm512_dpwssd_epi32(acc2, w, _mm512_set1_epi32(b2[p]));
        acc3 = _mm512_dpwssd_epi32(acc3, w, _mm512_set1_epi32(b3[p]));
      }
      store16(r + 0, c0, acc0);
      store16(r + 1, c0, acc1);
      store16(r + 2, c0, acc2);
      store16(r + 3, c0, acc3);
    }
    if (c0 < n) {
      scalar_cols(r + 0, c0);
      scalar_cols(r + 1, c0);
      scalar_cols(r + 2, c0);
      scalar_cols(r + 3, c0);
    }
  }
  for (; r < rows; ++r) {  // row remainder
    int32_t* b0 = widened.data();
    widen_row(xq + r * k_padded, b0);
    int64_t c0 = 0;
    for (; c0 + 16 <= n; c0 += 16) {
      __m512i acc0 = _mm512_setzero_si512();
      const int16_t* wbase = w_packed + c0 * 2;
      for (int64_t p = 0; p < pairs; ++p) {
        const __m512i w = _mm512_loadu_si512(wbase + p * 2 * n);
        acc0 = _mm512_dpwssd_epi32(acc0, w, _mm512_set1_epi32(b0[p]));
      }
      const __m512 ws = _mm512_loadu_ps(w_scales + c0);
      const __m512 combined = _mm512_mul_ps(_mm512_set1_ps(x_scales[r]), ws);
      const __m512 accf = _mm512_cvtepi32_ps(acc0);
      const __m512 res =
          bias != nullptr
              ? _mm512_fmadd_ps(accf, combined, _mm512_loadu_ps(bias + c0))
              : _mm512_mul_ps(accf, combined);
      _mm512_storeu_ps(out + r * n + c0, res);
    }
    if (c0 < n) scalar_cols(r, c0);
  }
}

/// Large-batch int8 GEMM: repacks the k-pair weights into k-quads once per
/// call and runs vpdpbusd, which retires 16 column-quads (64 MACs) per
/// instruction — double the pair kernel's density. vpdpbusd multiplies
/// unsigned-by-signed, so activations are biased by +128 (one XOR on the
/// broadcast word) and the exact bias contribution 128 * sum_k(Wq[k][c]) is
/// subtracted from each int32 accumulator before requantization. All of
/// that is exact integer math (|acc_biased| <= k * 255 * 127 fits easily),
/// so results still match ScalarQgemm bit-for-bit; the float requantize
/// sequence is byte-for-byte the one every other variant uses. The repack
/// touches each weight once (one row's worth of GEMM work), which is why
/// small batches take Avx512QgemmPairs instead.
void Avx512Qgemm(const int8_t* xq, const float* x_scales,
                 const int16_t* w_packed, const float* w_scales,
                 const float* bias, float* out, int64_t rows, int64_t k_padded,
                 int64_t n) {
  if (rows < 64 || n < 16) {
    Avx512QgemmPairs(xq, x_scales, w_packed, w_scales, bias, out, rows,
                     k_padded, n);
    return;
  }
  const int64_t pairs = k_padded / 2;
  const int64_t full_quads = k_padded / 4;
  const bool tail_pair = (k_padded & 3) != 0;  // k_padded is even
  const int64_t quads = full_quads + (tail_pair ? 1 : 0);

  // Weight repack [quads][n][4] int8 plus the +128-bias correction per
  // column, staged per thread so steady-state serving allocates nothing.
  thread_local std::vector<int8_t> wq8;
  thread_local std::vector<int32_t> corr;
  wq8.resize(static_cast<size_t>(quads * n * 4));
  corr.resize(static_cast<size_t>(n));
  for (int64_t q = 0; q < full_quads; ++q) {
    const int16_t* p0 = w_packed + (2 * q) * n * 2;
    const int16_t* p1 = w_packed + (2 * q + 1) * n * 2;
    int8_t* dst = wq8.data() + q * n * 4;
    for (int64_t c = 0; c < n; ++c) {
      dst[4 * c + 0] = static_cast<int8_t>(p0[2 * c + 0]);
      dst[4 * c + 1] = static_cast<int8_t>(p0[2 * c + 1]);
      dst[4 * c + 2] = static_cast<int8_t>(p1[2 * c + 0]);
      dst[4 * c + 3] = static_cast<int8_t>(p1[2 * c + 1]);
    }
  }
  if (tail_pair) {
    const int16_t* p0 = w_packed + (2 * full_quads) * n * 2;
    int8_t* dst = wq8.data() + full_quads * n * 4;
    for (int64_t c = 0; c < n; ++c) {
      dst[4 * c + 0] = static_cast<int8_t>(p0[2 * c + 0]);
      dst[4 * c + 1] = static_cast<int8_t>(p0[2 * c + 1]);
      dst[4 * c + 2] = 0;
      dst[4 * c + 3] = 0;
    }
  }
  for (int64_t c = 0; c < n; ++c) {
    int32_t s = 0;
    for (int64_t p = 0; p < pairs; ++p) {
      s += w_packed[(p * n + c) * 2 + 0] + w_packed[(p * n + c) * 2 + 1];
    }
    corr[static_cast<size_t>(c)] = s * 128;
  }

  auto scalar_cols = [&](int64_t row, int64_t c_begin) {
    const int8_t* xr = xq + row * k_padded;
    const float xs = x_scales[row];
    float* orow = out + row * n;
    for (int64_t c = c_begin; c < n; ++c) {
      const int16_t* wp = w_packed + c * 2;
      int32_t acc = 0;
      for (int64_t p = 0; p < pairs; ++p) {
        acc += static_cast<int32_t>(xr[2 * p]) * wp[p * 2 * n + 0] +
               static_cast<int32_t>(xr[2 * p + 1]) * wp[p * 2 * n + 1];
      }
      const float combined = xs * w_scales[c];
      const float accf = static_cast<float>(acc);
      orow[c] = bias != nullptr ? FusedMulAdd(accf, combined, bias[c])
                                : accf * combined;
    }
  };

  // Per-row activation quads, biased to unsigned (XOR 0x80 per byte). The
  // tail quad is built from the two real bytes so no load crosses into the
  // next row; its zero weight lanes make the 0x80 filler contribute nothing.
  thread_local std::vector<uint32_t> aquads;
  aquads.resize(static_cast<size_t>(4 * quads));
  auto build_row = [&](const int8_t* xr, uint32_t* buf) {
    for (int64_t q = 0; q < full_quads; ++q) {
      uint32_t v;
      std::memcpy(&v, xr + 4 * q, 4);
      buf[q] = v ^ 0x80808080u;
    }
    if (tail_pair) {
      const uint32_t v =
          static_cast<uint32_t>(static_cast<uint8_t>(xr[4 * full_quads])) |
          (static_cast<uint32_t>(static_cast<uint8_t>(xr[4 * full_quads + 1]))
           << 8);
      buf[full_quads] = v ^ 0x80808080u;
    }
  };

  // Requantize one 16-column stripe: undo the +128 bias exactly, then the
  // same mul+FMA float sequence as every other variant.
  auto store16 = [&](int64_t row, int64_t c0, __m512i accb) {
    const __m512i acc = _mm512_sub_epi32(
        accb, _mm512_loadu_si512(corr.data() + c0));
    const __m512 ws = _mm512_loadu_ps(w_scales + c0);
    const __m512 combined = _mm512_mul_ps(_mm512_set1_ps(x_scales[row]), ws);
    const __m512 accf = _mm512_cvtepi32_ps(acc);
    const __m512 res =
        bias != nullptr
            ? _mm512_fmadd_ps(accf, combined, _mm512_loadu_ps(bias + c0))
            : _mm512_mul_ps(accf, combined);
    _mm512_storeu_ps(out + row * n + c0, res);
  };

  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    uint32_t* a0 = aquads.data();
    uint32_t* a1 = a0 + quads;
    uint32_t* a2 = a1 + quads;
    uint32_t* a3 = a2 + quads;
    build_row(xq + (r + 0) * k_padded, a0);
    build_row(xq + (r + 1) * k_padded, a1);
    build_row(xq + (r + 2) * k_padded, a2);
    build_row(xq + (r + 3) * k_padded, a3);
    int64_t c0 = 0;
    // 4 rows x 64 columns: per quad, 4 weight loads + 4 broadcasts + 16
    // vpdpbusd retire 1024 MACs.
    for (; c0 + 64 <= n; c0 += 64) {
      __m512i acc00 = _mm512_setzero_si512(), acc01 = _mm512_setzero_si512();
      __m512i acc02 = _mm512_setzero_si512(), acc03 = _mm512_setzero_si512();
      __m512i acc10 = _mm512_setzero_si512(), acc11 = _mm512_setzero_si512();
      __m512i acc12 = _mm512_setzero_si512(), acc13 = _mm512_setzero_si512();
      __m512i acc20 = _mm512_setzero_si512(), acc21 = _mm512_setzero_si512();
      __m512i acc22 = _mm512_setzero_si512(), acc23 = _mm512_setzero_si512();
      __m512i acc30 = _mm512_setzero_si512(), acc31 = _mm512_setzero_si512();
      __m512i acc32 = _mm512_setzero_si512(), acc33 = _mm512_setzero_si512();
      for (int64_t q = 0; q < quads; ++q) {
        const int8_t* wb = wq8.data() + (q * n + c0) * 4;
        const __m512i w0 = _mm512_loadu_si512(wb);
        const __m512i w1 = _mm512_loadu_si512(wb + 64);
        const __m512i w2 = _mm512_loadu_si512(wb + 128);
        const __m512i w3 = _mm512_loadu_si512(wb + 192);
        const __m512i v0 = _mm512_set1_epi32(static_cast<int>(a0[q]));
        const __m512i v1 = _mm512_set1_epi32(static_cast<int>(a1[q]));
        const __m512i v2 = _mm512_set1_epi32(static_cast<int>(a2[q]));
        const __m512i v3 = _mm512_set1_epi32(static_cast<int>(a3[q]));
        acc00 = _mm512_dpbusd_epi32(acc00, v0, w0);
        acc01 = _mm512_dpbusd_epi32(acc01, v0, w1);
        acc02 = _mm512_dpbusd_epi32(acc02, v0, w2);
        acc03 = _mm512_dpbusd_epi32(acc03, v0, w3);
        acc10 = _mm512_dpbusd_epi32(acc10, v1, w0);
        acc11 = _mm512_dpbusd_epi32(acc11, v1, w1);
        acc12 = _mm512_dpbusd_epi32(acc12, v1, w2);
        acc13 = _mm512_dpbusd_epi32(acc13, v1, w3);
        acc20 = _mm512_dpbusd_epi32(acc20, v2, w0);
        acc21 = _mm512_dpbusd_epi32(acc21, v2, w1);
        acc22 = _mm512_dpbusd_epi32(acc22, v2, w2);
        acc23 = _mm512_dpbusd_epi32(acc23, v2, w3);
        acc30 = _mm512_dpbusd_epi32(acc30, v3, w0);
        acc31 = _mm512_dpbusd_epi32(acc31, v3, w1);
        acc32 = _mm512_dpbusd_epi32(acc32, v3, w2);
        acc33 = _mm512_dpbusd_epi32(acc33, v3, w3);
      }
      store16(r + 0, c0, acc00);
      store16(r + 0, c0 + 16, acc01);
      store16(r + 0, c0 + 32, acc02);
      store16(r + 0, c0 + 48, acc03);
      store16(r + 1, c0, acc10);
      store16(r + 1, c0 + 16, acc11);
      store16(r + 1, c0 + 32, acc12);
      store16(r + 1, c0 + 48, acc13);
      store16(r + 2, c0, acc20);
      store16(r + 2, c0 + 16, acc21);
      store16(r + 2, c0 + 32, acc22);
      store16(r + 2, c0 + 48, acc23);
      store16(r + 3, c0, acc30);
      store16(r + 3, c0 + 16, acc31);
      store16(r + 3, c0 + 32, acc32);
      store16(r + 3, c0 + 48, acc33);
    }
    for (; c0 + 16 <= n; c0 += 16) {
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      for (int64_t q = 0; q < quads; ++q) {
        const __m512i w =
            _mm512_loadu_si512(wq8.data() + (q * n + c0) * 4);
        acc0 = _mm512_dpbusd_epi32(acc0,
                                   _mm512_set1_epi32(static_cast<int>(a0[q])),
                                   w);
        acc1 = _mm512_dpbusd_epi32(acc1,
                                   _mm512_set1_epi32(static_cast<int>(a1[q])),
                                   w);
        acc2 = _mm512_dpbusd_epi32(acc2,
                                   _mm512_set1_epi32(static_cast<int>(a2[q])),
                                   w);
        acc3 = _mm512_dpbusd_epi32(acc3,
                                   _mm512_set1_epi32(static_cast<int>(a3[q])),
                                   w);
      }
      store16(r + 0, c0, acc0);
      store16(r + 1, c0, acc1);
      store16(r + 2, c0, acc2);
      store16(r + 3, c0, acc3);
    }
    if (c0 < n) {
      scalar_cols(r + 0, c0);
      scalar_cols(r + 1, c0);
      scalar_cols(r + 2, c0);
      scalar_cols(r + 3, c0);
    }
  }
  for (; r < rows; ++r) {  // row remainder
    uint32_t* a0 = aquads.data();
    build_row(xq + r * k_padded, a0);
    int64_t c0 = 0;
    for (; c0 + 16 <= n; c0 += 16) {
      __m512i acc0 = _mm512_setzero_si512();
      for (int64_t q = 0; q < quads; ++q) {
        const __m512i w =
            _mm512_loadu_si512(wq8.data() + (q * n + c0) * 4);
        acc0 = _mm512_dpbusd_epi32(acc0,
                                   _mm512_set1_epi32(static_cast<int>(a0[q])),
                                   w);
      }
      store16(r, c0, acc0);
    }
    if (c0 < n) scalar_cols(r, c0);
  }
}

const SimdKernelTable kAvx512Table = {
    "avx512",        Avx512MatMul,   Avx512MatMulTransA,
    Avx512MatMulTransB, Avx2DualMatVec, ScalarReadoutDot,
    Avx512ExpInplace,   Avx512Elu,      Avx512Axpy,
    Avx512AddProduct,   SharedSegmentSoftmaxCsr, Avx512QuantizeRows,
    Avx512Qgemm,
};

#pragma GCC diagnostic pop

}  // namespace
#endif  // DQUAG_SIMD_HAVE_AVX512

// ---------------------------------------------------------------------------
// NEON kernels: the dot-product family and elementwise math, emulating the
// 8-lane semantics with paired float32x4 accumulators (lanes 0-3 / 4-7) so
// the fixed reduction tree matches. The GEMM and int8 kernels fall back to
// the scalar reference, which autovectorizes well on aarch64.
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
    NeonAddProduct,     SharedSegmentSoftmaxCsr, ScalarQuantizeRows,
    ScalarQgemm,
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
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vnni")) {
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
