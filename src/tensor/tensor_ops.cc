#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/fast_math.h"
#include "tensor/simd.h"

namespace dquag {

namespace {

/// NumPy broadcast of two shapes; checked failure if incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  Shape out(rank, 1);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    DQUAG_CHECK(da == db || da == 1 || db == 1);
    out[i] = std::max(da, db);
  }
  return out;
}

/// Row-major strides for a shape.
std::vector<int64_t> StridesFor(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[static_cast<size_t>(i)] =
        strides[static_cast<size_t>(i + 1)] * shape[static_cast<size_t>(i + 1)];
  }
  return strides;
}

/// Strides for reading operand of shape `src` as if broadcast to `out`:
/// size-1 dims get stride 0. `src` is right-aligned against `out`.
std::vector<int64_t> BroadcastStrides(const Shape& src, const Shape& out) {
  const std::vector<int64_t> src_strides = StridesFor(src);
  std::vector<int64_t> strides(out.size(), 0);
  const size_t offset = out.size() - src.size();
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i] != 1) strides[offset + i] = src_strides[i];
  }
  return strides;
}

template <typename BinaryFn>
Tensor BinaryOp(const Tensor& a, const Tensor& b, BinaryFn fn) {
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
    return out;
  }
  // Fast path: b is a scalar.
  if (b.numel() == 1) {
    const float s = b[0];
    Tensor out(a.shape());
    const float* pa = a.data();
    float* po = out.data();
    const int64_t n = a.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], s);
    return out;
  }
  if (a.numel() == 1) {
    const float s = a[0];
    Tensor out(b.shape());
    const float* pb = b.data();
    float* po = out.data();
    const int64_t n = b.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = fn(s, pb[i]);
    return out;
  }
  // General broadcast.
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out(out_shape);
  const std::vector<int64_t> sa = BroadcastStrides(a.shape(), out_shape);
  const std::vector<int64_t> sb = BroadcastStrides(b.shape(), out_shape);
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  // Fast path for rank <= 3: nested loops with hoisted strides (the hot
  // shapes are [B,d,h] op [d,h], [B,E,h] op [E,1], [B,d] op [d]).
  if (rank <= 3) {
    int64_t d0 = 1, d1 = 1, d2 = 1;
    int64_t a0 = 0, a1 = 0, a2 = 0, b0 = 0, b1 = 0, b2 = 0;
    // Right-align into a 3-level loop nest.
    const int64_t pad = 3 - rank;
    for (int64_t i = 0; i < rank; ++i) {
      const int64_t level = i + pad;
      const int64_t extent = out_shape[static_cast<size_t>(i)];
      const int64_t stride_a = sa[static_cast<size_t>(i)];
      const int64_t stride_b = sb[static_cast<size_t>(i)];
      if (level == 0) { d0 = extent; a0 = stride_a; b0 = stride_b; }
      if (level == 1) { d1 = extent; a1 = stride_a; b1 = stride_b; }
      if (level == 2) { d2 = extent; a2 = stride_a; b2 = stride_b; }
    }
    const float* pa2 = a.data();
    const float* pb2 = b.data();
    float* po2 = out.data();
    for (int64_t i0 = 0; i0 < d0; ++i0) {
      for (int64_t i1 = 0; i1 < d1; ++i1) {
        const float* ra = pa2 + i0 * a0 + i1 * a1;
        const float* rb = pb2 + i0 * b0 + i1 * b1;
        if (a2 == 1 && b2 == 1) {
          for (int64_t i2 = 0; i2 < d2; ++i2) po2[i2] = fn(ra[i2], rb[i2]);
        } else if (a2 == 1 && b2 == 0) {
          const float s = rb[0];
          for (int64_t i2 = 0; i2 < d2; ++i2) po2[i2] = fn(ra[i2], s);
        } else if (a2 == 0 && b2 == 1) {
          const float s = ra[0];
          for (int64_t i2 = 0; i2 < d2; ++i2) po2[i2] = fn(s, rb[i2]);
        } else {
          for (int64_t i2 = 0; i2 < d2; ++i2) {
            po2[i2] = fn(ra[i2 * a2], rb[i2 * b2]);
          }
        }
        po2 += d2;
      }
    }
    return out;
  }
  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  const int64_t n = out.numel();
  int64_t offset_a = 0;
  int64_t offset_b = 0;
  for (int64_t flat = 0; flat < n; ++flat) {
    po[flat] = fn(pa[offset_a], pb[offset_b]);
    // Odometer increment.
    for (int64_t axis = rank - 1; axis >= 0; --axis) {
      const size_t ax = static_cast<size_t>(axis);
      ++index[ax];
      offset_a += sa[ax];
      offset_b += sb[ax];
      if (index[ax] < out_shape[ax]) break;
      offset_a -= sa[ax] * out_shape[ax];
      offset_b -= sb[ax] * out_shape[ax];
      index[ax] = 0;
    }
  }
  return out;
}

template <typename UnaryFn>
Tensor UnaryOp(const Tensor& a, UnaryFn fn) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

int64_t NormalizeAxis(int64_t axis, int64_t ndim) {
  if (axis < 0) axis += ndim;
  DQUAG_CHECK_GE(axis, 0);
  DQUAG_CHECK_LT(axis, ndim);
  return axis;
}

}  // namespace

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  // Sum over leading extra axes, then over axes where target has size 1.
  // `src` tracks the live input so the first reduction reads `t` directly
  // (no upfront copy).
  Tensor current;
  const Tensor* src = &t;
  while (src->ndim() > static_cast<int64_t>(target.size())) {
    current = Sum(*src, 0, /*keepdims=*/false);
    src = &current;
  }
  for (int64_t axis = 0; axis < src->ndim(); ++axis) {
    if (target[static_cast<size_t>(axis)] == 1 && src->dim(axis) != 1) {
      current = Sum(*src, axis, /*keepdims=*/true);
      src = &current;
    }
  }
  if (src != &current) current = *src;  // no reduction applied: plain copy
  DQUAG_CHECK(current.shape() == target);
  return current;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x * y; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::abs(x); });
}
Tensor Square(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x * x; });
}
Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryOp(a, [negative_slope](float x) {
    return x > 0.0f ? x : negative_slope * x;
  });
}
Tensor Elu(const Tensor& a, float alpha) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  simd::ActiveKernels().elu(pa, po, a.numel(), alpha);
  return out;
}

namespace {

// The GEMM micro-kernels (register-tiled 4x16 forward kernel, transposed
// accumulators for the backward pass) now live behind the runtime-dispatched
// SIMD kernel table — see tensor/simd.h for the bit-identity contract that
// replaces the FusedMulAdd discipline the local kernels used to carry.

/// C[m,n] = A[m,k] * B[k,n] over raw pointers (row-major), overwriting C.
inline void MatMulKernel(const float* a, const float* b, float* c, int64_t m,
                         int64_t k, int64_t n) {
  simd::ActiveKernels().matmul(a, b, /*bias=*/nullptr, c, m, k, n,
                               /*elu=*/false);
}

/// C[k,n] += sum_i A[i,k-th col] * B[i,:]  (A^T B, outer-product order).
inline void MatMulTransAKernel(const float* a, const float* b, float* c,
                               int64_t m, int64_t k, int64_t n) {
  simd::ActiveKernels().matmul_trans_a(a, b, c, m, k, n);
}

/// C[m,k] += A[m,n] * B^T where B is [k,n]: rows of A dot rows of B.
inline void MatMulTransBKernel(const float* a, const float* b, float* c,
                               int64_t m, int64_t n, int64_t k) {
  simd::ActiveKernels().matmul_trans_b(a, b, c, m, n, k);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (a.ndim() == 2 && b.ndim() == 2) {
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    DQUAG_CHECK_EQ(k, b.dim(0));
    Tensor out({m, n});
    MatMulKernel(a.data(), b.data(), out.data(), m, k, n);
    return out;
  }
  if (a.ndim() == 3 && b.ndim() == 2) {
    const int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(1);
    DQUAG_CHECK_EQ(k, b.dim(0));
    // [B,m,k] x [k,n] is [B*m,k] x [k,n] on the same buffer (no reshape
    // copies — row-major layout makes the flattening free).
    const int64_t rows = batch * m;
    Tensor out({batch, m, n});
    MatMulKernel(a.data(), b.data(), out.data(), rows, k, n);
    return out;
  }
  if (a.ndim() == 3 && b.ndim() == 3) {
    const int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
    DQUAG_CHECK_EQ(batch, b.dim(0));
    DQUAG_CHECK_EQ(k, b.dim(1));
    Tensor out({batch, m, n});
    for (int64_t bi = 0; bi < batch; ++bi) {
      MatMulKernel(a.data() + bi * m * k, b.data() + bi * k * n,
                   out.data() + bi * m * n, m, k, n);
    }
    return out;
  }
  DQUAG_CHECK(false);  // unsupported rank combination
  return Tensor();
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  DQUAG_CHECK_GE(a.ndim(), 2);
  DQUAG_CHECK_EQ(a.ndim(), b.ndim());
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-1);
  int64_t m = 1;
  for (int64_t i = 0; i + 1 < a.ndim(); ++i) {
    DQUAG_CHECK_EQ(a.dim(i), b.dim(i));
    m *= a.dim(i);
  }
  Tensor out({k, n});
  MatMulTransAKernel(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  DQUAG_CHECK_GE(a.ndim(), 2);
  DQUAG_CHECK_EQ(b.ndim(), 2);
  const int64_t n = a.dim(-1);
  DQUAG_CHECK_EQ(n, b.dim(1));
  const int64_t k = b.dim(0);
  int64_t m = 1;
  for (int64_t i = 0; i + 1 < a.ndim(); ++i) m *= a.dim(i);
  Shape out_shape = a.shape();
  out_shape.back() = k;
  Tensor out(std::move(out_shape));
  MatMulTransBKernel(a.data(), b.data(), out.data(), m, n, k);
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  if (a.ndim() == 2) {
    const int64_t m = a.dim(0), n = a.dim(1);
    Tensor out({n, m});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) out(j, i) = a(i, j);
    }
    return out;
  }
  DQUAG_CHECK_EQ(a.ndim(), 3);
  const int64_t batch = a.dim(0), m = a.dim(1), n = a.dim(2);
  Tensor out({batch, n, m});
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) out(bi, j, i) = a(bi, i, j);
    }
  }
  return out;
}

float SumAll(const Tensor& a) {
  double total = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) total += a[i];
  return static_cast<float>(total);
}

float MeanAll(const Tensor& a) {
  DQUAG_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<float>(a.numel());
}

float MaxAll(const Tensor& a) {
  DQUAG_CHECK_GT(a.numel(), 0);
  float best = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::max(best, a[i]);
  return best;
}

float MinAll(const Tensor& a) {
  DQUAG_CHECK_GT(a.numel(), 0);
  float best = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::min(best, a[i]);
  return best;
}

namespace {

/// Generic axis reduction: `update` folds values, `finish` post-processes.
template <typename UpdateFn>
Tensor ReduceAxis(const Tensor& a, int64_t axis, bool keepdims, float init,
                  UpdateFn update) {
  axis = NormalizeAxis(axis, a.ndim());
  int64_t outer = 1, inner = 1;
  const int64_t reduced = a.dim(axis);
  for (int64_t i = 0; i < axis; ++i) outer *= a.dim(i);
  for (int64_t i = axis + 1; i < a.ndim(); ++i) inner *= a.dim(i);

  Shape out_shape;
  for (int64_t i = 0; i < a.ndim(); ++i) {
    if (i == axis) {
      if (keepdims) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.dim(i));
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);

  Tensor out(out_shape);
  out.Fill(init);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t r = 0; r < reduced; ++r) {
      const float* src = pa + (o * reduced + r) * inner;
      float* dst = po + o * inner;
      for (int64_t i = 0; i < inner; ++i) dst[i] = update(dst[i], src[i]);
    }
  }
  return out;
}

}  // namespace

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims) {
  return ReduceAxis(a, axis, keepdims, 0.0f,
                    [](float acc, float v) { return acc + v; });
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdims) {
  const int64_t n = a.dim(NormalizeAxis(axis, a.ndim()));
  Tensor s = Sum(a, axis, keepdims);
  return MulScalar(s, 1.0f / static_cast<float>(n));
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end) {
  axis = NormalizeAxis(axis, a.ndim());
  DQUAG_CHECK_GE(start, 0);
  DQUAG_CHECK_LE(start, end);
  DQUAG_CHECK_LE(end, a.dim(axis));

  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(axis)] = end - start;

  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= a.dim(i);
  for (int64_t i = axis + 1; i < a.ndim(); ++i) inner *= a.dim(i);

  Tensor out(out_shape);
  const int64_t a_axis = a.dim(axis);
  const int64_t span = end - start;
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::copy(pa + (o * a_axis + start) * inner,
              pa + (o * a_axis + end) * inner, po + o * span * inner);
  }
  return out;
}

namespace {

/// Views a 2-D tensor as batch-1 3-D for the graph kernels.
bool AsBatched(const Tensor& t, int64_t& batch, int64_t& rows, int64_t& cols) {
  if (t.ndim() == 3) {
    batch = t.dim(0);
    rows = t.dim(1);
    cols = t.dim(2);
    return false;
  }
  DQUAG_CHECK_EQ(t.ndim(), 2);
  batch = 1;
  rows = t.dim(0);
  cols = t.dim(1);
  return true;
}

}  // namespace

Tensor GatherAxis1(const Tensor& t, const std::vector<int32_t>& indices) {
  int64_t batch, rows, cols;
  const bool was_2d = AsBatched(t, batch, rows, cols);
  const int64_t num = static_cast<int64_t>(indices.size());
  Tensor out(was_2d ? Shape{num, cols} : Shape{batch, num, cols});
  const float* pt = t.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* src = pt + b * rows * cols;
    float* dst = po + b * num * cols;
    for (int64_t e = 0; e < num; ++e) {
      const int32_t idx = indices[static_cast<size_t>(e)];
      DQUAG_CHECK_GE(idx, 0);
      DQUAG_CHECK_LT(idx, rows);
      std::copy(src + idx * cols, src + (idx + 1) * cols, dst + e * cols);
    }
  }
  return out;
}

Tensor ScatterAddAxis1(const Tensor& src, const std::vector<int32_t>& indices,
                       int64_t num_rows) {
  int64_t batch, num, cols;
  const bool was_2d = AsBatched(src, batch, num, cols);
  DQUAG_CHECK_EQ(num, static_cast<int64_t>(indices.size()));
  Tensor out(was_2d ? Shape{num_rows, cols} : Shape{batch, num_rows, cols});
  const float* ps = src.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* from = ps + b * num * cols;
    float* to = po + b * num_rows * cols;
    for (int64_t e = 0; e < num; ++e) {
      const int32_t idx = indices[static_cast<size_t>(e)];
      DQUAG_CHECK_GE(idx, 0);
      DQUAG_CHECK_LT(idx, num_rows);
      const float* row = from + e * cols;
      float* acc = to + idx * cols;
      for (int64_t c = 0; c < cols; ++c) acc[c] += row[c];
    }
  }
  return out;
}

Tensor SegmentSoftmaxAxis1(const Tensor& scores,
                           const std::vector<int32_t>& segments,
                           int64_t num_segments) {
  int64_t batch, num, cols;
  bool was_1d = false;
  Tensor input = scores;
  if (scores.ndim() == 1) {
    was_1d = true;
    input = scores.Reshape({1, scores.dim(0)});
  }
  DQUAG_CHECK_EQ(input.ndim(), 2);
  batch = input.dim(0);
  num = input.dim(1);
  cols = 1;
  (void)cols;
  DQUAG_CHECK_EQ(num, static_cast<int64_t>(segments.size()));

  Tensor out(input.shape());
  const float* ps = input.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* row = ps + b * num;
    float* dst = po + b * num;
    std::vector<float> seg_max(static_cast<size_t>(num_segments),
                               -std::numeric_limits<float>::infinity());
    std::vector<float> seg_sum(static_cast<size_t>(num_segments), 0.0f);
    for (int64_t e = 0; e < num; ++e) {
      const int32_t s = segments[static_cast<size_t>(e)];
      DQUAG_CHECK_GE(s, 0);
      DQUAG_CHECK_LT(s, num_segments);
      seg_max[static_cast<size_t>(s)] =
          std::max(seg_max[static_cast<size_t>(s)], row[e]);
    }
    for (int64_t e = 0; e < num; ++e) {
      const int32_t s = segments[static_cast<size_t>(e)];
      dst[e] = std::exp(row[e] - seg_max[static_cast<size_t>(s)]);
      seg_sum[static_cast<size_t>(s)] += dst[e];
    }
    for (int64_t e = 0; e < num; ++e) {
      const int32_t s = segments[static_cast<size_t>(e)];
      dst[e] /= seg_sum[static_cast<size_t>(s)];
    }
  }
  return was_1d ? out.Reshape({num}) : out;
}

Tensor SegmentSumAxis1(const Tensor& values,
                       const std::vector<int32_t>& segments,
                       int64_t num_segments) {
  bool was_1d = false;
  Tensor input = values;
  if (values.ndim() == 1) {
    was_1d = true;
    input = values.Reshape({1, values.dim(0)});
  }
  DQUAG_CHECK_EQ(input.ndim(), 2);
  const int64_t batch = input.dim(0);
  const int64_t num = input.dim(1);
  DQUAG_CHECK_EQ(num, static_cast<int64_t>(segments.size()));

  Tensor out({batch, num_segments});
  const float* ps = input.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* row = ps + b * num;
    float* dst = po + b * num_segments;
    for (int64_t e = 0; e < num; ++e) {
      const int32_t s = segments[static_cast<size_t>(e)];
      DQUAG_CHECK_GE(s, 0);
      DQUAG_CHECK_LT(s, num_segments);
      dst[s] += row[e];
    }
  }
  return was_1d ? out.Reshape({num_segments}) : out;
}

// ---- Preallocated-output kernels (tape-free inference engine) --------------

void LinearInto(const Tensor& x, const Tensor& w, const Tensor* bias,
                bool elu, Tensor& out) {
  DQUAG_CHECK_EQ(w.ndim(), 2);
  const int64_t k = w.dim(0);
  const int64_t n = w.dim(1);
  DQUAG_CHECK_EQ(x.dim(-1), k);
  DQUAG_CHECK_EQ(x.numel() % k, 0);
  const int64_t rows = x.numel() / k;
  DQUAG_CHECK_EQ(out.numel(), rows * n);
  if (bias != nullptr) DQUAG_CHECK_EQ(bias->numel(), n);

  simd::ActiveKernels().matmul(x.data(), w.data(),
                               bias != nullptr ? bias->data() : nullptr,
                               out.data(), rows, k, n, elu);
}

void DualMatVecInto(const Tensor& x, const Tensor& w1, const Tensor& w2,
                    Tensor& out1, Tensor& out2) {
  const int64_t k = x.dim(-1);
  DQUAG_CHECK_EQ(w1.numel(), k);
  DQUAG_CHECK_EQ(w2.numel(), k);
  const int64_t rows = x.numel() / k;
  DQUAG_CHECK_EQ(out1.numel(), rows);
  DQUAG_CHECK_EQ(out2.numel(), rows);
  simd::ActiveKernels().dual_matvec(x.data(), w1.data(), w2.data(),
                                    out1.data(), out2.data(), rows, k);
}

void ArcScoreInto(const Tensor& logit_src, const Tensor& logit_dst,
                  const std::vector<int32_t>& src,
                  const std::vector<int32_t>& dst, float negative_slope,
                  Tensor& out) {
  DQUAG_CHECK_EQ(logit_src.numel(), logit_dst.numel());
  DQUAG_CHECK_EQ(src.size(), dst.size());
  const int64_t num_arcs = static_cast<int64_t>(src.size());
  DQUAG_CHECK_EQ(out.numel() % num_arcs, 0);
  const int64_t batch = out.numel() / num_arcs;
  DQUAG_CHECK_EQ(logit_src.numel() % batch, 0);
  const int64_t nodes = logit_src.numel() / batch;
  const float* pls = logit_src.data();
  const float* pld = logit_dst.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* ls = pls + b * nodes;
    const float* ld = pld + b * nodes;
    float* o = po + b * num_arcs;
    for (int64_t e = 0; e < num_arcs; ++e) {
      const float v = ls[src[static_cast<size_t>(e)]] +
                      ld[dst[static_cast<size_t>(e)]];
      o[e] = v > 0.0f ? v : negative_slope * v;
    }
  }
}

void SegmentSoftmaxCsrInPlace(Tensor& scores,
                              const std::vector<int64_t>& offsets,
                              const std::vector<int32_t>& order) {
  DQUAG_CHECK_GE(offsets.size(), 1u);
  const int64_t num_entries = static_cast<int64_t>(order.size());
  DQUAG_CHECK_EQ(offsets.back(), num_entries);
  DQUAG_CHECK_EQ(scores.numel() % std::max<int64_t>(1, num_entries), 0);
  const int64_t batch = num_entries == 0 ? 0 : scores.numel() / num_entries;
  const size_t num_segments = offsets.size() - 1;
  float* ps = scores.data();
  const auto& kt = simd::ActiveKernels();
  for (int64_t b = 0; b < batch; ++b) {
    kt.segment_softmax_csr(ps + b * num_entries, offsets.data(), num_segments,
                           order.data());
  }
}

void CsrAggregateInto(const Tensor& x, const std::vector<int64_t>& offsets,
                      const std::vector<int32_t>& order,
                      const std::vector<int32_t>& src, const Tensor* coeff,
                      const Tensor* bias, float self_scale, bool elu,
                      Tensor& out) {
  int64_t batch, rows, cols;
  AsBatched(x, batch, rows, cols);
  DQUAG_CHECK(out.shape() == x.shape());
  DQUAG_CHECK(out.data() != x.data());
  DQUAG_CHECK_EQ(static_cast<int64_t>(offsets.size()), rows + 1);
  const int64_t num_arcs = static_cast<int64_t>(src.size());
  DQUAG_CHECK_EQ(static_cast<int64_t>(order.size()), num_arcs);
  DQUAG_CHECK_EQ(offsets.front(), 0);
  DQUAG_CHECK_EQ(offsets.back(), num_arcs);
  // Arc indices are identical across the batch: validate once, outside the
  // hot per-batch loop.
  for (int64_t v = 0; v < rows; ++v) {
    DQUAG_CHECK_LE(offsets[static_cast<size_t>(v)],
                   offsets[static_cast<size_t>(v) + 1]);
  }
  for (int64_t i = 0; i < num_arcs; ++i) {
    const int32_t e = order[static_cast<size_t>(i)];
    DQUAG_CHECK_GE(e, 0);
    DQUAG_CHECK_LT(e, num_arcs);
    DQUAG_CHECK_GE(src[static_cast<size_t>(e)], 0);
    DQUAG_CHECK_LT(src[static_cast<size_t>(e)], rows);
  }
  // Coefficient row of batch row b: coeff + b * coeff_stride.
  int64_t coeff_stride = 0;
  if (coeff != nullptr) {
    DQUAG_CHECK(coeff->numel() == num_arcs ||
                coeff->numel() == batch * num_arcs);
    coeff_stride = coeff->numel() == num_arcs ? 0 : num_arcs;
  }
  if (bias != nullptr) DQUAG_CHECK_EQ(bias->numel(), cols);

  const auto& kt = simd::ActiveKernels();
  const float* pb = bias != nullptr ? bias->data() : nullptr;
  for (int64_t b = 0; b < batch; ++b) {
    const float* from = x.data() + b * rows * cols;
    const float* w =
        coeff != nullptr ? coeff->data() + b * coeff_stride : nullptr;
    float* to = out.data() + b * rows * cols;
    for (int64_t v = 0; v < rows; ++v) {
      float* row = to + v * cols;
      if (pb != nullptr) {
        std::copy(pb, pb + cols, row);
      } else {
        const float* self = from + v * cols;
        for (int64_t c = 0; c < cols; ++c) row[c] = self_scale * self[c];
      }
      for (int64_t i = offsets[static_cast<size_t>(v)];
           i < offsets[static_cast<size_t>(v) + 1]; ++i) {
        const int32_t e = order[static_cast<size_t>(i)];
        const float we = w != nullptr ? w[e] : 1.0f;
        const float* message = from + src[static_cast<size_t>(e)] * cols;
        for (int64_t c = 0; c < cols; ++c) {
          row[c] = FusedMulAdd(we, message[c], row[c]);
        }
      }
      if (elu) kt.elu(row, row, cols, 1.0f);
    }
  }
}

// ---- Fused backward kernels (training fast path) ---------------------------

void AddScaledInto(const Tensor& x, float s, Tensor& out) {
  DQUAG_CHECK_EQ(x.numel(), out.numel());
  simd::ActiveKernels().axpy(x.data(), s, out.data(), out.numel());
}

void AddProductInto(const Tensor& a, const Tensor& b, float s, Tensor& out) {
  DQUAG_CHECK_EQ(a.numel(), out.numel());
  DQUAG_CHECK_EQ(b.numel(), out.numel());
  simd::ActiveKernels().add_product(a.data(), b.data(), s, out.data(),
                                    out.numel());
}

void BroadcastAddInto(const Tensor& g, Tensor& out) {
  if (g.numel() == 1) {
    const float v = g[0];
    float* po = out.data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) po[i] += v;
    return;
  }
  const int64_t nd = out.ndim();
  DQUAG_CHECK_EQ(g.ndim(), nd);
  // g strides with 0 on broadcast (size-1) axes.
  std::vector<int64_t> gstride(static_cast<size_t>(nd));
  int64_t s = 1;
  for (int64_t i = nd - 1; i >= 0; --i) {
    const int64_t gd = g.dim(i);
    DQUAG_CHECK(gd == out.dim(i) || gd == 1);
    gstride[static_cast<size_t>(i)] = gd == 1 ? 0 : s;
    s *= gd;
  }
  const int64_t inner = out.dim(nd - 1);
  const int64_t inner_stride = gstride[static_cast<size_t>(nd - 1)];
  const int64_t outer = out.numel() / std::max<int64_t>(1, inner);
  std::vector<int64_t> idx(static_cast<size_t>(nd), 0);
  const float* pg = g.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    int64_t goff = 0;
    for (int64_t i = 0; i + 1 < nd; ++i) {
      goff += idx[static_cast<size_t>(i)] * gstride[static_cast<size_t>(i)];
    }
    if (inner_stride == 0) {
      const float v = pg[goff];
      for (int64_t j = 0; j < inner; ++j) po[j] += v;
    } else {
      const float* row = pg + goff;
      for (int64_t j = 0; j < inner; ++j) po[j] += row[j];
    }
    po += inner;
    for (int64_t i = nd - 2; i >= 0; --i) {
      if (++idx[static_cast<size_t>(i)] < out.dim(i)) break;
      idx[static_cast<size_t>(i)] = 0;
    }
  }
}

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor& out) {
  DQUAG_CHECK_GE(a.ndim(), 2);
  DQUAG_CHECK_EQ(a.ndim(), b.ndim());
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-1);
  int64_t m = 1;
  for (int64_t i = 0; i + 1 < a.ndim(); ++i) {
    DQUAG_CHECK_EQ(a.dim(i), b.dim(i));
    m *= a.dim(i);
  }
  DQUAG_CHECK_EQ(out.numel(), k * n);
  MatMulTransAKernel(a.data(), b.data(), out.data(), m, k, n);
}

void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor& out) {
  DQUAG_CHECK_GE(a.ndim(), 2);
  DQUAG_CHECK_EQ(b.ndim(), 2);
  const int64_t n = a.dim(-1);
  DQUAG_CHECK_EQ(n, b.dim(1));
  const int64_t k = b.dim(0);
  int64_t m = 1;
  for (int64_t i = 0; i + 1 < a.ndim(); ++i) m *= a.dim(i);
  DQUAG_CHECK_EQ(out.numel(), m * k);
  MatMulTransBKernel(a.data(), b.data(), out.data(), m, n, k);
}

void LeakyReluBackwardInto(const Tensor& x, float negative_slope,
                           const Tensor& g, Tensor& out) {
  DQUAG_CHECK_EQ(x.numel(), out.numel());
  DQUAG_CHECK_EQ(g.numel(), out.numel());
  const float* px = x.data();
  const float* pg = g.data();
  float* po = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    po[i] += px[i] > 0.0f ? pg[i] : negative_slope * pg[i];
  }
}

void EluBackwardInto(const Tensor& x, const Tensor& y, float alpha,
                     const Tensor& g, Tensor& out) {
  DQUAG_CHECK_EQ(x.numel(), out.numel());
  DQUAG_CHECK_EQ(y.numel(), out.numel());
  DQUAG_CHECK_EQ(g.numel(), out.numel());
  const float* px = x.data();
  const float* py = y.data();
  const float* pg = g.data();
  float* po = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    const float d = px[i] > 0.0f ? 1.0f : py[i] + alpha;
    po[i] += pg[i] * d;
  }
}

void ScatterAddAxis1Into(const Tensor& src,
                         const std::vector<int32_t>& indices, Tensor& out) {
  int64_t batch, num, cols;
  AsBatched(src, batch, num, cols);
  DQUAG_CHECK_EQ(num, static_cast<int64_t>(indices.size()));
  int64_t out_batch, num_rows, out_cols;
  AsBatched(out, out_batch, num_rows, out_cols);
  DQUAG_CHECK_EQ(batch, out_batch);
  DQUAG_CHECK_EQ(cols, out_cols);
  const float* ps = src.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* from = ps + b * num * cols;
    float* to = po + b * num_rows * cols;
    for (int64_t e = 0; e < num; ++e) {
      const int32_t idx = indices[static_cast<size_t>(e)];
      DQUAG_CHECK_GE(idx, 0);
      DQUAG_CHECK_LT(idx, num_rows);
      const float* row = from + e * cols;
      float* acc = to + idx * cols;
      for (int64_t c = 0; c < cols; ++c) acc[c] += row[c];
    }
  }
}

void GatherAddAxis1Into(const Tensor& t, const std::vector<int32_t>& indices,
                        Tensor& out) {
  int64_t batch, rows, cols;
  AsBatched(t, batch, rows, cols);
  int64_t out_batch, num, out_cols;
  AsBatched(out, out_batch, num, out_cols);
  DQUAG_CHECK_EQ(batch, out_batch);
  DQUAG_CHECK_EQ(cols, out_cols);
  DQUAG_CHECK_EQ(num, static_cast<int64_t>(indices.size()));
  const float* pt = t.data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* from = pt + b * rows * cols;
    float* to = po + b * num * cols;
    for (int64_t e = 0; e < num; ++e) {
      const int32_t idx = indices[static_cast<size_t>(e)];
      DQUAG_CHECK_GE(idx, 0);
      DQUAG_CHECK_LT(idx, rows);
      const float* row = from + idx * cols;
      float* acc = to + e * cols;
      for (int64_t c = 0; c < cols; ++c) acc[c] += row[c];
    }
  }
}

}  // namespace dquag
