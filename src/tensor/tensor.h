// Dense row-major float32 tensor.
//
// This is the numeric substrate under the autograd tape and the GNN layers.
// Tensors are plain values (copyable, movable) holding a shape and a
// contiguous buffer. All math lives in tensor/tensor_ops.h as free functions
// so the data container stays small.

#ifndef DQUAG_TENSOR_TENSOR_H_
#define DQUAG_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"

namespace dquag {

class Rng;

/// Shape of a tensor: dimension sizes, outermost first.
using Shape = std::vector<int64_t>;

/// Number of elements implied by a shape.
int64_t ShapeNumel(const Shape& shape);

/// Human-readable shape, e.g. "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// Dense float32 tensor with row-major layout.
class Tensor {
 public:
  /// Empty 0-d tensor (numel 0 with empty shape is represented as shape []
  /// and a single implicit scalar slot is NOT allocated; use Scalar()).
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor adopting an existing flat buffer. data.size() must match shape.
  Tensor(Shape shape, std::vector<float> data);

  // ---- Factories -----------------------------------------------------------

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }
  static Tensor Full(Shape shape, float value);
  /// 0-d style scalar represented as shape [1].
  static Tensor Scalar(float value);
  /// i.i.d. N(0, stddev^2) entries.
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// i.i.d. U[lo, hi) entries.
  static Tensor RandUniform(Shape shape, Rng& rng, float lo, float hi);
  /// [0, 1, ..., n-1] as a length-n vector.
  static Tensor Arange(int64_t n);

  // ---- Introspection -------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int64_t ndim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t axis) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  // ---- Element access ------------------------------------------------------

  float& operator[](int64_t flat_index) {
    DQUAG_CHECK_GE(flat_index, 0);
    DQUAG_CHECK_LT(flat_index, numel());
    return data_[static_cast<size_t>(flat_index)];
  }
  float operator[](int64_t flat_index) const {
    DQUAG_CHECK_GE(flat_index, 0);
    DQUAG_CHECK_LT(flat_index, numel());
    return data_[static_cast<size_t>(flat_index)];
  }

  float& operator()(int64_t i) { return (*this)[i]; }
  float operator()(int64_t i) const { return (*this)[i]; }
  float& operator()(int64_t i, int64_t j);
  float operator()(int64_t i, int64_t j) const;
  float& operator()(int64_t i, int64_t j, int64_t k);
  float operator()(int64_t i, int64_t j, int64_t k) const;

  // ---- Shape manipulation (copying) ---------------------------------------

  /// Returns a tensor with the same data and a new shape of equal numel.
  /// At most one dimension may be -1 (inferred).
  Tensor Reshape(Shape new_shape) const;

  /// Re-shapes this tensor in place, resizing the buffer to the implied
  /// element count. Capacity is retained when shrinking, so a tensor that
  /// has reached its high-water size never reallocates again — the
  /// workspace primitive of the inference engine. Newly exposed elements
  /// are zero; surviving elements keep their (stale) values, so kernels
  /// writing into a resized tensor must overwrite or accumulate-after-fill.
  void ResizeInPlace(Shape new_shape);

  /// Fills the buffer with a constant.
  void Fill(float value);

  /// True if shapes and all elements match exactly.
  bool Equals(const Tensor& other) const;

  /// True if shapes match and elements agree within `atol`.
  bool AllClose(const Tensor& other, float atol = 1e-5f) const;

  /// Debug string with shape and (truncated) contents.
  std::string ToString(int64_t max_elements = 32) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace dquag

#endif  // DQUAG_TENSOR_TENSOR_H_
