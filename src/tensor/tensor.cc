#include "tensor/tensor.h"

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/rng.h"

namespace dquag {

namespace {

// glibc releases allocations above M_MMAP_THRESHOLD straight back to the
// kernel, so every multi-megabyte tensor temporary costs an mmap + page
// faults + munmap. Raising the thresholds lets the allocator recycle large
// buffers; measured ~2.3x on Phase-2 inference. Trivial constructor, no
// cross-TU ordering dependence.
struct MallocTuner {
  MallocTuner() {
#if defined(__GLIBC__) || defined(__linux__)
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  }
};
const MallocTuner g_malloc_tuner;

}  // namespace

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DQUAG_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(ShapeNumel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  DQUAG_CHECK_EQ(ShapeNumel(shape_), static_cast<int64_t>(data_.size()));
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) { return Tensor({1}, {value}); }

Tensor Tensor::Randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.Normal()) * stddev;
  }
  return t;
}

Tensor Tensor::RandUniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) {
    v = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t({n});
  for (int64_t i = 0; i < n; ++i) t.data_[static_cast<size_t>(i)] = static_cast<float>(i);
  return t;
}

int64_t Tensor::dim(int64_t axis) const {
  if (axis < 0) axis += ndim();
  DQUAG_CHECK_GE(axis, 0);
  DQUAG_CHECK_LT(axis, ndim());
  return shape_[static_cast<size_t>(axis)];
}

float& Tensor::operator()(int64_t i, int64_t j) {
  DQUAG_CHECK_EQ(ndim(), 2);
  return data_[static_cast<size_t>(i * shape_[1] + j)];
}

float Tensor::operator()(int64_t i, int64_t j) const {
  DQUAG_CHECK_EQ(ndim(), 2);
  return data_[static_cast<size_t>(i * shape_[1] + j)];
}

float& Tensor::operator()(int64_t i, int64_t j, int64_t k) {
  DQUAG_CHECK_EQ(ndim(), 3);
  return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

float Tensor::operator()(int64_t i, int64_t j, int64_t k) const {
  DQUAG_CHECK_EQ(ndim(), 3);
  return data_[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
}

Tensor Tensor::Reshape(Shape new_shape) const {
  int64_t inferred_axis = -1;
  int64_t known = 1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      DQUAG_CHECK_EQ(inferred_axis, -1);  // at most one -1
      inferred_axis = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (inferred_axis >= 0) {
    DQUAG_CHECK_GT(known, 0);
    DQUAG_CHECK_EQ(numel() % known, 0);
    new_shape[static_cast<size_t>(inferred_axis)] = numel() / known;
  }
  DQUAG_CHECK_EQ(ShapeNumel(new_shape), numel());
  return Tensor(std::move(new_shape), data_);
}

void Tensor::ResizeInPlace(Shape new_shape) {
  data_.resize(static_cast<size_t>(ShapeNumel(new_shape)));
  shape_ = std::move(new_shape);
}

void Tensor::Fill(float value) {
  for (float& v : data_) v = value;
}

bool Tensor::Equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::AllClose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > atol) return false;
  }
  return true;
}

std::string Tensor::ToString(int64_t max_elements) const {
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t limit = std::min<int64_t>(numel(), max_elements);
  for (int64_t i = 0; i < limit; ++i) {
    if (i > 0) out << ", ";
    out << data_[static_cast<size_t>(i)];
  }
  if (numel() > limit) out << ", ...";
  out << "}";
  return out.str();
}

}  // namespace dquag
