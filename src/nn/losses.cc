#include "nn/losses.h"

#include <cmath>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace dquag {

namespace {

/// Flattens [B, d, 1] to [B, d]; passes [B, d] through.
VarPtr AsMatrix(const VarPtr& x) {
  if (x->value().ndim() == 3) {
    DQUAG_CHECK_EQ(x->value().dim(2), 1);
    return ag::Reshape(x, {x->value().dim(0), x->value().dim(1)});
  }
  DQUAG_CHECK_EQ(x->value().ndim(), 2);
  return x;
}

Tensor AsMatrixTensor(const Tensor& x) {
  if (x.ndim() == 3) {
    DQUAG_CHECK_EQ(x.dim(2), 1);
    return x.Reshape({x.dim(0), x.dim(1)});
  }
  DQUAG_CHECK_EQ(x.ndim(), 2);
  return x;
}

}  // namespace

float PerSampleError(const float* pred, const float* target, int64_t d) {
  float acc = 0.0f;
  for (int64_t c = 0; c < d; ++c) {
    const float diff = pred[c] - target[c];
    acc += diff * diff;
  }
  return acc * (1.0f / static_cast<float>(d));
}

Tensor PerFeatureErrors(const Tensor& pred, const Tensor& target) {
  Tensor p = AsMatrixTensor(pred);
  Tensor t = AsMatrixTensor(target);
  DQUAG_CHECK(p.shape() == t.shape());
  return Square(Sub(p, t));
}

void ErrorsToWeightsInto(const float* errors, int64_t batch, Tensor& weights) {
  DQUAG_CHECK_GT(batch, 0);
  weights.ResizeInPlace({batch});
  float* w = weights.data();
  // Double accumulation, float result (the MeanAll scheme).
  double error_sum = 0.0;
  for (int64_t i = 0; i < batch; ++i) error_sum += errors[i];
  const float tau =
      static_cast<float>(error_sum) / static_cast<float>(batch) + 1e-8f;
  double total = 0.0;
  for (int64_t i = 0; i < batch; ++i) {
    w[i] = std::exp(-errors[i] / tau);
    total += w[i];
  }
  DQUAG_CHECK_GT(total, 0.0);
  const float scale = static_cast<float>(batch) / static_cast<float>(total);
  for (int64_t i = 0; i < batch; ++i) w[i] *= scale;
}

VarPtr SquaredErrorSum(const VarPtr& pred, const VarPtr& target) {
  VarPtr p = AsMatrix(pred);
  VarPtr t = AsMatrix(target);
  return ag::SumAll(ag::Square(ag::Sub(p, t)));
}

VarPtr WeightedPerSampleErrorSum(const VarPtr& pred, const VarPtr& target,
                                 const Tensor& weights) {
  VarPtr p = AsMatrix(pred);
  VarPtr t = AsMatrix(target);
  const int64_t batch = p->value().dim(0);
  DQUAG_CHECK_EQ(weights.numel(), batch);
  VarPtr per_sample = ag::Mean(ag::Square(ag::Sub(p, t)), /*axis=*/1);  // [B]
  VarPtr w = MakeVar(weights.Reshape({batch}));                  // detached
  return ag::SumAll(ag::Mul(per_sample, w));
}

}  // namespace dquag
