#include "nn/adam.h"

#include <cmath>

namespace dquag {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

}  // namespace

Adam::Adam(std::vector<VarPtr> parameters, float learning_rate)
    : parameters_(std::move(parameters)), learning_rate_(learning_rate) {
  first_moment_.reserve(parameters_.size());
  second_moment_.reserve(parameters_.size());
  for (const VarPtr& p : parameters_) {
    first_moment_.push_back(Tensor::Zeros(p->value().shape()));
    second_moment_.push_back(Tensor::Zeros(p->value().shape()));
  }
}

void Adam::Step() {
  ++step_count_;
  const float one_minus_b1 = 1.0f - kBeta1;
  const float one_minus_b2 = 1.0f - kBeta2;
  // Bias corrections hoisted out of the inner loops: one divide per step
  // instead of two per element.
  const float inv_bias1 =
      1.0f / (1.0f - std::pow(kBeta1, static_cast<float>(step_count_)));
  const float inv_bias2 =
      1.0f / (1.0f - std::pow(kBeta2, static_cast<float>(step_count_)));
  const float lr = learning_rate_;

  for (size_t i = 0; i < parameters_.size(); ++i) {
    Variable& p = *parameters_[i];
    if (!p.has_grad()) continue;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = first_moment_[i].data();
    float* v = second_moment_[i].data();
    const int64_t n = p.value().numel();
    for (int64_t j = 0; j < n; ++j) {
      const float gj = g[j];
      m[j] = kBeta1 * m[j] + one_minus_b1 * gj;
      v[j] = kBeta2 * v[j] + one_minus_b2 * gj * gj;
      w[j] -= lr * m[j] * inv_bias1 / (std::sqrt(v[j] * inv_bias2) + kEpsilon);
    }
  }
}

void Adam::ZeroGrad() {
  for (const VarPtr& p : parameters_) p->ZeroGrad();
}

}  // namespace dquag
