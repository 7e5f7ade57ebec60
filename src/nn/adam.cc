#include "nn/adam.h"

#include <cmath>

namespace dquag {

Adam::Adam(std::vector<VarPtr> parameters, AdamOptions options)
    : parameters_(std::move(parameters)), options_(options) {
  first_moment_.reserve(parameters_.size());
  second_moment_.reserve(parameters_.size());
  for (const VarPtr& p : parameters_) {
    first_moment_.push_back(Tensor::Zeros(p->value().shape()));
    second_moment_.push_back(Tensor::Zeros(p->value().shape()));
    total_numel_ += p->value().numel();
  }
}

void Adam::Step(const ParameterRunner& run) {
  ++step_count_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float one_minus_b1 = 1.0f - b1;
  const float one_minus_b2 = 1.0f - b2;
  // Bias corrections hoisted out of the inner loops: one divide per step
  // instead of two per element.
  const float inv_bias1 =
      1.0f / (1.0f - std::pow(b1, static_cast<float>(step_count_)));
  const float inv_bias2 =
      1.0f / (1.0f - std::pow(b2, static_cast<float>(step_count_)));
  const float lr = options_.learning_rate;
  const float eps = options_.epsilon;
  const float decay = options_.weight_decay;

  const auto update_param = [&](int64_t i) {
    const size_t pi = static_cast<size_t>(i);
    Variable& p = *parameters_[pi];
    if (!p.has_grad()) return;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = first_moment_[pi].data();
    float* v = second_moment_[pi].data();
    const int64_t n = p.value().numel();
    // The decay test is loop-invariant; two specialized loops keep the hot
    // (decay-free) path branchless and vectorizable.
    if (decay > 0.0f) {
      for (int64_t j = 0; j < n; ++j) {
        const float gj = g[j] + decay * w[j];
        m[j] = b1 * m[j] + one_minus_b1 * gj;
        v[j] = b2 * v[j] + one_minus_b2 * gj * gj;
        w[j] -= lr * m[j] * inv_bias1 /
                (std::sqrt(v[j] * inv_bias2) + eps);
      }
    } else {
      for (int64_t j = 0; j < n; ++j) {
        const float gj = g[j];
        m[j] = b1 * m[j] + one_minus_b1 * gj;
        v[j] = b2 * v[j] + one_minus_b2 * gj * gj;
        w[j] -= lr * m[j] * inv_bias1 /
                (std::sqrt(v[j] * inv_bias2) + eps);
      }
    }
  };

  const int64_t count = static_cast<int64_t>(parameters_.size());
  if (run) {
    run(count, update_param);
  } else {
    for (int64_t i = 0; i < count; ++i) update_param(i);
  }
}

void Adam::ZeroGrad() {
  for (const VarPtr& p : parameters_) p->ZeroGrad();
}

}  // namespace dquag
