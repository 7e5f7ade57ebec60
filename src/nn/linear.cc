#include "nn/linear.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace dquag {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter("weight",
                              XavierUniform(in_features, out_features, rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}));
}

VarPtr Linear::Forward(const VarPtr& x) const {
  DQUAG_CHECK_EQ(x->value().dim(-1), in_features_);
  return ag::Add(ag::MatMul(x, weight_), bias_);
}

Tensor& Linear::InferForward(const Tensor& x, InferenceContext& ctx,
                             bool elu) const {
  DQUAG_CHECK_EQ(x.dim(-1), in_features_);
  Shape out_shape = x.shape();
  out_shape.back() = out_features_;
  Tensor& out = ctx.Acquire(std::move(out_shape));
  LinearInto(x, weight_->value(), &bias_->value(), elu, out);
  return out;
}

Mlp::Mlp(const std::vector<int64_t>& layer_sizes, Rng& rng,
         bool activate_last)
    : activate_last_(activate_last) {
  DQUAG_CHECK_GE(layer_sizes.size(), 2u);
  for (size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    layers_.push_back(
        std::make_unique<Linear>(layer_sizes[i], layer_sizes[i + 1], rng));
    RegisterModule(layers_.back().get());
  }
}

VarPtr Mlp::Forward(const VarPtr& x) const {
  VarPtr h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size() || activate_last_) {
      h = ag::Elu(h);
    }
  }
  return h;
}

Tensor& Mlp::InferForward(const Tensor& x, InferenceContext& ctx,
                          bool elu_out) const {
  const Tensor* in = &x;
  Tensor* out = nullptr;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    out = &layers_[i]->InferForward(*in, ctx,
                                    !last || activate_last_ || elu_out);
    in = out;
  }
  return *out;
}

}  // namespace dquag
