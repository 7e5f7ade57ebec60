#include "nn/feature_tokenizer.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace dquag {

FeatureTokenizer::FeatureTokenizer(int64_t num_features, int64_t embedding_dim,
                                   Rng& rng)
    : num_features_(num_features), embedding_dim_(embedding_dim) {
  scale_ = RegisterParameter("scale",
                             XavierUniform(num_features, embedding_dim, rng));
  shift_ = RegisterParameter("shift",
                             Tensor::Zeros({num_features, embedding_dim}));
}

VarPtr FeatureTokenizer::Forward(const VarPtr& x) const {
  DQUAG_CHECK_EQ(x->value().ndim(), 2);
  DQUAG_CHECK_EQ(x->value().dim(1), num_features_);
  const int64_t batch = x->value().dim(0);
  // [B, d] -> [B, d, 1]; broadcasting against [d, h] yields [B, d, h].
  VarPtr x3 = ag::Reshape(x, {batch, num_features_, 1});
  return ag::Add(ag::Mul(x3, scale_), shift_);
}

Tensor& FeatureTokenizer::InferForward(const Tensor& x,
                                       InferenceContext& ctx) const {
  DQUAG_CHECK_EQ(x.ndim(), 2);
  DQUAG_CHECK_EQ(x.dim(1), num_features_);
  const int64_t batch = x.dim(0);
  const int64_t d = num_features_;
  const int64_t h = embedding_dim_;
  Tensor& out = ctx.Acquire({batch, d, h});
  const float* px = x.data();
  const float* pu = scale_->value().data();
  const float* pc = shift_->value().data();
  float* po = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    const float* row = px + b * d;
    float* dst = po + b * d * h;
    for (int64_t f = 0; f < d; ++f) {
      const float v = row[f];
      const float* u = pu + f * h;
      const float* c = pc + f * h;
      float* o = dst + f * h;
      for (int64_t j = 0; j < h; ++j) o[j] = v * u[j] + c[j];
    }
  }
  return out;
}

}  // namespace dquag
