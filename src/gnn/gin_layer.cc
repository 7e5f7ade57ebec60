#include "gnn/gin_layer.h"

#include "autograd/ops.h"

namespace dquag {

GinLayer::GinLayer(const FeatureGraph& graph, int64_t in_dim, int64_t out_dim,
                   Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      num_nodes_(graph.num_nodes()),
      src_(graph.src()),
      dst_(graph.dst()) {
  epsilon_ = RegisterParameter("epsilon", Tensor::Zeros({1}));
  mlp_ = std::make_unique<Mlp>(std::vector<int64_t>{in_dim, out_dim, out_dim},
                               rng);
  RegisterModule(mlp_.get());
}

VarPtr GinLayer::Forward(const VarPtr& node_features) const {
  DQUAG_CHECK_EQ(node_features->value().dim(-1), in_dim_);
  // Neighbour multiset sum (no self contribution).
  VarPtr messages = ag::GatherAxis1(node_features, src_);
  VarPtr neighbour_sum = ag::ScatterAddAxis1(messages, dst_, num_nodes_);
  // (1 + eps) * h  — epsilon broadcasts as a scalar.
  VarPtr center = ag::Mul(node_features, ag::AddScalar(epsilon_, 1.0f));
  return mlp_->Forward(ag::Add(center, neighbour_sum));
}

Tensor& GinLayer::InferForward(const Tensor& node_features,
                               InferenceContext& ctx) const {
  DQUAG_CHECK_EQ(node_features.dim(-1), in_dim_);
  Tensor& aggregate = ctx.Acquire(node_features.shape());
  // (1 + eps) * h seeds the buffer; the fused pass adds the neighbour
  // multiset sum (unit arc weights) on top.
  ScaleInto(node_features, 1.0f + epsilon_->value()[0], aggregate);
  GatherScaleScatterAddInto(node_features, src_, dst_, /*coeff=*/nullptr,
                            aggregate);
  return mlp_->InferForward(aggregate, ctx);
}

}  // namespace dquag
