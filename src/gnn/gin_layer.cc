#include "gnn/gin_layer.h"

#include "autograd/ops.h"

namespace dquag {

GinLayer::GinLayer(const FeatureGraph& graph, int64_t in_dim, int64_t out_dim,
                   Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      num_nodes_(graph.num_nodes()),
      src_(graph.src()),
      dst_(graph.dst()),
      csr_(graph.csr_by_dst()) {
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
                               InferenceContext& ctx, bool elu_out) const {
  DQUAG_CHECK_EQ(node_features.dim(-1), in_dim_);
  Tensor& aggregate = ctx.Acquire(node_features.shape());
  // One pass per node: (1 + eps) * h, then the neighbour multiset sum
  // (unit arc weights). The output's ELU rides in the MLP's last GEMM.
  CsrAggregateInto(node_features, csr_.offsets, csr_.order, src_,
                   /*coeff=*/nullptr, /*bias=*/nullptr,
                   1.0f + epsilon_->value()[0], /*elu=*/false, aggregate);
  return mlp_->InferForward(aggregate, ctx, elu_out);
}

}  // namespace dquag
