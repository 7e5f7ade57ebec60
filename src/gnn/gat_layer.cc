#include "gnn/gat_layer.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace dquag {

AttentionRecorder::LayerAttention& AttentionRecorder::StartLayer(
    const GatLayer* layer) {
  layers_.emplace_back();
  layers_.back().layer = layer;
  return layers_.back();
}

GatLayer::GatLayer(const FeatureGraph& graph, int64_t in_dim, int64_t out_dim,
                   Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim), num_nodes_(graph.num_nodes()) {
  // GAT attends over neighbours and the node itself. Reuse the caller's
  // graph (and its cached CSR order) when it is already self-looped.
  auto take = [&](const FeatureGraph& g) {
    src_ = g.src();
    dst_ = g.dst();
    csr_ = g.csr_by_dst();
  };
  if (graph.has_self_loops()) {
    take(graph);
  } else {
    FeatureGraph looped = graph;
    looped.AddSelfLoops();
    take(looped);
  }
  weight_ =
      RegisterParameter("weight", XavierUniform(in_dim_, out_dim_, rng));
  attn_src_ =
      RegisterParameter("attn_src", XavierUniform(out_dim_, 1, rng));
  attn_dst_ =
      RegisterParameter("attn_dst", XavierUniform(out_dim_, 1, rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_dim_}));
}

VarPtr GatLayer::Forward(const VarPtr& node_features) const {
  return Forward(node_features, /*recorder=*/nullptr);
}

VarPtr GatLayer::Forward(const VarPtr& node_features,
                         AttentionRecorder* recorder) const {
  DQUAG_CHECK_EQ(node_features->value().dim(-1), in_dim_);
  const bool batched = node_features->value().ndim() == 3;
  const int64_t batch = batched ? node_features->value().dim(0) : 1;
  const int64_t num_arcs = static_cast<int64_t>(src_.size());

  VarPtr projected = ag::MatMul(node_features, weight_);
  // Per-node attention logits a_s.Wh and a_d.Wh: [B, N, 1].
  VarPtr logit_src = ag::MatMul(projected, attn_src_);
  VarPtr logit_dst = ag::MatMul(projected, attn_dst_);
  // Move to arcs and combine: e = LeakyReLU(ls[src] + ld[dst]).
  VarPtr arc_src_logit = ag::GatherAxis1(logit_src, src_);
  VarPtr arc_dst_logit = ag::GatherAxis1(logit_dst, dst_);
  VarPtr scores =
      ag::LeakyRelu(ag::Add(arc_src_logit, arc_dst_logit), kLeakySlope);
  // Softmax over arcs sharing a destination node.
  Shape flat_shape = batched ? Shape{batch, num_arcs} : Shape{num_arcs};
  VarPtr alpha = ag::SegmentSoftmaxAxis1(ag::Reshape(scores, flat_shape),
                                         dst_, num_nodes_);
  if (recorder != nullptr) {
    const float* pa = alpha->value().data();
    recorder->StartLayer(this).alpha.assign(pa, pa + num_arcs);
  }
  Shape alpha_shape = batched ? Shape{batch, num_arcs, 1} : Shape{num_arcs, 1};
  VarPtr alpha3 = ag::Reshape(alpha, std::move(alpha_shape));
  VarPtr messages = ag::GatherAxis1(projected, src_);  // [B, E, out]
  VarPtr weighted = ag::Mul(messages, alpha3);
  return ag::Add(ag::ScatterAddAxis1(weighted, dst_, num_nodes_), bias_);
}

Tensor& GatLayer::InferForward(const Tensor& node_features,
                               InferenceContext& ctx, bool elu_out) const {
  DQUAG_CHECK_EQ(node_features.dim(-1), in_dim_);
  const bool batched = node_features.ndim() == 3;
  const int64_t batch = batched ? node_features.dim(0) : 1;
  const int64_t num_arcs = static_cast<int64_t>(src_.size());

  Shape out_shape =
      batched ? Shape{batch, num_nodes_, out_dim_} : Shape{num_nodes_, out_dim_};
  Tensor& out = ctx.Acquire(out_shape);
  Tensor& projected = ctx.Acquire(std::move(out_shape));
  LinearInto(node_features, weight_->value(), nullptr, /*elu=*/false,
             projected);
  Tensor& logit_src = ctx.Acquire({batch, num_nodes_});
  Tensor& logit_dst = ctx.Acquire({batch, num_nodes_});
  DualMatVecInto(projected, attn_src_->value(), attn_dst_->value(), logit_src,
                 logit_dst);
  Tensor& alpha = ctx.Acquire({batch, num_arcs});
  ArcScoreInto(logit_src, logit_dst, src_, dst_, kLeakySlope, alpha);
  SegmentSoftmaxCsrInPlace(alpha, csr_.offsets, csr_.order);
  // One pass per destination row: the bias, the attention-weighted
  // messages, then the output's ELU.
  CsrAggregateInto(projected, csr_.offsets, csr_.order, src_, &alpha,
                   &bias_->value(), /*self_scale=*/0.0f, elu_out, out);
  return out;
}

}  // namespace dquag
