#include "gnn/gcn_layer.h"

#include "autograd/ops.h"
#include "nn/init.h"

namespace dquag {

namespace {

/// GCN propagates over neighbours plus self; reuse `graph` when the caller
/// already looped it (sharing its cached normalization), else loop a copy.
void InitGcnArcs(const FeatureGraph& graph, std::vector<int32_t>& src,
                 std::vector<int32_t>& dst, FeatureGraph::CsrByDst& csr,
                 Tensor& norm) {
  auto take = [&](const FeatureGraph& g) {
    src = g.src();
    dst = g.dst();
    csr = g.csr_by_dst();
    const std::vector<float>& coefficients = g.GcnNormalization();
    norm = Tensor({static_cast<int64_t>(coefficients.size()), 1},
                  std::vector<float>(coefficients.begin(),
                                     coefficients.end()));
  };
  if (graph.has_self_loops()) {
    take(graph);
  } else {
    FeatureGraph looped = graph;
    looped.AddSelfLoops();
    take(looped);
  }
}

}  // namespace

GcnLayer::GcnLayer(const FeatureGraph& graph, int64_t in_dim, int64_t out_dim,
                   Rng& rng)
    : in_dim_(in_dim), out_dim_(out_dim), num_nodes_(graph.num_nodes()) {
  InitGcnArcs(graph, src_, dst_, csr_, norm_);
  weight_ = RegisterParameter("weight", XavierUniform(in_dim, out_dim, rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_dim}));
}

VarPtr GcnLayer::Forward(const VarPtr& node_features) const {
  DQUAG_CHECK_EQ(node_features->value().dim(-1), in_dim_);
  VarPtr transformed = ag::MatMul(node_features, weight_);  // [B, N, out]
  VarPtr messages = ag::GatherAxis1(transformed, src_);     // [B, E, out]
  VarPtr scaled = ag::Mul(messages, MakeVar(norm_));        // per-arc scale
  VarPtr aggregated = ag::ScatterAddAxis1(scaled, dst_, num_nodes_);
  return ag::Add(aggregated, bias_);
}

Tensor& GcnLayer::InferForward(const Tensor& node_features,
                               InferenceContext& ctx, bool elu_out) const {
  DQUAG_CHECK_EQ(node_features.dim(-1), in_dim_);
  Shape shape = node_features.shape();
  shape.back() = out_dim_;
  Tensor& transformed = ctx.Acquire(shape);
  LinearInto(node_features, weight_->value(), nullptr, /*elu=*/false,
             transformed);
  Tensor& out = ctx.Acquire(std::move(shape));
  // One pass per destination row: the bias, the normalized messages, then
  // the output's ELU (no [B, E, out] intermediate).
  CsrAggregateInto(transformed, csr_.offsets, csr_.order, src_, &norm_,
                   &bias_->value(), /*self_scale=*/0.0f, elu_out, out);
  return out;
}

}  // namespace dquag
