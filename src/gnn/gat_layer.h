// Graph Attention Network layer (Veličković et al., 2018).
//
//   e_uv = LeakyReLU_0.2(a_s · W h_u + a_d · W h_v)
//   α_uv = softmax over arcs sharing destination v
//   h'_v = Σ_u α_uv W h_u + b
// One attention head, as in the paper's model: GAT layers learn edge
// importance automatically, removing the need for manual edge weights in
// the feature graph (§3.1.2).
//
// Forward and InferForward are const and side-effect free: attention
// coefficients are only captured when the caller passes an
// AttentionRecorder to the engine forward explicitly, so concurrent
// inference over one fitted layer is race-free.

#ifndef DQUAG_GNN_GAT_LAYER_H_
#define DQUAG_GNN_GAT_LAYER_H_

#include <cstdint>
#include <vector>

#include "gnn/layer.h"
#include "util/rng.h"

namespace dquag {

class GatLayer;

/// Opt-in capture of post-softmax attention coefficients (diagnostics /
/// interpretability). Pass a fresh recorder to the engine forward
/// (GatLayer / GnnEncoder::InferForward, DquagModel::InferValidation) and
/// read the per-layer snapshots afterwards.
class AttentionRecorder {
 public:
  struct LayerAttention {
    const GatLayer* layer = nullptr;
    /// α over the layer's arcs, first row of the forwarded block.
    std::vector<float> alpha;
  };

  const std::vector<LayerAttention>& layers() const { return layers_; }

  /// Appends (and returns) the snapshot slot for `layer`; called by
  /// GatLayer::InferForward when recording.
  LayerAttention& StartLayer(const GatLayer* layer);

 private:
  std::vector<LayerAttention> layers_;
};

class GatLayer : public GnnLayer {
 public:
  /// `graph` is used as-is when it already carries self-loops (sharing the
  /// encoder's looped copy and its cached CSR order); otherwise a
  /// self-looped copy is made internally.
  GatLayer(const FeatureGraph& graph, int64_t in_dim, int64_t out_dim,
           Rng& rng);

  VarPtr Forward(const VarPtr& node_features) const override;

  Tensor& InferForward(const Tensor& node_features, InferenceContext& ctx,
                       bool elu_out) const override;

  /// InferForward that additionally copies the attention coefficients of
  /// the first row into `recorder` (may be null).
  Tensor& InferForward(const Tensor& node_features, InferenceContext& ctx,
                       bool elu_out, AttentionRecorder* recorder) const;

  int64_t in_dim() const override { return in_dim_; }
  int64_t out_dim() const override { return out_dim_; }

  const std::vector<int32_t>& arc_src() const { return src_; }
  const std::vector<int32_t>& arc_dst() const { return dst_; }

 private:
  /// Slope of the attention-score LeakyReLU (the GAT paper's 0.2).
  static constexpr float kLeakySlope = 0.2f;

  int64_t in_dim_;
  int64_t out_dim_;
  int64_t num_nodes_;
  std::vector<int32_t> src_;
  std::vector<int32_t> dst_;
  // Arcs grouped by destination: the order the fused segment softmax and
  // the aggregation pass walk.
  FeatureGraph::CsrByDst csr_;
  VarPtr weight_;    // [in, out]
  VarPtr attn_src_;  // [out, 1]
  VarPtr attn_dst_;  // [out, 1]
  VarPtr bias_;      // [out]
};

}  // namespace dquag

#endif  // DQUAG_GNN_GAT_LAYER_H_
