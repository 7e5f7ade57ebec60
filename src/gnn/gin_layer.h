// Graph Isomorphism Network layer (Xu et al., 2019).
//
// h'_v = MLP((1 + ε) h_v + Σ_{u ∈ N(v)} h_u) with learnable ε and a
// two-layer ELU MLP. The sum
// aggregator is injective over multisets, which is what gives GIN its
// discriminative power for structural patterns (the paper's rationale for
// including GIN in the encoder, §3.1.2). Self-loops are NOT added: the
// center node enters through the (1 + ε) term.

#ifndef DQUAG_GNN_GIN_LAYER_H_
#define DQUAG_GNN_GIN_LAYER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/layer.h"
#include "nn/linear.h"
#include "util/rng.h"

namespace dquag {

class GinLayer : public GnnLayer {
 public:
  GinLayer(const FeatureGraph& graph, int64_t in_dim, int64_t out_dim,
           Rng& rng);

  VarPtr Forward(const VarPtr& node_features) const override;

  Tensor& InferForward(const Tensor& node_features, InferenceContext& ctx,
                       bool elu_out) const override;

  int64_t in_dim() const override { return in_dim_; }
  int64_t out_dim() const override { return out_dim_; }

  /// Current value of the learnable ε.
  float epsilon() const { return epsilon_->value()[0]; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  int64_t num_nodes_;
  std::vector<int32_t> src_;
  std::vector<int32_t> dst_;
  FeatureGraph::CsrByDst csr_;  // arcs grouped by destination
  VarPtr epsilon_;  // [1]
  std::unique_ptr<Mlp> mlp_;
};

}  // namespace dquag

#endif  // DQUAG_GNN_GIN_LAYER_H_
