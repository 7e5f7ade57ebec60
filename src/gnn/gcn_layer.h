// Graph Convolutional Network layer (Kipf & Welling, 2017).
//
// H' = Â H W + b with Â the symmetrically normalized adjacency including
// self-loops. Implemented over the edge list: gather(HW, src) scaled by the
// per-arc coefficient, scatter-summed into dst. O(B * E * H).

#ifndef DQUAG_GNN_GCN_LAYER_H_
#define DQUAG_GNN_GCN_LAYER_H_

#include <cstdint>
#include <vector>

#include "gnn/layer.h"
#include "util/rng.h"

namespace dquag {

class GcnLayer : public GnnLayer {
 public:
  /// `graph` is used as-is when it already carries self-loops (so an
  /// encoder stack can share one looped copy and its cached normalization);
  /// otherwise a self-looped copy is made internally.
  GcnLayer(const FeatureGraph& graph, int64_t in_dim, int64_t out_dim,
           Rng& rng);

  VarPtr Forward(const VarPtr& node_features) const override;

  Tensor& InferForward(const Tensor& node_features, InferenceContext& ctx,
                       bool elu_out) const override;

  int64_t in_dim() const override { return in_dim_; }
  int64_t out_dim() const override { return out_dim_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  int64_t num_nodes_;
  std::vector<int32_t> src_;
  std::vector<int32_t> dst_;
  FeatureGraph::CsrByDst csr_;  // arcs grouped by destination
  Tensor norm_;  // [E, 1] per-arc coefficients (constant)
  VarPtr weight_;
  VarPtr bias_;
};

}  // namespace dquag

#endif  // DQUAG_GNN_GCN_LAYER_H_
