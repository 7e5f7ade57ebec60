// Common interface for message-passing layers.
//
// Layers are constructed against a fixed FeatureGraph and precompute their
// arc lists (adding self-loops where the layer's formulation requires them),
// so Forward is a pure function of the node-feature tensor.

#ifndef DQUAG_GNN_LAYER_H_
#define DQUAG_GNN_LAYER_H_

#include <cstdint>

#include "engine/inference_context.h"
#include "graph/feature_graph.h"
#include "nn/module.h"

namespace dquag {

/// Message-passing layer over [B, N, in_dim] -> [B, N, out_dim].
class GnnLayer : public Module {
 public:
  ~GnnLayer() override = default;

  virtual VarPtr Forward(const VarPtr& node_features) const = 0;

  /// Tape-free forward through the fused kernels. `elu_out` applies ELU
  /// to the layer's output inside the pass that writes it (the encoder's
  /// rule: every layer but the last); Forward leaves that to the caller.
  /// The result lives in `ctx` and stays valid until the context is
  /// rewound. Must be numerically equivalent to Forward (within float
  /// reassociation).
  virtual Tensor& InferForward(const Tensor& node_features,
                               InferenceContext& ctx, bool elu_out) const = 0;

  virtual int64_t in_dim() const = 0;
  virtual int64_t out_dim() const = 0;
};

}  // namespace dquag

#endif  // DQUAG_GNN_LAYER_H_
