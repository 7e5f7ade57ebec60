// Fully connected layers and the small ELU MLPs of the GIN layers and the
// decoders.

#ifndef DQUAG_NN_LINEAR_H_
#define DQUAG_NN_LINEAR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/inference_context.h"
#include "nn/module.h"
#include "util/rng.h"

namespace dquag {

/// y = x W + b, applied to the last axis. Accepts [*, in] inputs of rank 2
/// or 3 (the 3-D case shares the weight across the batch axis).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng);

  VarPtr Forward(const VarPtr& x) const;

  /// Tape-free forward into a workspace tensor (valid until ctx.Rewind()),
  /// with ELU applied to the output when `elu` (inside the GEMM).
  Tensor& InferForward(const Tensor& x, InferenceContext& ctx,
                       bool elu = false) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  VarPtr weight_;  // [in, out]
  VarPtr bias_;    // [out]
};

/// Stack of Linear layers with ELU between them (none after the last layer
/// unless `activate_last`).
class Mlp : public Module {
 public:
  Mlp(const std::vector<int64_t>& layer_sizes, Rng& rng,
      bool activate_last = false);

  VarPtr Forward(const VarPtr& x) const;

  /// Tape-free forward; each layer's ELU runs inside its Linear pass.
  /// `elu_out` also activates the last layer (a GIN layer's MLP when the
  /// encoder's rule wants its output activated).
  Tensor& InferForward(const Tensor& x, InferenceContext& ctx,
                       bool elu_out = false) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  bool activate_last_;
};

}  // namespace dquag

#endif  // DQUAG_NN_LINEAR_H_
