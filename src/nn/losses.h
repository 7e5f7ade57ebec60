// Reconstruction losses used by the dual decoders (§3.1.2).

#ifndef DQUAG_NN_LOSSES_H_
#define DQUAG_NN_LOSSES_H_

#include "autograd/variable.h"

namespace dquag {

/// One row's reconstruction error, mean_d((pred - target)^2), over raw
/// pointers. The trainer's weight schedule and the engine-backed
/// calibration path both use it, so their errors are computed alike.
float PerSampleError(const float* pred, const float* target, int64_t d);

/// Per-sample-per-feature squared errors: [B, d].
Tensor PerFeatureErrors(const Tensor& pred, const Tensor& target);

/// Turns `batch` per-sample errors into validation-loss weights, written
/// into a caller-owned tensor (resized in place, so a persistent buffer
/// keeps the per-step weight computation allocation-free):
/// w_i = B * exp(-e_i / tau) / sum_j exp(-e_j / tau), tau = mean(e) + eps.
/// Smaller error => larger weight; weights average to 1.
void ErrorsToWeightsInto(const float* errors, int64_t batch, Tensor& weights);

// ---- Sum-form partial losses ----------------------------------------------
//
// The trainer computes each shard's un-normalized loss sum and scales by the
// global batch normalizer when combining, so the total is the batch's mean
// loss whatever the shard count (up to float reassociation):
//   mean squared error       == sum_shards SquaredErrorSum / (B * d)
//   weighted validation loss == sum_shards WeightedPerSampleErrorSum / B,
// the validation decoder's loss, which up-weights samples that already
// reconstruct well (paper §3.1.2).

/// sum((pred - target)^2) over all elements, as a [1] tape node.
VarPtr SquaredErrorSum(const VarPtr& pred, const VarPtr& target);

/// sum_i w_i * mean_d((pred_i - target_i)^2), as a [1] tape node.
/// `weights` is a detached [B] tensor (a slice of the batch weights).
VarPtr WeightedPerSampleErrorSum(const VarPtr& pred, const VarPtr& target,
                                 const Tensor& weights);

}  // namespace dquag

#endif  // DQUAG_NN_LOSSES_H_
