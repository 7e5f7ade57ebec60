// Configuration of the DQuaG model, training, and validation rules.
//
// Defaults follow the paper: 4 layers, hidden dim 64, learning rate 0.01,
// batch size 128 (§4.4); threshold at the 95th percentile of clean-data
// reconstruction errors (§3.1.4); a batch is dirty when more than 5% * n of
// its instances exceed the threshold, n = 1.2 (§3.2.1); per-instance feature
// flagging at mu + k * sigma (§3.2.1 — the paper uses k = 5, see DESIGN.md
// for why the default here is 3). The rest of the model's shape is fixed,
// not configured: ELU between layers and one attention head per GAT layer
// (§3.1.2).

#ifndef DQUAG_CORE_CONFIG_H_
#define DQUAG_CORE_CONFIG_H_

#include <cstdint>

#include "gnn/encoder.h"

namespace dquag {

struct DquagConfig {
  // Architecture (§3.1.2 / §4.4).
  GnnEncoderConfig encoder;

  // Training (§3.1.3 / §4.4).
  int64_t batch_size = 128;
  float learning_rate = 0.01f;
  int64_t epochs = 40;
  /// Loss mix L = alpha * L_validation + beta * L_repair; both 1 in the
  /// paper's experiments.
  float alpha = 1.0f;
  float beta = 1.0f;
  /// Denoising input-mask probability: masked cells are replaced by random
  /// values in [0, 1] during training so reconstruction must rely on
  /// related features (see DESIGN.md substitution table).
  float input_mask_prob = 0.15f;
  /// Ablation switch: true replaces the paper's per-sample weighted
  /// validation loss with plain MSE (used by bench_ablation_loss).
  bool disable_loss_weighting = false;

  // Validation rules (§3.1.4 / §3.2.1).
  double threshold_percentile = 0.95;
  /// Fraction of the clean data held out of training and used to collect
  /// the reconstruction-error distribution for e_threshold. The paper
  /// records errors on the training data itself; a held-out split gives a
  /// better-calibrated 95th percentile for unseen batches (see DESIGN.md).
  /// Set to 0 to reproduce the paper's in-sample thresholding.
  double calibration_fraction = 0.15;
  /// `n` in the "R_error > 5% * n" batch rule.
  double batch_flag_multiplier = 1.2;
  /// `k` in the per-instance mu + k*sigma feature flagging rule.
  double feature_sigma_k = 3.0;

  /// Data-parallel training: each mini-batch is split into up to this many
  /// shards whose forward/backward run concurrently against per-shard
  /// gradient buffers, combined by a fixed-order tree reduction. The shard
  /// layout depends only on the batch size — never on the thread count —
  /// so a given seed reproduces identical losses and thresholds on any
  /// thread count for a given build (FP codegen still varies across ISAs
  /// under -march=native). 1 runs the whole batch as one shard through
  /// the same step.
  int64_t train_shards = 8;

  uint64_t seed = 42;
};

}  // namespace dquag

#endif  // DQUAG_CORE_CONFIG_H_
