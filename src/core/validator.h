// Phase 2: data quality validation (paper §3.2.1).
//
// New data is preprocessed with the clean-data encoders, reconstructed by
// the validation decoder, and compared against e_threshold:
//   * instance flagged   <=> its reconstruction error > e_threshold
//   * batch flagged      <=> flagged fraction > 5% * n  (n = 1.2)
//   * feature flagged    <=> its error > mu_i + k * sigma_i within the
//                            flagged instance
// Validation runs on the tape-free inference engine one model row block
// (DquagModel::kRowBlock rows) at a time. ValidateBlockInto is the one
// "validate block b of this matrix" body: ValidateMatrix runs the blocks in
// order on the calling thread, ValidateMatrixOn as one pool task per
// block, and StreamingValidator as one pool task per block of each reader
// chunk. Rows are independent along the batch axis, so any row partition
// produces identical verdicts.

#ifndef DQUAG_CORE_VALIDATOR_H_
#define DQUAG_CORE_VALIDATOR_H_

#include <cstdint>
#include <vector>

#include "core/error_stats.h"
#include "core/model.h"
#include "engine/inference_context.h"

namespace dquag {

class ThreadPool;

/// Accepted and ignored: every validation runs the float engine. The
/// perfbench harness still passes one to ValidateRowsInto; it goes with the
/// benchmark change of ROADMAP item 11.
struct ValidationMode {
  bool quantized = false;
  double recheck_margin = 0.25;
};

/// Verdict for one instance of a validated batch.
struct InstanceVerdict {
  double error = 0.0;
  bool flagged = false;
  /// Column indices whose per-feature error exceeded mu + k*sigma (only
  /// populated for flagged instances).
  std::vector<int64_t> suspect_features;
};

/// Verdict for a whole batch / dataset.
struct BatchVerdict {
  bool is_dirty = false;
  double flagged_fraction = 0.0;
  double threshold = 0.0;
  std::vector<size_t> flagged_rows;
  std::vector<InstanceVerdict> instances;
};

class Validator {
 public:
  /// `model` must outlive the validator. `threshold` is the e_threshold
  /// collected in Phase 1.
  Validator(const DquagModel* model, double threshold,
            const DquagConfig& config);

  /// Validates an already-preprocessed matrix [B, d] on the calling
  /// thread, one DquagModel::kRowBlock-row block at a time.
  BatchVerdict ValidateMatrix(const Tensor& matrix) const;

  /// ValidateMatrix with one `pool` task per row block, waited on through a
  /// private latch (inline for a single block or when called from a pool
  /// worker). Rows are independent, so the verdict equals ValidateMatrix's.
  BatchVerdict ValidateMatrixOn(ThreadPool& pool, const Tensor& matrix) const;

  /// Number of DquagModel::kRowBlock-row blocks covering `rows` rows.
  static int64_t NumBlocks(int64_t rows);

  /// Validates row block `block` of `matrix` (rows [block * kRowBlock,
  /// min(rows, (block + 1) * kRowBlock))) in the calling thread's
  /// InferenceContext, writing each verdict to instances[row] — so
  /// `instances` spans the whole matrix. Thread-safe for distinct blocks;
  /// the fan-out unit of ValidateMatrixOn and the StreamingValidator.
  void ValidateBlockInto(const Tensor& matrix, int64_t block,
                         InstanceVerdict* instances) const;

  /// Engine-path validation of rows [start, end) of `matrix`, writing the
  /// per-instance verdicts into out[0 .. end-start). `ctx` is the calling
  /// thread's workspace (rewound internally). Thread-safe for disjoint row
  /// ranges over one fitted model. `mode` is ignored (see ValidationMode).
  void ValidateRowsInto(const Tensor& matrix, int64_t start, int64_t end,
                        InferenceContext& ctx, InstanceVerdict* out,
                        const ValidationMode& mode = {}) const;

  /// Derives the batch-level verdict fields (flagged_rows, fraction,
  /// is_dirty) from already-filled per-instance verdicts, so a caller that
  /// fills them through ValidateRowsInto applies ValidateMatrix's
  /// dirty-batch rule.
  void FinalizeVerdict(BatchVerdict& verdict) const;

  double threshold() const { return threshold_; }
  /// The batch dirty-fraction cutoff: (1 - percentile) * n.
  double batch_cutoff() const;

 private:
  /// The body of ValidateMatrix (pool == nullptr: blocks run in order on
  /// the calling thread) and ValidateMatrixOn.
  BatchVerdict ValidateBlocks(ThreadPool* pool, const Tensor& matrix) const;

  /// Scores `rows` reconstructed rows against their inputs: per-instance
  /// error, flag, suspect features.
  void ScoreRowsInto(const float* pred, const float* target, int64_t rows,
                     InstanceVerdict* out) const;

  const DquagModel* model_;
  double threshold_;
  DquagConfig config_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_VALIDATOR_H_
