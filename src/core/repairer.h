// Repair suggestion generation (paper §3.2.2).
//
// The repair decoder suggests a repaired feature vector per instance, and
// repairs are applied selectively — only to the (instance, feature) pairs
// flagged by the validator. Only the flagged rows are forwarded: they are
// gathered in DquagModel::kRowBlock-row blocks on the calling thread and
// run through the encoder and repair decoder, and the suspect cells are
// scattered back. Rows are independent along the batch axis and every
// kernel is row-position independent (tensor/simd.h), so the gathered
// forward is bit-identical to forwarding the whole batch. Categorical
// features snap to the most likely valid category; numeric features take
// the decoder's value mapped back through the inverse min-max transform.

#ifndef DQUAG_CORE_REPAIRER_H_
#define DQUAG_CORE_REPAIRER_H_

#include <cstdint>

#include "core/validator.h"
#include "data/preprocessor.h"

namespace dquag {

struct RepairResult {
  Table repaired;
  /// Number of (instance, feature) cells modified.
  int64_t cells_repaired = 0;
  /// Number of instances with at least one repaired cell.
  int64_t instances_repaired = 0;
  /// The batch-level verdict the repair acted on (is the batch dirty?).
  bool is_dirty = false;
};

class Repairer {
 public:
  /// `model` and `preprocessor` must outlive the repairer.
  Repairer(const DquagModel* model, const TablePreprocessor* preprocessor);

  /// Repairs the flagged cells of `batch` according to `verdict` (which must
  /// come from validating the same batch).
  RepairResult Repair(const Table& batch, const BatchVerdict& verdict) const;

  /// Repair for a caller that already holds `matrix`, the preprocessed
  /// `batch` (its Transform): skips the second Transform. Thread-safe; the
  /// forward runs in the calling thread's InferenceContext.
  RepairResult Repair(const Table& batch, const Tensor& matrix,
                      const BatchVerdict& verdict) const;

  /// Matrix-level repair (preprocessed space): returns a copy of `matrix`
  /// with flagged cells replaced by repair-decoder outputs.
  Tensor RepairMatrix(const Tensor& matrix, const BatchVerdict& verdict,
                      int64_t* cells_repaired = nullptr) const;

 private:
  const DquagModel* model_;
  const TablePreprocessor* preprocessor_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_REPAIRER_H_
