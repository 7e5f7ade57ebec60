#include "core/repairer.h"

#include <algorithm>
#include <vector>

#include "engine/inference_context.h"

namespace dquag {

Repairer::Repairer(const DquagModel* model,
                   const TablePreprocessor* preprocessor)
    : model_(model), preprocessor_(preprocessor) {
  DQUAG_CHECK(model_ != nullptr);
}

namespace {

/// Forwards the flagged rows of `matrix` through the repair head, gathered
/// in DquagModel::kRowBlock-row blocks, and calls set(row, column,
/// suggestion) for every suspect cell in row order. Returns the number of
/// cells visited.
template <typename SetCell>
int64_t ForEachRepairedCell(const DquagModel& model, const Tensor& matrix,
                            const BatchVerdict& verdict, SetCell&& set) {
  DQUAG_CHECK_EQ(matrix.ndim(), 2);
  const int64_t d = matrix.dim(1);
  DQUAG_CHECK_EQ(static_cast<int64_t>(verdict.instances.size()),
                 matrix.dim(0));

  // Rows with something to repair; a flagged row always blames at least
  // one feature, but a hand-built verdict need not.
  std::vector<int64_t> targets;
  for (size_t r = 0; r < verdict.instances.size(); ++r) {
    const InstanceVerdict& inst = verdict.instances[r];
    if (inst.flagged && !inst.suspect_features.empty()) {
      targets.push_back(static_cast<int64_t>(r));
    }
  }

  int64_t cells = 0;
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  const int64_t total = static_cast<int64_t>(targets.size());
  for (int64_t start = 0; start < total; start += DquagModel::kRowBlock) {
    const int64_t n = std::min(total, start + DquagModel::kRowBlock) - start;
    ctx.Rewind();
    Tensor& gathered = ctx.Acquire({n, d});
    for (int64_t i = 0; i < n; ++i) {
      const float* src = matrix.data() + targets[start + i] * d;
      std::copy(src, src + d, gathered.data() + i * d);
    }
    const Tensor& suggestion = model.InferRepair(gathered, ctx);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t row = targets[start + i];
      for (int64_t c :
           verdict.instances[static_cast<size_t>(row)].suspect_features) {
        set(row, c, suggestion(i, c));
        ++cells;
      }
    }
  }
  return cells;
}

}  // namespace

Tensor Repairer::RepairMatrix(const Tensor& matrix,
                              const BatchVerdict& verdict,
                              int64_t* cells_repaired) const {
  Tensor repaired = matrix;
  const int64_t cells = ForEachRepairedCell(
      *model_, matrix, verdict, [&](int64_t r, int64_t c, float value) {
        repaired(r, c) = value;
      });
  if (cells_repaired) *cells_repaired = cells;
  return repaired;
}

RepairResult Repairer::Repair(const Table& batch,
                              const BatchVerdict& verdict) const {
  DQUAG_CHECK(preprocessor_ != nullptr);
  return Repair(batch, preprocessor_->Transform(batch), verdict);
}

RepairResult Repairer::Repair(const Table& batch, const Tensor& matrix,
                              const BatchVerdict& verdict) const {
  DQUAG_CHECK(preprocessor_ != nullptr);
  DQUAG_CHECK_EQ(matrix.dim(0), batch.num_rows());
  RepairResult result;
  result.is_dirty = verdict.is_dirty;
  // Only repaired cells change; every other cell keeps its original value
  // rather than a numeric round trip through the scaler.
  result.repaired = batch;
  int64_t last_row = -1;
  result.cells_repaired = ForEachRepairedCell(
      *model_, matrix, verdict, [&](int64_t r, int64_t c, float value) {
        const size_t row = static_cast<size_t>(r);
        if (batch.schema().column(c).type == ColumnType::kNumeric) {
          result.repaired.Numeric(c)[row] =
              preprocessor_->InverseNumericCell(c, value);
        } else {
          result.repaired.Categorical(c)[row] =
              preprocessor_->InverseCategoricalCell(c, value);
        }
        if (r != last_row) ++result.instances_repaired;
        last_row = r;
      });
  return result;
}

}  // namespace dquag
