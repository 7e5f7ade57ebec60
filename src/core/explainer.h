// Instance-level explanations of validation verdicts.
//
// The paper's conclusion targets "improving the interpretability of our
// models". This module assembles, per flagged instance:
//   * the per-feature share of the reconstruction error (what is wrong),
//   * the repair decoder's suggestion for each suspect feature (what it
//     should have been),
//   * the GAT attention mass flowing into each suspect feature (which
//     related features the model consulted — the learned analogue of the
//     constraint an expert would have written).

#ifndef DQUAG_CORE_EXPLAINER_H_
#define DQUAG_CORE_EXPLAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace dquag {

/// Attention edge into a suspect feature.
struct AttentionEdge {
  int64_t from_feature = 0;
  double weight = 0.0;  // averaged over GAT layers
};

struct FeatureExplanation {
  int64_t feature = 0;
  std::string feature_name;
  /// Fraction of the instance's total reconstruction error on this feature.
  double error_share = 0.0;
  /// Scaled (model-space) observed and suggested values.
  double observed = 0.0;
  double suggested = 0.0;
  /// Incoming attention, strongest first (self-loop included).
  std::vector<AttentionEdge> influences;
};

struct InstanceExplanation {
  double error = 0.0;
  double threshold = 0.0;
  bool flagged = false;
  std::vector<FeatureExplanation> features;  // suspect features only

  /// Human-readable multi-line rendering.
  std::string ToString() const;
};

/// Explains rows of a table against a fitted pipeline (which must outlive
/// the explainer).
class Explainer {
 public:
  explicit Explainer(const DquagPipeline* pipeline);

  /// Explains one row of `batch` (0-based). Unflagged instances return an
  /// explanation with flagged = false and no feature entries.
  InstanceExplanation Explain(const Table& batch, size_t row) const;

 private:
  const DquagPipeline* pipeline_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_EXPLAINER_H_
