// Feature encoding and normalization (paper §3.1).
//
// Categorical features are label-encoded; numeric features are min-max
// normalized to [0, 1] using statistics fitted on the clean dataset. Two
// deliberate conventions give errors a numeric footprint:
//   * Unseen category strings (e.g. typos) map to a dedicated "unknown"
//     code whose scaled value lies ABOVE the training range — the paper
//     achieves the same effect by fitting the encoder on "clean data and
//     any possible future data".
//   * Missing values map to a sentinel BELOW the training range.
// Out-of-range numerics are NOT clamped, so anomalies scale to values
// outside [0, 1] and reconstruct poorly.

#ifndef DQUAG_DATA_PREPROCESSOR_H_
#define DQUAG_DATA_PREPROCESSOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/table.h"
#include "tensor/tensor.h"

namespace dquag {

/// String -> dense code mapping with an unknown bucket.
class LabelEncoder {
 public:
  /// Learns the vocabulary (sorted for determinism) from non-missing values.
  void Fit(const std::vector<std::string>& values);

  /// Code for a value: vocabulary index, or vocab_size() for unknown values
  /// (including typos), or vocab_size() + 1 for missing ("").
  int64_t Encode(const std::string& value) const;

  /// Value for an in-vocabulary code (checked).
  const std::string& Decode(int64_t code) const;

  int64_t vocab_size() const {
    return static_cast<int64_t>(vocabulary_.size());
  }
  int64_t unknown_code() const { return vocab_size(); }
  int64_t missing_code() const { return vocab_size() + 1; }

  /// Checkpoint support: the sorted vocabulary, and direct restoration.
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }
  void SetVocabulary(std::vector<std::string> vocabulary);

 private:
  std::vector<std::string> vocabulary_;
  std::map<std::string, int64_t> index_;
};

/// Min-max scaler for one numeric column.
class MinMaxScaler {
 public:
  /// Learns min/max over non-missing values.
  void Fit(const std::vector<double>& values);

  /// (v - min) / (max - min); not clamped. Missing maps to `missing_value`.
  double Transform(double value) const;
  double InverseTransform(double scaled) const;

  double min() const { return min_; }
  double max() const { return max_; }

  /// Checkpoint support: restores a fitted range (max must exceed min).
  void SetRange(double min_value, double max_value);

  /// Scaled sentinel assigned to missing numerics (below the [0,1] range).
  static constexpr double kMissingSentinel = -0.5;

 private:
  double min_ = 0.0;
  double max_ = 1.0;
};

/// Fits per-column encoders on clean data and maps Tables to model matrices.
class TablePreprocessor {
 public:
  /// Fits all column encoders/scalers on `clean`.
  void Fit(const Table& clean);

  /// Encodes a table with the fitted statistics into [rows, d] float32.
  /// The table must have the same schema as the fitted one (§3.2.1: unseen
  /// data "must keep the same schema").
  Tensor Transform(const Table& table) const;

  /// Maps a model-space matrix back to a Table: numeric cells are
  /// un-scaled; categorical cells snap to the nearest valid category code.
  Table InverseTransform(const Tensor& matrix) const;

  /// Per-cell inverse: the value InverseTransform puts in `column` for a
  /// model-space value `scaled`. InverseTransform is built on these, so
  /// decoding single cells (repair) cannot drift from decoding a matrix.
  double InverseNumericCell(int64_t column, double scaled) const;
  const std::string& InverseCategoricalCell(int64_t column,
                                            double scaled) const;

  /// Encoded value of one cell (for diagnostics).
  double TransformCell(int64_t column, double numeric_value) const;

  const Schema& schema() const { return schema_; }
  bool fitted() const { return fitted_; }
  int64_t num_features() const { return schema_.num_columns(); }

  /// Per-column scaled value of a categorical code (vocab scaling).
  double ScaleCategoricalCode(int64_t column, int64_t code) const;

  /// Scaled value assigned to unknown (out-of-vocabulary) categories.
  static constexpr double kUnknownSentinel = 1.5;

  const LabelEncoder& label_encoder(int64_t column) const;
  const MinMaxScaler& minmax_scaler(int64_t column) const;

  /// Checkpoint support: restores a fitted preprocessor from its parts.
  /// The encoder/scaler vectors must be indexed by column (entries for the
  /// other column type are ignored).
  void Restore(Schema schema, std::vector<LabelEncoder> label_encoders,
               std::vector<MinMaxScaler> minmax_scalers);

 private:
  Schema schema_;
  std::vector<LabelEncoder> label_encoders_;   // per column (categorical)
  std::vector<MinMaxScaler> minmax_scalers_;   // per column (numeric)
  bool fitted_ = false;
};

}  // namespace dquag

#endif  // DQUAG_DATA_PREPROCESSOR_H_
