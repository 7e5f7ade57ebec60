#include "data/preprocessor.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace dquag {

void LabelEncoder::Fit(const std::vector<std::string>& values) {
  std::set<std::string> distinct;
  for (const std::string& v : values) {
    if (!v.empty()) distinct.insert(v);
  }
  vocabulary_.assign(distinct.begin(), distinct.end());
  index_.clear();
  for (size_t i = 0; i < vocabulary_.size(); ++i) {
    index_[vocabulary_[i]] = static_cast<int64_t>(i);
  }
}

int64_t LabelEncoder::Encode(const std::string& value) const {
  if (value.empty()) return missing_code();
  auto it = index_.find(value);
  return it == index_.end() ? unknown_code() : it->second;
}

void LabelEncoder::SetVocabulary(std::vector<std::string> vocabulary) {
  vocabulary_ = std::move(vocabulary);
  index_.clear();
  for (size_t i = 0; i < vocabulary_.size(); ++i) {
    index_[vocabulary_[i]] = static_cast<int64_t>(i);
  }
}

const std::string& LabelEncoder::Decode(int64_t code) const {
  DQUAG_CHECK_GE(code, 0);
  DQUAG_CHECK_LT(code, vocab_size());
  return vocabulary_[static_cast<size_t>(code)];
}

void MinMaxScaler::Fit(const std::vector<double>& values) {
  bool any = false;
  double lo = 0.0, hi = 1.0;
  for (double v : values) {
    if (IsMissing(v)) continue;
    if (!any) {
      lo = hi = v;
      any = true;
    } else {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  min_ = lo;
  max_ = any && hi > lo ? hi : lo + 1.0;  // degenerate column -> unit span
}

void MinMaxScaler::SetRange(double min_value, double max_value) {
  DQUAG_CHECK_LT(min_value, max_value);
  min_ = min_value;
  max_ = max_value;
}

double MinMaxScaler::Transform(double value) const {
  if (IsMissing(value)) return kMissingSentinel;
  return (value - min_) / (max_ - min_);
}

double MinMaxScaler::InverseTransform(double scaled) const {
  return scaled * (max_ - min_) + min_;
}

void TablePreprocessor::Fit(const Table& clean) {
  schema_ = clean.schema();
  const int64_t d = schema_.num_columns();
  label_encoders_.assign(static_cast<size_t>(d), LabelEncoder());
  minmax_scalers_.assign(static_cast<size_t>(d), MinMaxScaler());
  for (int64_t c = 0; c < d; ++c) {
    const size_t ci = static_cast<size_t>(c);
    if (schema_.column(c).type == ColumnType::kCategorical) {
      label_encoders_[ci].Fit(clean.Categorical(c));
    } else {
      minmax_scalers_[ci].Fit(clean.Numeric(c));
    }
  }
  fitted_ = true;
}

double TablePreprocessor::ScaleCategoricalCode(int64_t column,
                                               int64_t code) const {
  const LabelEncoder& enc = label_encoders_[static_cast<size_t>(column)];
  const double denom =
      std::max<double>(1.0, static_cast<double>(enc.vocab_size() - 1));
  if (code == enc.missing_code()) return MinMaxScaler::kMissingSentinel;
  // Unknown values (typos, novel categories) land at a fixed point outside
  // the clean [0, 1] range, independent of vocabulary size — large vocabs
  // would otherwise place the unknown bucket just past 1.0 and bury the
  // reconstruction-error signal.
  if (code == enc.unknown_code()) return kUnknownSentinel;
  return static_cast<double>(code) / denom;
}

Tensor TablePreprocessor::Transform(const Table& table) const {
  DQUAG_CHECK(fitted_);
  DQUAG_CHECK(table.schema() == schema_);
  const int64_t rows = table.num_rows();
  const int64_t d = schema_.num_columns();
  Tensor out({rows, d});
  for (int64_t c = 0; c < d; ++c) {
    const size_t ci = static_cast<size_t>(c);
    if (schema_.column(c).type == ColumnType::kCategorical) {
      const auto& column = table.Categorical(c);
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t code =
            label_encoders_[ci].Encode(column[static_cast<size_t>(r)]);
        out(r, c) = static_cast<float>(ScaleCategoricalCode(c, code));
      }
    } else {
      const auto& column = table.Numeric(c);
      const MinMaxScaler& scaler = minmax_scalers_[ci];
      for (int64_t r = 0; r < rows; ++r) {
        out(r, c) =
            static_cast<float>(scaler.Transform(column[static_cast<size_t>(r)]));
      }
    }
  }
  return out;
}

Table TablePreprocessor::InverseTransform(const Tensor& matrix) const {
  DQUAG_CHECK(fitted_);
  DQUAG_CHECK_EQ(matrix.ndim(), 2);
  DQUAG_CHECK_EQ(matrix.dim(1), schema_.num_columns());
  const int64_t rows = matrix.dim(0);
  Table out{schema_};
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> numeric_cells;
    std::vector<std::string> categorical_cells;
    for (int64_t c = 0; c < schema_.num_columns(); ++c) {
      if (schema_.column(c).type == ColumnType::kCategorical) {
        categorical_cells.push_back(InverseCategoricalCell(c, matrix(r, c)));
      } else {
        numeric_cells.push_back(InverseNumericCell(c, matrix(r, c)));
      }
    }
    out.AppendRow(numeric_cells, categorical_cells);
  }
  return out;
}

double TablePreprocessor::InverseNumericCell(int64_t column,
                                             double scaled) const {
  return minmax_scalers_[static_cast<size_t>(column)].InverseTransform(
      scaled);
}

const std::string& TablePreprocessor::InverseCategoricalCell(
    int64_t column, double scaled) const {
  static const std::string kEmpty;
  const LabelEncoder& enc = label_encoders_[static_cast<size_t>(column)];
  if (enc.vocab_size() == 0) return kEmpty;
  // Snap to the nearest valid code; out-of-range values (the missing and
  // unknown sentinels included) clamp to the vocabulary's ends.
  const double denom =
      std::max<double>(1.0, static_cast<double>(enc.vocab_size() - 1));
  const int64_t code = std::clamp<int64_t>(
      static_cast<int64_t>(std::llround(scaled * denom)), 0,
      enc.vocab_size() - 1);
  return enc.Decode(code);
}

double TablePreprocessor::TransformCell(int64_t column,
                                        double numeric_value) const {
  DQUAG_CHECK(fitted_);
  DQUAG_CHECK(schema_.column(column).type == ColumnType::kNumeric);
  return minmax_scalers_[static_cast<size_t>(column)].Transform(numeric_value);
}

void TablePreprocessor::Restore(Schema schema,
                                std::vector<LabelEncoder> label_encoders,
                                std::vector<MinMaxScaler> minmax_scalers) {
  DQUAG_CHECK_EQ(static_cast<int64_t>(label_encoders.size()),
                 schema.num_columns());
  DQUAG_CHECK_EQ(static_cast<int64_t>(minmax_scalers.size()),
                 schema.num_columns());
  schema_ = std::move(schema);
  label_encoders_ = std::move(label_encoders);
  minmax_scalers_ = std::move(minmax_scalers);
  fitted_ = true;
}

const LabelEncoder& TablePreprocessor::label_encoder(int64_t column) const {
  DQUAG_CHECK(schema_.column(column).type == ColumnType::kCategorical);
  return label_encoders_[static_cast<size_t>(column)];
}

const MinMaxScaler& TablePreprocessor::minmax_scaler(int64_t column) const {
  DQUAG_CHECK(schema_.column(column).type == ColumnType::kNumeric);
  return minmax_scalers_[static_cast<size_t>(column)];
}

}  // namespace dquag
