#include "core/pipeline.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace dquag {

namespace {

/// Rows the drift profile is measured over; capped so Fit on a huge table
/// does not pay a second full inference pass.
constexpr int64_t kDriftProfileRows = 8192;

}  // namespace

std::vector<MinerColumn> TableToMinerColumns(const Table& table) {
  std::vector<MinerColumn> columns;
  const int64_t d = table.num_columns();
  columns.reserve(static_cast<size_t>(d));
  for (int64_t c = 0; c < d; ++c) {
    MinerColumn column;
    column.name = table.schema().column(c).name;
    if (table.schema().column(c).type == ColumnType::kCategorical) {
      column.is_categorical = true;
      // Integer codes via a local encoder (fit-on-the-fly).
      LabelEncoder encoder;
      encoder.Fit(table.Categorical(c));
      column.values.reserve(static_cast<size_t>(table.num_rows()));
      for (const std::string& v : table.Categorical(c)) {
        column.values.push_back(static_cast<double>(encoder.Encode(v)));
      }
    } else {
      column.is_categorical = false;
      column.values.reserve(static_cast<size_t>(table.num_rows()));
      for (double v : table.Numeric(c)) {
        // Missing numerics would poison correlations; substitute 0.
        column.values.push_back(IsMissing(v) ? 0.0 : v);
      }
    }
    columns.push_back(std::move(column));
  }
  return columns;
}

DquagPipeline::DquagPipeline(DquagPipelineOptions options)
    : options_(std::move(options)),
      preprocessor_(std::make_unique<TablePreprocessor>()) {}

Status DquagPipeline::Fit(const Table& clean) {
  if (fitted()) {
    return Status::FailedPrecondition("pipeline is already fitted");
  }
  DQUAG_RETURN_IF_ERROR(ValidateConfig(options_.config));
  if (clean.num_rows() == 0) {
    return Status::InvalidArgument("clean dataset is empty");
  }

  // 1. Feature encoding and normalization (§3.1).
  preprocessor_->Fit(clean);

  // 2. Feature-graph construction (§3.1.1) — external relationships if
  //    provided, otherwise statistical mining (the ChatGPT-4 substitute).
  if (options_.relationships.has_value()) {
    relationships_used_ = *options_.relationships;
  } else {
    relationships_used_ =
        MineRelationships(TableToMinerColumns(clean), options_.miner);
  }
  auto graph_or = FeatureGraph::FromRelationships(clean.schema().Names(),
                                                  relationships_used_);
  if (!graph_or.ok()) return graph_or.status();
  graph_ = std::make_unique<FeatureGraph>(std::move(graph_or).value());
  DQUAG_LOG(INFO) << "feature graph: " << graph_->ToString() << " from "
                  << relationships_used_.size() << " relationships";

  // 3. Model construction and training (§3.1.2 / §3.1.3).
  Rng rng(options_.config.seed);
  model_ = std::make_unique<DquagModel>(*graph_, options_.config, rng);
  Trainer trainer(model_.get(), options_.config);
  report_ = trainer.Fit(preprocessor_->Transform(clean));
  DQUAG_LOG(INFO) << "trained " << report_.epochs_run << " epochs, threshold "
                  << report_.error_statistics.threshold;

  // 4. Phase-2 components.
  validator_ = std::make_unique<Validator>(
      model_.get(), report_.error_statistics.threshold, options_.config);
  repairer_ = std::make_unique<Repairer>(model_.get(), preprocessor_.get());

  // 5. Drift profile: per-column suspect rates on the (known-clean)
  //    training data, the monitor's per-column drift baseline.
  ComputeDriftProfile(clean);
  return Status::Ok();
}

void DquagPipeline::ComputeDriftProfile(const Table& clean) {
  const int64_t sample_rows =
      std::min<int64_t>(clean.num_rows(), kDriftProfileRows);
  const Table sliced =
      sample_rows < clean.num_rows() ? clean.SliceRows(0, sample_rows)
                                     : Table();
  const Table& sample = sample_rows < clean.num_rows() ? sliced : clean;

  // Kernels never fan out, so the sample's row blocks go to the pool here
  // (Fit runs on the caller's thread).
  const BatchVerdict verdict = validator_->ValidateMatrixOn(
      GlobalThreadPool(), preprocessor_->Transform(sample));
  const int64_t columns = preprocessor_->schema().num_columns();
  report_.column_clean_suspect_rate.assign(static_cast<size_t>(columns), 0.0);
  for (size_t row : verdict.flagged_rows) {
    for (int64_t c : verdict.instances[row].suspect_features) {
      if (c >= 0 && c < columns) {
        report_.column_clean_suspect_rate[static_cast<size_t>(c)] += 1.0;
      }
    }
  }
  for (double& rate : report_.column_clean_suspect_rate) {
    rate /= static_cast<double>(sample_rows);
  }
  report_.clean_flag_rate = verdict.flagged_fraction;
}

Status DquagPipeline::FineTune(const Table& clean,
                               const FineTuneOptions& finetune) {
  if (!fitted()) {
    return Status::FailedPrecondition("cannot fine-tune an unfitted pipeline");
  }
  if (clean.num_rows() == 0) {
    return Status::InvalidArgument("fine-tune dataset is empty");
  }
  if (!(clean.schema() == preprocessor_->schema())) {
    return Status::InvalidArgument(
        "fine-tune dataset schema does not match the fitted schema");
  }

  // Carry the fine-tune knobs into the stored config so the checkpoint
  // written after this FineTune reproduces it (Load + FineTune with the
  // same options is byte-deterministic).
  if (finetune.epochs > 0) options_.config.epochs = finetune.epochs;
  if (finetune.seed != 0) options_.config.seed = finetune.seed;

  // Warm start: the Trainer continues from the model's current weights
  // (its constructor never re-initializes parameters) with a fresh Adam
  // state, reusing the sharded allocation-free Fit fast path. The frozen
  // preprocessor keeps the feature space identical to the original fit.
  Trainer trainer(model_.get(), options_.config);
  report_ = trainer.Fit(preprocessor_->Transform(clean));

  // Truncation correction (see FineTuneOptions::stream_flag_rate): an
  // accepted-clean buffer is missing the top `q` of the error distribution,
  // so the calibration percentile must move up by that mass to keep the
  // FULL-population tail at (1 - threshold_percentile).
  if (finetune.stream_flag_rate > 0.0 && !report_.clean_errors.empty()) {
    const double tail = 1.0 - options_.config.threshold_percentile;
    const double q = std::min(finetune.stream_flag_rate, 1.0 - 1e-9);
    const double corrected_percentile =
        q >= tail ? 1.0 : 1.0 - (tail - q) / (1.0 - q);
    report_.error_statistics.threshold =
        Percentile(report_.clean_errors, corrected_percentile);
  }
  DQUAG_LOG(INFO) << "fine-tuned " << report_.epochs_run
                  << " epochs, threshold "
                  << report_.error_statistics.threshold;

  validator_ = std::make_unique<Validator>(
      model_.get(), report_.error_statistics.threshold, options_.config);
  repairer_ = std::make_unique<Repairer>(model_.get(), preprocessor_.get());
  ComputeDriftProfile(clean);
  return Status::Ok();
}

BatchVerdict DquagPipeline::Validate(const Table& batch) const {
  DQUAG_CHECK(fitted());
  return validator_->ValidateMatrix(preprocessor_->Transform(batch));
}

RepairResult DquagPipeline::Repair(const Table& batch,
                                   const BatchVerdict& verdict) const {
  DQUAG_CHECK(fitted());
  return repairer_->Repair(batch, verdict);
}

const FeatureGraph& DquagPipeline::graph() const {
  DQUAG_CHECK(fitted());
  return *graph_;
}

const TrainingReport& DquagPipeline::training_report() const {
  DQUAG_CHECK(fitted());
  return report_;
}

const DquagModel& DquagPipeline::model() const {
  DQUAG_CHECK(fitted());
  return *model_;
}

const Validator& DquagPipeline::validator() const {
  DQUAG_CHECK(fitted());
  return *validator_;
}

const Repairer& DquagPipeline::repairer() const {
  DQUAG_CHECK(fitted());
  return *repairer_;
}

double DquagPipeline::threshold() const {
  DQUAG_CHECK(fitted());
  return report_.error_statistics.threshold;
}

}  // namespace dquag
