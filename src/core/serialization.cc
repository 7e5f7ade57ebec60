// Checkpoint format for DquagPipeline::Save / Load.
//
// Layout (little-endian, length-prefixed):
//   magic "DQAG" + version
//   DquagConfig fields
//   Schema (columns: name, type, description)
//   relationships used for the feature graph
//   per-column preprocessing statistics (vocabulary or min/max)
//   error statistics (threshold, mean, stddev, min, max)
//   model parameters, in Module::Parameters() order (deterministic)
//   [optional, read and discarded] "DQQ8" int8 weights, written by older
//     builds: slot count, then per slot in, out, `out` float scales and
//     in * out int8 bytes. Save no longer writes it.
//   [optional] "DQDP" drift profile (per-column clean suspect rates and
//     the clean flag rate).
//
// Load never trusts a length prefix: every count is bounded against the
// bytes actually remaining in the buffer BEFORE any allocation sized by
// it, and every config field is range-checked before the model is
// constructed, so a truncated or corrupted checkpoint fails with a Status
// instead of an abort or a hostile allocation (see
// tests/checkpoint_fuzz_test.cc).

#include <cmath>

#include "core/pipeline.h"
#include "util/binary_io.h"

namespace dquag {

namespace {

constexpr uint64_t kMagic = 0x4741514400000001ULL;  // "DQAG" + version 1
// "DQQ8" + version 1: start of the int8-weights section older builds wrote
// after the parameters; Load skips it.
constexpr uint64_t kQuantSectionMagic = 0x3851514400000001ULL;
// "DQDP" + version 1: start of the optional drift-profile section (the
// monitor's per-column clean suspect-rate baseline).
constexpr uint64_t kDriftSectionMagic = 0x5044514400000001ULL;
// Written to the config slot that once held the inference chunk size, so
// the v1 layout and a default-config checkpoint's bytes are unchanged.
// Load rejects a value below 1 as corrupt and otherwise ignores it.
constexpr int64_t kRetiredChunkRows = 2048;
// Written to the config slots that once held the GAT head count and the
// activation enum (3 was ELU). The model now has one head and ELU by
// construction; Load rejects any other value as a shape this build cannot
// rebuild.
constexpr int64_t kSingleHead = 1;
constexpr int64_t kEluActivation = 3;

void WriteConfig(BinaryWriter& w, const DquagConfig& config) {
  w.WriteI64(static_cast<int64_t>(config.encoder.kind));
  w.WriteI64(config.encoder.num_layers);
  w.WriteI64(config.encoder.hidden_dim);
  w.WriteI64(kSingleHead);
  w.WriteI64(kEluActivation);
  w.WriteI64(config.batch_size);
  w.WriteDouble(config.learning_rate);
  w.WriteI64(config.epochs);
  w.WriteDouble(config.alpha);
  w.WriteDouble(config.beta);
  w.WriteDouble(config.input_mask_prob);
  w.WriteI64(config.disable_loss_weighting ? 1 : 0);
  w.WriteDouble(config.threshold_percentile);
  w.WriteDouble(config.calibration_fraction);
  w.WriteDouble(config.batch_flag_multiplier);
  w.WriteDouble(config.feature_sigma_k);
  w.WriteI64(kRetiredChunkRows);
  w.WriteU64(config.seed);
}

Status ReadConfig(BinaryReader& r, DquagConfig& config) {
  DQUAG_ASSIGN_OR_RETURN(int64_t kind, r.ReadI64());
  config.encoder.kind = static_cast<EncoderKind>(kind);
  DQUAG_ASSIGN_OR_RETURN(config.encoder.num_layers, r.ReadI64());
  DQUAG_ASSIGN_OR_RETURN(config.encoder.hidden_dim, r.ReadI64());
  DQUAG_ASSIGN_OR_RETURN(int64_t heads, r.ReadI64());
  if (heads != kSingleHead) {
    return Status::InvalidArgument("config: unsupported GAT head count");
  }
  DQUAG_ASSIGN_OR_RETURN(int64_t activation, r.ReadI64());
  if (activation != kEluActivation) {
    return Status::InvalidArgument("config: unsupported activation");
  }
  DQUAG_ASSIGN_OR_RETURN(config.batch_size, r.ReadI64());
  DQUAG_ASSIGN_OR_RETURN(double lr, r.ReadDouble());
  config.learning_rate = static_cast<float>(lr);
  DQUAG_ASSIGN_OR_RETURN(config.epochs, r.ReadI64());
  DQUAG_ASSIGN_OR_RETURN(double alpha, r.ReadDouble());
  config.alpha = static_cast<float>(alpha);
  DQUAG_ASSIGN_OR_RETURN(double beta, r.ReadDouble());
  config.beta = static_cast<float>(beta);
  DQUAG_ASSIGN_OR_RETURN(double mask, r.ReadDouble());
  config.input_mask_prob = static_cast<float>(mask);
  DQUAG_ASSIGN_OR_RETURN(int64_t unweighted, r.ReadI64());
  config.disable_loss_weighting = unweighted != 0;
  DQUAG_ASSIGN_OR_RETURN(config.threshold_percentile, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(config.calibration_fraction, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(config.batch_flag_multiplier, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(config.feature_sigma_k, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(int64_t retired_chunk_rows, r.ReadI64());
  if (retired_chunk_rows < 1) {
    return Status::InvalidArgument("config: invalid inference chunk slot");
  }
  DQUAG_ASSIGN_OR_RETURN(config.seed, r.ReadU64());
  return Status::Ok();
}

/// Reads past an older build's int8-weights section (its tag already
/// consumed). Every count is bounded by the bytes remaining before anything
/// is sized by it.
Status SkipQuantizedSection(BinaryReader& r) {
  // Smallest slot: in, out, the scale count and the byte-string length.
  constexpr uint64_t kMinSlotBytes = 4 * sizeof(uint64_t);
  DQUAG_ASSIGN_OR_RETURN(uint64_t num_slots, r.ReadU64());
  if (num_slots > r.remaining() / kMinSlotBytes) {
    return Status::InvalidArgument(
        "checkpoint quantized slot count exceeds the file");
  }
  for (uint64_t slot = 0; slot < num_slots; ++slot) {
    DQUAG_ASSIGN_OR_RETURN(int64_t in, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(int64_t out, r.ReadI64());
    if (in < 0 || out < 0 ||
        static_cast<uint64_t>(out) > r.remaining() / sizeof(float)) {
      return Status::InvalidArgument(
          "checkpoint quantized slot shape out of range");
    }
    std::vector<float> scales(static_cast<size_t>(out));
    DQUAG_RETURN_IF_ERROR(r.ReadFloatArray(scales.data(), scales.size()));
    DQUAG_ASSIGN_OR_RETURN(std::string bytes, r.ReadString());
    // in * out cannot overflow once in is bounded by the byte count.
    if (static_cast<uint64_t>(in) > bytes.size() ||
        static_cast<uint64_t>(in) * static_cast<uint64_t>(out) !=
            bytes.size()) {
      return Status::InvalidArgument(
          "checkpoint quantized data size mismatch");
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateConfig(const DquagConfig& config) {
  const auto kind = static_cast<int64_t>(config.encoder.kind);
  if (kind < static_cast<int64_t>(EncoderKind::kGraph2Vec) ||
      kind > static_cast<int64_t>(EncoderKind::kGatGin)) {
    return Status::InvalidArgument("config: invalid encoder kind");
  }
  if (config.encoder.hidden_dim < 1 || config.encoder.hidden_dim > 1024) {
    return Status::InvalidArgument("config: implausible hidden_dim");
  }
  if (config.encoder.num_layers < 1 || config.encoder.num_layers > 32) {
    return Status::InvalidArgument("config: implausible num_layers");
  }
  if (config.batch_size < 1) {
    return Status::InvalidArgument("config: invalid batch_size");
  }
  // Negated ranges, so NaN fails them too.
  if (!(config.threshold_percentile >= 0.0 &&
        config.threshold_percentile <= 1.0)) {
    return Status::InvalidArgument("config: threshold_percentile not in [0, 1]");
  }
  if (!(config.calibration_fraction >= 0.0 &&
        config.calibration_fraction < 1.0)) {
    return Status::InvalidArgument("config: calibration_fraction not in [0, 1)");
  }
  return Status::Ok();
}

Status DquagPipeline::Save(const std::string& path) const {
  if (!fitted()) {
    return Status::FailedPrecondition("cannot save an unfitted pipeline");
  }
  BinaryWriter w;
  w.WriteU64(kMagic);
  WriteConfig(w, options_.config);

  // Schema.
  const Schema& schema = preprocessor_->schema();
  w.WriteI64(schema.num_columns());
  for (int64_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnSpec& spec = schema.column(c);
    w.WriteString(spec.name);
    w.WriteI64(spec.type == ColumnType::kCategorical ? 1 : 0);
    w.WriteString(spec.description);
  }

  // Relationships (the feature graph is rebuilt from them on load).
  w.WriteU64(relationships_used_.size());
  for (const FeatureRelationship& rel : relationships_used_) {
    w.WriteString(rel.feature1);
    w.WriteString(rel.feature2);
    w.WriteDouble(rel.score);
    w.WriteString(rel.kind);
  }

  // Preprocessing statistics per column.
  for (int64_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == ColumnType::kCategorical) {
      const auto& vocabulary = preprocessor_->label_encoder(c).vocabulary();
      w.WriteU64(vocabulary.size());
      for (const std::string& v : vocabulary) w.WriteString(v);
    } else {
      const MinMaxScaler& scaler = preprocessor_->minmax_scaler(c);
      w.WriteDouble(scaler.min());
      w.WriteDouble(scaler.max());
    }
  }

  // Error statistics.
  const ErrorStatistics& stats = report_.error_statistics;
  w.WriteDouble(stats.threshold);
  w.WriteDouble(stats.mean);
  w.WriteDouble(stats.stddev);
  w.WriteDouble(stats.min);
  w.WriteDouble(stats.max);

  // Model parameters (deterministic registration order).
  const std::vector<VarPtr> parameters = model_->Parameters();
  w.WriteU64(parameters.size());
  for (const VarPtr& p : parameters) {
    const Tensor& value = p->value();
    w.WriteI64(value.ndim());
    for (int64_t i = 0; i < value.ndim(); ++i) w.WriteI64(value.dim(i));
    w.WriteFloatArray(value.data(), static_cast<size_t>(value.numel()));
  }

  // Drift profile, so a loaded service's monitor starts from the same
  // per-column baseline the training run measured.
  w.WriteU64(kDriftSectionMagic);
  w.WriteU64(report_.column_clean_suspect_rate.size());
  for (double rate : report_.column_clean_suspect_rate) w.WriteDouble(rate);
  w.WriteDouble(report_.clean_flag_rate);
  return w.SaveToFile(path);
}

StatusOr<DquagPipeline> DquagPipeline::Load(const std::string& path) {
  auto reader_or = BinaryReader::FromFile(path);
  if (!reader_or.ok()) return reader_or.status();
  auto pipeline = LoadFromBuffer(std::move(reader_or).value().TakeBuffer());
  if (!pipeline.ok() &&
      pipeline.status().code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument(pipeline.status().message() + " (" +
                                   path + ")");
  }
  return pipeline;
}

StatusOr<DquagPipeline> DquagPipeline::LoadFromBuffer(std::string buffer) {
  BinaryReader r(std::move(buffer));

  DQUAG_ASSIGN_OR_RETURN(uint64_t magic, r.ReadU64());
  if (magic != kMagic) {
    return Status::InvalidArgument("not a DQuaG checkpoint");
  }

  DquagPipelineOptions options;
  DQUAG_RETURN_IF_ERROR(ReadConfig(r, options.config));
  DQUAG_RETURN_IF_ERROR(ValidateConfig(options.config));

  // Schema.
  DQUAG_ASSIGN_OR_RETURN(int64_t num_columns, r.ReadI64());
  if (num_columns <= 0 || num_columns > 1 << 20) {
    return Status::InvalidArgument("implausible column count");
  }
  std::vector<ColumnSpec> columns;
  columns.reserve(static_cast<size_t>(num_columns));
  for (int64_t c = 0; c < num_columns; ++c) {
    ColumnSpec spec;
    DQUAG_ASSIGN_OR_RETURN(spec.name, r.ReadString());
    DQUAG_ASSIGN_OR_RETURN(int64_t type, r.ReadI64());
    spec.type = type == 1 ? ColumnType::kCategorical : ColumnType::kNumeric;
    DQUAG_ASSIGN_OR_RETURN(spec.description, r.ReadString());
    columns.push_back(std::move(spec));
  }
  Schema schema(std::move(columns));

  // Relationships.
  DQUAG_ASSIGN_OR_RETURN(uint64_t num_relationships, r.ReadU64());
  // Each relationship encodes to >= 32 bytes (three length prefixes plus a
  // double), so a count beyond remaining/32 is corrupt — reject it before
  // reserve() turns it into a hostile allocation.
  if (num_relationships > r.remaining() / 32) {
    return Status::OutOfRange("implausible relationship count");
  }
  std::vector<FeatureRelationship> relationships;
  relationships.reserve(num_relationships);
  for (uint64_t i = 0; i < num_relationships; ++i) {
    FeatureRelationship rel;
    DQUAG_ASSIGN_OR_RETURN(rel.feature1, r.ReadString());
    DQUAG_ASSIGN_OR_RETURN(rel.feature2, r.ReadString());
    DQUAG_ASSIGN_OR_RETURN(rel.score, r.ReadDouble());
    DQUAG_ASSIGN_OR_RETURN(rel.kind, r.ReadString());
    relationships.push_back(std::move(rel));
  }

  // Preprocessing statistics.
  std::vector<LabelEncoder> encoders(static_cast<size_t>(num_columns));
  std::vector<MinMaxScaler> scalers(static_cast<size_t>(num_columns));
  for (int64_t c = 0; c < num_columns; ++c) {
    if (schema.column(c).type == ColumnType::kCategorical) {
      DQUAG_ASSIGN_OR_RETURN(uint64_t vocab_size, r.ReadU64());
      // Every vocabulary entry costs at least its 8-byte length prefix.
      if (vocab_size > r.remaining() / 8) {
        return Status::OutOfRange("implausible vocabulary size");
      }
      std::vector<std::string> vocabulary;
      vocabulary.reserve(vocab_size);
      for (uint64_t i = 0; i < vocab_size; ++i) {
        DQUAG_ASSIGN_OR_RETURN(std::string value, r.ReadString());
        vocabulary.push_back(std::move(value));
      }
      encoders[static_cast<size_t>(c)].SetVocabulary(std::move(vocabulary));
    } else {
      DQUAG_ASSIGN_OR_RETURN(double lo, r.ReadDouble());
      DQUAG_ASSIGN_OR_RETURN(double hi, r.ReadDouble());
      // SetRange CHECKs lo < hi; a corrupted byte must surface as a
      // Status, not an abort (NaN fails the comparison too).
      if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo < hi)) {
        return Status::InvalidArgument(
            "checkpoint: invalid scaler range for column " +
            std::to_string(c));
      }
      scalers[static_cast<size_t>(c)].SetRange(lo, hi);
    }
  }

  // Error statistics.
  ErrorStatistics stats;
  DQUAG_ASSIGN_OR_RETURN(stats.threshold, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(stats.mean, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(stats.stddev, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(stats.min, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(stats.max, r.ReadDouble());
  if (!std::isfinite(stats.threshold) || !std::isfinite(stats.mean) ||
      !std::isfinite(stats.stddev) || !std::isfinite(stats.min) ||
      !std::isfinite(stats.max)) {
    return Status::InvalidArgument("checkpoint: non-finite error statistics");
  }

  // Assemble the pipeline.
  DquagPipeline pipeline(std::move(options));
  pipeline.relationships_used_ = std::move(relationships);
  pipeline.preprocessor_->Restore(schema, std::move(encoders),
                                 std::move(scalers));
  auto graph_or =
      FeatureGraph::FromRelationships(schema.Names(),
                                      pipeline.relationships_used_);
  if (!graph_or.ok()) return graph_or.status();
  pipeline.graph_ = std::make_unique<FeatureGraph>(std::move(graph_or).value());

  Rng rng(pipeline.options_.config.seed);
  pipeline.model_ = std::make_unique<DquagModel>(
      *pipeline.graph_, pipeline.options_.config, rng);

  // Overwrite freshly initialized parameters with the stored ones.
  DQUAG_ASSIGN_OR_RETURN(uint64_t num_parameters, r.ReadU64());
  const std::vector<VarPtr> parameters = pipeline.model_->Parameters();
  if (num_parameters != parameters.size()) {
    return Status::InvalidArgument(
        "checkpoint parameter count mismatch: stored " +
        std::to_string(num_parameters) + ", model has " +
        std::to_string(parameters.size()));
  }
  for (const VarPtr& p : parameters) {
    DQUAG_ASSIGN_OR_RETURN(int64_t ndim, r.ReadI64());
    if (ndim < 0 || ndim > 8) {
      return Status::InvalidArgument("checkpoint parameter rank out of range");
    }
    Shape shape;
    for (int64_t i = 0; i < ndim; ++i) {
      DQUAG_ASSIGN_OR_RETURN(int64_t dim, r.ReadI64());
      shape.push_back(dim);
    }
    if (shape != p->value().shape()) {
      return Status::InvalidArgument("checkpoint parameter shape mismatch");
    }
    DQUAG_RETURN_IF_ERROR(r.ReadFloatArray(
        p->mutable_value().data(), static_cast<size_t>(p->value().numel())));
  }

  // The sections after the parameters are optional, each behind its tag.
  uint64_t tag = 0;  // 0: the checkpoint ends here
  if (!r.AtEnd()) {
    DQUAG_ASSIGN_OR_RETURN(tag, r.ReadU64());
  }
  if (tag == kQuantSectionMagic) {
    DQUAG_RETURN_IF_ERROR(SkipQuantizedSection(r));
    tag = 0;
    if (!r.AtEnd()) {
      DQUAG_ASSIGN_OR_RETURN(tag, r.ReadU64());
    }
  }

  // Drift-profile section. Checkpoints written before it existed end
  // before it; their monitors fall back to an all-zero baseline.
  if (tag != 0) {
    if (tag != kDriftSectionMagic) {
      return Status::InvalidArgument("checkpoint: bad drift-section tag");
    }
    DQUAG_ASSIGN_OR_RETURN(uint64_t profile_columns, r.ReadU64());
    if (profile_columns != static_cast<uint64_t>(num_columns)) {
      return Status::InvalidArgument(
          "checkpoint drift-profile column count mismatch");
    }
    pipeline.report_.column_clean_suspect_rate.resize(profile_columns);
    for (uint64_t c = 0; c < profile_columns; ++c) {
      DQUAG_ASSIGN_OR_RETURN(double rate, r.ReadDouble());
      if (!std::isfinite(rate) || rate < 0.0 || rate > 1.0) {
        return Status::InvalidArgument(
            "checkpoint: drift-profile rate out of [0, 1]");
      }
      pipeline.report_.column_clean_suspect_rate[c] = rate;
    }
    DQUAG_ASSIGN_OR_RETURN(double flag_rate, r.ReadDouble());
    if (!std::isfinite(flag_rate) || flag_rate < 0.0 || flag_rate > 1.0) {
      return Status::InvalidArgument(
          "checkpoint: clean flag rate out of [0, 1]");
    }
    pipeline.report_.clean_flag_rate = flag_rate;
  }

  pipeline.report_.error_statistics = stats;
  pipeline.validator_ = std::make_unique<Validator>(
      pipeline.model_.get(), stats.threshold, pipeline.options_.config);
  pipeline.repairer_ = std::make_unique<Repairer>(
      pipeline.model_.get(), pipeline.preprocessor_.get());
  return pipeline;
}

}  // namespace dquag
