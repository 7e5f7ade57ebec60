// End-to-end DQuaG pipeline: the library's main entry point.
//
//   DquagPipeline pipeline(options);
//   pipeline.Fit(clean_table);               // Phase 1 (§3.1)
//   BatchVerdict v = pipeline.Validate(new_table);   // Phase 2 (§3.2.1)
//   RepairResult r = pipeline.Repair(new_table, v);  // Phase 2 (§3.2.2)
//
// Fit performs, in order: feature encoding/normalization, feature-graph
// construction (statistically mined relationships, or relationships supplied
// externally — e.g. from an actual LLM), GNN training with the dual-decoder
// multi-task loss, and reconstruction-error threshold collection.

#ifndef DQUAG_CORE_PIPELINE_H_
#define DQUAG_CORE_PIPELINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/repairer.h"
#include "core/trainer.h"
#include "core/validator.h"
#include "graph/relationship_inference.h"

namespace dquag {

struct DquagPipelineOptions {
  DquagConfig config;
  RelationshipMinerOptions miner;
  /// When set, skips statistical mining and uses these relationships for
  /// the feature graph (the paper's ChatGPT-4 path).
  std::optional<std::vector<FeatureRelationship>> relationships;
};

/// Converts a table into miner columns (categoricals as integer codes).
std::vector<MinerColumn> TableToMinerColumns(const Table& table);

/// Range checks on a config, applied by Fit before any work and by Load
/// before any model is built from a decoded one. Limits are generous
/// versus anything the trainer produces but small enough that a bad field
/// cannot drive pathological allocations, out-of-range enum dispatch, a
/// percentile outside [0, 1] or a calibration split larger than the data.
Status ValidateConfig(const DquagConfig& config);

/// Knobs for DquagPipeline::FineTune.
struct FineTuneOptions {
  /// Optimization epochs over the fine-tune buffer (a few suffice when
  /// warm-starting); <= 0 reuses config.epochs.
  int64_t epochs = 5;
  /// Seed for the fine-tune's mask/shuffle streams; 0 reuses config.seed.
  /// Retrain controllers vary this per generation so repeated fine-tunes
  /// see fresh noise while staying reproducible.
  uint64_t seed = 0;
  /// Fraction of the live stream the CURRENT model flagged while `clean`
  /// was collected. An accepted-clean buffer is right-truncated — the
  /// flagged tail of the error distribution is excluded by construction —
  /// so recalibrating the threshold at config.threshold_percentile over
  /// buffer errors over-tightens it by exactly that missing mass. FineTune
  /// corrects the percentile for the truncation: with target tail mass
  /// (1 - percentile) and truncated mass q, the buffer percentile becomes
  /// 1 - max(0, (1-p) - q) / (1 - q) — the buffer's max error once the
  /// stream flags more than the target tail. 0 (the default) disables the
  /// correction, for fine-tuning on an untruncated clean table.
  double stream_flag_rate = 0.0;
};

class DquagPipeline {
 public:
  explicit DquagPipeline(DquagPipelineOptions options = {});

  DquagPipeline(const DquagPipeline&) = delete;
  DquagPipeline& operator=(const DquagPipeline&) = delete;
  DquagPipeline(DquagPipeline&&) = default;
  DquagPipeline& operator=(DquagPipeline&&) = default;

  /// Phase 1: trains on the clean table. Must be called exactly once. A
  /// config that ValidateConfig rejects fails with InvalidArgument and
  /// leaves the pipeline unfitted.
  Status Fit(const Table& clean);

  /// Incremental fine-tune on an already-fitted pipeline: continues
  /// training from the CURRENT weights (warm start) on `clean`, through
  /// the existing preprocessor (no refit — schema and encodings are
  /// frozen), then recalibrates the threshold, rebuilds the Phase-2
  /// components, and recomputes the drift profile. Deterministic: the same
  /// weights + buffer + options produce bit-identical weights and
  /// threshold, so a Save() after FineTune is byte-reproducible.
  Status FineTune(const Table& clean, const FineTuneOptions& options = {});

  /// Phase 2: validates a new batch (same schema as the training table).
  BatchVerdict Validate(const Table& batch) const;

  /// Phase 2: repairs the cells flagged by `verdict`.
  RepairResult Repair(const Table& batch, const BatchVerdict& verdict) const;

  /// Writes a fitted pipeline (config, schema, preprocessing statistics,
  /// feature graph, model parameters, error threshold) to a binary
  /// checkpoint. Phase 1 is expensive; checkpoints make Phase 2 deployable
  /// without retraining.
  Status Save(const std::string& path) const;

  /// Restores a pipeline from Save(); the result validates and repairs
  /// identically to the original.
  static StatusOr<DquagPipeline> Load(const std::string& path);

  /// Load() minus the file read: decodes a checkpoint already in memory.
  /// Every length prefix is bounds-checked against the buffer, so
  /// arbitrary bytes fail with a Status — this is the libFuzzer entry
  /// point (fuzz/fuzz_checkpoint_load.cc) as well as Load()'s core.
  static StatusOr<DquagPipeline> LoadFromBuffer(std::string buffer);

  bool fitted() const { return model_ != nullptr; }
  const FeatureGraph& graph() const;
  const TrainingReport& training_report() const;
  const TablePreprocessor& preprocessor() const { return *preprocessor_; }
  const DquagModel& model() const;
  const Validator& validator() const;
  const Repairer& repairer() const;
  double threshold() const;
  const std::vector<FeatureRelationship>& relationships() const {
    return relationships_used_;
  }

 private:
  /// Measures the drift profile (per-column clean suspect rates + clean
  /// flag rate) by validating a capped deterministic sample of `clean`
  /// with the freshly built validator; lands in report_.
  void ComputeDriftProfile(const Table& clean);

  DquagPipelineOptions options_;
  // unique_ptr keeps the address stable across pipeline moves — validator_
  // and repairer_ hold raw pointers to it.
  std::unique_ptr<TablePreprocessor> preprocessor_;
  std::vector<FeatureRelationship> relationships_used_;
  std::unique_ptr<FeatureGraph> graph_;
  std::unique_ptr<DquagModel> model_;
  std::unique_ptr<Validator> validator_;
  std::unique_ptr<Repairer> repairer_;
  TrainingReport report_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_PIPELINE_H_
