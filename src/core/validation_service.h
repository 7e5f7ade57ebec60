// Concurrent Phase-2 serving layer over a fitted pipeline.
//
// A ValidationService owns a fitted (typically checkpoint-loaded) pipeline
// and exposes thread-safe Validate / stream / monitor entry points for
// serving many concurrent callers. Incoming batches split into the model's
// row blocks (DquagModel::kRowBlock rows) that fan out across the
// process-wide ThreadPool, each block running the tape-free inference
// engine with its worker thread's private workspace; a batch of one block
// runs inline on the caller's thread. Block tasks write into disjoint
// slices of the verdict, so they never contend; and because instances are
// independent along the batch axis, the parallel verdict is identical to
// serial validation.
//
//   auto service = ValidationService::FromCheckpoint("model.ckpt");
//   // from any number of threads:
//   BatchVerdict v = (*service)->Validate(incoming);
//   RepairResult r = (*service)->pipeline().Repair(incoming, v);
//   MonitorObservation o = (*service)->ObserveVerdict(v);

#ifndef DQUAG_CORE_VALIDATION_SERVICE_H_
#define DQUAG_CORE_VALIDATION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/pipeline.h"
#include "core/streaming_validator.h"

namespace dquag {

struct ValidationServiceOptions {
  /// Stream-monitoring knobs for ObserveVerdict() / ObserveStream().
  MonitorOptions monitor;
  /// Accepted and ignored: every service runs the float engine. The
  /// perfbench harness still sets it; it goes with ROADMAP item 11.
  bool quantized = false;
};

class ValidationService {
 public:
  /// Takes ownership of a fitted pipeline (checked).
  explicit ValidationService(DquagPipeline pipeline,
                             ValidationServiceOptions options = {});

  /// Loads a checkpoint written by DquagPipeline::Save and serves it.
  static StatusOr<std::unique_ptr<ValidationService>> FromCheckpoint(
      const std::string& path, ValidationServiceOptions options = {});

  ValidationService(const ValidationService&) = delete;
  ValidationService& operator=(const ValidationService&) = delete;

  /// Thread-safe batch validation (preprocess + parallel engine inference).
  BatchVerdict Validate(const Table& batch) const;

  /// Status-checked dispatch for externally-sourced batches — the serving
  /// daemon's entry point. Verifies the batch schema matches the fitted
  /// preprocessor so malformed client input surfaces as InvalidArgument
  /// instead of a checked abort; an empty batch is a valid clean verdict.
  StatusOr<BatchVerdict> TryValidate(const Table& batch) const;

  /// Status-checked Validate + Repair (see TryValidate); the batch is
  /// transformed once for both.
  StatusOr<RepairResult> TryValidateAndRepair(const Table& batch) const;

  /// Thread-safe validation of an already-preprocessed [B, d] matrix.
  BatchVerdict ValidateMatrix(const Tensor& matrix) const;

  /// Streaming, out-of-core validation: drains `reader` chunk by chunk
  /// through the StreamingValidator (bounded in-flight pipeline over the
  /// process pool, ordered per-chunk callbacks on the calling thread).
  /// Bit-identical to Validate on the fully materialized table; memory
  /// stays O(chunks in flight * chunk_rows). Thread-safe.
  StatusOr<StreamVerdict> ValidateStream(
      TableChunkReader& reader,
      const StreamingValidator::ChunkCallback& callback = nullptr,
      StreamingValidatorOptions stream_options = {}) const;

  /// ValidateStream + per-chunk repair: each emitted chunk carries a
  /// RepairResult for its flagged cells (row-local, so chunk repairs concat
  /// to exactly the whole-table repair); totals land in the StreamVerdict.
  StatusOr<StreamVerdict> RepairStream(
      TableChunkReader& reader,
      const StreamingValidator::ChunkCallback& callback = nullptr,
      StreamingValidatorOptions stream_options = {}) const;

  /// Validates the stream out-of-core, then feeds the whole-stream per-row
  /// flag sequence to the quality monitor (EWMA over flagged fractions; see
  /// core/monitor.h) as ONE row-weighted observation — identical monitor
  /// state to ObserveVerdict(Validate(t)) on the materialized table (and to
  /// observing the same rows as N chunks). Only the monitor update itself
  /// is serialized.
  StatusOr<MonitorObservation> ObserveStream(TableChunkReader& reader);

  /// Feeds an already-computed verdict into the monitor without
  /// re-validating. Const (the monitor is internally synchronized) so the
  /// serving daemon can feed verdicts through its
  /// shared_ptr<const ValidationService> without double inference.
  MonitorObservation ObserveVerdict(const BatchVerdict& verdict) const;

  /// True if the monitor's last observation raised the sustained-degradation
  /// alarm.
  bool alarming() const;

  /// Snapshot of the monitor's recent observation ring, oldest first (at
  /// most MonitorOptions::history_capacity entries).
  std::vector<MonitorObservation> monitor_history() const;

  /// Point-in-time monitor aggregates for stats reporting.
  struct MonitorSnapshot {
    int64_t observations = 0;
    int64_t rows_observed = 0;
    double smoothed_fraction = 0.0;
    bool alarming = false;
    std::vector<int64_t> drifting_columns;
  };
  MonitorSnapshot monitor_snapshot() const;

  const DquagPipeline& pipeline() const { return pipeline_; }
  const ValidationServiceOptions& options() const { return options_; }

 private:
  /// InvalidArgument unless `batch` has the fitted preprocessor's schema.
  Status CheckSchema(const Table& batch) const;

  DquagPipeline pipeline_;
  ValidationServiceOptions options_;

  mutable std::mutex monitor_mutex_;
  mutable QualityMonitor monitor_;  // guarded by monitor_mutex_
};

}  // namespace dquag

#endif  // DQUAG_CORE_VALIDATION_SERVICE_H_
