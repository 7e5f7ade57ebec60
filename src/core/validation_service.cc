#include "core/validation_service.h"

#include "util/thread_pool.h"

namespace dquag {

ValidationService::ValidationService(DquagPipeline pipeline,
                                     ValidationServiceOptions options)
    : pipeline_(std::move(pipeline)),
      options_(options),
      monitor_(&pipeline_, options.monitor) {
  DQUAG_CHECK(pipeline_.fitted());
}

StatusOr<std::unique_ptr<ValidationService>> ValidationService::FromCheckpoint(
    const std::string& path, ValidationServiceOptions options) {
  auto pipeline = DquagPipeline::Load(path);
  if (!pipeline.ok()) return pipeline.status();
  return std::make_unique<ValidationService>(std::move(pipeline).value(),
                                             options);
}

BatchVerdict ValidationService::Validate(const Table& batch) const {
  return ValidateMatrix(pipeline_.preprocessor().Transform(batch));
}

BatchVerdict ValidationService::ValidateMatrix(const Tensor& matrix) const {
  // Row blocks share the process-wide pool; each call waits on its own
  // latch, so concurrent callers never wait on each other's blocks.
  return pipeline_.validator().ValidateMatrixOn(GlobalThreadPool(), matrix);
}

Status ValidationService::CheckSchema(const Table& batch) const {
  if (!(batch.schema() == pipeline_.preprocessor().schema())) {
    return Status::InvalidArgument(
        "batch schema does not match the deployed model's schema");
  }
  return Status::Ok();
}

StatusOr<BatchVerdict> ValidationService::TryValidate(
    const Table& batch) const {
  DQUAG_RETURN_IF_ERROR(CheckSchema(batch));
  return Validate(batch);
}

StatusOr<RepairResult> ValidationService::TryValidateAndRepair(
    const Table& batch) const {
  DQUAG_RETURN_IF_ERROR(CheckSchema(batch));
  // One Transform feeds both the validation and the repair forward.
  const Tensor matrix = pipeline_.preprocessor().Transform(batch);
  return pipeline_.repairer().Repair(batch, matrix, ValidateMatrix(matrix));
}

StatusOr<StreamVerdict> ValidationService::ValidateStream(
    TableChunkReader& reader,
    const StreamingValidator::ChunkCallback& callback,
    StreamingValidatorOptions stream_options) const {
  StreamingValidator streamer(&pipeline_, stream_options);
  return streamer.Run(reader, callback);
}

StatusOr<StreamVerdict> ValidationService::RepairStream(
    TableChunkReader& reader,
    const StreamingValidator::ChunkCallback& callback,
    StreamingValidatorOptions stream_options) const {
  stream_options.repair = true;
  return ValidateStream(reader, callback, stream_options);
}

MonitorObservation ValidationService::ObserveVerdict(
    const BatchVerdict& verdict) const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return monitor_.ObserveVerdict(verdict);
}

StatusOr<MonitorObservation> ValidationService::ObserveStream(
    TableChunkReader& reader) {
  auto verdict = ValidateStream(reader);
  if (!verdict.ok()) return verdict.status();
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return monitor_.ObserveStreamVerdict(*verdict);
}

bool ValidationService::alarming() const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return monitor_.alarming();
}

std::vector<MonitorObservation> ValidationService::monitor_history() const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  return {monitor_.history().begin(), monitor_.history().end()};
}

ValidationService::MonitorSnapshot ValidationService::monitor_snapshot()
    const {
  std::lock_guard<std::mutex> lock(monitor_mutex_);
  MonitorSnapshot s;
  s.observations = monitor_.observation_count();
  s.rows_observed = monitor_.rows_observed();
  s.smoothed_fraction = monitor_.smoothed_fraction();
  s.alarming = monitor_.alarming();
  s.drifting_columns = monitor_.drifting_columns();
  return s;
}

}  // namespace dquag
