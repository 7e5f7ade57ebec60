#include "core/retrain_controller.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "core/pipeline.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace dquag {

std::string RetrainCheckpointPath(const std::string& source,
                                  int64_t generation) {
  std::string base = source;
  const size_t tag = base.rfind(".gen");
  if (tag != std::string::npos && tag + 4 < base.size()) {
    bool digits = true;
    for (size_t i = tag + 4; i < base.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(base[i]))) {
        digits = false;
        break;
      }
    }
    if (digits) base.resize(tag);
  }
  return base + ".gen" + std::to_string(generation);
}

Status ValidateRetrainOptions(const RetrainOptions& options) {
  if (options.min_buffer_rows < 1) {
    return Status::InvalidArgument("retrain: min_buffer_rows must be >= 1");
  }
  if (options.max_buffer_rows < options.min_buffer_rows) {
    return Status::InvalidArgument(
        "retrain: max_buffer_rows must be >= min_buffer_rows");
  }
  if (options.trigger_observations < 1) {
    return Status::InvalidArgument(
        "retrain: trigger_observations must be >= 1");
  }
  return Status::Ok();
}

RetrainController::RetrainController(std::string checkpoint_path,
                                     RetrainOptions options, SwapFn swap)
    : options_(options),
      swap_(std::move(swap)),
      checkpoint_path_(std::move(checkpoint_path)) {
  DQUAG_CHECK(swap_ != nullptr);
  DQUAG_CHECK(ValidateRetrainOptions(options_).ok());
}

void RetrainController::ObserveBatch(const Table& batch,
                                     const BatchVerdict& verdict,
                                     const MonitorObservation& observation) {
  std::lock_guard<std::mutex> lock(mutex_);

  // Buffer the accepted-clean rows: everything the current model did not
  // flag. Flagged rows are excluded — training on rows the model itself
  // considers anomalous would teach it the very corruption it detected.
  if (!buffer_initialized_) {
    buffer_ = Table(batch.schema());
    buffer_initialized_ = true;
  }
  if (batch.schema() == buffer_.schema()) {
    stream_rows_ += batch.num_rows();
    stream_flagged_ += static_cast<int64_t>(verdict.flagged_rows.size());
    std::vector<size_t> keep;
    keep.reserve(static_cast<size_t>(batch.num_rows()));
    size_t cursor = 0;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      if (cursor < verdict.flagged_rows.size() &&
          verdict.flagged_rows[cursor] == static_cast<size_t>(r)) {
        ++cursor;
        continue;
      }
      keep.push_back(static_cast<size_t>(r));
    }
    if (!keep.empty()) buffer_.AppendRows(batch.SelectRows(keep));
    if (buffer_.num_rows() > options_.max_buffer_rows) {
      buffer_ = buffer_.SliceRows(buffer_.num_rows() - options_.max_buffer_rows,
                                  options_.max_buffer_rows);
    }
  }

  // Drift streak: consecutive observations that alarm or show per-column
  // drift. During the post-swap cooldown, observations burn the cooldown
  // instead of the streak.
  if (cooldown_rows_left_ > 0) {
    cooldown_rows_left_ = std::max<int64_t>(
        0, cooldown_rows_left_ - observation.rows);
    drift_streak_ = 0;
    return;
  }
  const bool drifting = observation.alarm || observation.column_drift();
  drift_streak_ = drifting ? drift_streak_ + 1 : 0;
}

bool RetrainController::ShouldRetrain() const {
  if (retraining_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return drift_streak_ >= options_.trigger_observations &&
         buffer_.num_rows() >= options_.min_buffer_rows &&
         cooldown_rows_left_ <= 0;
}

Status RetrainController::RunProtocol(const Table& buffer,
                                      const std::string& source,
                                      int64_t generation,
                                      double stream_flag_rate,
                                      std::string* new_path) {
  // Step 2: load the serving checkpoint into a PRIVATE pipeline. The
  // serving instance keeps answering requests untouched throughout.
  DQUAG_FAILPOINT(failpoint::kRetrainLoad);
  auto pipeline = DquagPipeline::Load(source);
  if (!pipeline.ok()) return pipeline.status();

  // Step 3: warm-start fine-tune on the accepted-clean snapshot.
  DQUAG_FAILPOINT(failpoint::kRetrainFineTune);
  FineTuneOptions finetune;
  finetune.epochs = options_.finetune_epochs;
  finetune.seed = options_.seed == 0
                      ? 0
                      : options_.seed + static_cast<uint64_t>(generation);
  finetune.stream_flag_rate = stream_flag_rate;
  DQUAG_RETURN_IF_ERROR(pipeline->FineTune(buffer, finetune));

  // Step 4: atomic checkpoint write (Save commits via AtomicFileWriter —
  // a crash here never tears the file, and the old checkpoint survives
  // under its own name).
  DQUAG_FAILPOINT(failpoint::kRetrainSave);
  *new_path = RetrainCheckpointPath(source, generation);
  DQUAG_RETURN_IF_ERROR(pipeline->Save(*new_path));

  // Step 5: the caller-supplied zero-drop hot swap.
  DQUAG_FAILPOINT(failpoint::kRetrainSwap);
  return swap_(*new_path);
}

StatusOr<std::string> RetrainController::RetrainAndSwap() {
  if (retraining_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("a retrain is already in flight");
  }

  Table buffer;
  std::string source;
  int64_t generation = 0;
  double stream_flag_rate = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffer = buffer_;  // snapshot; served batches keep accumulating
    source = checkpoint_path_;
    generation = generation_ + 1;
    if (stream_rows_ > 0) {
      stream_flag_rate = static_cast<double>(stream_flagged_) /
                         static_cast<double>(stream_rows_);
    }
    ++attempts_;
  }

  std::string new_path;
  const Status status =
      RunProtocol(buffer, source, generation, stream_flag_rate, &new_path);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status.ok()) {
      checkpoint_path_ = new_path;
      generation_ = generation;
      ++successes_;
      drift_streak_ = 0;
      cooldown_rows_left_ = CooldownRows(options_);
      // The swapped-in model starts a fresh truncation window.
      stream_rows_ = 0;
      stream_flagged_ = 0;
    } else {
      ++failures_;
    }
  }
  retraining_.store(false, std::memory_order_release);
  if (!status.ok()) {
    DQUAG_LOG(WARNING) << "retrain generation " << generation
                    << " failed (old model keeps serving): "
                    << status.ToString();
    return status;
  }
  DQUAG_LOG(INFO) << "retrain generation " << generation << " swapped in "
                  << new_path;
  return new_path;
}

Table RetrainController::BufferSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_;
}

RetrainController::Snapshot RetrainController::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.buffer_rows = buffer_.num_rows();
  s.drift_streak = drift_streak_;
  s.attempts = attempts_;
  s.successes = successes_;
  s.failures = failures_;
  s.generation = generation_;
  if (stream_rows_ > 0) {
    s.stream_flag_rate = static_cast<double>(stream_flagged_) /
                         static_cast<double>(stream_rows_);
  }
  s.current_checkpoint = checkpoint_path_;
  return s;
}

}  // namespace dquag
