#include "core/streaming_validator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <utility>

namespace dquag {

void StreamErrorStats::Accumulate(double error) {
  if (count == 0) {
    min = error;
    max = error;
  } else {
    min = std::min(min, error);
    max = std::max(max, error);
  }
  ++count;
  sum += error;
  sum_squares += error * error;
}

double StreamErrorStats::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double StreamErrorStats::stddev() const {
  if (count == 0) return 0.0;
  const double m = mean();
  const double n = static_cast<double>(count);
  return std::sqrt(std::max(0.0, sum_squares / n - m * m));
}

StreamErrorStats StreamErrorStats::FromVerdict(const BatchVerdict& verdict) {
  StreamErrorStats stats;
  for (const InstanceVerdict& inst : verdict.instances) {
    stats.Accumulate(inst.error);
  }
  return stats;
}

namespace {

/// Per-chunk pipeline state. A fixed pool of slots bounds memory: each slot
/// holds one chunk's rows, its preprocessed matrix, its chunk-local verdict
/// and (when repairing) its repair until emission, and is recycled once the
/// chunk has been emitted.
struct Slot {
  Table chunk;
  Tensor matrix;
  BatchVerdict verdict;
  RepairResult repair;
  int64_t rows = 0;
  int64_t chunk_index = -1;
  /// Row blocks of the chunk not yet validated; the block that takes it
  /// to zero finishes the chunk.
  std::atomic<int64_t> blocks_left{0};
};

}  // namespace

StreamingValidator::StreamingValidator(const DquagPipeline* pipeline,
                                       StreamingValidatorOptions options)
    : pipeline_(pipeline), options_(options) {
  DQUAG_CHECK(pipeline_ != nullptr);
  DQUAG_CHECK(pipeline_->fitted());
  DQUAG_CHECK_GE(options_.max_in_flight, 0);
}

StatusOr<StreamVerdict> StreamingValidator::Run(
    TableChunkReader& reader, const ChunkCallback& callback) const {
  const Validator& validator = pipeline_->validator();
  const Repairer& repairer = pipeline_->repairer();
  const TablePreprocessor& preprocessor = pipeline_->preprocessor();

  ThreadPool& pool = options_.pool ? *options_.pool : GlobalThreadPool();
  // Fanning out from inside a pool worker would wait on the pool from
  // within it; a single-thread pool buys no overlap. Both degrade to
  // validate-inline, which produces identical results by contract.
  const bool serial = pool.num_threads() <= 1 || InsidePoolWorker();
  const int64_t max_in_flight = std::max<int64_t>(
      1, options_.max_in_flight > 0
             ? options_.max_in_flight
             : (serial ? 1
                       : 2 * static_cast<int64_t>(pool.num_threads())));

  std::vector<Slot> slots(static_cast<size_t>(max_in_flight));
  std::vector<Slot*> free_slots;
  free_slots.reserve(slots.size());
  for (Slot& slot : slots) free_slots.push_back(&slot);

  // completed: finished-but-unemitted chunks, keyed by chunk index so the
  // caller thread can emit strictly in order. Guarded by mutex; workers
  // publish results through it (the lock ordering is the happens-before
  // edge TSan sees).
  std::mutex mutex;
  std::condition_variable ready;
  std::map<int64_t, Slot*> completed;

  StreamVerdict stream;
  stream.threshold = validator.threshold();

  int64_t submitted = 0;
  int64_t next_emit = 0;
  int64_t buffered_rows = 0;  // rows resident in occupied slots

  // Emits one completed slot (caller thread, in chunk order): fold the
  // chunk's verdict into the stream aggregates, invoke the callback,
  // recycle the slot.
  auto emit = [&](Slot* slot) {
    const BatchVerdict& chunk_verdict = slot->verdict;
    const int64_t row_offset = stream.total_rows;
    // Global row order: chunks emit in order and rows are walked in order,
    // so this is the same accumulation sequence as the batch path.
    for (int64_t r = 0; r < slot->rows; ++r) {
      const InstanceVerdict& inst =
          chunk_verdict.instances[static_cast<size_t>(r)];
      stream.error_stats.Accumulate(inst.error);
      if (inst.flagged) {
        stream.flagged_rows.push_back(
            static_cast<size_t>(row_offset + r));
        stream.flagged_instances.push_back(inst);
      }
    }
    stream.total_rows += slot->rows;
    ++stream.total_chunks;

    // Taken out of the slot so an idle slot never holds a repaired table.
    const RepairResult repair = std::exchange(slot->repair, RepairResult{});
    stream.cells_repaired += repair.cells_repaired;
    stream.instances_repaired += repair.instances_repaired;
    if (callback) {
      StreamChunk emitted;
      emitted.chunk_index = slot->chunk_index;
      emitted.row_offset = row_offset;
      emitted.rows = &slot->chunk;
      emitted.verdict = &chunk_verdict;
      emitted.repair = options_.repair ? &repair : nullptr;
      callback(emitted);
    }

    // Recycle: the verdict scratch keeps its capacity for the next chunk.
    buffered_rows -= slot->rows;
    slot->rows = 0;
    ++next_emit;
    std::lock_guard<std::mutex> lock(mutex);
    free_slots.push_back(slot);
  };

  // Pops and emits every chunk that is next in line. Caller must NOT hold
  // the mutex.
  auto emit_ready = [&] {
    for (;;) {
      Slot* slot = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = completed.find(next_emit);
        if (it == completed.end()) return;
        slot = it->second;
        completed.erase(it);
      }
      emit(slot);
    }
  };

  // Validates one row block of a slot's chunk. The call that finishes the
  // chunk's last block also finalizes its verdict, repairs its flagged
  // rows when repairing, and publishes the slot for emission.
  auto run_block = [&validator, &repairer, &mutex, &ready, &completed,
                    repair = options_.repair](Slot* slot, int64_t block) {
    validator.ValidateBlockInto(slot->matrix, block,
                                slot->verdict.instances.data());
    // The decrement orders every block's verdicts before the last block's
    // caller reads them.
    if (slot->blocks_left.fetch_sub(1) != 1) return;
    validator.FinalizeVerdict(slot->verdict);
    if (repair) {
      slot->repair = repairer.Repair(slot->chunk, slot->matrix,
                                     slot->verdict);
    }
    // Notify while holding the mutex: once the caller's final wait can
    // observe this completion it must also be past this notify, so the
    // condition variable is never destroyed mid-notify when Run returns
    // (its sync state lives on the caller's stack).
    std::lock_guard<std::mutex> lock(mutex);
    completed[slot->chunk_index] = slot;
    ready.notify_all();
  };

  Status failure = Status::Ok();
  for (;;) {
    // Acquire a free slot, emitting finished chunks while we wait so the
    // reorder window cannot deadlock the fixed slot pool.
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex);
      for (;;) {
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
          break;
        }
        if (completed.count(next_emit)) {
          lock.unlock();
          emit_ready();
          lock.lock();
          continue;
        }
        ready.wait(lock);
      }
    }

    auto rows_or = reader.Next(slot->chunk);
    if (!rows_or.ok()) {
      failure = rows_or.status();
      break;
    }
    if (*rows_or == 0) break;  // end of stream

    slot->rows = *rows_or;
    slot->chunk_index = submitted++;
    buffered_rows += slot->rows;
    stream.peak_buffered_rows =
        std::max(stream.peak_buffered_rows, buffered_rows);
    stream.peak_in_flight_chunks =
        std::max(stream.peak_in_flight_chunks, submitted - next_emit);

    // Preprocess on the reader thread (cheap, deterministic); fan the
    // chunk's model row blocks out to the workers.
    slot->matrix = preprocessor.Transform(slot->chunk);
    slot->verdict.threshold = stream.threshold;
    slot->verdict.instances.resize(static_cast<size_t>(slot->rows));
    const int64_t blocks = Validator::NumBlocks(slot->rows);
    slot->blocks_left.store(blocks);
    for (int64_t b = 0; b < blocks; ++b) {
      if (serial) {
        run_block(slot, b);
      } else {
        pool.Submit([&run_block, slot, b] { run_block(slot, b); });
      }
    }
    emit_ready();  // serially: emits this chunk; else keeps the window shallow
  }

  if (!failure.ok()) {
    // In-flight tasks still reference the slots; wait for them to finish
    // before the slots go out of scope, then discard their results.
    std::unique_lock<std::mutex> lock(mutex);
    ready.wait(lock, [&] {
      return static_cast<int64_t>(completed.size()) == submitted - next_emit;
    });
    return failure;
  }

  // Drain: emit every remaining chunk in order.
  while (next_emit < submitted) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      ready.wait(lock, [&] { return completed.count(next_emit) > 0; });
    }
    emit_ready();
  }

  stream.flagged_fraction =
      stream.total_rows == 0
          ? 0.0
          : static_cast<double>(stream.flagged_rows.size()) /
                static_cast<double>(stream.total_rows);
  stream.is_dirty = stream.flagged_fraction > validator.batch_cutoff();
  return stream;
}

}  // namespace dquag
