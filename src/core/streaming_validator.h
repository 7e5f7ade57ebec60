// Streaming, out-of-core Phase-2 validation (and repair) over chunked input.
//
// Every batch entry point in the pipeline requires the whole batch
// materialized as one Table; StreamingValidator removes that ceiling. It
// pulls fixed-size row chunks from a TableChunkReader (the I/O unit) and
// pipelines them through the tape-free inference engine with a bounded
// number of chunks in flight. The pool's unit is the model row block, as
// everywhere else: each chunk fans out as one task per
// DquagModel::kRowBlock rows (Validator::ValidateBlockInto), and the task
// that finishes a chunk's last block finalizes its verdict and, when
// repairing, repairs its flagged rows. Per-chunk verdicts are emitted IN
// CHUNK ORDER on the calling thread while a whole-stream verdict is
// aggregated.
//
// The contract that makes streaming safe to deploy:
//   * Verdicts are bit-identical to whole-table validation. Instances are
//     independent along the batch axis and every kernel accumulates each
//     output element in the same order regardless of batch row count, so
//     chunking (any chunk size, any thread count) changes nothing —
//     enforced end to end by tests/streaming_test.cc.
//   * Aggregation runs in global row order on the emitting thread, so the
//     running error statistics reproduce ErrorStatistics::FromErrors'
//     forward pass (sum / sum-of-squares / min / max) bit for bit.
//   * Memory is O(max_in_flight * chunk_rows), independent of stream
//     length: chunk buffers, matrices and verdict scratch live in a fixed
//     pool of slots recycled after emission.
//
//   StreamingValidator streamer(&pipeline);
//   auto reader = CsvChunkReader::Open("huge.csv", schema, {.chunk_rows = 4096});
//   auto verdict = streamer.Run(**reader, [&](const StreamChunk& c) {
//     ...per-chunk verdict, in order...
//   });

#ifndef DQUAG_CORE_STREAMING_VALIDATOR_H_
#define DQUAG_CORE_STREAMING_VALIDATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/pipeline.h"
#include "data/table_chunk_reader.h"
#include "util/thread_pool.h"

namespace dquag {

/// Running reconstruction-error aggregation. Accumulate() in global row
/// order performs exactly the forward pass of ErrorStatistics::FromErrors,
/// so a finished stream reports the same mean/stddev/min/max the batch path
/// computes over the full error vector (the percentile threshold is the one
/// statistic that inherently needs all values and is not tracked here).
struct StreamErrorStats {
  int64_t count = 0;
  double sum = 0.0;
  double sum_squares = 0.0;
  double min = 0.0;
  double max = 0.0;

  void Accumulate(double error);

  double mean() const;
  double stddev() const;

  /// The batch-path reference: fold a finalized verdict's instance errors
  /// in row order (used by tests to assert stream == batch bit for bit).
  static StreamErrorStats FromVerdict(const BatchVerdict& verdict);
};

/// One emitted chunk: a chunk-local BatchVerdict plus its global position.
/// `rows` (and `repair` when repairing) are only valid during the callback —
/// the underlying buffers are recycled for later chunks.
struct StreamChunk {
  int64_t chunk_index = 0;
  int64_t row_offset = 0;  // global index of the chunk's first row
  const Table* rows = nullptr;
  /// Chunk-local verdict (flagged_rows/fraction/is_dirty computed over this
  /// chunk only; instance errors are globally exact).
  const BatchVerdict* verdict = nullptr;
  /// Repaired chunk, only when StreamingValidatorOptions::repair is set.
  /// Computed on a pool worker; like `rows`, it is freed once the callback
  /// returns, so copy whatever must outlive the callback.
  const RepairResult* repair = nullptr;
};

/// Whole-stream verdict. Flagged instances are retained (with global row
/// indices) so repairs and reports can target them; unflagged per-row state
/// is dropped as chunks retire, keeping memory O(flagged + chunk buffers).
struct StreamVerdict {
  int64_t total_rows = 0;
  int64_t total_chunks = 0;
  double threshold = 0.0;
  double flagged_fraction = 0.0;
  /// The paper's batch rule applied to the whole stream — identical to
  /// validating the stream as one table.
  bool is_dirty = false;
  std::vector<size_t> flagged_rows;               // global row indices
  std::vector<InstanceVerdict> flagged_instances;  // parallel to flagged_rows
  StreamErrorStats error_stats;
  /// Repair totals (zero unless repairing).
  int64_t cells_repaired = 0;
  int64_t instances_repaired = 0;
  /// Peak rows simultaneously resident in chunk buffers — the observable
  /// memory bound: <= max_in_flight * reader.chunk_rows(), independent of
  /// stream length.
  int64_t peak_buffered_rows = 0;
  int64_t peak_in_flight_chunks = 0;
};

struct StreamingValidatorOptions {
  /// Upper bound on chunks being read/validated/awaiting emission at once.
  /// 0 = 2x the pool's thread count. This times the reader's chunk_rows is
  /// the memory bound.
  int64_t max_in_flight = 0;
  /// Pool to fan the chunks' row blocks across; nullptr =
  /// GlobalThreadPool(). Falls back to in-line serial validation for
  /// single-thread pools or when the caller is itself a pool worker
  /// (results are identical).
  ThreadPool* pool = nullptr;
  /// Also repair each chunk's flagged cells. Repair runs on the pool worker
  /// that validated the chunk's last row block (forwarding only its
  /// flagged rows); repaired chunks are handed to the callback, valid only
  /// during it, and repair totals accumulate into the StreamVerdict.
  bool repair = false;
};

class StreamingValidator {
 public:
  /// The pipeline must be fitted and outlive the validator.
  explicit StreamingValidator(const DquagPipeline* pipeline,
                              StreamingValidatorOptions options = {});

  /// Sequential, in-order chunk consumer run on the calling thread.
  using ChunkCallback = std::function<void(const StreamChunk&)>;

  /// Drains `reader`, validating every chunk. Thread-safe for concurrent
  /// Run calls on one fitted pipeline (each call owns its slots; the shared
  /// pool is waited on through private completion state).
  StatusOr<StreamVerdict> Run(TableChunkReader& reader,
                              const ChunkCallback& callback = nullptr) const;

  const StreamingValidatorOptions& options() const { return options_; }

 private:
  const DquagPipeline* pipeline_;
  StreamingValidatorOptions options_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_STREAMING_VALIDATOR_H_
