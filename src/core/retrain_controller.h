// Drift-triggered incremental retraining: the piece that closes the loop.
//
// A RetrainController watches the monitor's observations for one deployed
// model, keeps a rolling buffer of accepted-clean rows (rows the current
// model did NOT flag — the freshest sample of the live distribution that
// is still trustworthy as training data), and on sustained drift runs the
// retrain -> swap protocol:
//
//   1. snapshot the buffer                      (under the lock, then free)
//   2. Load() the CURRENT checkpoint            [failpoint retrain.load]
//      into a private pipeline — never the serving one
//   3. FineTune() on the snapshot (warm start)  [failpoint retrain.finetune]
//   4. Save() to a generation-suffixed path     [failpoint retrain.save]
//      (atomic: AtomicFileWriter under Save)
//   5. invoke the swap callback with that path  [failpoint retrain.swap]
//      (the registry's zero-drop hot swap: new load before pointer swap,
//      a failed load keeps the old model serving)
//
// A failure at ANY step leaves the serving model untouched: the protocol
// only ever mutates a private pipeline and a fresh checkpoint file, and
// the swap itself is the registry's existing fail-closed hot swap. The
// controller is deterministic — given the same source checkpoint, buffer
// snapshot and options, the produced checkpoint bytes are identical to a
// manual Load + FineTune + Save.
//
// Core-layer only: serving integration passes the swap as a callback, so
// the controller never depends on serve/.

#ifndef DQUAG_CORE_RETRAIN_CONTROLLER_H_
#define DQUAG_CORE_RETRAIN_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "core/monitor.h"
#include "data/table.h"
#include "util/status.h"

namespace dquag {

struct RetrainOptions {
  /// Accepted-clean rows required before a retrain may run.
  int64_t min_buffer_rows = 256;
  /// Rolling-buffer cap; oldest rows are dropped past it.
  int64_t max_buffer_rows = 8192;
  /// Consecutive drifting observations (alarm or per-column drift) that
  /// arm ShouldRetrain().
  int64_t trigger_observations = 3;
  /// Rows observed after a successful swap before drift counts again —
  /// absorbs the window where pre-swap observations still reflect the old
  /// model, so a fresh swap cannot re-arm on its own output. Unset = one
  /// full buffer (see CooldownRows); an explicit 0 turns it off.
  std::optional<int64_t> cooldown_rows;
  /// FineTune epochs per retrain.
  int64_t finetune_epochs = 5;
  /// Base seed for fine-tunes; generation g uses seed + g so repeated
  /// retrains see fresh noise while the whole sequence stays reproducible.
  /// 0 keeps the checkpoint's own seed (still deterministic).
  uint64_t seed = 0;
};

/// The cooldown a controller with `options` applies after each swap. When
/// cooldown_rows is unset it is one full buffer of rows, so the swapped-in
/// model serves a buffer's worth of traffic before its drift may trigger
/// the next retrain; `dquag serve` leaves it unset unless
/// --retrain-cooldown-rows is given, so both default through this.
inline int64_t CooldownRows(const RetrainOptions& options) {
  return options.cooldown_rows.value_or(options.max_buffer_rows);
}

/// InvalidArgument unless `options` can drive a controller: at least one
/// buffered row and one trigger observation, and a buffer cap no smaller
/// than the rows a retrain needs. Callers that take options from outside
/// check this up front; the controller's constructor requires it.
Status ValidateRetrainOptions(const RetrainOptions& options);

class RetrainController {
 public:
  /// Deploys `checkpoint_path` fresh via `swap` on every successful
  /// retrain. The callback must be the registry's hot-swap (or an
  /// equivalent fail-closed deploy) — the controller treats its error as
  /// "old model still serving".
  using SwapFn = std::function<Status(const std::string& checkpoint_path)>;

  /// `options` must pass ValidateRetrainOptions (checked).
  RetrainController(std::string checkpoint_path, RetrainOptions options,
                    SwapFn swap);

  RetrainController(const RetrainController&) = delete;
  RetrainController& operator=(const RetrainController&) = delete;

  /// Feeds one served batch: buffers the rows the verdict did NOT flag and
  /// advances the drift streak from the monitor observation. Thread-safe.
  void ObserveBatch(const Table& batch, const BatchVerdict& verdict,
                    const MonitorObservation& observation);

  /// True when drift is sustained, the buffer is big enough, no retrain is
  /// in flight, and the cooldown from the previous swap has elapsed.
  bool ShouldRetrain() const;

  /// Runs the full retrain -> swap protocol synchronously and returns the
  /// new checkpoint path. FailedPrecondition if a retrain is already in
  /// flight. On any step failure the error is returned, failure counters
  /// advance, and the serving model is untouched. Call from a background
  /// thread, never a request thread.
  StatusOr<std::string> RetrainAndSwap();

  /// Copy of the current accepted-clean buffer (for bit-identity tests).
  Table BufferSnapshot() const;

  struct Snapshot {
    int64_t buffer_rows = 0;
    int64_t drift_streak = 0;
    int64_t attempts = 0;
    int64_t successes = 0;
    int64_t failures = 0;
    int64_t generation = 0;  // successful swaps so far
    /// Fraction of stream rows the serving model flagged since the last
    /// successful swap — the truncation mass FineTune corrects for (see
    /// FineTuneOptions::stream_flag_rate).
    double stream_flag_rate = 0.0;
    std::string current_checkpoint;
  };
  Snapshot snapshot() const;

  const RetrainOptions& options() const { return options_; }

 private:
  /// Steps 2-5 on the snapshotted state; pure apart from the checkpoint
  /// file it writes and the swap it invokes. `stream_flag_rate` is the
  /// serving model's flagged-row fraction over the observed stream, fed to
  /// FineTune's truncation-corrected threshold recalibration.
  Status RunProtocol(const Table& buffer, const std::string& source,
                     int64_t generation, double stream_flag_rate,
                     std::string* new_path);

  const RetrainOptions options_;
  const SwapFn swap_;

  mutable std::mutex mutex_;
  std::string checkpoint_path_;  // serving checkpoint; updated per swap
  Table buffer_;
  bool buffer_initialized_ = false;
  int64_t drift_streak_ = 0;
  int64_t cooldown_rows_left_ = 0;
  // Stream totals since the last successful swap: the serving model's
  // flag rate over them is the buffer's truncation mass.
  int64_t stream_rows_ = 0;
  int64_t stream_flagged_ = 0;
  int64_t generation_ = 0;
  int64_t attempts_ = 0;
  int64_t successes_ = 0;
  int64_t failures_ = 0;
  std::atomic<bool> retraining_{false};
};

/// The generation-suffixed checkpoint path the controller writes: any
/// previous ".gen<k>" suffix is stripped first, so paths do not accumulate
/// ("m.ckpt" -> "m.ckpt.gen1" -> "m.ckpt.gen2"). Exposed for tests.
std::string RetrainCheckpointPath(const std::string& source,
                                  int64_t generation);

}  // namespace dquag

#endif  // DQUAG_CORE_RETRAIN_CONTROLLER_H_
