// Per-shard training arena: gradient sinks.
//
// The data-parallel trainer (core/trainer.h) runs forward/backward for
// several mini-batch shards concurrently against ONE shared model, so
// parameter gradients must not race: every shard accumulates into its own
// gradient buffers. GradArena carries a map from parameter Variable to that
// shard's sink tensor; Variable::grad_ref() consults the thread's active
// arena and redirects leaf accumulation there. The trainer then combines
// the per-shard sinks with a fixed-order tree reduction, which is what
// makes training results independent of the thread count.
//
// An arena belongs to one shard, not one thread: the pool-worker that runs
// a shard's forward and the one that runs its backward may differ, but the
// trainer's phase barrier guarantees the arena is only ever active on one
// thread at a time.

#ifndef DQUAG_AUTOGRAD_GRAD_ARENA_H_
#define DQUAG_AUTOGRAD_GRAD_ARENA_H_

#include <cstdint>
#include <unordered_map>

#include "tensor/tensor.h"

namespace dquag {

class Variable;

class GradArena {
 public:
  GradArena() = default;
  GradArena(const GradArena&) = delete;
  GradArena& operator=(const GradArena&) = delete;

  /// Routes gradient accumulation for `param` (a leaf Variable) into
  /// `sink`, which the caller owns and must keep alive and correctly
  /// shaped. Registration is one-time setup; lookups are hot.
  void RegisterSink(const Variable* param, Tensor* sink);

  /// The sink for `param`, or nullptr when none is registered. Marks the
  /// sink touched — the trainer mirrors the tape's "no grad unless
  /// accumulated" contract through this flag.
  Tensor* FindSink(const Variable* param);

  /// True when the param's sink received at least one accumulation since
  /// the last ResetTouched.
  bool touched(const Variable* param) const;
  void ResetTouched();

 private:
  struct Sink {
    Tensor* tensor = nullptr;
    bool touched = false;
  };

  std::unordered_map<const Variable*, Sink> sinks_;
};

/// RAII: makes `arena` the calling thread's active arena (consulted by
/// Variable::grad_ref).
class GradArenaScope {
 public:
  explicit GradArenaScope(GradArena& arena);
  ~GradArenaScope();
  GradArenaScope(const GradArenaScope&) = delete;
  GradArenaScope& operator=(const GradArenaScope&) = delete;

 private:
  GradArena* previous_;
};

/// The arena active on this thread, or nullptr.
GradArena* ActiveGradArena();

}  // namespace dquag

#endif  // DQUAG_AUTOGRAD_GRAD_ARENA_H_
