// Per-thread workspace for the tape-free inference engine.
//
// Every inference pass (validation, repair, calibration errors and the
// explainer's attention-recording forward) runs the same model shapes
// millions of times on the engine; the autograd tape, with a shared_ptr
// node and a freshly zero-initialized Tensor per op, serves training only.
// InferenceContext is a rewindable arena of reusable tensors: every
// InferForward op Acquire()s its output, and once each buffer has reached
// its high-water size no call allocates again.
//
// Usage contract:
//   InferenceContext& ctx = InferenceContext::ThreadLocal();
//   ctx.Rewind();                        // start of a forward pass
//   Tensor& staged = ctx.Acquire(...);   // optional input staging
//   model.InferValidation(staged, ctx);  // engine forward (no Rewind inside)
// Buffers stay valid until the next Rewind, so intermediate results can be
// consumed without copies. A context must only ever be used by one thread
// at a time — ThreadLocal() hands every thread its own.

#ifndef DQUAG_ENGINE_INFERENCE_CONTEXT_H_
#define DQUAG_ENGINE_INFERENCE_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dquag {

class InferenceContext {
 public:
  InferenceContext() = default;

  InferenceContext(const InferenceContext&) = delete;
  InferenceContext& operator=(const InferenceContext&) = delete;

  /// Next workspace tensor, resized in place to `shape`. Contents are
  /// unspecified (stale values from earlier passes); kernels must overwrite
  /// or fill before accumulating. The reference stays valid until Rewind.
  Tensor& Acquire(Shape shape);

  /// Rewinds the arena cursor; previously acquired buffers will be handed
  /// out again (capacity intact). Call once at the start of a forward pass.
  void Rewind() { cursor_ = 0; }

  /// Current arena position. RewindTo(Mark()) frees everything acquired
  /// after the mark while keeping earlier buffers (staged inputs, result
  /// accumulators) valid — the engine's cache-blocking primitive.
  size_t Mark() const { return cursor_; }
  void RewindTo(size_t mark) {
    DQUAG_CHECK_LE(mark, cursor_);
    cursor_ = mark;
  }

  /// Buffers ever created (diagnostics: stable across calls after warm-up).
  size_t num_buffers() const { return buffers_.size(); }

  /// Total float capacity across all buffers (diagnostics: stable across
  /// calls after warm-up means the hot path has stopped allocating).
  int64_t capacity_floats() const;

  /// The calling thread's private context. Workers of the process-wide
  /// ThreadPool each see their own instance, which is what makes concurrent
  /// Validate calls on one fitted pipeline race-free.
  static InferenceContext& ThreadLocal();

 private:
  // unique_ptr keeps Acquire()'d references stable while the vector grows.
  std::vector<std::unique_ptr<Tensor>> buffers_;
  size_t cursor_ = 0;
};

}  // namespace dquag

#endif  // DQUAG_ENGINE_INFERENCE_CONTEXT_H_
