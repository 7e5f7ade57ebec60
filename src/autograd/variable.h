// Reverse-mode automatic differentiation over Tensor.
//
// A Variable is a node in a dynamically built computation tape. Each op
// (autograd/ops.h) produces a new Variable whose `backward_fn` distributes
// the node's accumulated gradient into its parents. Backward(root) runs the
// tape in reverse topological order.
//
// Ownership: children hold shared_ptrs to parents (never the reverse), so
// the tape is a DAG of shared_ptrs with no cycles; it is freed when the last
// reference to the loss node is dropped.

#ifndef DQUAG_AUTOGRAD_VARIABLE_H_
#define DQUAG_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dquag {

class Variable;
using VarPtr = std::shared_ptr<Variable>;

/// Tape node: a value, its (lazily allocated) gradient, and the backward
/// closure that pushes gradients into `parents`.
class Variable {
 public:
  explicit Variable(Tensor value, bool requires_grad = false)
      : value_(std::move(value)), requires_grad_(requires_grad) {}

  const Tensor& value() const { return value_; }
  Tensor& mutable_value() { return value_; }

  bool requires_grad() const { return requires_grad_; }
  void set_requires_grad(bool v) { requires_grad_ = v; }

  /// Gradient tensor, allocated (zero) on first access.
  Tensor& grad() {
    if (grad_.numel() != value_.numel()) grad_ = Tensor::Zeros(value_.shape());
    return grad_;
  }
  bool has_grad() const { return grad_.numel() == value_.numel(); }

  /// The tensor gradients should accumulate into: normally grad(), but for
  /// a grad-requiring leaf (a model parameter) with an active GradArena
  /// (autograd/grad_arena.h) it is the arena's per-shard sink. Backward
  /// closures must write through this so data-parallel training never
  /// races on shared parameter gradients. Every training step runs under
  /// shard arenas, so a parameter's own grad() is filled only by the
  /// trainer's shard reduction.
  Tensor& grad_ref();

  /// Adds `g` (same shape as value) into grad_ref().
  void AccumulateGrad(const Tensor& g);

  /// Resets the gradient to zero (keeps allocation).
  void ZeroGrad();

  // Tape wiring (used by ops.cc).
  void set_backward(std::vector<VarPtr> parents,
                    std::function<void(Variable&)> backward_fn) {
    parents_ = std::move(parents);
    backward_fn_ = std::move(backward_fn);
  }
  const std::vector<VarPtr>& parents() const { return parents_; }
  bool has_backward() const { return static_cast<bool>(backward_fn_); }
  void RunBackward() {
    if (backward_fn_) backward_fn_(*this);
  }

 private:
  Tensor value_;
  Tensor grad_;
  bool requires_grad_;
  std::vector<VarPtr> parents_;
  std::function<void(Variable&)> backward_fn_;
};

/// Creates a leaf Variable.
inline VarPtr MakeVar(Tensor value, bool requires_grad = false) {
  return std::make_shared<Variable>(std::move(value), requires_grad);
}

/// Copies the value into a fresh leaf that does not propagate gradients
/// (stop-gradient).
inline VarPtr Detach(const VarPtr& v) {
  return MakeVar(v->value(), /*requires_grad=*/false);
}

/// Runs reverse-mode accumulation from `root`, whose gradient is seeded with
/// ones (typically the scalar loss). Gradients accumulate into every
/// reachable Variable with requires_grad or with grad-requiring ancestors.
void Backward(const VarPtr& root);

}  // namespace dquag

#endif  // DQUAG_AUTOGRAD_VARIABLE_H_
