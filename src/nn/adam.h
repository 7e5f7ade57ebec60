// Adam optimizer (Kingma & Ba, 2015) — the optimizer used in the paper's
// training process (§3.1.3).

#ifndef DQUAG_NN_ADAM_H_
#define DQUAG_NN_ADAM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "autograd/variable.h"

namespace dquag {

struct AdamOptions {
  float learning_rate = 0.01f;  // paper §4.4
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
  float weight_decay = 0.0f;  // L2 added to gradients when > 0
};

/// First-order optimizer with per-parameter moment estimates.
class Adam {
 public:
  Adam(std::vector<VarPtr> parameters, AdamOptions options = {});

  /// Calls fn(i) once for every i in [0, count), in any order or thread.
  using ParameterRunner = std::function<void(
      int64_t count, const std::function<void(int64_t)>& fn)>;

  /// Applies one update from the currently accumulated gradients. `run`
  /// (nullptr = a serial loop) drives the per-parameter updates; parameters
  /// update independently, so results never depend on how it spreads them.
  void Step(const ParameterRunner& run = nullptr);

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  int64_t step_count() const { return step_count_; }
  const AdamOptions& options() const { return options_; }
  void set_learning_rate(float lr) { options_.learning_rate = lr; }

  /// Elements across all parameters: what a caller weighs against the cost
  /// of fanning Step out.
  int64_t total_numel() const { return total_numel_; }

 private:
  std::vector<VarPtr> parameters_;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
  AdamOptions options_;
  int64_t step_count_ = 0;
  int64_t total_numel_ = 0;
};

}  // namespace dquag

#endif  // DQUAG_NN_ADAM_H_
