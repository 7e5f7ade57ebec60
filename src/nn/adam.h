// Adam optimizer (Kingma & Ba, 2015) — the optimizer used in the paper's
// training process (§3.1.3).

#ifndef DQUAG_NN_ADAM_H_
#define DQUAG_NN_ADAM_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace dquag {

/// First-order optimizer with per-parameter moment estimates. The moment
/// decay rates and epsilon are the Kingma & Ba defaults (0.9, 0.999, 1e-8).
class Adam {
 public:
  /// `learning_rate` defaults to the paper's 0.01 (§4.4).
  explicit Adam(std::vector<VarPtr> parameters, float learning_rate = 0.01f);

  /// Applies one update from the currently accumulated gradients.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  int64_t step_count() const { return step_count_; }

 private:
  std::vector<VarPtr> parameters_;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
  float learning_rate_;
  int64_t step_count_ = 0;
};

}  // namespace dquag

#endif  // DQUAG_NN_ADAM_H_
