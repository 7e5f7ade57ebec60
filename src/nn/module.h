// Base class for parameterized neural-network modules.
//
// Modules own their parameter Variables (requires_grad = true) and register
// them in a flat list so optimizers and serialization can reach every
// parameter through Parameters(). The model's one nonlinearity, ELU, is a
// plain op (ag::Elu on the tape; in the engine, the epilogue of the pass
// that writes the activated output), not a module option.

#ifndef DQUAG_NN_MODULE_H_
#define DQUAG_NN_MODULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/variable.h"

namespace dquag {

class QuantizedWeightCache;

/// One quantizable weight matrix: the float source tensor plus its int8
/// cache. Slots are enumerated in deterministic registration order (the
/// same order as Parameters()), which the checkpoint quantized section
/// relies on.
struct QuantizedSlot {
  const Tensor* weight = nullptr;
  const QuantizedWeightCache* cache = nullptr;
};

/// Parameterized module base. Subclasses register parameters with
/// RegisterParameter and sub-modules with RegisterModule; Parameters()
/// returns the transitive closure.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and registered sub-modules.
  std::vector<VarPtr> Parameters() const;

  /// Zeroes the gradients of all parameters.
  void ZeroGrad();

  /// Total scalar parameter count.
  int64_t NumParameters() const;

  /// Copies parameter values from another module with identical structure.
  void CopyParametersFrom(const Module& other);

  /// Appends this module's quantizable weight slots (transitively, in
  /// registration order). Default recurses into registered children;
  /// modules owning a quantized GEMM weight (Linear, GCN/GAT projections)
  /// override to append their slots.
  virtual void CollectQuantizedSlots(std::vector<QuantizedSlot>& out) const;

 protected:
  Module() = default;

  /// Registers and returns a trainable parameter.
  VarPtr RegisterParameter(std::string name, Tensor init);

  /// Registers a sub-module (not owned).
  void RegisterModule(Module* child);

 private:
  std::vector<std::pair<std::string, VarPtr>> parameters_;
  std::vector<Module*> children_;
};

}  // namespace dquag

#endif  // DQUAG_NN_MODULE_H_
