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
