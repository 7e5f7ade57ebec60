#include "nn/module.h"

#include "util/check.h"

namespace dquag {

std::vector<VarPtr> Module::Parameters() const {
  std::vector<VarPtr> out;
  for (const auto& [name, param] : parameters_) out.push_back(param);
  for (const Module* child : children_) {
    std::vector<VarPtr> nested = child->Parameters();
    out.insert(out.end(), nested.begin(), nested.end());
  }
  return out;
}

void Module::ZeroGrad() {
  for (const VarPtr& p : Parameters()) p->ZeroGrad();
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const VarPtr& p : Parameters()) total += p->value().numel();
  return total;
}

void Module::CopyParametersFrom(const Module& other) {
  std::vector<VarPtr> mine = Parameters();
  std::vector<VarPtr> theirs = other.Parameters();
  DQUAG_CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    DQUAG_CHECK(mine[i]->value().shape() == theirs[i]->value().shape());
    mine[i]->mutable_value() = theirs[i]->value();
  }
}

VarPtr Module::RegisterParameter(std::string name, Tensor init) {
  VarPtr param = MakeVar(std::move(init), /*requires_grad=*/true);
  parameters_.emplace_back(std::move(name), param);
  return param;
}

void Module::RegisterModule(Module* child) {
  DQUAG_CHECK(child != nullptr);
  children_.push_back(child);
}

}  // namespace dquag
