#include "autograd/variable.h"

#include <unordered_set>

#include "autograd/grad_arena.h"

namespace dquag {

Tensor& Variable::grad_ref() {
  // Only grad-requiring leaves can have sinks; tape temporaries skip the
  // map lookup entirely.
  if (requires_grad_ && !backward_fn_) {
    if (GradArena* arena = ActiveGradArena()) {
      if (Tensor* sink = arena->FindSink(this)) return *sink;
    }
  }
  return grad();
}

void Variable::AccumulateGrad(const Tensor& g) {
  DQUAG_CHECK(g.shape() == value_.shape());
  Tensor& acc = grad_ref();
  float* dst = acc.data();
  const float* src = g.data();
  const int64_t n = acc.numel();
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

void Variable::ZeroGrad() {
  if (has_grad()) grad_.Fill(0.0f);
}

namespace {

/// Iterative post-order DFS producing a topological order (parents after
/// children in the returned list; we then iterate it front-to-back after
/// reversing construction so the root comes first).
void TopoSort(const VarPtr& root, std::vector<Variable*>& order) {
  std::unordered_set<Variable*> visited;
  // Each stack frame: node plus whether its children were expanded.
  std::vector<std::pair<Variable*, bool>> stack;
  stack.emplace_back(root.get(), false);
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      order.push_back(node);
      continue;
    }
    if (visited.count(node)) continue;
    visited.insert(node);
    stack.emplace_back(node, true);
    for (const VarPtr& parent : node->parents()) {
      if (!visited.count(parent.get())) {
        stack.emplace_back(parent.get(), false);
      }
    }
  }
}

}  // namespace

void Backward(const VarPtr& root) {
  DQUAG_CHECK(root != nullptr);
  root->grad().Fill(1.0f);

  std::vector<Variable*> post_order;
  TopoSort(root, post_order);
  // post_order has children (ancestors in the math sense) before descendants;
  // run backward from the root toward the leaves.
  for (auto it = post_order.rbegin(); it != post_order.rend(); ++it) {
    (*it)->RunBackward();
  }
}

}  // namespace dquag
