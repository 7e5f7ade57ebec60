// Differentiable operations over Variables.
//
// Each function computes the forward value with tensor/tensor_ops.h and
// attaches a backward closure. Gradients only flow into subtrees that
// contain a Variable with requires_grad(); other branches are pruned at
// construction time, so inference through the same code path with
// requires_grad=false leaves builds no tape.

#ifndef DQUAG_AUTOGRAD_OPS_H_
#define DQUAG_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor_ops.h"

namespace dquag {
namespace ag {

// ---- Elementwise binary (broadcasting) -------------------------------------

VarPtr Add(const VarPtr& a, const VarPtr& b);
VarPtr Sub(const VarPtr& a, const VarPtr& b);
VarPtr Mul(const VarPtr& a, const VarPtr& b);

VarPtr AddScalar(const VarPtr& a, float s);
VarPtr MulScalar(const VarPtr& a, float s);

// ---- Elementwise unary -----------------------------------------------------

VarPtr LeakyRelu(const VarPtr& a, float negative_slope = 0.2f);
VarPtr Elu(const VarPtr& a, float alpha = 1.0f);
VarPtr Square(const VarPtr& a);

// ---- Linear algebra --------------------------------------------------------

/// Same shape contract as tensor MatMul: 2x2, 3x2 (shared weight), 3x3.
VarPtr MatMul(const VarPtr& a, const VarPtr& b);

// ---- Structure -------------------------------------------------------------

VarPtr Reshape(const VarPtr& a, Shape new_shape);

// ---- Reductions ------------------------------------------------------------

VarPtr Sum(const VarPtr& a, int64_t axis, bool keepdims = false);
VarPtr Mean(const VarPtr& a, int64_t axis, bool keepdims = false);
/// Full reduction to a [1] tensor.
VarPtr SumAll(const VarPtr& a);

// ---- Graph kernels ---------------------------------------------------------

/// Differentiable row gather along axis 1 of [B, N, H] (or axis 0 of 2-D).
VarPtr GatherAxis1(const VarPtr& t, std::vector<int32_t> indices);

/// Differentiable scatter-add along axis 1.
VarPtr ScatterAddAxis1(const VarPtr& src, std::vector<int32_t> indices,
                       int64_t num_rows);

/// Differentiable per-segment softmax over [B, E] (or [E]) scores.
VarPtr SegmentSoftmaxAxis1(const VarPtr& scores, std::vector<int32_t> segments,
                           int64_t num_segments);

}  // namespace ag
}  // namespace dquag

#endif  // DQUAG_AUTOGRAD_OPS_H_
