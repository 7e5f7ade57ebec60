// Free-function math over Tensor.
//
// Everything here is purely functional: inputs are const, results are new
// tensors. Shapes follow NumPy broadcasting for elementwise binary ops.
// The gather / scatter / segment-softmax kernels operate along axis 1 of
// [B, N, H] tensors because model instances are batched as
// [batch, node, channel]; they are the message-passing primitives of the GNN
// layers and run in O(B * E * H).

#ifndef DQUAG_TENSOR_TENSOR_OPS_H_
#define DQUAG_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace dquag {

// ---- Broadcasting ----------------------------------------------------------

/// Sums `t` down to `target` shape (inverse of broadcasting); used by
/// autograd to reduce gradients of broadcast operands.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// ---- Elementwise binary (broadcasting) -------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// ---- Elementwise unary -----------------------------------------------------

Tensor Abs(const Tensor& a);
Tensor Square(const Tensor& a);

Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
Tensor Elu(const Tensor& a, float alpha = 1.0f);

// ---- Matrix multiplication -------------------------------------------------

/// MatMul supports:
///   [m,k] x [k,n]    -> [m,n]
///   [B,m,k] x [k,n]  -> [B,m,n]   (shared right operand)
///   [B,m,k] x [B,k,n]-> [B,m,n]   (batched both sides)
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Swaps the last two axes of a 2-D or 3-D tensor.
Tensor TransposeLast2(const Tensor& a);

/// A^T * B without materializing the transpose: a is [m, k] (or [B, m, k],
/// flattened over the leading axes), b is [m, n] (same leading shape);
/// result [k, n]. This is the dW of a shared-weight matmul.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// A * B^T without materializing the transpose: a is [..., m, n], b is
/// [k, n]; result [..., m, k]. This is the dX of y = x W.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

// ---- Reductions ------------------------------------------------------------

float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

/// Sum over one axis. keepdims retains the reduced axis with size 1.
Tensor Sum(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdims = false);

// ---- Structural ops --------------------------------------------------------

/// Slice [start, end) along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end);

// ---- Graph kernels (axis-1 of [B, N, H]) -----------------------------------

/// out[b, e, :] = t[b, indices[e], :].  t is [B, N, H], result [B, E, H].
/// Also accepts 2-D [N, H] -> [E, H].
Tensor GatherAxis1(const Tensor& t, const std::vector<int32_t>& indices);

/// out[b, indices[e], :] += src[b, e, :].  src is [B, E, H], result
/// [B, num_rows, H]. Also accepts 2-D [E, H] -> [num_rows, H].
Tensor ScatterAddAxis1(const Tensor& src, const std::vector<int32_t>& indices,
                       int64_t num_rows);

/// Per-batch softmax over groups of entries that share a segment id:
/// out[b, e] = exp(s[b,e] - max_seg) / sum_{e': seg[e']=seg[e]} exp(...).
/// scores is [B, E] (or [E]); segments has length E with values in
/// [0, num_segments). Empty segments are fine.
Tensor SegmentSoftmaxAxis1(const Tensor& scores,
                           const std::vector<int32_t>& segments,
                           int64_t num_segments);

/// Per-batch segment sum: out[b, seg[e]] += values[b, e]; result
/// [B, num_segments] (or [num_segments] for 1-D input).
Tensor SegmentSumAxis1(const Tensor& values,
                       const std::vector<int32_t>& segments,
                       int64_t num_segments);

// ---- Preallocated-output kernels (tape-free inference engine) --------------
//
// These variants write into caller-owned tensors so the engine's per-thread
// workspaces (engine/inference_context.h) are reused across calls: no
// allocation and no redundant zero-fill on the hot path. `out` must already
// have the documented shape (the engine acquires it at the right size).

/// out = act(x W + bias along the last axis) in one kernel pass (the
/// kernel table's matmul: the bias seeds each output, ELU when `elu` is
/// applied before the store). x is [*, in] with the weight shared over all
/// leading axes; out must hold numel(x)/in * out_features elements (its
/// exact shape is the caller's business — [B, N] outputs of [in, 1]
/// weights flatten for free). bias may be null. Overwrites out.
void LinearInto(const Tensor& x, const Tensor& w, const Tensor* bias,
                bool elu, Tensor& out);

/// Two matrix-vector products in one pass over x: out1 = x w1, out2 = x w2
/// with w1 / w2 of shape [k] or [k, 1] and x of shape [*, k]. Reads x once
/// — the GAT source/destination logit pair. Overwrites out1 / out2 (each
/// holding numel(x)/k elements).
void DualMatVecInto(const Tensor& x, const Tensor& w1, const Tensor& w2,
                    Tensor& out1, Tensor& out2);

/// The message-passing aggregation of a GNN layer, one destination row at
/// a time in CSR-by-destination order (FeatureGraph::csr_by_dst: `offsets`
/// has N + 1 entries and order[offsets[v] .. offsets[v+1]) lists the arcs
/// into node v, ascending). For every batch row b and node v:
///   out[b, v, :] = act(seed + sum over those arcs e, in order, of
///                      coeff(b, e) * x[b, src[e], :])
/// The seed is `bias` ([H]) when non-null, else self_scale * x[b, v, :]
/// (GIN's (1 + eps) h, a plain multiply). coeff(b, e) is coeff[e] when coeff
/// holds E values (one weight per arc, e.g. GCN's normalization), coeff[b *
/// E + e] when it holds B * E (GAT's attention), or 1 when coeff is null
/// (GIN's neighbour sum); each product adds with one FusedMulAdd. act is
/// ELU (the kernel table's `elu`) when `elu`, else the identity. x and out
/// are [B, N, H] (or 2-D [N, H]) of equal shape and must not alias. Each
/// row is written once, so out needs no clearing.
void CsrAggregateInto(const Tensor& x, const std::vector<int64_t>& offsets,
                      const std::vector<int32_t>& order,
                      const std::vector<int32_t>& src, const Tensor* coeff,
                      const Tensor* bias, float self_scale, bool elu,
                      Tensor& out);

/// Per-arc GAT logits: out[b, e] = LeakyRelu(ls[b, src[e]] + ld[b, dst[e]]).
/// ls and ld hold B*N elements ([B, N] or [B, N, 1]); out holds B*E.
void ArcScoreInto(const Tensor& logit_src, const Tensor& logit_dst,
                  const std::vector<int32_t>& src,
                  const std::vector<int32_t>& dst, float negative_slope,
                  Tensor& out);

/// In-place segment softmax over CSR-grouped entries: `offsets` has one
/// entry per segment plus an end sentinel, and order[offsets[s] ..
/// offsets[s+1]) lists the entry ids of segment s. scores holds B*E
/// elements; each segment of each batch row is softmaxed independently.
void SegmentSoftmaxCsrInPlace(Tensor& scores,
                              const std::vector<int64_t>& offsets,
                              const std::vector<int32_t>& order);

// ---- Fused backward kernels (training fast path) ---------------------------
//
// Accumulating counterparts of the gradient formulas in autograd/ops.cc:
// each reads the upstream gradient once and adds (+=) straight into the
// destination — a tape node's gradient, a parameter's gradient, or a
// per-shard gradient sink — replacing the allocate-temporary-then-
// AccumulateGrad pattern. Element counts must match; exact shapes are the
// caller's contract (gradients are accumulated through Reshape for free).

/// out += s * x (equal numel).
void AddScaledInto(const Tensor& x, float s, Tensor& out);

/// out += s * a * b (equal numel; the Mul/Square backward).
void AddProductInto(const Tensor& a, const Tensor& b, float s, Tensor& out);

/// out += broadcast(g): g is out's shape with some axes of size 1, or a
/// single element. The Sum/SumAll backward without the zeros temporary.
void BroadcastAddInto(const Tensor& g, Tensor& out);

/// out[k, n] += A^T B with a of shape [*, m, k] (leading axes flattened)
/// and b [*, m, n]: the dW of a shared-weight matmul, fused into the
/// accumulation target.
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor& out);

/// out[..., m, k] += A B^T with b [k, n]: the dX of y = x W.
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor& out);

/// out += g * (x > 0 ? 1 : negative_slope).
void LeakyReluBackwardInto(const Tensor& x, float negative_slope,
                           const Tensor& g, Tensor& out);

/// out += g * (x > 0 ? 1 : y + alpha), with y = elu(x) saved from forward.
/// Branch-free inner select so the loop vectorizes.
void EluBackwardInto(const Tensor& x, const Tensor& y, float alpha,
                     const Tensor& g, Tensor& out);

/// out[b, indices[e], :] += src[b, e, :] (GatherAxis1 backward).
void ScatterAddAxis1Into(const Tensor& src,
                         const std::vector<int32_t>& indices, Tensor& out);

/// out[b, e, :] += t[b, indices[e], :] (ScatterAddAxis1 backward).
void GatherAddAxis1Into(const Tensor& t, const std::vector<int32_t>& indices,
                        Tensor& out);

}  // namespace dquag

#endif  // DQUAG_TENSOR_TENSOR_OPS_H_
