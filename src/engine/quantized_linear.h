// Engine-side entry point for int8 quantized linear layers.
//
// Sits between the module layer (Linear / GCN / GAT projections decide
// *whether* to quantize from InferenceContext::quantized()) and the SIMD
// kernel table (quantize_rows + qgemm do the arithmetic). Scratch for the
// int8 activations and per-row scales comes from the caller's arena, so
// the steady-state quantized pass allocates nothing.

#ifndef DQUAG_ENGINE_QUANTIZED_LINEAR_H_
#define DQUAG_ENGINE_QUANTIZED_LINEAR_H_

#include "engine/inference_context.h"
#include "tensor/quantized.h"
#include "tensor/tensor.h"

namespace dquag {

/// out[rows, qw.out] = dequant(quant(x) @ qw) + bias. x is any tensor whose
/// trailing dimension is qw.in (rows = numel / in); bias may be null. out
/// must be preallocated to rows * qw.out and is fully overwritten (no
/// bias-seeding pass — the quantized kernel writes each output once).
void QuantizedLinearInto(const Tensor& x, const QuantizedWeight& qw,
                         const Tensor* bias, InferenceContext& ctx,
                         Tensor& out);

}  // namespace dquag

#endif  // DQUAG_ENGINE_QUANTIZED_LINEAR_H_
