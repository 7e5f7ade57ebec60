#include "engine/quantized_linear.h"

#include "tensor/simd.h"
#include "util/logging.h"

namespace dquag {

void QuantizedLinearInto(const Tensor& x, const QuantizedWeight& qw,
                         const Tensor* bias, InferenceContext& ctx,
                         Tensor& out) {
  const int64_t k = qw.in;
  const int64_t n = qw.out;
  DQUAG_CHECK_EQ(x.dim(-1), k);
  DQUAG_CHECK_EQ(x.numel() % k, 0);
  const int64_t rows = x.numel() / k;
  DQUAG_CHECK_EQ(out.numel(), rows * n);
  if (bias != nullptr) DQUAG_CHECK_EQ(bias->numel(), n);
  DQUAG_CHECK(!qw.packed.empty());
  const int64_t kp = qw.in_padded();

  const auto& kt = simd::ActiveKernels();
  int8_t* xq = static_cast<int8_t*>(ctx.AcquireBytes(rows * kp));
  Tensor& xscales = ctx.Acquire({rows});
  const float* pb = bias != nullptr ? bias->data() : nullptr;

  kt.quantize_rows(x.data(), rows, k, kp, xq, xscales.data());
  kt.qgemm(xq, xscales.data(), qw.packed.data(), qw.scales.data(), pb,
           out.data(), rows, kp, n);
}

QuantizedActivation QuantizeActivation(const Tensor& x, int64_t k,
                                       InferenceContext& ctx) {
  DQUAG_CHECK_EQ(x.dim(-1), k);
  DQUAG_CHECK_EQ(x.numel() % k, 0);
  const int64_t rows = x.numel() / k;
  const int64_t kp = (k + 1) & ~int64_t{1};

  QuantizedActivation act;
  act.rows = rows;
  act.k_padded = kp;
  int8_t* xq = static_cast<int8_t*>(ctx.AcquireBytes(rows * kp));
  Tensor& xscales = ctx.Acquire({rows});
  simd::ActiveKernels().quantize_rows(x.data(), rows, k, kp, xq,
                                      xscales.data());
  act.xq = xq;
  act.scales = xscales.data();
  return act;
}

void QuantizedGemmInto(const QuantizedActivation& act,
                       const QuantizedWeight& qw, const Tensor* bias,
                       Tensor& out) {
  const int64_t n = qw.out;
  DQUAG_CHECK_EQ(act.k_padded, qw.in_padded());
  DQUAG_CHECK_EQ(out.numel(), act.rows * n);
  if (bias != nullptr) DQUAG_CHECK_EQ(bias->numel(), n);
  DQUAG_CHECK(!qw.packed.empty());
  const float* pb = bias != nullptr ? bias->data() : nullptr;

  simd::ActiveKernels().qgemm(act.xq, act.scales, qw.packed.data(),
                              qw.scales.data(), pb, out.data(), act.rows,
                              act.k_padded, n);
}

}  // namespace dquag
