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

}  // namespace dquag
