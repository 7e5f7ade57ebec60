#include "autograd/ops.h"

#include <utility>

namespace dquag {
namespace ag {

namespace {

bool AnyRequiresGrad(const std::vector<VarPtr>& parents) {
  for (const VarPtr& p : parents) {
    if (p->requires_grad()) return true;
  }
  return false;
}

/// Builds the output node; attaches the tape edge only when some parent
/// participates in gradient computation.
VarPtr MakeOp(Tensor value, std::vector<VarPtr> parents,
              std::function<void(Variable&)> backward_fn) {
  const bool track = GradEnabled() && AnyRequiresGrad(parents);
  VarPtr out = MakeVar(std::move(value), track);
  if (track) out->set_backward(std::move(parents), std::move(backward_fn));
  return out;
}

/// Accumulates `scale * grad` into the target's gradient (or its shard
/// sink), reducing over broadcast axes first. The equal-shape fast path is
/// a single fused pass — no ReduceToShape copy, no Neg/MulScalar temporary.
void AccumulateScaled(const VarPtr& target, const Tensor& grad,
                      float scale = 1.0f) {
  if (!target->requires_grad()) return;
  Tensor& dst = target->grad_ref();
  if (grad.shape() == target->value().shape()) {
    AddScaledInto(grad, scale, dst);
    return;
  }
  Tensor reduced = ReduceToShape(grad, target->value().shape());
  AddScaledInto(reduced, scale, dst);
}

}  // namespace

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  return MakeOp(dquag::Add(a->value(), b->value()), {a, b},
                [a, b](Variable& out) {
                  AccumulateScaled(a, out.grad());
                  AccumulateScaled(b, out.grad());
                });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  return MakeOp(dquag::Sub(a->value(), b->value()), {a, b},
                [a, b](Variable& out) {
                  AccumulateScaled(a, out.grad());
                  AccumulateScaled(b, out.grad(), -1.0f);
                });
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  return MakeOp(
      dquag::Mul(a->value(), b->value()), {a, b}, [a, b](Variable& out) {
        const Tensor& g = out.grad();
        const bool same_shape = a->value().shape() == g.shape() &&
                                b->value().shape() == g.shape();
        if (a->requires_grad()) {
          if (same_shape) {
            AddProductInto(g, b->value(), 1.0f, a->grad_ref());
          } else {
            AccumulateScaled(a, dquag::Mul(g, b->value()));
          }
        }
        if (b->requires_grad()) {
          if (same_shape) {
            AddProductInto(g, a->value(), 1.0f, b->grad_ref());
          } else {
            AccumulateScaled(b, dquag::Mul(g, a->value()));
          }
        }
      });
}

VarPtr AddScalar(const VarPtr& a, float s) {
  return MakeOp(dquag::AddScalar(a->value(), s), {a},
                [a](Variable& out) { AccumulateScaled(a, out.grad()); });
}

VarPtr MulScalar(const VarPtr& a, float s) {
  return MakeOp(dquag::MulScalar(a->value(), s), {a},
                [a, s](Variable& out) {
                  AccumulateScaled(a, out.grad(), s);
                });
}

VarPtr LeakyRelu(const VarPtr& a, float negative_slope) {
  return MakeOp(dquag::LeakyRelu(a->value(), negative_slope), {a},
                [a, negative_slope](Variable& out) {
                  if (!a->requires_grad()) return;
                  LeakyReluBackwardInto(a->value(), negative_slope,
                                        out.grad(), a->grad_ref());
                });
}

VarPtr Elu(const VarPtr& a, float alpha) {
  Tensor y = dquag::Elu(a->value(), alpha);
  return MakeOp(std::move(y), {a}, [a, alpha](Variable& out) {
    if (!a->requires_grad()) return;
    EluBackwardInto(a->value(), out.value(), alpha, out.grad(),
                    a->grad_ref());
  });
}

VarPtr Square(const VarPtr& a) {
  return MakeOp(dquag::Square(a->value()), {a}, [a](Variable& out) {
    if (!a->requires_grad()) return;
    AddProductInto(out.grad(), a->value(), 2.0f, a->grad_ref());
  });
}

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  return MakeOp(
      dquag::MatMul(a->value(), b->value()), {a, b}, [a, b](Variable& out) {
        const Tensor& g = out.grad();
        const Tensor& av = a->value();
        const Tensor& bv = b->value();
        if (a->requires_grad()) {
          if (bv.ndim() == 2) {
            // dA += G B^T: transpose-free, fused into the accumulation
            // target (the register-tiled kernels accumulate natively).
            MatMulTransBAcc(g, bv, a->grad_ref());
          } else {
            a->AccumulateGrad(dquag::MatMul(g, dquag::TransposeLast2(bv)));
          }
        }
        if (b->requires_grad()) {
          if (bv.ndim() == 2) {
            // Shared weight: dB += sum over all leading axes of A^T G.
            MatMulTransAAcc(av, g, b->grad_ref());
          } else {
            b->AccumulateGrad(dquag::MatMul(dquag::TransposeLast2(av), g));
          }
        }
      });
}

VarPtr Reshape(const VarPtr& a, Shape new_shape) {
  Tensor y = a->value().Reshape(std::move(new_shape));
  return MakeOp(std::move(y), {a}, [a](Variable& out) {
    if (!a->requires_grad()) return;
    // Reshape is layout-free: accumulate elementwise, no gradient copy.
    AddScaledInto(out.grad(), 1.0f, a->grad_ref());
  });
}

VarPtr Sum(const VarPtr& a, int64_t axis, bool keepdims) {
  const int64_t norm_axis = axis < 0 ? axis + a->value().ndim() : axis;
  Tensor y = dquag::Sum(a->value(), norm_axis, keepdims);
  return MakeOp(std::move(y), {a}, [a, norm_axis](Variable& out) {
    if (!a->requires_grad()) return;
    // Broadcast g back over the summed axis directly into the gradient; g
    // has the same flat layout with or without the kept size-1 axis, so no
    // reshape is needed.
    Tensor& dst = a->grad_ref();
    const Tensor& g = out.grad();
    int64_t outer = 1, inner = 1;
    const int64_t reduced = dst.dim(norm_axis);
    for (int64_t i = 0; i < norm_axis; ++i) outer *= dst.dim(i);
    for (int64_t i = norm_axis + 1; i < dst.ndim(); ++i) inner *= dst.dim(i);
    const float* pg = g.data();
    float* pd = dst.data();
    for (int64_t o = 0; o < outer; ++o) {
      const float* from = pg + o * inner;
      for (int64_t r = 0; r < reduced; ++r) {
        float* to = pd + (o * reduced + r) * inner;
        for (int64_t i = 0; i < inner; ++i) to[i] += from[i];
      }
    }
  });
}

VarPtr Mean(const VarPtr& a, int64_t axis, bool keepdims) {
  const int64_t norm_axis = axis < 0 ? axis + a->value().ndim() : axis;
  const float scale = 1.0f / static_cast<float>(a->value().dim(norm_axis));
  return MulScalar(Sum(a, norm_axis, keepdims), scale);
}

VarPtr SumAll(const VarPtr& a) {
  Tensor y = Tensor::Scalar(dquag::SumAll(a->value()));
  return MakeOp(std::move(y), {a}, [a](Variable& out) {
    if (!a->requires_grad()) return;
    BroadcastAddInto(out.grad(), a->grad_ref());
  });
}

VarPtr GatherAxis1(const VarPtr& t, std::vector<int32_t> indices) {
  Tensor y = dquag::GatherAxis1(t->value(), indices);
  return MakeOp(std::move(y), {t},
                [t, indices = std::move(indices)](Variable& out) {
                  if (!t->requires_grad()) return;
                  ScatterAddAxis1Into(out.grad(), indices, t->grad_ref());
                });
}

VarPtr ScatterAddAxis1(const VarPtr& src, std::vector<int32_t> indices,
                       int64_t num_rows) {
  Tensor y = dquag::ScatterAddAxis1(src->value(), indices, num_rows);
  return MakeOp(std::move(y), {src},
                [src, indices = std::move(indices)](Variable& out) {
                  if (!src->requires_grad()) return;
                  GatherAddAxis1Into(out.grad(), indices, src->grad_ref());
                });
}

VarPtr SegmentSoftmaxAxis1(const VarPtr& scores, std::vector<int32_t> segments,
                           int64_t num_segments) {
  Tensor y = dquag::SegmentSoftmaxAxis1(scores->value(), segments,
                                        num_segments);
  return MakeOp(
      std::move(y), {scores},
      [scores, segments = std::move(segments),
       num_segments](Variable& out) {
        if (!scores->requires_grad()) return;
        // dy/ds within a segment: ds_e = y_e * (g_e - sum_seg(g * y)),
        // accumulated straight into the gradient (no ds temporary).
        const Tensor& yv = out.value();
        const Tensor& g = out.grad();
        Tensor gy = dquag::Mul(g, yv);
        Tensor seg_sums = dquag::SegmentSumAxis1(gy, segments, num_segments);
        Tensor& dst = scores->grad_ref();
        const bool is_1d = yv.ndim() == 1;
        const int64_t batch = is_1d ? 1 : yv.dim(0);
        const int64_t num = is_1d ? yv.dim(0) : yv.dim(1);
        const float* py = yv.data();
        const float* pg = g.data();
        const float* psum = seg_sums.data();
        float* pd = dst.data();
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t e = 0; e < num; ++e) {
            const int64_t i = b * num + e;
            const int32_t s = segments[static_cast<size_t>(e)];
            pd[i] += py[i] * (pg[i] - psum[b * num_segments + s]);
          }
        }
      });
}

}  // namespace ag
}  // namespace dquag
