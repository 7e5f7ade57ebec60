#include "core/model.h"

#include "autograd/ops.h"
#include "nn/init.h"
#include "tensor/simd.h"

namespace dquag {

FeatureDetokenizer::FeatureDetokenizer(int64_t num_features,
                                       int64_t embedding_dim, Rng& rng)
    : num_features_(num_features), embedding_dim_(embedding_dim) {
  weight_ = RegisterParameter(
      "weight", XavierUniform(num_features, embedding_dim, rng));
  bias_ = RegisterParameter("bias", Tensor::Zeros({num_features}));
}

VarPtr FeatureDetokenizer::Forward(const VarPtr& z) const {
  DQUAG_CHECK_EQ(z->value().ndim(), 3);
  DQUAG_CHECK_EQ(z->value().dim(1), num_features_);
  DQUAG_CHECK_EQ(z->value().dim(2), embedding_dim_);
  // [B, d, h] * [d, h] -> sum over h -> [B, d].
  VarPtr weighted = ag::Mul(z, weight_);
  VarPtr reduced = ag::Sum(weighted, /*axis=*/2);
  return ag::Add(reduced, bias_);
}

ReconstructionDecoder::ReconstructionDecoder(int64_t num_features,
                                             int64_t hidden_dim, Rng& rng) {
  mlp_ = std::make_unique<Mlp>(std::vector<int64_t>{hidden_dim, hidden_dim},
                               rng, /*activate_last=*/true);
  readout_ = std::make_unique<FeatureDetokenizer>(num_features, hidden_dim,
                                                  rng);
  RegisterModule(mlp_.get());
  RegisterModule(readout_.get());
}

VarPtr ReconstructionDecoder::Forward(const VarPtr& z) const {
  return readout_->Forward(mlp_->Forward(z));
}

Tensor& FeatureDetokenizer::InferForward(const Tensor& z,
                                         InferenceContext& ctx) const {
  DQUAG_CHECK_EQ(z.ndim(), 3);
  DQUAG_CHECK_EQ(z.dim(1), num_features_);
  DQUAG_CHECK_EQ(z.dim(2), embedding_dim_);
  const int64_t batch = z.dim(0);
  const int64_t d = num_features_;
  const int64_t h = embedding_dim_;
  Tensor& out = ctx.Acquire({batch, d});
  simd::ActiveKernels().readout_dot(z.data(), weight_->value().data(),
                                    bias_->value().data(), out.data(), batch,
                                    d, h);
  return out;
}

Tensor& ReconstructionDecoder::InferForward(const Tensor& z,
                                            InferenceContext& ctx) const {
  return readout_->InferForward(mlp_->InferForward(z, ctx), ctx);
}

DquagModel::DquagModel(const FeatureGraph& graph, const DquagConfig& config,
                       Rng& rng)
    : num_features_(graph.num_nodes()) {
  const int64_t h = config.encoder.hidden_dim;
  tokenizer_ = std::make_unique<FeatureTokenizer>(num_features_, h, rng);
  encoder_ = std::make_unique<GnnEncoder>(graph, config.encoder, rng);
  validation_decoder_ =
      std::make_unique<ReconstructionDecoder>(num_features_, h, rng);
  repair_decoder_ =
      std::make_unique<ReconstructionDecoder>(num_features_, h, rng);
  RegisterModule(tokenizer_.get());
  RegisterModule(encoder_.get());
  RegisterModule(validation_decoder_.get());
  RegisterModule(repair_decoder_.get());
}

DquagForward DquagModel::Forward(const VarPtr& x) const {
  DQUAG_CHECK_EQ(x->value().ndim(), 2);
  DQUAG_CHECK_EQ(x->value().dim(1), num_features_);
  VarPtr tokens = tokenizer_->Forward(x);
  VarPtr z = encoder_->Forward(tokens, x);
  DquagForward out;
  out.validation = validation_decoder_->Forward(z);
  out.repair = repair_decoder_->Forward(z);
  return out;
}

const Tensor& DquagModel::InferReconstruction(
    const Tensor& x, InferenceContext& ctx,
    const ReconstructionDecoder& decoder, AttentionRecorder* recorder) const {
  DQUAG_CHECK_EQ(x.ndim(), 2);
  DQUAG_CHECK_EQ(x.dim(1), num_features_);
  const int64_t rows = x.dim(0);
  // Batches run in kRowBlock-row blocks: the preallocated arena makes
  // per-block dispatch free, which the allocating tape path could not
  // afford. Small batches take the same path as one block, so every arena
  // slot holds the same role at any batch size: a context that forwards a
  // chunk and then a few of its rows (validation, then repair) does not
  // grow past one forward's high-water mark.
  // Graph2Vec consumes the raw rows directly; skip the (discarded)
  // tokenizer pass for it.
  const bool tokenize =
      encoder_->config().kind != EncoderKind::kGraph2Vec;
  Tensor& out = ctx.Acquire({rows, num_features_});
  const size_t mark = ctx.Mark();
  for (int64_t start = 0; start < rows; start += kRowBlock) {
    const int64_t end = std::min(rows, start + kRowBlock);
    ctx.RewindTo(mark);
    Tensor& block = ctx.Acquire({end - start, num_features_});
    std::copy(x.data() + start * num_features_, x.data() + end * num_features_,
              block.data());
    const Tensor& tokens =
        tokenize ? tokenizer_->InferForward(block, ctx) : block;
    Tensor& z = encoder_->InferForward(tokens, block, ctx, recorder);
    const Tensor& head = decoder.InferForward(z, ctx);
    std::copy(head.data(), head.data() + head.numel(),
              out.data() + start * num_features_);
  }
  return out;
}

const Tensor& DquagModel::InferValidation(const Tensor& x,
                                          InferenceContext& ctx,
                                          AttentionRecorder* recorder) const {
  return InferReconstruction(x, ctx, *validation_decoder_, recorder);
}

const Tensor& DquagModel::InferRepair(const Tensor& x,
                                      InferenceContext& ctx) const {
  return InferReconstruction(x, ctx, *repair_decoder_, /*recorder=*/nullptr);
}

Tensor DquagModel::ReconstructValidation(const Tensor& x) const {
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  ctx.Rewind();
  return InferValidation(x, ctx);
}

Tensor DquagModel::ReconstructRepair(const Tensor& x) const {
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  ctx.Rewind();
  return InferRepair(x, ctx);
}

}  // namespace dquag
