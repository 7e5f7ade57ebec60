#include "gnn/encoder.h"

#include "autograd/ops.h"
#include "util/string_utils.h"

namespace dquag {

StatusOr<EncoderKind> ParseEncoderKind(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "graph2vec") return EncoderKind::kGraph2Vec;
  if (lower == "gcn") return EncoderKind::kGcn;
  if (lower == "gcn+gat" || lower == "gcn_gat") return EncoderKind::kGcnGat;
  if (lower == "gcn+gin" || lower == "gcn_gin") return EncoderKind::kGcnGin;
  if (lower == "gat+gin" || lower == "gat_gin") return EncoderKind::kGatGin;
  return Status::InvalidArgument("unknown encoder kind: " + name);
}

std::string EncoderKindName(EncoderKind kind) {
  switch (kind) {
    case EncoderKind::kGraph2Vec: return "Graph2Vec";
    case EncoderKind::kGcn: return "GCN";
    case EncoderKind::kGcnGat: return "GCN+GAT";
    case EncoderKind::kGcnGin: return "GCN+GIN";
    case EncoderKind::kGatGin: return "GAT+GIN";
  }
  return "?";
}

GnnEncoder::GnnEncoder(const FeatureGraph& graph, GnnEncoderConfig config,
                       Rng& rng)
    : config_(config) {
  const int64_t h = config_.hidden_dim;
  if (config_.kind == EncoderKind::kGraph2Vec) {
    graph2vec_ = std::make_unique<Graph2VecEncoder>(graph, h, rng);
    RegisterModule(graph2vec_.get());
    return;
  }
  // One shared self-looped copy for the loop-wanting layer families (GCN,
  // GAT): its GCN normalization and CSR arc order are computed once and
  // cached for the whole stack instead of once per layer. GIN keeps the
  // raw graph — its center node enters through the (1 + ε) term.
  FeatureGraph looped = graph;
  looped.AddSelfLoops();

  // Alternating stacks: even layer index takes the first family, odd the
  // second (pure GCN repeats GCN).
  for (int64_t i = 0; i < config_.num_layers; ++i) {
    const bool even = i % 2 == 0;
    std::unique_ptr<GnnLayer> layer;
    switch (config_.kind) {
      case EncoderKind::kGcn:
        layer = std::make_unique<GcnLayer>(looped, h, h, rng);
        break;
      case EncoderKind::kGcnGat:
        if (even) {
          layer = std::make_unique<GcnLayer>(looped, h, h, rng);
        } else {
          layer = std::make_unique<GatLayer>(looped, h, h, rng);
        }
        break;
      case EncoderKind::kGcnGin:
        if (even) {
          layer = std::make_unique<GcnLayer>(looped, h, h, rng);
        } else {
          layer = std::make_unique<GinLayer>(graph, h, h, rng);
        }
        break;
      case EncoderKind::kGatGin:
        if (even) {
          layer = std::make_unique<GatLayer>(looped, h, h, rng);
        } else {
          layer = std::make_unique<GinLayer>(graph, h, h, rng);
        }
        break;
      case EncoderKind::kGraph2Vec:
        DQUAG_CHECK(false);
    }
    RegisterModule(layer.get());
    layers_.push_back(std::move(layer));
  }
}

VarPtr GnnEncoder::Forward(const VarPtr& tokens,
                           const VarPtr& raw_rows) const {
  if (graph2vec_) return graph2vec_->Forward(raw_rows);
  VarPtr h = tokens;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) {
      h = ag::Elu(h);
    }
  }
  return h;
}

Tensor& GnnEncoder::InferForward(const Tensor& tokens, const Tensor& raw_rows,
                                 InferenceContext& ctx,
                                 AttentionRecorder* recorder) const {
  if (graph2vec_) return graph2vec_->InferForward(raw_rows, ctx);
  const Tensor* h = &tokens;
  Tensor* out = nullptr;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool elu_out = i + 1 < layers_.size();
    const auto* gat =
        recorder != nullptr ? dynamic_cast<const GatLayer*>(layers_[i].get())
                            : nullptr;
    out = gat != nullptr ? &gat->InferForward(*h, ctx, elu_out, recorder)
                         : &layers_[i]->InferForward(*h, ctx, elu_out);
    h = out;
  }
  return *out;
}

}  // namespace dquag
