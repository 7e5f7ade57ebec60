// Configurable GNN encoder stacks (paper §3.1.2, Table 2).
//
// The paper's model alternates GAT and GIN layers (GAT-GIN-GAT-GIN) with
// ELU between layers and one attention head per GAT layer. For the
// encoder-architecture ablation (Table 2) the same shell also builds pure
// GCN, GCN+GAT, GCN+GIN stacks and the Graph2Vec baseline. All variants map
// tokenized node features [B, N, H] to embeddings Z in [B, N, H]; the
// Graph2Vec variant consumes the raw rows instead (it has no message-passing
// notion of per-node input channels).

#ifndef DQUAG_GNN_ENCODER_H_
#define DQUAG_GNN_ENCODER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gnn/gat_layer.h"
#include "gnn/gcn_layer.h"
#include "gnn/gin_layer.h"
#include "gnn/graph2vec_encoder.h"
#include "gnn/layer.h"

namespace dquag {

/// Encoder architecture, matching the Table 2 column headers.
enum class EncoderKind {
  kGraph2Vec,
  kGcn,
  kGcnGat,
  kGcnGin,
  kGatGin,  // the paper's default
};

/// Parses "gat+gin", "gcn", "graph2vec", ... (case-insensitive).
StatusOr<EncoderKind> ParseEncoderKind(const std::string& name);
std::string EncoderKindName(EncoderKind kind);

struct GnnEncoderConfig {
  EncoderKind kind = EncoderKind::kGatGin;
  int64_t num_layers = 4;    // paper §4.4
  int64_t hidden_dim = 64;   // paper §4.4
};

class GnnEncoder : public Module {
 public:
  GnnEncoder(const FeatureGraph& graph, GnnEncoderConfig config, Rng& rng);

  /// tokens: [B, N, H] tokenized node features; raw_rows: [B, N] raw
  /// preprocessed values (used only by the Graph2Vec variant).
  VarPtr Forward(const VarPtr& tokens, const VarPtr& raw_rows) const;

  /// Tape-free forward through the stack; each layer but the last applies
  /// ELU inside the pass that writes its output. When a recorder is
  /// passed, every GAT layer snapshots its attention (opt-in diagnostic;
  /// the default path records nothing).
  Tensor& InferForward(const Tensor& tokens, const Tensor& raw_rows,
                       InferenceContext& ctx,
                       AttentionRecorder* recorder = nullptr) const;

  const GnnEncoderConfig& config() const { return config_; }

 private:
  GnnEncoderConfig config_;
  std::vector<std::unique_ptr<GnnLayer>> layers_;
  std::unique_ptr<Graph2VecEncoder> graph2vec_;
};

}  // namespace dquag

#endif  // DQUAG_GNN_ENCODER_H_
