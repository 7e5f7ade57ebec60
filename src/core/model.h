// The DQuaG network: shared GNN encoder + dual decoders (paper §3.1.2).
//
//   X [B, d]  --FeatureTokenizer-->  H0 [B, d, h]
//             --GnnEncoder------->   Z  [B, d, h]
//             --ValidationDecoder--> X_hat   [B, d]   (quality validation)
//             --RepairDecoder------> X_tilde [B, d]   (repair suggestion)
//
// Both decoders share the structure MLP(h -> h) + per-feature read-out; they
// differ only in their loss (weighted vs plain MSE) and downstream use. The
// encoder is shared across the two tasks — the multi-task setup of §3.1.2.

#ifndef DQUAG_CORE_MODEL_H_
#define DQUAG_CORE_MODEL_H_

#include <cstdint>
#include <memory>

#include "core/config.h"
#include "nn/feature_tokenizer.h"
#include "nn/linear.h"

namespace dquag {

/// Per-feature read-out: x_hat[b, f] = <Z'[b, f, :], V[f, :]> + c[f].
/// The mirror image of FeatureTokenizer — every column owns its projection.
class FeatureDetokenizer : public Module {
 public:
  FeatureDetokenizer(int64_t num_features, int64_t embedding_dim, Rng& rng);

  /// z: [B, d, h] -> [B, d].
  VarPtr Forward(const VarPtr& z) const;

  /// Tape-free forward: one fused dot-product pass into the workspace.
  Tensor& InferForward(const Tensor& z, InferenceContext& ctx) const;

 private:
  int64_t num_features_;
  int64_t embedding_dim_;
  VarPtr weight_;  // [d, h]
  VarPtr bias_;    // [d] (stored as [d, 1]-free vector)
};

/// One decoder head: Linear + ELU over embeddings, then per-feature read-out.
class ReconstructionDecoder : public Module {
 public:
  ReconstructionDecoder(int64_t num_features, int64_t hidden_dim, Rng& rng);

  /// z: [B, d, h] -> [B, d].
  VarPtr Forward(const VarPtr& z) const;

  /// Tape-free forward through the shared MLP and the read-out.
  Tensor& InferForward(const Tensor& z, InferenceContext& ctx) const;

 private:
  std::unique_ptr<Mlp> mlp_;
  std::unique_ptr<FeatureDetokenizer> readout_;
};

struct DquagForward {
  VarPtr validation;  // X_hat   [B, d]
  VarPtr repair;      // X_tilde [B, d]
};

class DquagModel : public Module {
 public:
  /// `graph` is the feature graph over the (preprocessed) columns.
  DquagModel(const FeatureGraph& graph, const DquagConfig& config, Rng& rng);

  /// Full tape forward through both decoders (training). `x` is [B, d]
  /// preprocessed rows.
  DquagForward Forward(const VarPtr& x) const;

  // ---- Tape-free inference engine -----------------------------------------
  //
  // The Infer* methods run entirely on `ctx` workspaces: no tape nodes, no
  // allocation after warm-up, fused message-passing kernels. The caller
  // owns the pass lifetime: ctx.Rewind() once before staging inputs /
  // calling, and treat results as valid until the next Rewind. One context
  // per thread (InferenceContext::ThreadLocal()) makes concurrent
  // inference on a shared fitted model race-free.

  /// Rows per engine forward block. The Infer* methods walk any batch in
  /// blocks of this many rows so every [block, d, h] workspace stays
  /// cache-resident, and every inference pass above the model (validator,
  /// repairer, calibration errors) partitions its rows by the same unit.
  /// Rows are independent, so the partition never changes a result.
  static constexpr int64_t kRowBlock = 256;

  /// Engine forward of the validation head: [B, d] -> [B, d]. With a
  /// recorder, every GAT layer appends the attention of each block's first
  /// row (diagnostics; a one-row x records that row's attention).
  const Tensor& InferValidation(const Tensor& x, InferenceContext& ctx,
                                AttentionRecorder* recorder = nullptr) const;

  /// Engine forward of the repair head: [B, d] -> [B, d].
  const Tensor& InferRepair(const Tensor& x, InferenceContext& ctx) const;

  /// Convenience wrappers over the engine using the calling thread's
  /// context; the result is copied out so it survives later passes.
  Tensor ReconstructValidation(const Tensor& x) const;
  Tensor ReconstructRepair(const Tensor& x) const;

  int64_t num_features() const { return num_features_; }
  const GnnEncoder& encoder() const { return *encoder_; }

 private:
  /// Engine forward of one decoder head in kRowBlock-row blocks.
  const Tensor& InferReconstruction(const Tensor& x, InferenceContext& ctx,
                                    const ReconstructionDecoder& decoder,
                                    AttentionRecorder* recorder) const;

  int64_t num_features_;
  std::unique_ptr<FeatureTokenizer> tokenizer_;
  std::unique_ptr<GnnEncoder> encoder_;
  std::unique_ptr<ReconstructionDecoder> validation_decoder_;
  std::unique_ptr<ReconstructionDecoder> repair_decoder_;
};

}  // namespace dquag

#endif  // DQUAG_CORE_MODEL_H_
