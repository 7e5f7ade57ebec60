#include "core/explainer.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "engine/inference_context.h"

namespace dquag {

Explainer::Explainer(const DquagPipeline* pipeline) : pipeline_(pipeline) {
  DQUAG_CHECK(pipeline_ != nullptr);
  DQUAG_CHECK(pipeline_->fitted());
}

InstanceExplanation Explainer::Explain(const Table& batch, size_t row) const {
  DQUAG_CHECK_LT(static_cast<int64_t>(row), batch.num_rows());
  const Table single = batch.SliceRows(static_cast<int64_t>(row), 1);
  const Tensor x = pipeline_->preprocessor().Transform(single);

  // The verdict is the validator's own, so explain and validate agree on
  // the row's error, flag and suspect features bit for bit.
  const BatchVerdict verdict = pipeline_->validator().ValidateMatrix(x);
  DQUAG_CHECK_EQ(verdict.instances.size(), 1u);
  const InstanceVerdict& inst = verdict.instances[0];
  InstanceExplanation explanation;
  explanation.threshold = pipeline_->threshold();
  explanation.error = inst.error;
  explanation.flagged = inst.flagged;
  if (!explanation.flagged) return explanation;

  // Forward the row again on the engine with an attention recorder — the
  // interpretability hook the validation hot path does not pay for — and
  // through the repair head for the suggestions.
  const DquagModel& model = pipeline_->model();
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  ctx.Rewind();
  AttentionRecorder recorder;
  const Tensor& reconstruction = model.InferValidation(x, ctx, &recorder);
  const Tensor& suggestion = model.InferRepair(x, ctx);

  // Per-feature errors by the validator's rule: double deltas, summed in
  // column order.
  const int64_t d = x.dim(1);
  std::vector<double> feature_errors(static_cast<size_t>(d));
  double total_error = 0.0;
  for (int64_t c = 0; c < d; ++c) {
    const double delta = static_cast<double>(reconstruction(0, c)) - x(0, c);
    feature_errors[static_cast<size_t>(c)] = delta * delta;
    total_error += delta * delta;
  }

  // Aggregate incoming attention per destination feature across GAT layers.
  std::map<int64_t, std::map<int64_t, double>> attention_in;
  const auto& recorded = recorder.layers();
  for (const auto& layer_attention : recorded) {
    const auto& src = layer_attention.layer->arc_src();
    const auto& dst = layer_attention.layer->arc_dst();
    for (size_t e = 0; e < src.size(); ++e) {
      attention_in[dst[e]][src[e]] += layer_attention.alpha[e];
    }
  }
  const double norm =
      static_cast<double>(std::max<size_t>(1, recorded.size()));

  for (int64_t c : inst.suspect_features) {
    FeatureExplanation fe;
    fe.feature = c;
    fe.feature_name = batch.schema().column(c).name;
    fe.error_share = total_error > 0.0
                         ? feature_errors[static_cast<size_t>(c)] / total_error
                         : 0.0;
    fe.observed = x(0, c);
    fe.suggested = suggestion(0, c);
    auto it = attention_in.find(c);
    if (it != attention_in.end()) {
      for (const auto& [from, weight] : it->second) {
        fe.influences.push_back({from, weight / norm});
      }
      std::sort(fe.influences.begin(), fe.influences.end(),
                [](const AttentionEdge& a, const AttentionEdge& b) {
                  return a.weight > b.weight;
                });
    }
    explanation.features.push_back(std::move(fe));
  }
  return explanation;
}

std::string InstanceExplanation::ToString() const {
  std::ostringstream out;
  out << "error " << error << " vs threshold " << threshold << " -> "
      << (flagged ? "FLAGGED" : "ok");
  for (const FeatureExplanation& fe : features) {
    out << "\n  " << fe.feature_name << ": " << fe.error_share * 100.0
        << "% of error; observed " << fe.observed << ", suggested "
        << fe.suggested;
    if (!fe.influences.empty()) {
      out << "; influenced by";
      const size_t show = std::min<size_t>(3, fe.influences.size());
      for (size_t i = 0; i < show; ++i) {
        out << " #" << fe.influences[i].from_feature << " (w="
            << fe.influences[i].weight << ")";
      }
    }
  }
  return out.str();
}

}  // namespace dquag
