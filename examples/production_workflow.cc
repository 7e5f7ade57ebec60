// Production workflow: checkpointing and explanation.
//
// Demonstrates the deployment-oriented features built on top of the paper:
//   1. train once, Save() the pipeline, Load() it in a serving process;
//   2. explain WHY an instance was flagged (per-feature error shares +
//      GAT attention influences).

#include <cstdio>

#include "core/explainer.h"
#include "core/pipeline.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "util/logging.h"

using namespace dquag;  // NOLINT — example brevity

int main() {
  SetLogLevel(LogLevel::kWarning);
  Rng rng(61);
  Table clean = datasets::GenerateCreditCard(5000, rng);

  // --- Train once and checkpoint.
  DquagPipelineOptions options;
  options.config.epochs = 20;
  options.config.seed = 61;
  DquagPipeline trainer_side(std::move(options));
  if (!trainer_side.Fit(clean).ok()) return 1;
  const std::string checkpoint = "/tmp/dquag_pipeline.ckpt";
  if (!trainer_side.Save(checkpoint).ok()) return 1;
  std::printf("checkpoint written to %s\n", checkpoint.c_str());

  // --- "Serving" process restores it without retraining.
  auto loaded = DquagPipeline::Load(checkpoint);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  DquagPipeline& pipeline = *loaded;
  std::printf("restored pipeline: threshold %.5f, %zu relationships\n\n",
              pipeline.threshold(), pipeline.relationships().size());

  // --- Incoming dirty data.
  Table incoming = datasets::GenerateCreditCard(1000, rng);
  ErrorInjector injector(62);
  InjectionResult step1 =
      injector.InjectCreditEmploymentConflict(incoming, 0.1);
  InjectionResult step2 =
      injector.InjectNumericAnomalies(step1.table, {"AMT_INCOME_TOTAL"},
                                      0.05);
  Table dirty = step2.table;

  BatchVerdict verdict = pipeline.Validate(dirty);
  std::printf("incoming batch: %s (%.1f%% flagged)\n",
              verdict.is_dirty ? "DIRTY" : "clean",
              verdict.flagged_fraction * 100.0);

  // --- Explain the first flagged instance.
  if (!verdict.flagged_rows.empty()) {
    Explainer explainer(&pipeline);
    const size_t row = verdict.flagged_rows.front();
    std::printf("\nexplanation for row %zu:\n%s\n", row,
                explainer.Explain(dirty, row).ToString().c_str());
  }
  return 0;
}
