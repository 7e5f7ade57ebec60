// Tests for the core DQuaG components: model shapes, trainer behaviour,
// error statistics, validator rules, repairer semantics, and config knobs.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "util/thread_pool.h"

namespace dquag {
namespace {

FeatureGraph SmallGraph() {
  FeatureGraph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  return g;
}

DquagConfig SmallConfig() {
  DquagConfig config;
  config.encoder.hidden_dim = 16;
  config.encoder.num_layers = 2;
  config.epochs = 8;
  config.batch_size = 64;
  return config;
}

// ---- Model ---------------------------------------------------------------------

TEST(DquagModelTest, ForwardShapes) {
  Rng rng(1);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  VarPtr x = MakeVar(Tensor::RandUniform({10, 4}, rng, 0.0f, 1.0f));
  DquagForward out = model.Forward(x);
  EXPECT_EQ(out.validation->value().shape(), (Shape{10, 4}));
  EXPECT_EQ(out.repair->value().shape(), (Shape{10, 4}));
  EXPECT_EQ(out.embeddings->value().shape(), (Shape{10, 4, 16}));
}

TEST(DquagModelTest, DualDecodersAreIndependent) {
  Rng rng(2);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  VarPtr x = MakeVar(Tensor::RandUniform({5, 4}, rng, 0.0f, 1.0f));
  DquagForward out = model.Forward(x);
  // Freshly initialized decoders have different weights -> different
  // outputs from the same embedding.
  EXPECT_FALSE(
      out.validation->value().AllClose(out.repair->value(), 1e-6f));
}

TEST(DquagModelTest, InferencePathsMatchForwardValues) {
  Rng rng(3);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  Tensor x = Tensor::RandUniform({6, 4}, rng, 0.0f, 1.0f);
  DquagForward out = model.Forward(MakeVar(x));
  EXPECT_TRUE(
      model.ReconstructValidation(x).AllClose(out.validation->value(),
                                              1e-5f));
  EXPECT_TRUE(
      model.ReconstructRepair(x).AllClose(out.repair->value(), 1e-5f));
}

TEST(DquagModelTest, SharedEncoderParameterCount) {
  Rng rng(4);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  // tokenizer + encoder + 2 decoders all registered.
  EXPECT_GT(model.NumParameters(), 0);
  EXPECT_GT(model.Parameters().size(), 8u);
}

// ---- Error statistics -----------------------------------------------------------

TEST(ErrorStatsTest, PercentileInterpolates) {
  std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.95), 7.0);
}

TEST(ErrorStatsTest, FromErrorsSummaries) {
  std::vector<double> errors = {0.1, 0.2, 0.3, 0.4, 10.0};
  ErrorStatistics stats = ErrorStatistics::FromErrors(errors, 0.95);
  EXPECT_DOUBLE_EQ(stats.min, 0.1);
  EXPECT_DOUBLE_EQ(stats.max, 10.0);
  EXPECT_NEAR(stats.mean, 2.2, 1e-9);
  EXPECT_GT(stats.threshold, 0.4);   // 95th percentile sits near the top
  EXPECT_LT(stats.threshold, 10.0);  // but below the max (paper §3.1.4)
}

// ---- Trainer --------------------------------------------------------------------

TEST(TrainerTest, LossDecreases) {
  Rng rng(5);
  DquagConfig config = SmallConfig();
  config.epochs = 12;
  DquagModel model(SmallGraph(), config, rng);
  Trainer trainer(&model, config);
  // Learnable structure: x1 = x0, x3 = 1 - x2.
  Tensor data({256, 4});
  Rng data_rng(6);
  for (int64_t r = 0; r < 256; ++r) {
    const float a = static_cast<float>(data_rng.Uniform());
    const float b = static_cast<float>(data_rng.Uniform());
    data(r, 0) = a;
    data(r, 1) = a;
    data(r, 2) = b;
    data(r, 3) = 1.0f - b;
  }
  TrainingReport report = trainer.Fit(data);
  ASSERT_EQ(report.epochs_run, 12);
  EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front() * 0.8);
  EXPECT_GT(report.error_statistics.threshold, 0.0);
  EXPECT_FALSE(report.clean_errors.empty());
}

TEST(TrainerTest, ThresholdNearConfiguredPercentile) {
  Rng rng(7);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  Trainer trainer(&model, config);
  Tensor data = Tensor::RandUniform({300, 4}, rng, 0.0f, 1.0f);
  TrainingReport report = trainer.Fit(data);
  // About 5% of calibration errors should exceed the 95th percentile.
  int64_t above = 0;
  for (double e : report.clean_errors) {
    if (e > report.error_statistics.threshold) ++above;
  }
  const double fraction =
      static_cast<double>(above) /
      static_cast<double>(report.clean_errors.size());
  EXPECT_NEAR(fraction, 0.05, 0.03);
}

// ---- Validator -----------------------------------------------------------------

TEST(ValidatorTest, BatchRuleUsesMultiplier) {
  Rng rng(8);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  Validator validator(&model, /*threshold=*/0.5, config);
  // cutoff = (1 - 0.95) * 1.2 = 6%.
  EXPECT_NEAR(validator.batch_cutoff(), 0.06, 1e-9);
}

TEST(ValidatorTest, FlagsInstancesAboveThreshold) {
  Rng rng(9);
  DquagConfig config = SmallConfig();
  config.epochs = 10;
  DquagModel model(SmallGraph(), config, rng);
  Trainer trainer(&model, config);
  Tensor data = Tensor::RandUniform({300, 4}, rng, 0.3f, 0.7f);
  TrainingReport report = trainer.Fit(data);
  Validator validator(&model, report.error_statistics.threshold, config);
  // A matrix with obviously out-of-range cells must flag those rows.
  Tensor probe = Tensor::RandUniform({50, 4}, rng, 0.3f, 0.7f);
  for (int64_t r = 0; r < 20; ++r) probe(r, 2) = 5.0f;
  BatchVerdict verdict = validator.ValidateMatrix(probe);
  int64_t corrupted_flagged = 0;
  for (size_t row : verdict.flagged_rows) {
    if (row < 20) ++corrupted_flagged;
  }
  EXPECT_GE(corrupted_flagged, 18);
  EXPECT_TRUE(verdict.is_dirty);
}

TEST(ValidatorTest, SuspectFeaturesPointAtCorruptedColumn) {
  Rng rng(10);
  DquagConfig config = SmallConfig();
  config.epochs = 10;
  DquagModel model(SmallGraph(), config, rng);
  Trainer trainer(&model, config);
  Tensor data = Tensor::RandUniform({300, 4}, rng, 0.3f, 0.7f);
  TrainingReport report = trainer.Fit(data);
  Validator validator(&model, report.error_statistics.threshold, config);
  Tensor probe = Tensor::RandUniform({20, 4}, rng, 0.3f, 0.7f);
  for (int64_t r = 0; r < 20; ++r) probe(r, 1) = 6.0f;
  BatchVerdict verdict = validator.ValidateMatrix(probe);
  int64_t column1_blamed = 0;
  for (size_t row : verdict.flagged_rows) {
    for (int64_t c : verdict.instances[row].suspect_features) {
      if (c == 1) ++column1_blamed;
    }
  }
  EXPECT_GT(column1_blamed, 0);
}

TEST(ValidatorTest, EmptyAndChunkedValidationAgree) {
  Rng rng(11);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  // Two full model row blocks and a partial last one.
  const int64_t rows = 600;
  Tensor probe = Tensor::RandUniform({rows, 4}, rng, 0.0f, 1.0f);
  // Threshold at the median error, so about half the rows are flagged and
  // carry suspect features.
  std::vector<double> errors;
  for (const InstanceVerdict& inst :
       Validator(&model, 0.0, config).ValidateMatrix(probe).instances) {
    errors.push_back(inst.error);
  }
  std::nth_element(errors.begin(), errors.begin() + rows / 2, errors.end());
  const Validator validator(&model, errors[rows / 2], config);
  const BatchVerdict serial = validator.ValidateMatrix(probe);
  ASSERT_EQ(serial.instances.size(), static_cast<size_t>(rows));
  ASSERT_FALSE(serial.flagged_rows.empty());

  const auto expect_same = [&](const std::vector<InstanceVerdict>& got,
                               const std::string& label) {
    ASSERT_EQ(got.size(), serial.instances.size()) << label;
    for (size_t i = 0; i < got.size(); ++i) {
      const InstanceVerdict& want = serial.instances[i];
      EXPECT_EQ(got[i].error, want.error) << label << " row " << i;
      EXPECT_EQ(got[i].flagged, want.flagged) << label << " row " << i;
      EXPECT_EQ(got[i].suspect_features, want.suspect_features)
          << label << " row " << i;
    }
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    const std::string label = std::to_string(threads) + "-thread pool";
    const BatchVerdict fanned = validator.ValidateMatrixOn(pool, probe);
    expect_same(fanned.instances, label);
    EXPECT_EQ(fanned.flagged_rows, serial.flagged_rows) << label;
    EXPECT_EQ(fanned.is_dirty, serial.is_dirty) << label;
    const BatchVerdict empty =
        validator.ValidateMatrixOn(pool, Tensor::Zeros({0, 4}));
    EXPECT_TRUE(empty.instances.empty()) << label;
    EXPECT_FALSE(empty.is_dirty) << label;
  }
  std::vector<InstanceVerdict> ranged(static_cast<size_t>(rows));
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  for (int64_t start = 0; start < rows; start += 7) {
    validator.ValidateRowsInto(probe, start, std::min(rows, start + 7), ctx,
                               ranged.data() + start);
  }
  expect_same(ranged, "7-row ranges");
  const BatchVerdict empty = validator.ValidateMatrix(Tensor::Zeros({0, 4}));
  EXPECT_TRUE(empty.instances.empty());
  EXPECT_FALSE(empty.is_dirty);
}

// ---- Repairer ------------------------------------------------------------------

TEST(RepairerTest, OnlyFlaggedCellsChange) {
  Rng rng(12);
  DquagConfig config = SmallConfig();
  config.epochs = 10;
  DquagModel model(SmallGraph(), config, rng);
  Trainer trainer(&model, config);
  Tensor data = Tensor::RandUniform({300, 4}, rng, 0.3f, 0.7f);
  TrainingReport report = trainer.Fit(data);
  Validator validator(&model, report.error_statistics.threshold, config);
  Repairer repairer(&model, nullptr);

  Tensor probe = Tensor::RandUniform({30, 4}, rng, 0.3f, 0.7f);
  for (int64_t r = 0; r < 10; ++r) probe(r, 3) = 4.0f;
  BatchVerdict verdict = validator.ValidateMatrix(probe);
  int64_t cells = 0;
  Tensor repaired = repairer.RepairMatrix(probe, verdict, &cells);
  EXPECT_GT(cells, 0);
  // Unflagged cells identical.
  for (int64_t r = 0; r < 30; ++r) {
    const InstanceVerdict& inst = verdict.instances[static_cast<size_t>(r)];
    for (int64_t c = 0; c < 4; ++c) {
      const bool repaired_cell =
          inst.flagged &&
          std::find(inst.suspect_features.begin(),
                    inst.suspect_features.end(),
                    c) != inst.suspect_features.end();
      if (!repaired_cell) {
        EXPECT_FLOAT_EQ(repaired(r, c), probe(r, c));
      }
    }
  }
}

TEST(RepairerTest, RepairMovesCellsTowardCleanRange) {
  Rng rng(13);
  DquagConfig config = SmallConfig();
  config.epochs = 12;
  DquagModel model(SmallGraph(), config, rng);
  Trainer trainer(&model, config);
  Tensor data = Tensor::RandUniform({400, 4}, rng, 0.3f, 0.7f);
  TrainingReport report = trainer.Fit(data);
  Validator validator(&model, report.error_statistics.threshold, config);
  Repairer repairer(&model, nullptr);

  Tensor probe = Tensor::RandUniform({40, 4}, rng, 0.3f, 0.7f);
  for (int64_t r = 0; r < 15; ++r) probe(r, 0) = 5.0f;
  BatchVerdict verdict = validator.ValidateMatrix(probe);
  Tensor repaired = repairer.RepairMatrix(probe, verdict, nullptr);
  for (int64_t r = 0; r < 15; ++r) {
    if (!verdict.instances[static_cast<size_t>(r)].flagged) continue;
    // If the anomalous cell was blamed, the repair should pull it toward
    // the clean band.
    const auto& sus =
        verdict.instances[static_cast<size_t>(r)].suspect_features;
    if (std::find(sus.begin(), sus.end(), 0) != sus.end()) {
      EXPECT_LT(std::abs(repaired(r, 0) - 0.5f),
                std::abs(probe(r, 0) - 0.5f));
    }
  }
}

TEST(RepairerTest, GatheredForwardIsBitIdenticalToWholeBatch) {
  Rng rng(15);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  const int64_t rows = 700;
  Tensor probe = Tensor::RandUniform({rows, 4}, rng, -0.5f, 1.5f);
  const Tensor reference = model.ReconstructRepair(probe);

  // 420 non-contiguous flagged rows: the gather spans two model row
  // blocks, the second one partial.
  BatchVerdict verdict;
  verdict.instances.resize(static_cast<size_t>(rows));
  int64_t expected_cells = 0;
  for (int64_t r = 0; r < rows; ++r) {
    if (r % 5 == 1 || r % 5 == 4) continue;
    InstanceVerdict& inst = verdict.instances[static_cast<size_t>(r)];
    inst.flagged = true;
    inst.suspect_features = {r % 4};
    if (r % 3 == 0) inst.suspect_features.push_back((r + 2) % 4);
    expected_cells += static_cast<int64_t>(inst.suspect_features.size());
  }

  Repairer repairer(&model, nullptr);
  int64_t cells = 0;
  const Tensor repaired = repairer.RepairMatrix(probe, verdict, &cells);
  EXPECT_EQ(cells, expected_cells);
  for (int64_t r = 0; r < rows; ++r) {
    const InstanceVerdict& inst = verdict.instances[static_cast<size_t>(r)];
    for (int64_t c = 0; c < 4; ++c) {
      const bool suspect =
          std::find(inst.suspect_features.begin(),
                    inst.suspect_features.end(),
                    c) != inst.suspect_features.end();
      EXPECT_EQ(repaired(r, c), suspect ? reference(r, c) : probe(r, c))
          << "row " << r << " col " << c;
    }
  }
}

TEST(RepairerTest, NothingFlaggedReturnsAnIdenticalCopy) {
  Rng rng(16);
  DquagConfig config = SmallConfig();
  DquagModel model(SmallGraph(), config, rng);
  Tensor probe = Tensor::RandUniform({300, 4}, rng, 0.0f, 1.0f);
  BatchVerdict verdict;
  verdict.instances.resize(300);
  Repairer repairer(&model, nullptr);
  int64_t cells = -1;
  const Tensor repaired = repairer.RepairMatrix(probe, verdict, &cells);
  EXPECT_EQ(cells, 0);
  ASSERT_EQ(repaired.shape(), probe.shape());
  for (int64_t i = 0; i < probe.numel(); ++i) {
    EXPECT_EQ(repaired.data()[i], probe.data()[i]) << "element " << i;
  }
}

// ---- Pipeline ------------------------------------------------------------------

TEST(PipelineTest, FitValidateRepairEndToEnd) {
  Rng rng(14);
  Table clean = datasets::GenerateCreditCard(1200, rng);
  DquagPipelineOptions options;
  options.config = SmallConfig();
  options.config.epochs = 10;
  DquagPipeline pipeline(std::move(options));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  EXPECT_TRUE(pipeline.fitted());
  EXPECT_GT(pipeline.threshold(), 0.0);
  EXPECT_FALSE(pipeline.relationships().empty());

  ErrorInjector injector(15);
  Table dirty =
      injector.InjectNumericAnomalies(clean, {"AMT_INCOME_TOTAL"}, 0.2)
          .table;
  BatchVerdict verdict = pipeline.Validate(dirty);
  EXPECT_TRUE(verdict.is_dirty);
  RepairResult repair = pipeline.Repair(dirty, verdict);
  EXPECT_GT(repair.cells_repaired, 0);
}

TEST(PipelineTest, FitTwiceIsError) {
  Rng rng(16);
  Table clean = datasets::GenerateCreditCard(300, rng);
  DquagPipelineOptions options;
  options.config = SmallConfig();
  options.config.epochs = 2;
  DquagPipeline pipeline(std::move(options));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  EXPECT_EQ(pipeline.Fit(clean).code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, EmptyCleanIsError) {
  DquagPipeline pipeline;
  Table empty(datasets::CreditCardSchema());
  EXPECT_EQ(pipeline.Fit(empty).code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, FitRejectsConfigThatLoadRejects) {
  Rng rng(19);
  Table clean = datasets::GenerateCreditCard(50, rng);
  // Load rejects a batch size below 1 as a corrupt config, so Fit must
  // reject it too, before any training.
  for (int64_t batch_size : {int64_t{0}, int64_t{-1}}) {
    DquagPipelineOptions options;
    options.config = SmallConfig();
    options.config.batch_size = batch_size;
    DquagPipeline pipeline(std::move(options));
    EXPECT_EQ(pipeline.Fit(clean).code(), StatusCode::kInvalidArgument)
        << "batch_size " << batch_size;
    EXPECT_FALSE(pipeline.fitted());
  }
  // Likewise a percentile outside [0, 1] (Percentile would abort after
  // training) and a calibration fraction outside [0, 1) (a negative split
  // reads past the shuffle permutation); NaN fails both.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double percentile : {1.5, -0.1, nan}) {
    DquagPipelineOptions options;
    options.config = SmallConfig();
    options.config.threshold_percentile = percentile;
    DquagPipeline pipeline(std::move(options));
    EXPECT_EQ(pipeline.Fit(clean).code(), StatusCode::kInvalidArgument)
        << "threshold_percentile " << percentile;
    EXPECT_FALSE(pipeline.fitted());
  }
  for (double fraction : {-0.5, 1.0, nan}) {
    DquagPipelineOptions options;
    options.config = SmallConfig();
    options.config.calibration_fraction = fraction;
    DquagPipeline pipeline(std::move(options));
    EXPECT_EQ(pipeline.Fit(clean).code(), StatusCode::kInvalidArgument)
        << "calibration_fraction " << fraction;
    EXPECT_FALSE(pipeline.fitted());
  }
}

TEST(PipelineTest, ExternalRelationshipsBypassMining) {
  Rng rng(17);
  Table clean = datasets::GenerateCreditCard(400, rng);
  DquagPipelineOptions options;
  options.config = SmallConfig();
  options.config.epochs = 2;
  options.relationships = std::vector<FeatureRelationship>{
      {"DAYS_BIRTH", "DAYS_EMPLOYED", 1.0, "external"}};
  DquagPipeline pipeline(std::move(options));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  EXPECT_EQ(pipeline.relationships().size(), 1u);
  EXPECT_EQ(pipeline.relationships()[0].kind, "external");
}

TEST(PipelineTest, UnknownRelationshipNameFailsCleanly) {
  Rng rng(18);
  Table clean = datasets::GenerateCreditCard(200, rng);
  DquagPipelineOptions options;
  options.config = SmallConfig();
  options.relationships =
      std::vector<FeatureRelationship>{{"NOT_A_COLUMN", "DAYS_BIRTH"}};
  DquagPipeline pipeline(std::move(options));
  EXPECT_EQ(pipeline.Fit(clean).code(), StatusCode::kNotFound);
}

TEST(ConfigTest, AblationSwitchDisablesWeighting) {
  // Both configurations must train without error; the ablation bench
  // compares their detection quality.
  Rng rng(19);
  Table clean = datasets::GenerateCreditCard(400, rng);
  for (bool disable : {false, true}) {
    DquagPipelineOptions options;
    options.config = SmallConfig();
    options.config.epochs = 2;
    options.config.disable_loss_weighting = disable;
    DquagPipeline pipeline(std::move(options));
    EXPECT_TRUE(pipeline.Fit(clean).ok());
  }
}

}  // namespace
}  // namespace dquag
