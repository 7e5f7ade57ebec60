// End-to-end integration tests: the full DQuaG pipeline against the
// evaluation harness, covering the paper's headline claims at reduced scale.

#include <gtest/gtest.h>

#include "data/batch_sampler.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "eval/experiment.h"

namespace dquag {
namespace {

/// One shared fixture: a trained pipeline on Credit Card data (the dataset
/// with both hidden conflicts). Training once keeps the suite fast.
class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(77);
    clean_ = new Table(datasets::GenerateCreditCard(2500, rng));
    DquagPipelineOptions options;
    options.config.epochs = 15;
    options.config.seed = 77;
    pipeline_ = new DquagPipeline(std::move(options));
    ASSERT_TRUE(pipeline_->Fit(*clean_).ok());
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    delete clean_;
    pipeline_ = nullptr;
    clean_ = nullptr;
  }

  static Table* clean_;
  static DquagPipeline* pipeline_;
};

Table* EndToEndTest::clean_ = nullptr;
DquagPipeline* EndToEndTest::pipeline_ = nullptr;

TEST_F(EndToEndTest, CleanBatchesPass) {
  Rng rng(1);
  int flagged = 0;
  for (int i = 0; i < 10; ++i) {
    Table batch = SampleBatch(*clean_, 400, rng);
    if (pipeline_->Validate(batch).is_dirty) ++flagged;
  }
  EXPECT_LE(flagged, 2);
}

TEST_F(EndToEndTest, DetectsNumericAnomalies) {
  ErrorInjector injector(2);
  Table dirty =
      injector
          .InjectNumericAnomalies(*clean_, {"AMT_INCOME_TOTAL", "DAYS_BIRTH"},
                                  0.2)
          .table;
  EXPECT_TRUE(pipeline_->Validate(dirty).is_dirty);
}

TEST_F(EndToEndTest, DetectsTypos) {
  ErrorInjector injector(3);
  Table dirty =
      injector.InjectTypos(*clean_, {"OCCUPATION_TYPE", "CODE_GENDER"}, 0.2)
          .table;
  EXPECT_TRUE(pipeline_->Validate(dirty).is_dirty);
}

TEST_F(EndToEndTest, DetectsMissingValues) {
  ErrorInjector injector(4);
  Table dirty =
      injector.InjectMissing(*clean_, {"AMT_INCOME_TOTAL", "DAYS_EMPLOYED"},
                             0.2)
          .table;
  EXPECT_TRUE(pipeline_->Validate(dirty).is_dirty);
}

TEST_F(EndToEndTest, DetectsHiddenEmploymentConflict) {
  // The headline claim: conflicts invisible to per-column constraints are
  // caught through learned feature dependencies.
  ErrorInjector injector(5);
  InjectionResult dirty =
      injector.InjectCreditEmploymentConflict(*clean_, 0.2);
  BatchVerdict verdict = pipeline_->Validate(dirty.table);
  EXPECT_TRUE(verdict.is_dirty);
  // Flagged instances should be enriched in truly corrupted rows.
  int64_t hits = 0;
  for (size_t row : verdict.flagged_rows) {
    if (dirty.row_corrupted[row]) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) /
                static_cast<double>(verdict.flagged_rows.size()),
            0.6);
}

TEST_F(EndToEndTest, DetectsHiddenIncomeConflict) {
  ErrorInjector injector(6);
  Table dirty = injector.InjectCreditIncomeConflict(*clean_, 0.2).table;
  EXPECT_TRUE(pipeline_->Validate(dirty).is_dirty);
}

TEST_F(EndToEndTest, RepairReducesErrorRate) {
  ErrorInjector injector(7);
  Table dirty = injector.InjectCreditEmploymentConflict(*clean_, 0.2).table;
  BatchVerdict before = pipeline_->Validate(dirty);
  RepairResult repair = pipeline_->Repair(dirty, before);
  BatchVerdict after = pipeline_->Validate(repair.repaired);
  EXPECT_LT(after.flagged_fraction, before.flagged_fraction);
  EXPECT_FALSE(after.is_dirty);  // §4.6: repaired data classifies clean
}

TEST_F(EndToEndTest, RepairedTableKeepsSchemaAndRows) {
  ErrorInjector injector(8);
  Table dirty = injector.InjectCreditIncomeConflict(*clean_, 0.1).table;
  RepairResult repair = pipeline_->Repair(dirty, pipeline_->Validate(dirty));
  EXPECT_TRUE(repair.repaired.schema() == dirty.schema());
  EXPECT_EQ(repair.repaired.num_rows(), dirty.num_rows());
}

TEST_F(EndToEndTest, HarnessAccuracyBeatsCoinFlip) {
  ErrorInjector injector(9);
  Table dirty = injector.InjectCreditEmploymentConflict(*clean_, 0.2).table;
  Rng rng(10);
  BatchSets sets = MakeBatchSets(*clean_, dirty, 10, 0.1, rng);
  // Reuse the fitted pipeline through the common interface.
  class Wrapper : public BatchValidator {
   public:
    explicit Wrapper(const DquagPipeline* p) : p_(p) {}
    std::string name() const override { return "DQuaG"; }
    void Fit(const Table&) override {}
    bool IsDirty(const Table& batch) override {
      return p_->Validate(batch).is_dirty;
    }
   private:
    const DquagPipeline* p_;
  } wrapper(pipeline_);
  MethodResult result = EvaluateValidator(wrapper, sets);
  EXPECT_GE(result.accuracy, 0.9);
  EXPECT_GE(result.recall, 0.9);
}

TEST_F(EndToEndTest, FeatureGraphContainsKeyDependencies) {
  // The statistical miner (the ChatGPT-4 substitute) must recover the
  // income ~ education/occupation dependency that makes conflict-2
  // detectable.
  bool income_linked = false;
  for (const FeatureRelationship& rel : pipeline_->relationships()) {
    const bool touches_income = rel.feature1 == "AMT_INCOME_TOTAL" ||
                                rel.feature2 == "AMT_INCOME_TOTAL";
    const bool touches_driver = rel.feature1 == "NAME_EDUCATION_TYPE" ||
                                rel.feature2 == "NAME_EDUCATION_TYPE" ||
                                rel.feature1 == "OCCUPATION_TYPE" ||
                                rel.feature2 == "OCCUPATION_TYPE";
    if (touches_income && touches_driver) income_linked = true;
  }
  EXPECT_TRUE(income_linked);
}

// ---- Metrics ------------------------------------------------------------------

TEST(MetricsTest, ConfusionAccounting) {
  ConfusionCounts counts;
  counts.Add(true, true);    // TP
  counts.Add(true, false);   // FP
  counts.Add(false, false);  // TN
  counts.Add(false, true);   // FN
  EXPECT_EQ(counts.Total(), 4);
  EXPECT_DOUBLE_EQ(counts.Accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(counts.Recall(), 0.5);
  EXPECT_DOUBLE_EQ(counts.Precision(), 0.5);
}

TEST(MetricsTest, EdgeCases) {
  ConfusionCounts counts;
  EXPECT_DOUBLE_EQ(counts.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(counts.Recall(), 0.0);
  counts.Add(false, false);
  EXPECT_DOUBLE_EQ(counts.Accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(counts.Recall(), 0.0);  // no positives
  EXPECT_DOUBLE_EQ(counts.Precision(), 0.0);  // nothing flagged
}

}  // namespace
}  // namespace dquag
