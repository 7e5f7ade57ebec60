// Tests for the Explainer (instance-level interpretability).

#include <gtest/gtest.h>

#include "core/explainer.h"
#include "data/generators.h"

namespace dquag {
namespace {

class ExplainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(55);
    const Table clean = datasets::GenerateCreditCard(1500, rng);
    DquagPipelineOptions options;
    options.config.encoder.hidden_dim = 32;
    options.config.epochs = 10;
    options.config.seed = 55;
    pipeline_ = new DquagPipeline(std::move(options));
    ASSERT_TRUE(pipeline_->Fit(clean).ok());
  }
  static void TearDownTestSuite() { delete pipeline_; }
  static DquagPipeline* pipeline_;
};

DquagPipeline* ExplainerTest::pipeline_ = nullptr;

TEST_F(ExplainerTest, ExplainerBlamesCorruptedFeature) {
  Rng rng(9);
  Table probe = datasets::GenerateCreditCard(50, rng);
  // Corrupt one cell of row 0 hard.
  probe.NumericByName("AMT_INCOME_TOTAL")[0] = 1e9;
  Explainer explainer(pipeline_);
  InstanceExplanation explanation = explainer.Explain(probe, 0);
  ASSERT_TRUE(explanation.flagged);
  ASSERT_FALSE(explanation.features.empty());
  bool income_blamed = false;
  for (const FeatureExplanation& fe : explanation.features) {
    if (fe.feature_name == "AMT_INCOME_TOTAL") {
      income_blamed = true;
      EXPECT_GT(fe.error_share, 0.3);
      // The repair suggestion should be far below the insane observation.
      EXPECT_LT(fe.suggested, fe.observed);
    }
  }
  EXPECT_TRUE(income_blamed);
  EXPECT_FALSE(explanation.ToString().empty());
}

TEST_F(ExplainerTest, ExplainerPassesCleanRow) {
  Rng rng(10);
  Table probe = datasets::GenerateCreditCard(50, rng);
  Explainer explainer(pipeline_);
  // At least 40 of 50 clean rows should not be flagged.
  int flagged = 0;
  for (size_t r = 0; r < 50; ++r) {
    if (explainer.Explain(probe, r).flagged) ++flagged;
  }
  EXPECT_LE(flagged, 10);
}

TEST_F(ExplainerTest, ExplainerReportsAttentionInfluences) {
  Rng rng(11);
  Table probe = datasets::GenerateCreditCard(10, rng);
  probe.NumericByName("AMT_INCOME_TOTAL")[0] = 1e9;
  Explainer explainer(pipeline_);
  InstanceExplanation explanation = explainer.Explain(probe, 0);
  ASSERT_TRUE(explanation.flagged);
  bool any_influences = false;
  for (const FeatureExplanation& fe : explanation.features) {
    if (!fe.influences.empty()) {
      any_influences = true;
      // Weights sorted descending.
      for (size_t i = 0; i + 1 < fe.influences.size(); ++i) {
        EXPECT_GE(fe.influences[i].weight, fe.influences[i + 1].weight);
      }
    }
  }
  EXPECT_TRUE(any_influences);
}

}  // namespace
}  // namespace dquag
