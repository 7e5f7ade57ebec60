// Verdict-equivalence suite for the int8 quantized inference path.
//
// The quantization contract (core/validator.h ValidationMode): quantized
// validation may flip at most a sliver of verdicts versus the float path on
// dirty data, and none at all on clean data, because every row whose error
// lands inside the margin band around the threshold is re-checked on the
// authoritative float path. Checkpoints capture the int8 weights at save
// time; loading them must serve bit-identically to deriving them in
// memory, and checkpoints from before the section existed must still load
// and quantize identically (lazy derivation is deterministic).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/validation_service.h"
#include "data/error_injector.h"
#include "data/generators.h"

namespace dquag {
namespace {

struct GeneratorCase {
  const char* name;
  Table (*clean)(int64_t rows, Rng& rng);
  Table (*fresh)(int64_t rows, Rng& rng);
};

Table TaxiClean(int64_t rows, Rng& rng) {
  return datasets::GenerateNyTaxi(rows, rng);
}
Table HotelFresh(int64_t rows, Rng& rng) {
  Table clean = datasets::GenerateHotelBooking(rows, rng);
  ErrorInjector injector(29);
  return injector.InjectHotelGroupConflict(clean, 0.2).table;
}
Table CreditFresh(int64_t rows, Rng& rng) {
  Table clean = datasets::GenerateCreditCard(rows, rng);
  ErrorInjector injector(31);
  return injector.InjectMissing(clean, {"AMT_INCOME_TOTAL"}, 0.2).table;
}
Table TaxiFresh(int64_t rows, Rng& rng) {
  Table clean = datasets::GenerateNyTaxi(rows, rng);
  ErrorInjector injector(37);
  return injector.InjectNumericAnomalies(clean, {"fare_amount"}, 0.2).table;
}
Table AirbnbFresh(int64_t rows, Rng& rng) {
  return datasets::GenerateAirbnbDirty(rows, rng);
}
Table BicycleFresh(int64_t rows, Rng& rng) {
  return datasets::GenerateBicycleDirty(rows, rng);
}
Table GooglePlayFresh(int64_t rows, Rng& rng) {
  return datasets::GenerateGooglePlayDirty(rows, rng);
}

/// Rows whose flagged bit differs between two verdicts of the same batch.
int64_t CountFlips(const BatchVerdict& a, const BatchVerdict& b) {
  EXPECT_EQ(a.instances.size(), b.instances.size());
  int64_t flips = 0;
  for (size_t r = 0; r < a.instances.size(); ++r) {
    if (a.instances[r].flagged != b.instances[r].flagged) ++flips;
  }
  return flips;
}

void ExpectVerdictsIdentical(const BatchVerdict& a, const BatchVerdict& b) {
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (size_t r = 0; r < a.instances.size(); ++r) {
    EXPECT_EQ(a.instances[r].error, b.instances[r].error) << "row " << r;
    EXPECT_EQ(a.instances[r].flagged, b.instances[r].flagged) << "row " << r;
    EXPECT_EQ(a.instances[r].suspect_features, b.instances[r].suspect_features)
        << "row " << r;
  }
  EXPECT_EQ(a.flagged_rows, b.flagged_rows);
  EXPECT_EQ(a.flagged_fraction, b.flagged_fraction);
  EXPECT_EQ(a.is_dirty, b.is_dirty);
  EXPECT_EQ(a.threshold, b.threshold);
}

class QuantizedGeneratorTest : public ::testing::TestWithParam<GeneratorCase> {
};

// Dirty data: at most 0.5% of verdicts may flip (rows whose quantization
// noise exceeds a quarter of the threshold). Clean data: zero flips — every
// clean row sits far below the margin band's lower edge or inside it, where
// the float path decides.
TEST_P(QuantizedGeneratorTest, QuantizedVerdictsMatchFloat) {
  const GeneratorCase& item = GetParam();
  Rng rng(23);
  Table clean = item.clean(140, rng);
  DquagPipelineOptions options;
  options.config.encoder.hidden_dim = 8;
  options.config.epochs = 1;
  options.config.batch_size = 64;
  DquagPipeline pipeline(std::move(options));
  ASSERT_TRUE(pipeline.Fit(clean).ok());
  const ValidationMode quantized{/*quantized=*/true, /*recheck_margin=*/0.25};

  const Table fresh = item.fresh(400, rng);
  const BatchVerdict flt = pipeline.Validate(fresh);
  const BatchVerdict qnt = pipeline.validator().ValidateMatrix(
      pipeline.preprocessor().Transform(fresh), quantized);
  const int64_t flips = CountFlips(flt, qnt);
  EXPECT_LE(flips, fresh.num_rows() / 200)  // 0.5%
      << item.name << ": " << flips << " verdict flips on " << fresh.num_rows()
      << " dirty rows";

  const Table clean_eval = item.clean(200, rng);
  const BatchVerdict clean_flt = pipeline.Validate(clean_eval);
  const BatchVerdict clean_qnt = pipeline.validator().ValidateMatrix(
      pipeline.preprocessor().Transform(clean_eval), quantized);
  EXPECT_EQ(0, CountFlips(clean_flt, clean_qnt))
      << item.name << ": quantized flips on clean data";
  EXPECT_EQ(clean_flt.is_dirty, clean_qnt.is_dirty) << item.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, QuantizedGeneratorTest,
    ::testing::Values(
        GeneratorCase{"taxi", TaxiClean, TaxiFresh},
        GeneratorCase{"hotel", datasets::GenerateHotelBooking, HotelFresh},
        GeneratorCase{"credit", datasets::GenerateCreditCard, CreditFresh},
        GeneratorCase{"airbnb", datasets::GenerateAirbnbClean, AirbnbFresh},
        GeneratorCase{"bicycle", datasets::GenerateBicycleClean,
                      BicycleFresh},
        GeneratorCase{"googleplay", datasets::GenerateGooglePlayClean,
                      GooglePlayFresh}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return std::string(info.param.name);
    });

// ---- Checkpoint interactions ----------------------------------------------

class QuantizedCheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    Table clean = datasets::GenerateNyTaxi(160, rng, /*dims=*/10);
    DquagPipelineOptions options;
    options.config.encoder.hidden_dim = 16;
    options.config.epochs = 2;
    options.config.batch_size = 64;
    pipeline_ = new DquagPipeline(std::move(options));
    ASSERT_TRUE(pipeline_->Fit(clean).ok());
    ErrorInjector injector(12);
    Table fresh = datasets::GenerateNyTaxi(300, rng, /*dims=*/10);
    fresh_ = new Table(
        injector.InjectNumericAnomalies(fresh, {"fare_amount"}, 0.15).table);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
    delete fresh_;
    fresh_ = nullptr;
  }

  static DquagPipeline* pipeline_;
  static Table* fresh_;
};

DquagPipeline* QuantizedCheckpointTest::pipeline_ = nullptr;
Table* QuantizedCheckpointTest::fresh_ = nullptr;

// The int8 weights stored at save time serve bit-identically to the ones
// derived in memory from the float weights.
TEST_F(QuantizedCheckpointTest, StoredWeightsMatchDerived) {
  const std::string path = "/tmp/dquag_quantized_roundtrip.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());
  auto loaded = DquagPipeline::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const ValidationMode quantized{true, 0.25};
  const Tensor matrix = pipeline_->preprocessor().Transform(*fresh_);
  const BatchVerdict in_memory =
      pipeline_->validator().ValidateMatrix(matrix, quantized);
  const BatchVerdict from_disk =
      loaded->validator().ValidateMatrix(matrix, quantized);
  ExpectVerdictsIdentical(in_memory, from_disk);
  std::remove(path.c_str());
}

// A checkpoint with the quantized section stripped (the pre-section format)
// still loads, and lazy derivation reproduces the stored weights exactly.
TEST_F(QuantizedCheckpointTest, LegacyCheckpointWithoutSectionLoads) {
  const std::string path = "/tmp/dquag_quantized_full.bin";
  const std::string legacy_path = "/tmp/dquag_quantized_legacy.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  // kQuantSectionMagic ("DQQ8" + version 1) as little-endian file bytes.
  // The section is the last thing Save writes, so the last occurrence is
  // its start.
  const std::string magic("\x01\x00\x00\x00\x44\x51\x51\x38", 8);
  const size_t pos = bytes.rfind(magic);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_GT(pos, 0u);
  {
    std::ofstream out(legacy_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(pos));
    ASSERT_TRUE(out.good());
  }

  auto full = DquagPipeline::Load(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto legacy = DquagPipeline::Load(legacy_path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  // Float path is untouched by the section either way...
  ExpectVerdictsIdentical(full->Validate(*fresh_), legacy->Validate(*fresh_));
  // ...and the quantized path is identical whether the int8 weights came
  // from the file or were derived on first use.
  const ValidationMode quantized{true, 0.25};
  const Tensor matrix = full->preprocessor().Transform(*fresh_);
  ExpectVerdictsIdentical(full->validator().ValidateMatrix(matrix, quantized),
                          legacy->validator().ValidateMatrix(matrix,
                                                             quantized));
  std::remove(path.c_str());
  std::remove(legacy_path.c_str());
}

// The service's quantized option routes its parallel fan-out through the
// same mode; the 300-row batch fans out as two row blocks, and the result
// equals the serial verdict.
TEST_F(QuantizedCheckpointTest, ServiceQuantizedOptionMatchesValidator) {
  const std::string path = "/tmp/dquag_quantized_service.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());
  ValidationServiceOptions options;
  options.quantized = true;
  auto service = ValidationService::FromCheckpoint(path, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const BatchVerdict serial = pipeline_->validator().ValidateMatrix(
      pipeline_->preprocessor().Transform(*fresh_), ValidationMode{true, 0.25});
  const BatchVerdict served = (*service)->Validate(*fresh_);
  ExpectVerdictsIdentical(serial, served);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dquag
