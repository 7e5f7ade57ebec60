// Tests for the data substrate: Table/Schema, preprocessing, batch
// sampling, dataset generators (schemas + planted dependencies), and error
// injection.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/batch_sampler.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "data/preprocessor.h"
#include "graph/relationship_inference.h"

namespace dquag {
namespace {

Schema SmallSchema() {
  return Schema({
      {"city", ColumnType::kCategorical, "city name"},
      {"population", ColumnType::kNumeric, "population count"},
  });
}

// ---- Table --------------------------------------------------------------------

TEST(TableTest, AppendAndAccess) {
  Table t(SmallSchema());
  t.AppendRow({1000.0}, {"Paris"});
  t.AppendRow({2000.0}, {"Rome"});
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.Categorical(0)[1], "Rome");
  EXPECT_EQ(t.NumericByName("population")[0], 1000.0);
}

TEST(TableTest, SelectRowsAndAppendRows) {
  Table t(SmallSchema());
  for (int i = 0; i < 5; ++i) {
    t.AppendRow({static_cast<double>(i)}, {"c" + std::to_string(i)});
  }
  Table selected = t.SelectRows({4, 0, 4});
  EXPECT_EQ(selected.num_rows(), 3);
  EXPECT_EQ(selected.Numeric(1)[0], 4.0);
  EXPECT_EQ(selected.Numeric(1)[2], 4.0);
  Table combined = t.SelectRows({0});
  combined.AppendRows(selected);
  EXPECT_EQ(combined.num_rows(), 4);
}

TEST(TableTest, CsvRoundTripWithMissing) {
  Table t(SmallSchema());
  t.AppendRow({MissingValue()}, {"Oslo"});
  t.AppendRow({42.5}, {""});
  auto back = Table::FromCsv(t.schema(), t.ToCsv());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(IsMissing(back->Numeric(1)[0]));
  EXPECT_EQ(back->Categorical(0)[1], "");
  EXPECT_EQ(back->Numeric(1)[1], 42.5);
}

TEST(TableTest, FromCsvRejectsBadHeaderAndCells) {
  CsvDocument doc;
  doc.header = {"wrong", "population"};
  EXPECT_FALSE(Table::FromCsv(SmallSchema(), doc).ok());
  CsvDocument doc2;
  doc2.header = {"city", "population"};
  doc2.rows = {{"Paris", "not_a_number"}};
  EXPECT_FALSE(Table::FromCsv(SmallSchema(), doc2).ok());
}

// ---- Preprocessor -------------------------------------------------------------

TEST(PreprocessorTest, MinMaxScaling) {
  Table t(SmallSchema());
  t.AppendRow({0.0}, {"a"});
  t.AppendRow({10.0}, {"b"});
  t.AppendRow({5.0}, {"c"});
  TablePreprocessor prep;
  prep.Fit(t);
  Tensor m = prep.Transform(t);
  EXPECT_FLOAT_EQ(m(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(m(2, 1), 0.5f);
}

TEST(PreprocessorTest, OutOfRangeNotClamped) {
  Table t(SmallSchema());
  t.AppendRow({0.0}, {"a"});
  t.AppendRow({10.0}, {"b"});
  TablePreprocessor prep;
  prep.Fit(t);
  Table fresh(SmallSchema());
  fresh.AppendRow({20.0}, {"a"});
  EXPECT_FLOAT_EQ(prep.Transform(fresh)(0, 1), 2.0f);
}

TEST(PreprocessorTest, UnknownCategoryGetsSentinel) {
  Table t(SmallSchema());
  t.AppendRow({1.0}, {"a"});
  t.AppendRow({2.0}, {"b"});
  TablePreprocessor prep;
  prep.Fit(t);
  Table fresh(SmallSchema());
  fresh.AppendRow({1.0}, {"zz"});  // typo / unseen
  EXPECT_FLOAT_EQ(prep.Transform(fresh)(0, 0),
                  static_cast<float>(TablePreprocessor::kUnknownSentinel));
}

TEST(PreprocessorTest, MissingValuesGetSentinel) {
  Table t(SmallSchema());
  t.AppendRow({1.0}, {"a"});
  t.AppendRow({2.0}, {"b"});
  TablePreprocessor prep;
  prep.Fit(t);
  Table fresh(SmallSchema());
  fresh.AppendRow({MissingValue()}, {""});
  Tensor m = prep.Transform(fresh);
  EXPECT_FLOAT_EQ(m(0, 1),
                  static_cast<float>(MinMaxScaler::kMissingSentinel));
  EXPECT_FLOAT_EQ(m(0, 0),
                  static_cast<float>(MinMaxScaler::kMissingSentinel));
}

TEST(PreprocessorTest, InverseTransformRoundTrip) {
  Table t(SmallSchema());
  t.AppendRow({0.0}, {"alpha"});
  t.AppendRow({100.0}, {"beta"});
  t.AppendRow({50.0}, {"gamma"});
  TablePreprocessor prep;
  prep.Fit(t);
  Table back = prep.InverseTransform(prep.Transform(t));
  for (int r = 0; r < 3; ++r) {
    EXPECT_NEAR(back.Numeric(1)[r], t.Numeric(1)[r], 1e-3);
    EXPECT_EQ(back.Categorical(0)[r], t.Categorical(0)[r]);
  }
}

TEST(PreprocessorTest, InverseSnapsToNearestCategory) {
  Table t(SmallSchema());
  t.AppendRow({1.0}, {"a"});
  t.AppendRow({2.0}, {"b"});
  t.AppendRow({3.0}, {"c"});
  TablePreprocessor prep;
  prep.Fit(t);
  // Codes a=0, b=1, c=2 scale to 0, .5, 1. A decoder output of 0.45 should
  // snap to "b".
  Tensor m({1, 2});
  m(0, 0) = 0.45f;
  m(0, 1) = 0.0f;
  EXPECT_EQ(prep.InverseTransform(m).Categorical(0)[0], "b");
}

TEST(PreprocessorTest, PerCellInverseMatchesInverseTransform) {
  const Schema schema({
      {"city", ColumnType::kCategorical, "city name"},
      {"population", ColumnType::kNumeric, "population count"},
      {"never_seen", ColumnType::kCategorical, "always missing in training"},
  });
  Table clean(schema);
  clean.AppendRow({10.0}, {"alpha", ""});
  clean.AppendRow({250.0}, {"beta", ""});
  clean.AppendRow({40.0}, {"gamma", ""});
  clean.AppendRow({MissingValue()}, {"delta", ""});
  TablePreprocessor prep;
  prep.Fit(clean);

  // Encoded rows with the missing and unknown sentinels, then raw
  // model-space values in and far out of range, including snap ties.
  Table encoded(schema);
  encoded.AppendRow({MissingValue()}, {"", "x"});
  encoded.AppendRow({1e6}, {"typo", ""});
  encoded.AppendRow({-40.0}, {"gamma", "beta"});
  Tensor m = prep.Transform(encoded);
  const std::vector<float> raw = {
      -0.5f, 1.5f, 0.0f, 1.0f, 0.1666667f, 0.5f, 0.8333333f, -7.25f,
      42.0f, 0.49999f, 0.99f, -0.0f};
  Tensor extra({static_cast<int64_t>(raw.size()), 3});
  for (size_t i = 0; i < raw.size(); ++i) {
    const int64_t r = static_cast<int64_t>(i);
    extra(r, 0) = raw[i];
    extra(r, 1) = raw[(i + 1) % raw.size()];
    extra(r, 2) = raw[(i + 2) % raw.size()];
  }

  for (const Tensor* matrix : {&m, &extra}) {
    const Table whole = prep.InverseTransform(*matrix);
    for (int64_t r = 0; r < matrix->dim(0); ++r) {
      const size_t i = static_cast<size_t>(r);
      EXPECT_EQ(prep.InverseCategoricalCell(0, (*matrix)(r, 0)),
                whole.Categorical(0)[i])
          << "row " << r;
      EXPECT_EQ(prep.InverseNumericCell(1, (*matrix)(r, 1)),
                whole.Numeric(1)[i])
          << "row " << r;
      EXPECT_EQ(prep.InverseCategoricalCell(2, (*matrix)(r, 2)),
                whole.Categorical(2)[i])
          << "row " << r;
    }
  }
  // The sentinels clamp to the vocabulary's ends.
  EXPECT_EQ(prep.InverseCategoricalCell(0, MinMaxScaler::kMissingSentinel),
            "alpha");
  EXPECT_EQ(
      prep.InverseCategoricalCell(0, TablePreprocessor::kUnknownSentinel),
      "gamma");
  EXPECT_EQ(prep.InverseCategoricalCell(2, 0.0), "");
}

TEST(PreprocessorTest, LabelEncoderDeterministicOrder) {
  LabelEncoder enc;
  enc.Fit({"zebra", "ant", "mule", "ant"});
  EXPECT_EQ(enc.vocab_size(), 3);
  EXPECT_EQ(enc.Decode(0), "ant");  // sorted vocabulary
  EXPECT_EQ(enc.Encode("zebra"), 2);
  EXPECT_EQ(enc.Encode("typo"), enc.unknown_code());
  EXPECT_EQ(enc.Encode(""), enc.missing_code());
}

TEST(PreprocessorTest, DegenerateConstantColumn) {
  Table t(SmallSchema());
  t.AppendRow({7.0}, {"a"});
  t.AppendRow({7.0}, {"a"});
  TablePreprocessor prep;
  prep.Fit(t);
  Tensor m = prep.Transform(t);
  EXPECT_TRUE(std::isfinite(m(0, 1)));
}

// ---- Batch sampling -----------------------------------------------------------

TEST(BatchSamplerTest, SizesAndBounds) {
  Rng rng(1);
  Table t(SmallSchema());
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({static_cast<double>(i)}, {"x"});
  }
  Table batch = SampleBatch(t, 10, rng);
  EXPECT_EQ(batch.num_rows(), 10);
  auto batches = SampleBatches(t, 5, 0.1, rng);
  EXPECT_EQ(batches.size(), 5u);
  for (const Table& b : batches) EXPECT_EQ(b.num_rows(), 10);
}

TEST(BatchSamplerTest, WithoutReplacementWithinBatch) {
  Rng rng(2);
  Table t(SmallSchema());
  for (int i = 0; i < 50; ++i) {
    t.AppendRow({static_cast<double>(i)}, {"x"});
  }
  Table batch = SampleBatch(t, 50, rng);
  std::set<double> values(batch.Numeric(1).begin(), batch.Numeric(1).end());
  EXPECT_EQ(values.size(), 50u);
}

// ---- Generators ---------------------------------------------------------------

TEST(GeneratorTest, SchemasAreConsistent) {
  Rng rng(3);
  EXPECT_EQ(datasets::GenerateHotelBooking(10, rng).schema(),
            datasets::HotelBookingSchema());
  EXPECT_EQ(datasets::GenerateCreditCard(10, rng).schema(),
            datasets::CreditCardSchema());
  EXPECT_EQ(datasets::GenerateAirbnbClean(10, rng).schema(),
            datasets::AirbnbSchema());
  EXPECT_EQ(datasets::GenerateBicycleClean(10, rng).schema(),
            datasets::BicycleSchema());
  EXPECT_EQ(datasets::GenerateGooglePlayClean(10, rng).schema(),
            datasets::GooglePlaySchema());
  EXPECT_EQ(datasets::GenerateNyTaxi(10, rng).schema(),
            datasets::NyTaxiSchema());
}

TEST(GeneratorTest, NyTaxiDimensionPrefixes) {
  Rng rng(4);
  for (int64_t dims : {5, 10, 18}) {
    Table t = datasets::GenerateNyTaxi(20, rng, dims);
    EXPECT_EQ(t.num_columns(), dims);
  }
}

TEST(GeneratorTest, CreditCardDependenciesHold) {
  Rng rng(5);
  Table t = datasets::GenerateCreditCard(2000, rng);
  const auto& birth = t.NumericByName("DAYS_BIRTH");
  const auto& employed = t.NumericByName("DAYS_EMPLOYED");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    // Clean data never has employment before birth (or before age 18).
    EXPECT_GT(employed[static_cast<size_t>(r)],
              birth[static_cast<size_t>(r)]);
    EXPECT_LT(employed[static_cast<size_t>(r)], 0.0);
    EXPECT_LT(birth[static_cast<size_t>(r)], 0.0);
  }
  // Income is positively associated with education (correlation ratio).
  std::vector<double> education_codes;
  LabelEncoder enc;
  enc.Fit(t.CategoricalByName("NAME_EDUCATION_TYPE"));
  for (const auto& v : t.CategoricalByName("NAME_EDUCATION_TYPE")) {
    education_codes.push_back(static_cast<double>(enc.Encode(v)));
  }
  EXPECT_GT(CorrelationRatio(education_codes,
                             t.NumericByName("AMT_INCOME_TOTAL")),
            0.2);
}

TEST(GeneratorTest, TaxiFareTracksDistance) {
  Rng rng(6);
  Table t = datasets::GenerateNyTaxi(2000, rng);
  std::vector<double> distance = t.NumericByName("trip_distance");
  std::vector<double> fare = t.NumericByName("fare_amount");
  EXPECT_GT(PearsonCorrelation(distance, fare), 0.8);
  // total = fare + tip + tolls + tax + extra, to the cent.
  const auto& total = t.NumericByName("total_amount");
  const auto& tip = t.NumericByName("tip_amount");
  const auto& tolls = t.NumericByName("tolls_amount");
  const auto& tax = t.NumericByName("mta_tax");
  const auto& extra = t.NumericByName("extra");
  for (int64_t r = 0; r < 100; ++r) {
    const size_t i = static_cast<size_t>(r);
    EXPECT_NEAR(total[i], fare[i] + tip[i] + tolls[i] + tax[i] + extra[i],
                1e-6);
  }
}

TEST(GeneratorTest, HotelBabiesImplyAdults) {
  Rng rng(7);
  Table t = datasets::GenerateHotelBooking(3000, rng);
  const auto& adults = t.NumericByName("adults");
  const auto& babies = t.NumericByName("babies");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (babies[i] > 0) EXPECT_GE(adults[i], 1.0);
  }
}

TEST(GeneratorTest, GooglePlayPriceTypeDependency) {
  Rng rng(8);
  Table t = datasets::GenerateGooglePlayClean(2000, rng);
  const auto& type = t.CategoricalByName("type");
  const auto& price = t.NumericByName("price_usd");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (type[i] == "Free") {
      EXPECT_EQ(price[i], 0.0);
    } else {
      EXPECT_GT(price[i], 0.0);
    }
  }
}

TEST(GeneratorTest, AirbnbNeighbourhoodMatchesBorough) {
  Rng rng(9);
  Table t = datasets::GenerateAirbnbClean(1000, rng);
  // Every (borough, neighbourhood) pair in clean data is consistent: a
  // neighbourhood appears under exactly one borough.
  std::map<std::string, std::set<std::string>> hood_to_borough;
  const auto& group = t.CategoricalByName("neighbourhood_group");
  const auto& hood = t.CategoricalByName("neighbourhood");
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    hood_to_borough[hood[static_cast<size_t>(r)]].insert(
        group[static_cast<size_t>(r)]);
  }
  for (const auto& [h, boroughs] : hood_to_borough) {
    EXPECT_EQ(boroughs.size(), 1u) << h;
  }
}

TEST(GeneratorTest, DirtyVersionsReportCorruption) {
  Rng rng(10);
  std::vector<bool> flags;
  Table dirty = datasets::GenerateAirbnbDirty(4000, rng, &flags);
  ASSERT_EQ(flags.size(), 4000u);
  double rate = 0.0;
  for (bool f : flags) rate += f ? 1.0 : 0.0;
  rate /= 4000.0;
  EXPECT_NEAR(rate, 0.105, 0.03);  // paper: 10.52%

  Table bike_dirty = datasets::GenerateBicycleDirty(4000, rng, &flags);
  rate = 0.0;
  for (bool f : flags) rate += f ? 1.0 : 0.0;
  rate /= 4000.0;
  EXPECT_NEAR(rate, 0.211, 0.03);  // paper: 21.11%
}

TEST(GeneratorTest, CorruptKeepsUntouchedRowsIdentical) {
  Rng rng(11);
  Table clean = datasets::GenerateGooglePlayClean(500, rng);
  std::vector<bool> flags;
  Table dirty = datasets::CorruptGooglePlay(clean, rng, &flags);
  for (int64_t r = 0; r < clean.num_rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    if (flags[i]) continue;
    EXPECT_EQ(dirty.NumericByName("rating")[i],
              clean.NumericByName("rating")[i]);
    EXPECT_EQ(dirty.CategoricalByName("category")[i],
              clean.CategoricalByName("category")[i]);
  }
}

// ---- Error injection ----------------------------------------------------------

TEST(InjectorTest, MissingValuesFraction) {
  Rng rng(12);
  Table clean = datasets::GenerateCreditCard(1000, rng);
  ErrorInjector injector(1);
  InjectionResult result =
      injector.InjectMissing(clean, {"AMT_INCOME_TOTAL"}, 0.2);
  int64_t missing = 0;
  for (double v : result.table.NumericByName("AMT_INCOME_TOTAL")) {
    missing += IsMissing(v) ? 1 : 0;
  }
  EXPECT_EQ(missing, 200);
  EXPECT_NEAR(result.CorruptionRate(), 0.2, 1e-9);
}

TEST(InjectorTest, NumericAnomaliesOutOfRange) {
  Rng rng(13);
  Table clean = datasets::GenerateCreditCard(1000, rng);
  const double clean_max =
      *std::max_element(clean.NumericByName("AMT_INCOME_TOTAL").begin(),
                        clean.NumericByName("AMT_INCOME_TOTAL").end());
  ErrorInjector injector(2);
  InjectionResult result =
      injector.InjectNumericAnomalies(clean, {"AMT_INCOME_TOTAL"}, 0.1);
  int64_t out_of_range = 0;
  for (double v : result.table.NumericByName("AMT_INCOME_TOTAL")) {
    if (v > clean_max || v < 0.0) ++out_of_range;
  }
  EXPECT_EQ(out_of_range, 100);
}

TEST(InjectorTest, TyposCreateUnseenValues) {
  Rng rng(14);
  Table clean = datasets::GenerateCreditCard(500, rng);
  std::set<std::string> vocabulary(
      clean.CategoricalByName("OCCUPATION_TYPE").begin(),
      clean.CategoricalByName("OCCUPATION_TYPE").end());
  ErrorInjector injector(3);
  InjectionResult result =
      injector.InjectTypos(clean, {"OCCUPATION_TYPE"}, 0.2);
  int64_t unseen = 0;
  for (const auto& v : result.table.CategoricalByName("OCCUPATION_TYPE")) {
    if (!vocabulary.count(v)) ++unseen;
  }
  EXPECT_NEAR(static_cast<double>(unseen) / 500.0, 0.2, 0.02);
}

TEST(InjectorTest, QwertyTypoChangesOneCharacter) {
  Rng rng(15);
  for (int i = 0; i < 50; ++i) {
    const std::string original = "Subscriber";
    const std::string typo = MakeQwertyTypo(original, rng);
    EXPECT_NE(typo, original);
    EXPECT_EQ(typo.size(), original.size());
    int differences = 0;
    for (size_t j = 0; j < original.size(); ++j) {
      if (typo[j] != original[j]) ++differences;
    }
    EXPECT_EQ(differences, 1);
  }
}

TEST(InjectorTest, HotelConflictCreatesIllogicalRows) {
  Rng rng(16);
  Table clean = datasets::GenerateHotelBooking(1000, rng);
  ErrorInjector injector(4);
  InjectionResult result = injector.InjectHotelGroupConflict(clean, 0.2);
  int64_t conflicts = 0;
  const auto& customer = result.table.CategoricalByName("customer_type");
  const auto& adults = result.table.NumericByName("adults");
  const auto& babies = result.table.NumericByName("babies");
  for (size_t r = 0; r < 1000; ++r) {
    if (customer[r] == "Group" && adults[r] == 0.0 && babies[r] > 0.0) {
      ++conflicts;
      EXPECT_TRUE(result.row_corrupted[r]);
    }
  }
  EXPECT_EQ(conflicts, 200);
}

TEST(InjectorTest, CreditEmploymentConflictIsHiddenInRange) {
  Rng rng(17);
  Table clean = datasets::GenerateCreditCard(2000, rng);
  const auto& clean_employed = clean.NumericByName("DAYS_EMPLOYED");
  const double clean_min =
      *std::min_element(clean_employed.begin(), clean_employed.end());
  ErrorInjector injector(5);
  InjectionResult result =
      injector.InjectCreditEmploymentConflict(clean, 0.2);
  const auto& birth = result.table.NumericByName("DAYS_BIRTH");
  const auto& employed = result.table.NumericByName("DAYS_EMPLOYED");
  for (size_t r = 0; r < 2000; ++r) {
    if (!result.row_corrupted[r]) continue;
    // The conflict: employment precedes birth...
    EXPECT_LT(employed[r], birth[r]);
    // ...while staying inside the clean column range (hidden from range
    // constraints).
    EXPECT_GT(employed[r], clean_min - 1.0);
    EXPECT_LT(employed[r], 0.0);
  }
}

TEST(InjectorTest, CreditIncomeConflictStaysInRange) {
  Rng rng(18);
  Table clean = datasets::GenerateCreditCard(2000, rng);
  const auto& incomes = clean.NumericByName("AMT_INCOME_TOTAL");
  const double clean_min = *std::min_element(incomes.begin(), incomes.end());
  ErrorInjector injector(6);
  InjectionResult result = injector.InjectCreditIncomeConflict(clean, 0.2);
  for (size_t r = 0; r < 2000; ++r) {
    if (!result.row_corrupted[r]) continue;
    const double income = result.table.NumericByName("AMT_INCOME_TOTAL")[r];
    EXPECT_GE(income, std::min(clean_min, 16000.0) - 1.0);
    const std::string& education =
        result.table.CategoricalByName("NAME_EDUCATION_TYPE")[r];
    EXPECT_TRUE(education == "Academic degree" ||
                education == "Higher education");
  }
}

TEST(InjectorTest, DeterministicForSeed) {
  Rng rng(19);
  Table clean = datasets::GenerateCreditCard(300, rng);
  ErrorInjector a(7), b(7);
  Table ta = a.InjectMissing(clean, {"AMT_INCOME_TOTAL"}, 0.2).table;
  Table tb = b.InjectMissing(clean, {"AMT_INCOME_TOTAL"}, 0.2).table;
  for (size_t r = 0; r < 300; ++r) {
    EXPECT_EQ(IsMissing(ta.NumericByName("AMT_INCOME_TOTAL")[r]),
              IsMissing(tb.NumericByName("AMT_INCOME_TOTAL")[r]));
  }
}

}  // namespace
}  // namespace dquag
