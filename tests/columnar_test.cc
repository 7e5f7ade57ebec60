// Tests for the DQuaG columnar file format (.dqc): golden-file pinning of
// the writer's byte output, CSV <-> columnar round-trip bit-identity across
// chunkings and both readers, zero-copy view semantics, streaming-validation
// parity over .dqc files, and the CSV/table edge cases the format has to
// survive (empty files, header-only files, all-null columns, >255-entry
// dictionaries).
//
// Golden files live in tests/golden/*.dqc. The writer is deterministic
// byte-for-byte for a given row stream, so a golden mismatch means the file
// format changed — which silently invalidates every .dqc in the wild. To
// intentionally regenerate after a deliberate format bump:
//
//   DQUAG_UPDATE_GOLDENS=1 ./columnar_test

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/streaming_validator.h"
#include "data/columnar_format.h"
#include "data/columnar_reader.h"
#include "data/columnar_writer.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "data/table_chunk_reader.h"
#include "util/csv.h"

namespace dquag {
namespace {

bool UpdateGoldens() {
  const char* value = std::getenv("DQUAG_UPDATE_GOLDENS");
  return value != nullptr && *value != '\0' && *value != '0';
}

std::string GoldenPath(const std::string& name) {
  return std::string(DQUAG_GOLDEN_DIR) + "/" + name;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Writes `table` as .dqc (3 blocks at 48 rows) and compares the raw file
/// bytes against the checked-in golden.
void ExpectMatchesDqcGolden(const Table& table, const std::string& name) {
  const std::string path = TempPath(name);
  ColumnarWriterOptions options;
  options.block_rows = 16;  // 48 golden rows -> 3 full blocks
  ASSERT_TRUE(WriteColumnarFile(table, path, options).ok());
  const std::string actual = ReadFileBytes(path);
  const std::string golden = GoldenPath(name);
  if (UpdateGoldens()) {
    std::ofstream out(golden, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden;
    out << actual;
    return;
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden
                         << " — run with DQUAG_UPDATE_GOLDENS=1";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  ASSERT_EQ(actual.size(), expected.size())
      << name << " changed size — the .dqc layout changed; if intentional, "
      << "bump columnar::kVersion and regenerate with DQUAG_UPDATE_GOLDENS=1";
  EXPECT_TRUE(actual == expected)
      << name << " is no longer byte-identical — the .dqc encoding changed; "
      << "if intentional, bump columnar::kVersion and regenerate with "
      << "DQUAG_UPDATE_GOLDENS=1";
}

/// Strict bitwise table equality: schemas, row counts, every categorical
/// string, and the exact bit pattern of every numeric cell (canonical NaN
/// for missing, so missing == missing holds under bit comparison).
void ExpectTablesBitIdentical(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().column(c).type == ColumnType::kNumeric) {
      const std::vector<double>& av = a.Numeric(c);
      const std::vector<double>& bv = b.Numeric(c);
      ASSERT_EQ(av.size(), bv.size());
      for (size_t r = 0; r < av.size(); ++r) {
        uint64_t ab, bb;
        std::memcpy(&ab, &av[r], 8);
        std::memcpy(&bb, &bv[r], 8);
        EXPECT_EQ(ab, bb) << "column " << a.schema().column(c).name
                          << " row " << r << ": " << av[r] << " vs "
                          << bv[r];
      }
    } else {
      EXPECT_EQ(a.Categorical(c), b.Categorical(c))
          << "column " << a.schema().column(c).name;
    }
  }
}

/// Drains any chunk reader into one materialized table.
Table DrainReader(TableChunkReader& reader) {
  Table out(reader.schema());
  Table chunk;
  for (;;) {
    auto got = reader.Next(chunk);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ok() || *got == 0) break;
    out.AppendRows(chunk);
  }
  return out;
}

// ---- Golden files: the writer's bytes are pinned ---------------------------

TEST(ColumnarGoldenTest, HotelBooking) {
  Rng rng(101);
  ExpectMatchesDqcGolden(datasets::GenerateHotelBooking(48, rng),
                         "hotel_booking_seed101_48.dqc");
}

TEST(ColumnarGoldenTest, CreditCard) {
  Rng rng(102);
  ExpectMatchesDqcGolden(datasets::GenerateCreditCard(48, rng),
                         "credit_card_seed102_48.dqc");
}

TEST(ColumnarGoldenTest, NyTaxi) {
  Rng rng(103);
  ExpectMatchesDqcGolden(datasets::GenerateNyTaxi(48, rng),
                         "ny_taxi_seed103_48.dqc");
}

TEST(ColumnarGoldenTest, AirbnbCleanAndDirty) {
  Rng rng(104);
  const Table clean = datasets::GenerateAirbnbClean(48, rng);
  ExpectMatchesDqcGolden(clean, "airbnb_clean_seed104_48.dqc");
  Rng dirt_rng(1104);
  ExpectMatchesDqcGolden(datasets::CorruptAirbnb(clean, dirt_rng),
                         "airbnb_dirty_seed1104_48.dqc");
}

TEST(ColumnarGoldenTest, BicycleCleanAndDirty) {
  Rng rng(105);
  const Table clean = datasets::GenerateBicycleClean(48, rng);
  ExpectMatchesDqcGolden(clean, "bicycle_clean_seed105_48.dqc");
  Rng dirt_rng(1105);
  ExpectMatchesDqcGolden(datasets::CorruptBicycle(clean, dirt_rng),
                         "bicycle_dirty_seed1105_48.dqc");
}

TEST(ColumnarGoldenTest, GooglePlayCleanAndDirty) {
  Rng rng(106);
  const Table clean = datasets::GenerateGooglePlayClean(48, rng);
  ExpectMatchesDqcGolden(clean, "google_play_clean_seed106_48.dqc");
  Rng dirt_rng(1106);
  ExpectMatchesDqcGolden(datasets::CorruptGooglePlay(clean, dirt_rng),
                         "google_play_dirty_seed1106_48.dqc");
}

// Determinism backs the goldens: two writes of the same table are
// byte-identical, independent of block size changes being visible.
TEST(ColumnarGoldenTest, WriterIsDeterministic) {
  Rng rng(106);
  const Table table = datasets::GenerateGooglePlayClean(48, rng);
  ColumnarWriterOptions options;
  options.block_rows = 7;
  const std::string p1 = TempPath("det1.dqc");
  const std::string p2 = TempPath("det2.dqc");
  ASSERT_TRUE(WriteColumnarFile(table, p1, options).ok());
  ASSERT_TRUE(WriteColumnarFile(table, p2, options).ok());
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
}

// ---- Round trip: CSV -> columnar -> Table == CSV -> Table ------------------

/// One dataset's property sweep: serialize to CSV (the %.10g-faithful
/// reference representation), convert to .dqc at several block sizes, and
/// assert both readers reproduce the CSV-loaded table bit for bit at every
/// chunk size, including chunks that span block boundaries.
void RunRoundTripSweep(const Table& source, const std::string& tag) {
  const std::string csv_path = TempPath(tag + ".csv");
  ASSERT_TRUE(WriteCsvFile(source.ToCsv(), csv_path).ok());
  auto doc = ReadCsvFile(csv_path);
  ASSERT_TRUE(doc.ok());
  auto reference = Table::FromCsv(source.schema(), *doc);
  ASSERT_TRUE(reference.ok());
  const int64_t rows = reference->num_rows();

  for (int64_t block_rows : {int64_t{5}, int64_t{16}, int64_t{4096}}) {
    const std::string dqc_path =
        TempPath(tag + "_b" + std::to_string(block_rows) + ".dqc");
    auto converted = ConvertCsvToColumnar(csv_path, source.schema(), dqc_path,
                                          {.block_rows = block_rows});
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();
    EXPECT_EQ(*converted, rows);

    // Whole-table materialization.
    auto whole = ReadColumnarTable(dqc_path);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    ExpectTablesBitIdentical(*whole, *reference);

    for (int64_t chunk_rows :
         {int64_t{1}, int64_t{7}, int64_t{256}, rows + 5}) {
      SCOPED_TRACE(tag + " block=" + std::to_string(block_rows) +
                   " chunk=" + std::to_string(chunk_rows));
      auto columnar =
          ColumnarReader::Open(dqc_path, {.chunk_rows = chunk_rows});
      ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();
      ExpectTablesBitIdentical(DrainReader(**columnar), *reference);

      CsvChunkReaderOptions csv_options;
      csv_options.chunk_rows = chunk_rows;
      auto csv_reader =
          CsvChunkReader::Open(csv_path, source.schema(), csv_options);
      ASSERT_TRUE(csv_reader.ok()) << csv_reader.status().ToString();
      ExpectTablesBitIdentical(DrainReader(**csv_reader), *reference);
    }
  }
}

TEST(ColumnarRoundTripTest, GooglePlayDirtySweep) {
  // Dirty Google Play rows carry typos, missing numerics, and missing
  // categoricals — the full null-bitmap + dictionary surface.
  Rng rng(106);
  Rng dirt_rng(1106);
  RunRoundTripSweep(datasets::CorruptGooglePlay(
                        datasets::GenerateGooglePlayClean(60, rng), dirt_rng),
                    "round_trip_google_play");
}

TEST(ColumnarRoundTripTest, NyTaxiSweep) {
  Rng rng(103);
  RunRoundTripSweep(datasets::GenerateNyTaxi(53, rng, /*dims=*/10),
                    "round_trip_ny_taxi");
}

// ---- Zero-copy views -------------------------------------------------------

Table SmallMixedTable() {
  Table t(Schema({{"x", ColumnType::kNumeric, ""},
                  {"label", ColumnType::kCategorical, ""}}));
  t.AppendRow({1.5}, {"b"});
  t.AppendRow({MissingValue()}, {"a"});
  t.AppendRow({-2.25}, {"b"});
  t.AppendRow({0.0}, {""});
  t.AppendRow({7.0}, {"c"});
  return t;
}

TEST(ColumnarViewTest, ViewsExposePayloadsAndFirstAppearanceDictionary) {
  const Table table = SmallMixedTable();
  const std::string path = TempPath("views.dqc");
  ASSERT_TRUE(WriteColumnarFile(table, path, {.block_rows = 3}).ok());
  auto reader = ColumnarReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ColumnarReader& r = **reader;
  ASSERT_EQ(r.num_rows(), 5);
  ASSERT_EQ(r.num_blocks(), 2);
  EXPECT_TRUE(r.is_mapped());

  // Dictionary codes are assigned in first-appearance order: b, a, c.
  const std::vector<std::string> want_dict = {"b", "a", "c"};
  EXPECT_EQ(r.dictionary(1), want_dict);

  auto num0 = r.NumericBlock(0, 0);
  ASSERT_TRUE(num0.ok()) << num0.status().ToString();
  ASSERT_EQ(num0->rows, 3);
  EXPECT_EQ(num0->values[0], 1.5);
  EXPECT_EQ(num0->values[2], -2.25);
  EXPECT_TRUE(columnar::BitmapGet(num0->bitmap, 0));
  EXPECT_FALSE(columnar::BitmapGet(num0->bitmap, 1));  // missing row 1
  EXPECT_TRUE(std::isnan(num0->values[1]));  // canonical NaN in null slot

  auto cat0 = r.CategoricalBlock(0, 1);
  ASSERT_TRUE(cat0.ok()) << cat0.status().ToString();
  EXPECT_EQ(cat0->codes[0], 0u);  // "b"
  EXPECT_EQ(cat0->codes[1], 1u);  // "a"
  EXPECT_EQ(cat0->codes[2], 0u);  // "b"

  auto cat1 = r.CategoricalBlock(1, 1);
  ASSERT_TRUE(cat1.ok());
  ASSERT_EQ(cat1->rows, 2);
  EXPECT_FALSE(columnar::BitmapGet(cat1->bitmap, 0));  // "" row 3
  EXPECT_EQ(cat1->codes[0], 0u);  // null slots keep the zero code
  EXPECT_TRUE(columnar::BitmapGet(cat1->bitmap, 1));
  EXPECT_EQ(cat1->codes[1], 2u);  // "c"

  // Type-mismatched view requests fail with Status, not a CHECK.
  EXPECT_FALSE(r.NumericBlock(0, 1).ok());
  EXPECT_FALSE(r.CategoricalBlock(0, 0).ok());
  EXPECT_FALSE(r.NumericBlock(99, 0).ok());
}

TEST(ColumnarViewTest, BytesTouchedIsLazyAndResetKeepsWarmCache) {
  Rng rng(103);
  const Table table = datasets::GenerateNyTaxi(40, rng, /*dims=*/10);
  const std::string path = TempPath("warm.dqc");
  ASSERT_TRUE(WriteColumnarFile(table, path, {.block_rows = 16}).ok());
  auto reader = ColumnarReader::Open(path, {.chunk_rows = 8});
  ASSERT_TRUE(reader.ok());
  ColumnarReader& r = **reader;

  // Open validates the footer but touches no payload.
  EXPECT_EQ(r.bytes_touched(), 0u);

  const Table first = DrainReader(r);
  EXPECT_EQ(first.num_rows(), 40);
  EXPECT_EQ(r.rows_delivered(), 40);
  const uint64_t cold_bytes = r.bytes_touched();
  EXPECT_GT(cold_bytes, 0u);

  // Warm pass: same rows, no new verification work.
  r.Reset();
  EXPECT_EQ(r.rows_delivered(), 0);
  const Table second = DrainReader(r);
  ExpectTablesBitIdentical(first, second);
  EXPECT_EQ(r.bytes_touched(), cold_bytes);
}

// ---- Streaming validation over .dqc: parity with whole-table Validate ------

struct ParityCase {
  std::string name;
  std::function<Table(int64_t, Rng&)> clean;
  // Null when the dataset has a Corrupt* generator instead.
  std::function<Table(const Table&, Rng&)> corrupt;
};

/// First numeric column of a schema (for datasets without a Corrupt*
/// generator, dirt comes from the §4.1.2 injector on that column).
std::string FirstNumericColumn(const Schema& schema) {
  for (int64_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == ColumnType::kNumeric) {
      return schema.column(c).name;
    }
  }
  ADD_FAILURE() << "schema has no numeric column";
  return "";
}

TEST(ColumnarValidateStreamTest, AllSixDatasetsMatchWholeTableValidation) {
  const std::vector<ParityCase> cases = {
      {"hotel",
       [](int64_t n, Rng& r) { return datasets::GenerateHotelBooking(n, r); },
       nullptr},
      {"credit",
       [](int64_t n, Rng& r) { return datasets::GenerateCreditCard(n, r); },
       nullptr},
      {"taxi",
       [](int64_t n, Rng& r) {
         return datasets::GenerateNyTaxi(n, r, /*dims=*/10);
       },
       nullptr},
      {"airbnb",
       [](int64_t n, Rng& r) { return datasets::GenerateAirbnbClean(n, r); },
       [](const Table& t, Rng& r) { return datasets::CorruptAirbnb(t, r); }},
      {"bicycle",
       [](int64_t n, Rng& r) { return datasets::GenerateBicycleClean(n, r); },
       [](const Table& t, Rng& r) { return datasets::CorruptBicycle(t, r); }},
      {"google_play",
       [](int64_t n, Rng& r) {
         return datasets::GenerateGooglePlayClean(n, r);
       },
       [](const Table& t, Rng& r) {
         return datasets::CorruptGooglePlay(t, r);
       }},
  };

  size_t total_flagged = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const ParityCase& c = cases[i];
    SCOPED_TRACE(c.name);
    const uint64_t seed = 31 + i;

    Rng train_rng(seed);
    const Table train = c.clean(128, train_rng);
    DquagPipelineOptions options;
    options.config.encoder.hidden_dim = 16;
    options.config.epochs = 2;
    options.config.batch_size = 64;
    DquagPipeline pipeline(std::move(options));
    ASSERT_TRUE(pipeline.Fit(train).ok());

    Rng eval_rng(seed + 1000);
    Table eval = c.clean(96, eval_rng);
    if (c.corrupt) {
      Rng dirt_rng(seed + 2000);
      eval = c.corrupt(eval, dirt_rng);
    } else {
      ErrorInjector injector(seed + 2000);
      eval = injector
                 .InjectNumericAnomalies(
                     eval, {FirstNumericColumn(eval.schema())}, 0.15)
                 .table;
    }

    // The CSV file is the interchange source of truth; both the in-memory
    // table and the .dqc derive from it.
    const std::string csv_path = TempPath("parity_" + c.name + ".csv");
    const std::string dqc_path = TempPath("parity_" + c.name + ".dqc");
    ASSERT_TRUE(WriteCsvFile(eval.ToCsv(), csv_path).ok());
    auto converted = ConvertCsvToColumnar(csv_path, eval.schema(), dqc_path,
                                          {.block_rows = 16});
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();

    auto doc = ReadCsvFile(csv_path);
    ASSERT_TRUE(doc.ok());
    auto csv_table = Table::FromCsv(eval.schema(), *doc);
    ASSERT_TRUE(csv_table.ok());
    const BatchVerdict batch = pipeline.Validate(*csv_table);
    total_flagged += batch.flagged_rows.size();

    auto reader = ColumnarReader::Open(dqc_path, {.chunk_rows = 17});
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    StreamingValidator streamer(&pipeline);
    auto stream = streamer.Run(**reader);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();

    EXPECT_EQ(stream->total_rows, csv_table->num_rows());
    EXPECT_EQ(stream->flagged_rows, batch.flagged_rows);
    EXPECT_EQ(stream->flagged_fraction, batch.flagged_fraction);
    EXPECT_EQ(stream->is_dirty, batch.is_dirty);
    EXPECT_EQ(stream->threshold, batch.threshold);
    const StreamErrorStats expected = StreamErrorStats::FromVerdict(batch);
    EXPECT_EQ(stream->error_stats.sum, expected.sum);
    EXPECT_EQ(stream->error_stats.sum_squares, expected.sum_squares);
    EXPECT_EQ(stream->error_stats.min, expected.min);
    EXPECT_EQ(stream->error_stats.max, expected.max);
  }
  // At least one dataset must actually flag rows, or parity is vacuous.
  EXPECT_GT(total_flagged, 0u);
}

// ---- Edge cases ------------------------------------------------------------

TEST(ColumnarEdgeCaseTest, EmptyCsvFileFailsCleanly) {
  const std::string path = TempPath("empty.csv");
  { std::ofstream out(path, std::ios::binary); }
  const Schema schema({{"x", ColumnType::kNumeric, ""}});
  auto reader = CsvChunkReader::Open(path, schema);
  EXPECT_FALSE(reader.ok());
  auto converted =
      ConvertCsvToColumnar(path, schema, TempPath("empty.dqc"));
  EXPECT_FALSE(converted.ok());
}

TEST(ColumnarEdgeCaseTest, HeaderOnlyCsvRoundTripsAsZeroRows) {
  const Schema schema({{"x", ColumnType::kNumeric, ""},
                       {"label", ColumnType::kCategorical, ""}});
  const std::string csv_path = TempPath("header_only.csv");
  {
    std::ofstream out(csv_path, std::ios::binary);
    out << "x,label\n";
  }
  const std::string dqc_path = TempPath("header_only.dqc");
  auto converted = ConvertCsvToColumnar(csv_path, schema, dqc_path);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  EXPECT_EQ(*converted, 0);

  auto reader = ColumnarReader::Open(dqc_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_rows(), 0);
  EXPECT_EQ((*reader)->num_blocks(), 0);
  EXPECT_TRUE((*reader)->schema() == schema);
  Table chunk;
  auto got = (*reader)->Next(chunk);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 0);

  auto whole = ReadColumnarTable(dqc_path);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->num_rows(), 0);
}

TEST(ColumnarEdgeCaseTest, AllNullColumnsRoundTrip) {
  Table t(Schema({{"x", ColumnType::kNumeric, ""},
                  {"label", ColumnType::kCategorical, ""}}));
  for (int r = 0; r < 10; ++r) {
    t.AppendRow({MissingValue()}, {""});
  }
  const std::string path = TempPath("all_null.dqc");
  ASSERT_TRUE(WriteColumnarFile(t, path, {.block_rows = 4}).ok());
  auto reader = ColumnarReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  // All-null categorical column: empty dictionary, every code zero.
  EXPECT_TRUE((*reader)->dictionary(1).empty());
  ExpectTablesBitIdentical(DrainReader(**reader), t);
}

TEST(ColumnarEdgeCaseTest, DictionaryBeyond255DistinctValuesRoundTrips) {
  Table t(Schema({{"label", ColumnType::kCategorical, ""}}));
  for (int r = 0; r < 600; ++r) {
    t.AppendRow({}, {"value_" + std::to_string(r % 300)});
  }
  const std::string path = TempPath("big_dict.dqc");
  ASSERT_TRUE(WriteColumnarFile(t, path, {.block_rows = 128}).ok());
  auto reader = ColumnarReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->dictionary(0).size(), 300u);
  ExpectTablesBitIdentical(DrainReader(**reader), t);
}

TEST(ColumnarEdgeCaseTest, TrailingJunkNumericCellIsRejected) {
  const Schema schema({{"x", ColumnType::kNumeric, ""}});
  CsvDocument doc;
  doc.header = {"x"};
  doc.rows = {{"12abc"}};
  auto table = Table::FromCsv(schema, doc);
  EXPECT_FALSE(table.ok());
  EXPECT_NE(table.status().ToString().find("non-numeric"), std::string::npos);
  // A plain number and an empty (missing) cell still parse.
  doc.rows = {{"12"}, {""}};
  EXPECT_TRUE(Table::FromCsv(schema, doc).ok());
}

TEST(ColumnarEdgeCaseTest, WriterRejectsMisuse) {
  const Schema schema({{"x", ColumnType::kNumeric, ""}});
  const Schema other({{"y", ColumnType::kNumeric, ""}});
  const std::string path = TempPath("misuse.dqc");
  auto writer = ColumnarWriter::Open(path, schema);
  ASSERT_TRUE(writer.ok());

  Table wrong(other);
  wrong.AppendRow({1.0}, {});
  EXPECT_FALSE((*writer)->Append(wrong).ok());

  Table right(schema);
  right.AppendRow({1.0}, {});
  ASSERT_TRUE((*writer)->Append(right).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_FALSE((*writer)->Finish().ok());        // Finish twice
  EXPECT_FALSE((*writer)->Append(right).ok());   // Append after Finish

  EXPECT_FALSE(
      ColumnarWriter::Open(path, schema, {.block_rows = 0}).ok());
  EXPECT_FALSE(
      ColumnarWriter::Open(path, Schema(std::vector<ColumnSpec>{})).ok());
}

}  // namespace
}  // namespace dquag
