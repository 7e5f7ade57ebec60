// End-to-end equivalence harness for the streaming validation pipeline.
//
// The streaming contract: validating a stream of chunks — any chunk size,
// any thread count, from memory or out-of-core from a CSV file — produces
// BIT-IDENTICAL results to validating the whole table at once: the same
// per-instance errors and flags, the same suspect features (repair
// targets), the same aggregate error statistics, the same dirty-batch
// verdict, and (when repairing) the same repaired cells. These tests
// enforce that contract across chunk sizes {1, 7, 256, > rows} and the
// row-block-straddling {255, 257, 769}, thread counts {1, 4}, all six
// dataset generators, and the concurrent service path; they run in the
// TSan and ASan CI jobs.

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/validation_service.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "data/table_chunk_reader.h"

namespace dquag {
namespace {

/// Fits a small pipeline on clean NY-Taxi rows (fast settings, enough for
/// non-degenerate weights — same recipe as engine_test).
DquagPipeline FitTaxiPipeline(int64_t rows = 160, int64_t epochs = 2) {
  Rng rng(7);
  Table clean = datasets::GenerateNyTaxi(rows, rng, /*dims=*/10);
  DquagPipelineOptions options;
  options.config.encoder.hidden_dim = 16;
  options.config.epochs = epochs;
  options.config.batch_size = 64;
  DquagPipeline pipeline(std::move(options));
  EXPECT_TRUE(pipeline.Fit(clean).ok());
  return pipeline;
}

/// Fresh taxi rows with injected anomalies so flagged rows exist.
Table DirtyTaxi(int64_t rows, uint64_t seed = 11) {
  Rng rng(seed);
  Table fresh = datasets::GenerateNyTaxi(rows, rng, /*dims=*/10);
  ErrorInjector injector(seed + 1);
  return injector.InjectNumericAnomalies(fresh, {"fare_amount"}, 0.15).table;
}

void ExpectSameInstance(const InstanceVerdict& a, const InstanceVerdict& b,
                        size_t row) {
  EXPECT_EQ(a.error, b.error) << "row " << row;
  EXPECT_EQ(a.flagged, b.flagged) << "row " << row;
  EXPECT_EQ(a.suspect_features, b.suspect_features) << "row " << row;
}

/// Asserts a stream run is bit-identical to a whole-table verdict:
/// reassembled per-instance verdicts, global flagged rows + repair
/// targets, aggregate stats, and the dirty rule.
void ExpectStreamEqualsBatch(const StreamVerdict& stream,
                             const std::vector<InstanceVerdict>& reassembled,
                             const BatchVerdict& batch) {
  ASSERT_EQ(reassembled.size(), batch.instances.size());
  for (size_t r = 0; r < reassembled.size(); ++r) {
    ExpectSameInstance(reassembled[r], batch.instances[r], r);
  }
  EXPECT_EQ(stream.total_rows,
            static_cast<int64_t>(batch.instances.size()));
  EXPECT_EQ(stream.flagged_rows, batch.flagged_rows);
  ASSERT_EQ(stream.flagged_instances.size(), batch.flagged_rows.size());
  for (size_t i = 0; i < stream.flagged_rows.size(); ++i) {
    ExpectSameInstance(stream.flagged_instances[i],
                       batch.instances[stream.flagged_rows[i]],
                       stream.flagged_rows[i]);
  }
  EXPECT_EQ(stream.flagged_fraction, batch.flagged_fraction);
  EXPECT_EQ(stream.is_dirty, batch.is_dirty);
  EXPECT_EQ(stream.threshold, batch.threshold);

  // Aggregate error statistics: the streaming accumulator must reproduce
  // the batch-path forward pass bit for bit.
  const StreamErrorStats expected = StreamErrorStats::FromVerdict(batch);
  EXPECT_EQ(stream.error_stats.count, expected.count);
  EXPECT_EQ(stream.error_stats.sum, expected.sum);
  EXPECT_EQ(stream.error_stats.sum_squares, expected.sum_squares);
  EXPECT_EQ(stream.error_stats.min, expected.min);
  EXPECT_EQ(stream.error_stats.max, expected.max);
}

/// Streams `table` through `streamer`, reassembling the full per-instance
/// verdict vector from the ordered chunk callbacks.
StreamVerdict RunStream(const StreamingValidator& streamer,
                        const Table& table, int64_t chunk_rows,
                        std::vector<InstanceVerdict>* reassembled) {
  TableViewChunkReader reader(&table, chunk_rows);
  reassembled->clear();
  int64_t last_index = -1;
  auto verdict = streamer.Run(reader, [&](const StreamChunk& chunk) {
    // Callbacks arrive strictly in chunk order, on the calling thread.
    EXPECT_EQ(chunk.chunk_index, last_index + 1);
    last_index = chunk.chunk_index;
    EXPECT_EQ(chunk.row_offset,
              static_cast<int64_t>(reassembled->size()));
    reassembled->insert(reassembled->end(), chunk.verdict->instances.begin(),
                        chunk.verdict->instances.end());
  });
  EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
  return std::move(verdict).value();
}

// ---- The headline matrix: chunk sizes x thread counts ----------------------

TEST(StreamingEquivalenceTest, ChunkSizeAndThreadCountInvariance) {
  DquagPipeline pipeline = FitTaxiPipeline();
  const Table fresh = DirtyTaxi(300);
  const BatchVerdict batch = pipeline.Validate(fresh);
  ASSERT_FALSE(batch.flagged_rows.empty());  // otherwise the test is vacuous
  ASSERT_LT(batch.flagged_rows.size(),
            static_cast<size_t>(fresh.num_rows()));

  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    StreamingValidatorOptions options;
    options.pool = &pool;
    StreamingValidator streamer(&pipeline, options);
    for (int64_t chunk_rows :
         {int64_t{1}, int64_t{7}, int64_t{256}, fresh.num_rows() + 5}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk=" + std::to_string(chunk_rows));
      std::vector<InstanceVerdict> reassembled;
      const StreamVerdict stream =
          RunStream(streamer, fresh, chunk_rows, &reassembled);
      ExpectStreamEqualsBatch(stream, reassembled, batch);
      EXPECT_EQ(stream.total_chunks,
                (fresh.num_rows() + chunk_rows - 1) / chunk_rows);
    }
  }
}

// ---- Every dataset generator ------------------------------------------------

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

class StreamingGeneratorTest
    : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(StreamingGeneratorTest, StreamEqualsBatch) {
  const GeneratorCase& item = GetParam();
  Rng rng(23);
  Table clean = item.clean(140, rng);
  DquagPipelineOptions options;
  options.config.encoder.hidden_dim = 8;
  options.config.epochs = 1;
  options.config.batch_size = 64;
  DquagPipeline pipeline(std::move(options));
  ASSERT_TRUE(pipeline.Fit(clean).ok());

  Table fresh = item.fresh(90, rng);
  const BatchVerdict batch = pipeline.Validate(fresh);

  StreamingValidator streamer(&pipeline);  // global pool
  std::vector<InstanceVerdict> reassembled;
  const StreamVerdict stream = RunStream(streamer, fresh, 7, &reassembled);
  ExpectStreamEqualsBatch(stream, reassembled, batch);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, StreamingGeneratorTest,
    ::testing::Values(
        GeneratorCase{"hotel", &datasets::GenerateHotelBooking, &HotelFresh},
        GeneratorCase{"credit", &datasets::GenerateCreditCard, &CreditFresh},
        GeneratorCase{"taxi", &TaxiClean, &TaxiFresh},
        GeneratorCase{"airbnb", &datasets::GenerateAirbnbClean,
                      &AirbnbFresh},
        GeneratorCase{"bicycle", &datasets::GenerateBicycleClean,
                      &BicycleFresh},
        GeneratorCase{"googleplay", &datasets::GenerateGooglePlayClean,
                      &GooglePlayFresh}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return std::string(info.param.name);
    });

// ---- Out-of-core CSV path ---------------------------------------------------

TEST(StreamingCsvTest, FileStreamMatchesWholeTableOfTheSameFile) {
  DquagPipeline pipeline = FitTaxiPipeline();
  const Table fresh = DirtyTaxi(150);

  const std::string path = ::testing::TempDir() + "/streaming_test.csv";
  ASSERT_TRUE(WriteCsvFile(fresh.ToCsv(), path).ok());

  // Whole-table reference: parse the SAME file in one go (CSV round trips
  // through %.10g, so the file — not the in-memory source — is the truth).
  auto doc = ReadCsvFile(path);
  ASSERT_TRUE(doc.ok());
  auto whole = Table::FromCsv(fresh.schema(), *doc);
  ASSERT_TRUE(whole.ok());
  const BatchVerdict batch = pipeline.Validate(*whole);

  // Tiny IO blocks force quoted fields and records across block
  // boundaries; chunk 7 forces ragged chunk tails.
  CsvChunkReaderOptions reader_options;
  reader_options.chunk_rows = 7;
  reader_options.io_block_bytes = 64;
  auto reader = CsvChunkReader::Open(path, fresh.schema(), reader_options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  StreamingValidator streamer(&pipeline);
  std::vector<InstanceVerdict> reassembled;
  int64_t rows_seen = 0;
  auto verdict = streamer.Run(**reader, [&](const StreamChunk& chunk) {
    rows_seen += chunk.rows->num_rows();
    reassembled.insert(reassembled.end(), chunk.verdict->instances.begin(),
                       chunk.verdict->instances.end());
  });
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(rows_seen, whole->num_rows());
  EXPECT_EQ((*reader)->rows_delivered(), whole->num_rows());
  ExpectStreamEqualsBatch(*verdict, reassembled, batch);
  std::remove(path.c_str());
}

TEST(StreamingCsvTest, MalformedRowsFailWithRowAndColumnContext) {
  const Schema schema = datasets::NyTaxiSchema(/*dims=*/10);
  const std::string path = ::testing::TempDir() + "/streaming_bad.csv";

  // Row 2's fare_amount is not numeric.
  Rng rng(3);
  Table good = datasets::GenerateNyTaxi(3, rng, /*dims=*/10);
  CsvDocument doc = good.ToCsv();
  doc.rows[1][2] = "not_a_number";
  ASSERT_TRUE(WriteCsvFile(doc, path).ok());

  auto reader = CsvChunkReader::Open(path, schema, {.chunk_rows = 8});
  ASSERT_TRUE(reader.ok());
  Table chunk;
  auto rows = (*reader)->Next(chunk);
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find("row 2"), std::string::npos)
      << rows.status().ToString();
  EXPECT_NE(rows.status().message().find("fare_amount"), std::string::npos)
      << rows.status().ToString();

  // Width mismatch carries the row number too.
  doc.rows[1][2] = "5.0";
  doc.rows[2].pop_back();
  ASSERT_TRUE(WriteCsvFile(doc, path).ok());
  // The whole-document parser rejects ragged rows at tokenization...
  EXPECT_FALSE(ReadCsvFile(path).ok());
  // ...and a schema'd streaming read names the row.
  auto reader2 = CsvChunkReader::Open(path, schema, {.chunk_rows = 8});
  ASSERT_TRUE(reader2.ok());
  auto rows2 = (*reader2)->Next(chunk);
  ASSERT_FALSE(rows2.ok());
  EXPECT_NE(rows2.status().message().find("row 3"), std::string::npos)
      << rows2.status().ToString();

  // Header mismatch fails at Open.
  doc.header[0] = "wrong_column";
  doc.rows[2].push_back("x");
  ASSERT_TRUE(WriteCsvFile(doc, path).ok());
  EXPECT_FALSE(CsvChunkReader::Open(path, schema, {}).ok());
  std::remove(path.c_str());
}

/// Delivers `table` in chunks until asked for chunk `fail_at`, then fails —
/// a file that turns malformed after some chunks were already handed out.
class FailingChunkReader final : public TableChunkReader {
 public:
  FailingChunkReader(const Table* table, int64_t chunk_rows, int64_t fail_at)
      : inner_(table, chunk_rows), fail_at_(fail_at) {}

  StatusOr<int64_t> Next(Table& chunk) override {
    if (calls_++ == fail_at_) {
      return Status::InvalidArgument("row 1234: injected reader failure");
    }
    return inner_.Next(chunk);
  }
  const Schema& schema() const override { return inner_.schema(); }
  int64_t rows_delivered() const override { return inner_.rows_delivered(); }
  int64_t chunk_rows() const override { return inner_.chunk_rows(); }

 private:
  TableViewChunkReader inner_;
  int64_t fail_at_;
  int64_t calls_ = 0;
};

/// Streams `fresh` in `chunk_rows` chunks through a reader that fails when
/// asked for chunk `fail_at`, with up to 4 chunks in flight, on 4 and 1
/// threads: the reader's status comes back, and only chunks read before
/// the failure were emitted, in order.
void ExpectReaderFailureReturned(const DquagPipeline& pipeline,
                                 const Table& fresh, int64_t chunk_rows,
                                 int64_t fail_at) {
  for (size_t threads : {size_t{4}, size_t{1}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    StreamingValidatorOptions options;
    options.pool = &pool;
    options.max_in_flight = 4;
    StreamingValidator streamer(&pipeline, options);
    FailingChunkReader reader(&fresh, chunk_rows, fail_at);
    std::vector<int64_t> seen;
    auto verdict = streamer.Run(reader, [&](const StreamChunk& chunk) {
      seen.push_back(chunk.chunk_index);
    });
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(verdict.status().message().find("row 1234"), std::string::npos)
        << verdict.status().ToString();
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_LT(seen[i], fail_at);
      if (i > 0) EXPECT_GT(seen[i], seen[i - 1]);
    }
    // Serially every chunk read before the failure is emitted first.
    if (threads == 1) EXPECT_EQ(seen.size(), static_cast<size_t>(fail_at));
  }
}

TEST(StreamingFailureTest, ReaderFailureWithChunksInFlightIsReturned) {
  DquagPipeline pipeline = FitTaxiPipeline();
  const Table fresh = DirtyTaxi(320);
  // 16-row chunks (20 in all), each a single row block.
  ExpectReaderFailureReturned(pipeline, fresh, 16, /*fail_at=*/9);
}

// 600-row chunks are three row-block tasks each (256 + 256 + 88), so when
// the reader fails, blocks of several chunks are still queued or running;
// Run must wait for every one before the slots they write go away (the
// ASan and TSan legs check the lifetimes).
TEST(StreamingFailureTest,
     ReaderFailureWithMultiBlockChunksInFlightIsReturned) {
  DquagPipeline pipeline = FitTaxiPipeline();
  const Table fresh = DirtyTaxi(3600);
  ExpectReaderFailureReturned(pipeline, fresh, 600, /*fail_at=*/4);
}

// ---- Streaming repair -------------------------------------------------------

/// Asserts a repairing stream (its verdict and its chunks' repaired rows
/// stitched in order) repaired exactly what the whole-table repair did.
void ExpectSameRepair(const StreamVerdict& stream, const Table& stitched,
                      const RepairResult& whole) {
  EXPECT_EQ(stream.cells_repaired, whole.cells_repaired);
  EXPECT_EQ(stream.instances_repaired, whole.instances_repaired);
  ASSERT_EQ(stitched.num_rows(), whole.repaired.num_rows());
  for (int64_t c = 0; c < stitched.num_columns(); ++c) {
    if (stitched.schema().column(c).type == ColumnType::kNumeric) {
      for (int64_t r = 0; r < stitched.num_rows(); ++r) {
        const size_t i = static_cast<size_t>(r);
        const double a = stitched.Numeric(c)[i];
        const double b = whole.repaired.Numeric(c)[i];
        EXPECT_TRUE(a == b || (std::isnan(a) && std::isnan(b)))
            << "col " << c << " row " << r;
      }
    } else {
      EXPECT_EQ(stitched.Categorical(c), whole.repaired.Categorical(c))
          << "col " << c;
    }
  }
}

TEST(StreamingRepairTest, ChunkRepairsConcatenateToBatchRepair) {
  DquagPipeline pipeline = FitTaxiPipeline();
  const Table fresh = DirtyTaxi(300);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const Tensor matrix = pipeline.preprocessor().Transform(fresh);
  const BatchVerdict batch = pipeline.validator().ValidateMatrix(matrix);
  const RepairResult whole = pipeline.Repair(fresh, batch);
  ASSERT_GT(whole.cells_repaired, 0);

  for (ThreadPool* pool : {&pool1, &pool4}) {
    for (int64_t max_in_flight : {1, 8}) {
      for (int64_t chunk_rows : {1, 7, 256, 1000}) {
        SCOPED_TRACE(testing::Message()
                     << "threads " << pool->num_threads() << " in_flight "
                     << max_in_flight << " chunk " << chunk_rows);
        StreamingValidatorOptions options;
        options.repair = true;
        options.pool = pool;
        options.max_in_flight = max_in_flight;
        StreamingValidator streamer(&pipeline, options);
        TableViewChunkReader reader(&fresh, chunk_rows);
        Table stitched(fresh.schema());
        auto verdict = streamer.Run(reader, [&](const StreamChunk& chunk) {
          ASSERT_NE(chunk.repair, nullptr);
          stitched.AppendRows(chunk.repair->repaired);
        });
        ASSERT_TRUE(verdict.ok());

        EXPECT_EQ(verdict->flagged_rows, batch.flagged_rows);
        ExpectSameRepair(*verdict, stitched, whole);
      }
    }
  }
}

// ---- Chunks that straddle the row block -------------------------------------

// Each chunk fans out as one task per DquagModel::kRowBlock rows, so chunk
// sizes one below, one above and one past a multiple of the block leave a
// short block in every chunk and a chunk boundary inside the whole table's
// blocks. Validation and repair, on 1 and 4 threads, must still equal the
// whole-table verdict and repair bit for bit.
TEST(StreamingEquivalenceTest, ChunksStraddlingTheRowBlockMatchWholeTable) {
  DquagPipeline pipeline = FitTaxiPipeline();
  const Table fresh = DirtyTaxi(1100);
  const Tensor matrix = pipeline.preprocessor().Transform(fresh);
  constexpr int64_t kBlock = DquagModel::kRowBlock;
  ThreadPool pool1(1);
  ThreadPool pool4(4);

  const BatchVerdict batch = pipeline.validator().ValidateMatrix(matrix);
  ASSERT_FALSE(batch.flagged_rows.empty());
  const RepairResult whole = pipeline.Repair(fresh, batch);
  ASSERT_GT(whole.cells_repaired, 0);

  for (ThreadPool* pool : {&pool1, &pool4}) {
    for (int64_t chunk_rows : {kBlock - 1, kBlock + 1, 3 * kBlock + 1}) {
      for (bool repair : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "threads " << pool->num_threads() << " chunk "
                     << chunk_rows << " repair " << repair);
        StreamingValidatorOptions options;
        options.repair = repair;
        options.pool = pool;
        StreamingValidator streamer(&pipeline, options);
        TableViewChunkReader reader(&fresh, chunk_rows);
        std::vector<InstanceVerdict> reassembled;
        Table stitched(fresh.schema());
        auto verdict = streamer.Run(reader, [&](const StreamChunk& chunk) {
          reassembled.insert(reassembled.end(),
                             chunk.verdict->instances.begin(),
                             chunk.verdict->instances.end());
          if (repair) stitched.AppendRows(chunk.repair->repaired);
        });
        ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
        ExpectStreamEqualsBatch(*verdict, reassembled, batch);
        EXPECT_EQ(verdict->total_chunks,
                  (fresh.num_rows() + chunk_rows - 1) / chunk_rows);
        if (repair) ExpectSameRepair(*verdict, stitched, whole);
      }
    }
  }
}

// ---- Bounded memory ---------------------------------------------------------

TEST(StreamingMemoryTest, ChunkBufferingIsBoundedAndRowCountIndependent) {
  DquagPipeline pipeline = FitTaxiPipeline();

  // Serial path: exactly one chunk resident at a time, deterministically.
  {
    ThreadPool pool(1);
    StreamingValidatorOptions options;
    options.pool = &pool;
    StreamingValidator streamer(&pipeline, options);
    for (int64_t rows : {int64_t{320}, int64_t{1280}}) {
      const Table data = DirtyTaxi(rows);
      std::vector<InstanceVerdict> scratch;
      const StreamVerdict stream = RunStream(streamer, data, 64, &scratch);
      EXPECT_EQ(stream.peak_buffered_rows, 64);
      EXPECT_EQ(stream.peak_in_flight_chunks, 1);
    }
  }

  // Parallel path: bounded by max_in_flight * chunk_rows regardless of
  // stream length.
  {
    ThreadPool pool(4);
    StreamingValidatorOptions options;
    options.pool = &pool;
    options.max_in_flight = 3;
    StreamingValidator streamer(&pipeline, options);
    for (int64_t rows : {int64_t{320}, int64_t{1280}}) {
      const Table data = DirtyTaxi(rows);
      std::vector<InstanceVerdict> scratch;
      const StreamVerdict stream = RunStream(streamer, data, 64, &scratch);
      EXPECT_LE(stream.peak_buffered_rows, 3 * 64);
      EXPECT_LE(stream.peak_in_flight_chunks, 3);
    }
  }
}

// ---- Service integration ----------------------------------------------------

TEST(ServiceStreamTest, ValidateStreamMatchesValidate) {
  ValidationService service(FitTaxiPipeline());
  const Table fresh = DirtyTaxi(180);
  const BatchVerdict batch = service.Validate(fresh);

  TableViewChunkReader reader(&fresh, 32);
  std::vector<InstanceVerdict> reassembled;
  auto stream = service.ValidateStream(reader, [&](const StreamChunk& c) {
    reassembled.insert(reassembled.end(), c.verdict->instances.begin(),
                       c.verdict->instances.end());
  });
  ASSERT_TRUE(stream.ok());
  ExpectStreamEqualsBatch(*stream, reassembled, batch);
}

TEST(ServiceStreamTest, TryValidateAndRepairMatchesPipelineRepair) {
  ValidationService service(FitTaxiPipeline());
  const Table fresh = DirtyTaxi(600);
  const DquagPipeline& pipeline = service.pipeline();
  const RepairResult expected =
      pipeline.Repair(fresh, pipeline.Validate(fresh));
  ASSERT_GT(expected.cells_repaired, 0);

  auto repaired = service.TryValidateAndRepair(fresh);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->cells_repaired, expected.cells_repaired);
  EXPECT_EQ(repaired->instances_repaired, expected.instances_repaired);
  EXPECT_EQ(WriteCsvString(repaired->repaired.ToCsv()),
            WriteCsvString(expected.repaired.ToCsv()));

  const Table empty(fresh.schema());
  auto none = service.TryValidateAndRepair(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->repaired.num_rows(), 0);
  EXPECT_EQ(none->cells_repaired, 0);
}

TEST(ServiceStreamTest, ObserveStreamFeedsMonitorLikeObserveVerdict) {
  ValidationService service(FitTaxiPipeline());
  const Table fresh = DirtyTaxi(120);

  const MonitorObservation from_batch =
      service.ObserveVerdict(service.Validate(fresh));
  TableViewChunkReader reader(&fresh, 16);
  auto from_stream = service.ObserveStream(reader);
  ASSERT_TRUE(from_stream.ok());
  EXPECT_EQ(from_stream->flagged_fraction, from_batch.flagged_fraction);
  EXPECT_EQ(from_stream->batch_dirty, from_batch.batch_dirty);
  EXPECT_EQ(from_stream->batch_index, from_batch.batch_index + 1);
  EXPECT_EQ(service.monitor_history().size(), 2u);
}

TEST(ServiceStreamTest, ConcurrentStreamingClientsMatchSerial) {
  ValidationService service(FitTaxiPipeline());
  const Table fresh = DirtyTaxi(200);
  const BatchVerdict batch = service.Validate(fresh);

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<size_t>> flagged(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        TableViewChunkReader reader(&fresh, 16);
        auto stream = service.ValidateStream(reader);
        ASSERT_TRUE(stream.ok());
        flagged[static_cast<size_t>(t)] = stream->flagged_rows;
        EXPECT_EQ(stream->flagged_fraction, batch.flagged_fraction);
        EXPECT_EQ(stream->is_dirty, batch.is_dirty);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const auto& rows : flagged) EXPECT_EQ(rows, batch.flagged_rows);
}

TEST(StreamingEquivalenceTest, RunFromInsidePoolWorkerDegradesSerially) {
  DquagPipeline pipeline = FitTaxiPipeline();
  const Table fresh = DirtyTaxi(100);
  const BatchVerdict batch = pipeline.Validate(fresh);

  StreamingValidator streamer(&pipeline);
  StreamVerdict from_worker;
  RunTasksAndWait(GlobalThreadPool(), 1, [&](int64_t) {
    TableViewChunkReader reader(&fresh, 16);
    auto verdict = streamer.Run(reader);
    ASSERT_TRUE(verdict.ok());
    from_worker = std::move(verdict).value();
  });
  EXPECT_EQ(from_worker.flagged_rows, batch.flagged_rows);
  EXPECT_EQ(from_worker.flagged_fraction, batch.flagged_fraction);
  EXPECT_EQ(from_worker.error_stats.sum,
            StreamErrorStats::FromVerdict(batch).sum);
}

}  // namespace
}  // namespace dquag
