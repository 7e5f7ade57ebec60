// Columnar (.dqc) vs CSV ingest throughput.
//
// Writes one synthetic NY-Taxi batch as both a CSV file and a converted
// .dqc file, then drains each through its TableChunkReader and reports
// rows/s:
//   * csv            — CsvChunkReader: tokenize + strtod every cell;
//   * columnar cold  — fresh ColumnarReader: mmap + first-touch checksum
//                      verification of every block payload;
//   * columnar warm  — Reset() on the same reader: the verification cache
//                      is hot, so a pass is pure decode (the steady-state
//                      cost of every epoch after the first in out-of-core
//                      training).
// bytes_touched() is reported for both columnar passes — the warm pass must
// add zero — along with the on-disk size of each representation.
//
// Parity gate: both formats must decode to bit-identical tables (FNV-1a
// over every cell, computed outside the timed region). Performance gate:
// warm columnar ingest must beat CSV by >= kMinSpeedup (5x). Exits
// non-zero on either failure — CI runs this as a regression gate.
// DQUAG_BENCH_FAST=1 shrinks the workload.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.h"
#include "data/columnar_reader.h"
#include "data/columnar_writer.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "data/table_chunk_reader.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dquag {
namespace {

/// Warm columnar ingest must run at least this many times faster than CSV.
constexpr double kMinSpeedup = 5.0;

int64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<int64_t>(in.tellg()) : 0;
}

/// Drains a reader without any per-cell work: the timed region measures
/// ingest (tokenize/decode into Table chunks), not consumption.
int64_t TimedDrain(TableChunkReader& reader, double* seconds) {
  Stopwatch timer;
  Table chunk;
  int64_t rows = 0;
  for (;;) {
    auto got = reader.Next(chunk);
    DQUAG_CHECK(got.ok());
    if (*got == 0) break;
    rows += *got;
  }
  *seconds = timer.ElapsedSeconds();
  return rows;
}

/// FNV-1a over every cell (numeric bit patterns, categorical bytes) — the
/// untimed parity check between the two decode paths.
uint64_t DrainHash(TableChunkReader& reader) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  Table chunk;
  for (;;) {
    auto got = reader.Next(chunk);
    DQUAG_CHECK(got.ok());
    if (*got == 0) break;
    for (int64_t c = 0; c < chunk.num_columns(); ++c) {
      if (chunk.schema().column(c).type == ColumnType::kNumeric) {
        const std::vector<double>& column = chunk.Numeric(c);
        mix(column.data(), column.size() * sizeof(double));
      } else {
        for (const std::string& cell : chunk.Categorical(c)) {
          mix(cell.data(), cell.size());
          mix("\x1f", 1);  // separator so "ab","c" != "a","bc"
        }
      }
    }
  }
  return h;
}

int RunAll() {
  const bool fast = bench::FastMode();
  const int64_t rows = bench::EnvInt("DQUAG_ROWS", fast ? 4000 : 50000);
  const int64_t chunk_rows = bench::EnvInt("DQUAG_CHUNK_ROWS", 4096);
  const int64_t block_rows = bench::EnvInt("DQUAG_BLOCK_ROWS", 4096);
  const int64_t repeats = bench::EnvInt("DQUAG_REPEATS", fast ? 2 : 3);

  std::printf("=== columnar vs CSV ingest ===\n");
  std::printf("(%lld rows, chunk %lld, block %lld, best of %lld)\n",
              static_cast<long long>(rows),
              static_cast<long long>(chunk_rows),
              static_cast<long long>(block_rows),
              static_cast<long long>(repeats));

  // Source data: NY-Taxi with injected missing cells so null bitmaps are
  // exercised, persisted as CSV — the interchange source of truth.
  Rng rng(47);
  Table incoming = datasets::GenerateNyTaxi(rows, rng, /*dims=*/10);
  {
    ErrorInjector injector(48);
    incoming = injector.InjectMissing(incoming, {"tip_amount"}, 0.05).table;
  }
  const Schema schema = incoming.schema();
  const std::string csv_path = "bench_columnar_input.csv";
  const std::string dqc_path = "bench_columnar_input.dqc";
  DQUAG_CHECK(WriteCsvFile(incoming.ToCsv(), csv_path).ok());
  incoming = Table();  // the files are the source of truth from here on

  // Conversion itself (CSV parse + encode + write), reported for context.
  double convert_seconds = 0.0;
  {
    Stopwatch timer;
    ColumnarWriterOptions options;
    options.block_rows = block_rows;
    auto converted = ConvertCsvToColumnar(csv_path, schema, dqc_path, options);
    DQUAG_CHECK(converted.ok());
    DQUAG_CHECK_EQ(*converted, rows);
    convert_seconds = timer.ElapsedSeconds();
  }

  CsvChunkReaderOptions csv_options;
  csv_options.chunk_rows = chunk_rows;
  ColumnarReaderOptions dqc_options;
  dqc_options.chunk_rows = chunk_rows;

  // CSV: fresh reader per repeat (the OS page cache warms after the first
  // pass; best-of keeps the comparison fair to CSV).
  double csv_seconds = 1e30;
  for (int64_t i = 0; i < repeats; ++i) {
    auto reader = CsvChunkReader::Open(csv_path, schema, csv_options);
    DQUAG_CHECK(reader.ok());
    double seconds = 0.0;
    DQUAG_CHECK_EQ(TimedDrain(**reader, &seconds), rows);
    csv_seconds = std::min(csv_seconds, seconds);
  }

  // Columnar cold: fresh reader per repeat — every pass pays mmap setup
  // plus first-touch checksum verification of all payloads.
  double cold_seconds = 1e30;
  uint64_t cold_bytes_touched = 0;
  bool is_mapped = false;
  for (int64_t i = 0; i < repeats; ++i) {
    auto reader = ColumnarReader::Open(dqc_path, dqc_options);
    DQUAG_CHECK(reader.ok());
    double seconds = 0.0;
    DQUAG_CHECK_EQ(TimedDrain(**reader, &seconds), rows);
    cold_seconds = std::min(cold_seconds, seconds);
    cold_bytes_touched = (*reader)->bytes_touched();
    is_mapped = (*reader)->is_mapped();
  }

  // Columnar warm: one reader, one warm-up pass, then timed Reset() passes
  // with the verification cache hot.
  double warm_seconds = 1e30;
  uint64_t warm_extra_bytes = 0;
  {
    auto reader = ColumnarReader::Open(dqc_path, dqc_options);
    DQUAG_CHECK(reader.ok());
    double seconds = 0.0;
    DQUAG_CHECK_EQ(TimedDrain(**reader, &seconds), rows);  // warm-up
    const uint64_t warmed = (*reader)->bytes_touched();
    for (int64_t i = 0; i < repeats; ++i) {
      (*reader)->Reset();
      DQUAG_CHECK_EQ(TimedDrain(**reader, &seconds), rows);
      warm_seconds = std::min(warm_seconds, seconds);
    }
    warm_extra_bytes = (*reader)->bytes_touched() - warmed;
  }

  // Parity: both formats decode to bit-identical tables.
  uint64_t csv_hash = 0, dqc_hash = 0;
  {
    auto reader = CsvChunkReader::Open(csv_path, schema, csv_options);
    DQUAG_CHECK(reader.ok());
    csv_hash = DrainHash(**reader);
  }
  {
    auto reader = ColumnarReader::Open(dqc_path, dqc_options);
    DQUAG_CHECK(reader.ok());
    dqc_hash = DrainHash(**reader);
  }

  const double csv_rows_per_sec = static_cast<double>(rows) / csv_seconds;
  const double cold_rows_per_sec = static_cast<double>(rows) / cold_seconds;
  const double warm_rows_per_sec = static_cast<double>(rows) / warm_seconds;
  const double warm_speedup = warm_rows_per_sec / csv_rows_per_sec;
  const int64_t csv_bytes = FileBytes(csv_path);
  const int64_t dqc_bytes = FileBytes(dqc_path);

  std::printf("%16s  %10s  %12s  %14s\n", "path", "seconds", "rows/s",
              "bytes touched");
  std::printf("%16s  %10.4f  %12.0f  %14lld\n", "csv", csv_seconds,
              csv_rows_per_sec, static_cast<long long>(csv_bytes));
  std::printf("%16s  %10.4f  %12.0f  %14llu\n", "columnar cold",
              cold_seconds, cold_rows_per_sec,
              static_cast<unsigned long long>(cold_bytes_touched));
  std::printf("%16s  %10.4f  %12.0f  %14llu\n", "columnar warm",
              warm_seconds, warm_rows_per_sec,
              static_cast<unsigned long long>(warm_extra_bytes));
  std::printf("convert: %.3fs; file bytes: csv %lld, dqc %lld; mmap: %s\n",
              convert_seconds, static_cast<long long>(csv_bytes),
              static_cast<long long>(dqc_bytes), is_mapped ? "yes" : "no");
  std::printf("warm columnar vs csv: %.1fx (gate: >= %.1fx)\n", warm_speedup,
              kMinSpeedup);

  bool failed = false;
  if (csv_hash != dqc_hash) {
    std::fprintf(stderr,
                 "FAIL: csv and columnar decodes are not bit-identical "
                 "(%016llx vs %016llx)\n",
                 static_cast<unsigned long long>(csv_hash),
                 static_cast<unsigned long long>(dqc_hash));
    failed = true;
  }
  if (warm_extra_bytes != 0) {
    std::fprintf(stderr,
                 "FAIL: warm passes re-verified %llu payload bytes; the "
                 "verification cache is broken\n",
                 static_cast<unsigned long long>(warm_extra_bytes));
    failed = true;
  }
  if (warm_speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: warm columnar ingest is only %.1fx CSV (gate %.1fx)\n",
                 warm_speedup, kMinSpeedup);
    failed = true;
  }

  std::remove(csv_path.c_str());
  std::remove(dqc_path.c_str());
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace dquag

int main() {
  dquag::SetLogLevel(dquag::LogLevel::kWarning);
  return dquag::RunAll();
}
