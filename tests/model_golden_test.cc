// Golden-hash regression test for the whole training stack.
//
// Two small models are trained from seeded generators — the paper's GAT+GIN
// stack at full width (hidden 64, 4 layers) on enough Hotel Booking rows
// that every mini-batch splits into the default 8 trainer shards, and a
// Table 2 GCN+GIN stack on NY Taxi — and each is pinned by FNV-1a 64 hashes
// of four byte streams: its checkpoint (Save), its validation verdict on a
// seeded dirty table, its repair of that table, and the explanation of
// every row. Any change to a kernel's per-element operation sequence, the
// trainer's shard reduction, the loss or the optimizer moves at least the
// checkpoint hash; the explain hash pins the tape forward with its
// attention record, which the verdict does not reach.
//
// The pinned hashes belong to the build toolchain: compiler, build type and
// flags (an ASan RelWithDebInfo build already trains different bits, since
// inlining decides which multiply-adds the compiler contracts into FMAs)
// and, under the default -march=native, the host ISA. The golden file
// stores the fingerprint of the toolchain that wrote it (DQUAG_TOOLCHAIN
// plus the best kernel table), and the pinned comparison skips on any
// other. After a deliberate numeric change, or to pin a new toolchain,
// regenerate with
//
//   DQUAG_UPDATE_GOLDENS=1 ./model_golden_test
//
// What no toolchain may change is the kernel table's irrelevance: the
// scalar, AVX2 and AVX-512 tables execute the same per-element IEEE
// sequence, so every model is trained, validated and repaired once per
// table the CPU can run, and every table must reproduce the scalar table's
// hashes exactly. That check runs in every build, sanitized ones included.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explainer.h"
#include "core/pipeline.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "tensor/simd.h"
#include "util/checksum.h"
#include "util/csv.h"

namespace dquag {
namespace {

bool UpdateGoldens() {
  const char* value = std::getenv("DQUAG_UPDATE_GOLDENS");
  return value != nullptr && *value != '\0' && *value != '0';
}

const std::string kGoldenFile =
    std::string(DQUAG_GOLDEN_DIR) + "/model_hashes.txt";

/// name -> hex hash, one "name hash" pair per line.
std::map<std::string, std::string> ReadGoldens() {
  std::map<std::string, std::string> goldens;
  std::ifstream in(kGoldenFile);
  std::string name, hash;
  while (in >> name >> hash) goldens[name] = hash;
  return goldens;
}

void WriteGolden(const std::string& name, const std::string& hash) {
  std::map<std::string, std::string> goldens = ReadGoldens();
  goldens[name] = hash;
  std::ofstream out(kGoldenFile, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
  for (const auto& [n, h] : goldens) out << n << ' ' << h << '\n';
}

/// The build toolchain and the host ISA that -march=native compiled for.
std::string Toolchain() {
  return std::string(DQUAG_TOOLCHAIN) + "/" +
         simd::BestSupportedKernels().name;
}

std::string Hex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

void ExpectMatchesGolden(const std::string& name, uint64_t hash) {
  if (UpdateGoldens()) {
    WriteGolden(name, Hex(hash));
    return;
  }
  const std::map<std::string, std::string> goldens = ReadGoldens();
  const auto it = goldens.find(name);
  ASSERT_NE(it, goldens.end())
      << "no golden hash for " << name << " in " << kGoldenFile
      << " — run with DQUAG_UPDATE_GOLDENS=1";
  EXPECT_EQ(it->second, Hex(hash))
      << name << " changed. After a deliberate numeric change or on a new "
      << "toolchain, regenerate with DQUAG_UPDATE_GOLDENS=1";
}

template <typename T>
uint64_t HashValue(const T& value, uint64_t seed) {
  return Fnv1a64(&value, sizeof(value), seed);
}

std::string SaveBytes(const DquagPipeline& pipeline, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "model_golden_" + tag +
                           ".ckpt";
  EXPECT_TRUE(pipeline.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

uint64_t VerdictHash(const BatchVerdict& verdict) {
  uint64_t h = HashValue(verdict.is_dirty, kFnv1a64Offset);
  h = HashValue(verdict.flagged_fraction, h);
  h = HashValue(verdict.threshold, h);
  for (const InstanceVerdict& instance : verdict.instances) {
    h = HashValue(instance.error, h);
    h = HashValue(instance.flagged, h);
    for (const int64_t f : instance.suspect_features) h = HashValue(f, h);
    h = HashValue(int64_t{-1}, h);  // instance separator
  }
  return h;
}

uint64_t RepairHash(const RepairResult& result) {
  const std::string csv = WriteCsvString(result.repaired.ToCsv());
  uint64_t h = Fnv1a64(csv.data(), csv.size());
  h = HashValue(result.cells_repaired, h);
  h = HashValue(result.instances_repaired, h);
  return HashValue(result.is_dirty, h);
}

uint64_t ExplanationHash(const InstanceExplanation& e, uint64_t h) {
  h = HashValue(e.error, h);
  h = HashValue(e.threshold, h);
  h = HashValue(e.flagged, h);
  for (const FeatureExplanation& fe : e.features) {
    h = HashValue(fe.feature, h);
    h = Fnv1a64(fe.feature_name.data(), fe.feature_name.size(), h);
    h = HashValue(fe.error_share, h);
    h = HashValue(fe.observed, h);
    h = HashValue(fe.suggested, h);
    for (const AttentionEdge& edge : fe.influences) {
      h = HashValue(edge.from_feature, h);
      h = HashValue(edge.weight, h);
    }
    h = HashValue(int64_t{-1}, h);  // feature separator
  }
  return HashValue(int64_t{-2}, h);  // instance separator
}

/// One model's four pinned byte streams, hashed.
struct ModelHashes {
  uint64_t save = 0;
  uint64_t validate = 0;
  uint64_t repair = 0;
  uint64_t explain = 0;
  bool operator==(const ModelHashes&) const = default;
};

/// Fits `config` on `clean` with the active kernel table and hashes the
/// checkpoint, the validate output, the repair output and the explanation
/// of every row on `dirty`.
ModelHashes FitAndHash(const std::string& name, const DquagConfig& config,
                       const Table& clean, const Table& dirty) {
  DquagPipelineOptions options;
  options.config = config;
  DquagPipeline pipeline(options);
  EXPECT_TRUE(pipeline.Fit(clean).ok());
  ModelHashes hashes;
  const std::string bytes = SaveBytes(pipeline, name);
  EXPECT_FALSE(bytes.empty());
  hashes.save = Fnv1a64(bytes.data(), bytes.size());
  const BatchVerdict verdict = pipeline.Validate(dirty);
  EXPECT_EQ(static_cast<int64_t>(verdict.instances.size()), dirty.num_rows());
  hashes.validate = VerdictHash(verdict);
  hashes.repair = RepairHash(pipeline.Repair(dirty, verdict));
  const Explainer explainer(&pipeline);
  hashes.explain = kFnv1a64Offset;
  for (int64_t row = 0; row < dirty.num_rows(); ++row) {
    hashes.explain = ExplanationHash(
        explainer.Explain(dirty, static_cast<size_t>(row)), hashes.explain);
  }
  return hashes;
}

/// The paper's model at full width. 255 rows train after the calibration
/// hold-out, in 128-row batches: the first splits into the default 8 shards
/// of 16 rows (the trainer's production shard shape), the second into 7.
ModelHashes GatGinHotelBooking() {
  DquagConfig config;
  config.encoder.kind = EncoderKind::kGatGin;
  config.epochs = 3;
  Rng rng(201);
  const Table clean = datasets::GenerateHotelBooking(300, rng);
  Rng probe_rng(202);
  const Table probe = datasets::GenerateHotelBooking(96, probe_rng);
  ErrorInjector injector(203);
  const Table dirty =
      injector.InjectNumericAnomalies(probe, {"adr", "lead_time"}, 0.2).table;
  return FitAndHash("gat_gin_hotel", config, clean, dirty);
}

/// A Table 2 encoder (GCN+GIN) at a width off the 16-column GEMM tile, so
/// the kernels' column remainders train too.
ModelHashes GcnGinNyTaxi() {
  DquagConfig config;
  config.encoder.kind = EncoderKind::kGcnGin;
  config.encoder.hidden_dim = 24;
  config.encoder.num_layers = 2;
  config.epochs = 3;
  config.batch_size = 64;
  Rng rng(211);
  const Table clean = datasets::GenerateNyTaxi(200, rng);
  Rng probe_rng(212);
  const Table probe = datasets::GenerateNyTaxi(64, probe_rng);
  ErrorInjector injector(213);
  const Table dirty =
      injector.InjectMissing(probe, {"fare_amount", "tip_amount"}, 0.2).table;
  return FitAndHash("gcn_gin_ny_taxi", config, clean, dirty);
}

struct TableRun {
  const simd::SimdKernelTable* table;
  ModelHashes hashes;
};

/// Model name -> its hashes under every runnable kernel table, scalar
/// first. Computed once per process; both tests read it.
const std::map<std::string, std::vector<TableRun>>& RunsPerModel() {
  static const std::map<std::string, std::vector<TableRun>> runs = [] {
    std::map<std::string, std::vector<TableRun>> out;
    for (const simd::SimdKernelTable* table : simd::SupportedKernelTables()) {
      simd::SetKernelTableOverride(table);
      out["gat_gin_hotel"].push_back({table, GatGinHotelBooking()});
      out["gcn_gin_ny_taxi"].push_back({table, GcnGinNyTaxi()});
    }
    simd::SetKernelTableOverride(nullptr);
    return out;
  }();
  return runs;
}

TEST(ModelGoldenTest, ScalarTableMatchesPinnedHashes) {
  if (UpdateGoldens()) {
    WriteGolden("toolchain", Toolchain());
  } else {
    const std::map<std::string, std::string> goldens = ReadGoldens();
    const auto it = goldens.find("toolchain");
    if (it == goldens.end() || it->second != Toolchain()) {
      GTEST_SKIP() << "the pinned hashes were written by toolchain "
                   << (it == goldens.end() ? "(none)" : it->second)
                   << ", this build is " << Toolchain()
                   << "; regenerate with DQUAG_UPDATE_GOLDENS=1 to pin it";
    }
  }
  for (const auto& [name, runs] : RunsPerModel()) {
    ASSERT_EQ(runs.front().table, &simd::ScalarKernels());
    const ModelHashes& h = runs.front().hashes;
    ExpectMatchesGolden(name + ".save", h.save);
    ExpectMatchesGolden(name + ".validate", h.validate);
    ExpectMatchesGolden(name + ".repair", h.repair);
    ExpectMatchesGolden(name + ".explain", h.explain);
  }
}

TEST(ModelGoldenTest, EveryKernelTableReproducesTheScalarHashes) {
  for (const auto& [name, runs] : RunsPerModel()) {
    for (const TableRun& run : runs) {
      SCOPED_TRACE(name + " on kernel table " + run.table->name);
      EXPECT_EQ(Hex(run.hashes.save), Hex(runs.front().hashes.save));
      EXPECT_EQ(Hex(run.hashes.validate), Hex(runs.front().hashes.validate));
      EXPECT_EQ(Hex(run.hashes.repair), Hex(runs.front().hashes.repair));
      EXPECT_EQ(Hex(run.hashes.explain), Hex(runs.front().hashes.explain));
    }
  }
}

}  // namespace
}  // namespace dquag
