// Tests for binary I/O primitives and pipeline checkpointing.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "util/binary_io.h"

namespace dquag {
namespace {

TEST(BinaryIoTest, PrimitiveRoundTrip) {
  BinaryWriter w;
  w.WriteI64(-42);
  w.WriteU64(0xdeadbeefULL);
  w.WriteDouble(3.14159);
  w.WriteFloat(2.5f);
  w.WriteString("hello \0world");  // embedded NUL truncated by literal; fine
  w.WriteDoubleVector({1.0, 2.0, 3.0});
  float floats[3] = {1.0f, -1.0f, 0.5f};
  w.WriteFloatArray(floats, 3);

  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_EQ(*r.ReadU64(), 0xdeadbeefULL);
  EXPECT_DOUBLE_EQ(*r.ReadDouble(), 3.14159);
  EXPECT_FLOAT_EQ(*r.ReadFloat(), 2.5f);
  EXPECT_EQ(*r.ReadString(), "hello ");
  EXPECT_EQ((*r.ReadDoubleVector())[2], 3.0);
  float back[3];
  ASSERT_TRUE(r.ReadFloatArray(back, 3).ok());
  EXPECT_EQ(back[1], -1.0f);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIoTest, TruncationIsError) {
  BinaryWriter w;
  w.WriteI64(7);
  BinaryReader r(w.buffer().substr(0, 4));
  EXPECT_FALSE(r.ReadI64().ok());
}

TEST(BinaryIoTest, StringSizeBeyondBufferIsError) {
  BinaryWriter w;
  w.WriteU64(1'000'000);  // claims a 1MB string with no payload
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BinaryIoTest, FloatArrayCountMismatchIsError) {
  BinaryWriter w;
  float data[2] = {1, 2};
  w.WriteFloatArray(data, 2);
  BinaryReader r(w.buffer());
  float out[3];
  EXPECT_FALSE(r.ReadFloatArray(out, 3).ok());
}

TEST(BinaryIoTest, FileRoundTrip) {
  BinaryWriter w;
  w.WriteString("persisted");
  const std::string path = "/tmp/dquag_binary_io_test.bin";
  ASSERT_TRUE(w.SaveToFile(path).ok());
  auto r = BinaryReader::FromFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->ReadString(), "persisted");
  std::remove(path.c_str());
}

class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(88);
    clean_ = new Table(datasets::GenerateCreditCard(1200, rng));
    DquagPipelineOptions options;
    options.config.encoder.hidden_dim = 32;
    options.config.epochs = 8;
    options.config.seed = 88;
    pipeline_ = new DquagPipeline(std::move(options));
    ASSERT_TRUE(pipeline_->Fit(*clean_).ok());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete clean_;
  }
  static Table* clean_;
  static DquagPipeline* pipeline_;
};

Table* CheckpointTest::clean_ = nullptr;
DquagPipeline* CheckpointTest::pipeline_ = nullptr;

TEST_F(CheckpointTest, SaveLoadRoundTripProducesIdenticalVerdicts) {
  const std::string path = "/tmp/dquag_checkpoint_test.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());
  auto loaded = DquagPipeline::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fitted());
  EXPECT_DOUBLE_EQ(loaded->threshold(), pipeline_->threshold());
  EXPECT_EQ(loaded->relationships().size(),
            pipeline_->relationships().size());

  // Identical behaviour on a dirty batch.
  Rng rng(89);
  Table probe = datasets::GenerateCreditCard(400, rng);
  ErrorInjector injector(90);
  Table dirty = injector.InjectCreditIncomeConflict(probe, 0.2).table;
  BatchVerdict original = pipeline_->Validate(dirty);
  BatchVerdict restored = loaded->Validate(dirty);
  EXPECT_EQ(original.is_dirty, restored.is_dirty);
  ASSERT_EQ(original.instances.size(), restored.instances.size());
  for (size_t i = 0; i < original.instances.size(); ++i) {
    EXPECT_NEAR(original.instances[i].error, restored.instances[i].error,
                1e-7);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, LoadedPipelineCanRepair) {
  const std::string path = "/tmp/dquag_checkpoint_repair_test.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());
  auto loaded = DquagPipeline::Load(path);
  ASSERT_TRUE(loaded.ok());
  Rng rng(91);
  Table probe = datasets::GenerateCreditCard(300, rng);
  ErrorInjector injector(92);
  Table dirty =
      injector.InjectNumericAnomalies(probe, {"AMT_INCOME_TOTAL"}, 0.2)
          .table;
  RepairResult repair = loaded->Repair(dirty, loaded->Validate(dirty));
  EXPECT_GT(repair.cells_repaired, 0);
  std::remove(path.c_str());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Byte offsets of config slots: the magic, then 8-byte config fields.
constexpr size_t kHeadsSlot = 32;       // once the GAT head count
constexpr size_t kActivationSlot = 40;  // once the activation enum
constexpr size_t kThresholdPercentileSlot = 104;
constexpr size_t kCalibrationFractionSlot = 112;
constexpr size_t kRetiredChunkSlot = 136;  // once the inference chunk size

uint64_t ReadWord(const std::string& bytes, size_t offset) {
  uint64_t value = 0;
  for (size_t i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

std::string PatchWord(std::string bytes, size_t offset, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return bytes;
}

int64_t ReadSlot(const std::string& bytes, size_t offset) {
  return static_cast<int64_t>(ReadWord(bytes, offset));
}

std::string PatchSlot(std::string bytes, size_t offset, int64_t value) {
  return PatchWord(std::move(bytes), offset, static_cast<uint64_t>(value));
}

std::string PatchDoubleSlot(std::string bytes, size_t offset, double value) {
  return PatchWord(std::move(bytes), offset, std::bit_cast<uint64_t>(value));
}

TEST_F(CheckpointTest, RetiredChunkSlotIsCheckedThenIgnored) {
  const std::string path = "/tmp/dquag_checkpoint_slot_test.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());
  const std::string saved = ReadBytes(path);
  ASSERT_GT(saved.size(), kRetiredChunkSlot + 8);
  // The slot keeps the value older readers expect.
  EXPECT_EQ(ReadSlot(saved, kRetiredChunkSlot), 2048);

  // Any positive value loads, and inference does not depend on it.
  WriteBytes(path, PatchSlot(saved, kRetiredChunkSlot, 7));
  auto loaded = DquagPipeline::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng rng(93);
  Table probe = datasets::GenerateCreditCard(600, rng);
  Table dirty = ErrorInjector(94).InjectCreditIncomeConflict(probe, 0.2).table;
  const BatchVerdict original = pipeline_->Validate(dirty);
  const BatchVerdict restored = loaded->Validate(dirty);
  EXPECT_EQ(original.is_dirty, restored.is_dirty);
  EXPECT_EQ(original.flagged_rows, restored.flagged_rows);
  ASSERT_EQ(original.instances.size(), restored.instances.size());
  for (size_t i = 0; i < original.instances.size(); ++i) {
    EXPECT_EQ(original.instances[i].error, restored.instances[i].error)
        << "row " << i;
    EXPECT_EQ(original.instances[i].flagged, restored.instances[i].flagged)
        << "row " << i;
    EXPECT_EQ(original.instances[i].suspect_features,
              restored.instances[i].suspect_features)
        << "row " << i;
  }

  // Checkpoints are outside input: a value below 1 is corrupt.
  for (int64_t corrupt : {int64_t{0}, int64_t{-1}}) {
    WriteBytes(path, PatchSlot(saved, kRetiredChunkSlot, corrupt));
    EXPECT_EQ(DquagPipeline::Load(path).status().code(),
              StatusCode::kInvalidArgument)
        << "slot " << corrupt;
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, HeadAndActivationSlotsHoldTheOnlyModelShape) {
  const std::string path = "/tmp/dquag_checkpoint_shape_slot_test.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());
  const std::string saved = ReadBytes(path);
  std::remove(path.c_str());
  // One GAT head and ELU (the retired activation enum's value 3), the
  // values every earlier default-config checkpoint carries.
  EXPECT_EQ(ReadSlot(saved, kHeadsSlot), 1);
  EXPECT_EQ(ReadSlot(saved, kActivationSlot), 3);
  ASSERT_TRUE(DquagPipeline::LoadFromBuffer(saved).ok());
  // Any other value names a model this build cannot rebuild.
  for (int64_t other : {int64_t{2}, int64_t{0}, int64_t{5}, int64_t{-1}}) {
    EXPECT_EQ(DquagPipeline::LoadFromBuffer(
                  PatchSlot(saved, kHeadsSlot, other))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "head slot " << other;
    EXPECT_EQ(DquagPipeline::LoadFromBuffer(
                  PatchSlot(saved, kActivationSlot, other))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "activation slot " << other;
  }
}

TEST_F(CheckpointTest, OutOfRangePercentileOrCalibrationFractionIsRejected) {
  const std::string path = "/tmp/dquag_checkpoint_range_slot_test.bin";
  ASSERT_TRUE(pipeline_->Save(path).ok());
  const std::string saved = ReadBytes(path);
  std::remove(path.c_str());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A fine-tune of such a checkpoint would abort in Percentile (p > 1) or
  // read past the shuffle permutation (negative calibration split).
  for (double p : {1.5, -0.1, nan}) {
    EXPECT_EQ(DquagPipeline::LoadFromBuffer(
                  PatchDoubleSlot(saved, kThresholdPercentileSlot, p))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "threshold_percentile " << p;
  }
  for (double f : {-0.5, 1.0, nan}) {
    EXPECT_EQ(DquagPipeline::LoadFromBuffer(
                  PatchDoubleSlot(saved, kCalibrationFractionSlot, f))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "calibration_fraction " << f;
  }
  // The closed ends of both ranges still load.
  for (double p : {0.0, 1.0}) {
    EXPECT_TRUE(DquagPipeline::LoadFromBuffer(
                    PatchDoubleSlot(saved, kThresholdPercentileSlot, p))
                    .ok())
        << "threshold_percentile " << p;
  }
  EXPECT_TRUE(DquagPipeline::LoadFromBuffer(
                  PatchDoubleSlot(saved, kCalibrationFractionSlot, 0.0))
                  .ok());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A checkpoint written by an older build, which stored an int8 copy of the
// weights ("DQQ8") between the parameters and the drift profile. Load reads
// that section and discards it, so the file validates bit for bit like the
// same bytes with the section cut out, and re-saving it writes exactly those
// bytes.
TEST(CheckpointCompatTest, OldInt8SectionIsReadAndDiscarded) {
  const std::string bytes =
      ReadFileBytes(std::string(DQUAG_FIXTURE_DIR) + "/checkpoint_dqq8.bin");
  ASSERT_EQ(bytes.size(), 4247u);
  // The section magics ("DQQ8" / "DQDP" + version 1) as little-endian bytes.
  const size_t quant_start =
      bytes.find(std::string("\x01\x00\x00\x00\x44\x51\x51\x38", 8));
  const size_t drift_start =
      bytes.find(std::string("\x01\x00\x00\x00\x44\x51\x44\x50", 8));
  ASSERT_EQ(quant_start, 3527u);
  ASSERT_EQ(drift_start - quant_start, 656u);
  const std::string cut =
      bytes.substr(0, quant_start) + bytes.substr(drift_start);

  auto old_format = DquagPipeline::LoadFromBuffer(bytes);
  ASSERT_TRUE(old_format.ok()) << old_format.status().ToString();
  auto without = DquagPipeline::LoadFromBuffer(cut);
  ASSERT_TRUE(without.ok()) << without.status().ToString();

  Rng rng(31);
  const Table probe = datasets::GenerateNyTaxi(300, rng, /*dims=*/5);
  ErrorInjector injector(32);
  const Table dirty =
      injector.InjectNumericAnomalies(probe, {"fare_amount"}, 0.2).table;
  const BatchVerdict a = old_format->Validate(dirty);
  const BatchVerdict b = without->Validate(dirty);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (size_t r = 0; r < a.instances.size(); ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a.instances[r].error),
              std::bit_cast<uint64_t>(b.instances[r].error))
        << "row " << r;
    EXPECT_EQ(a.instances[r].flagged, b.instances[r].flagged) << "row " << r;
    EXPECT_EQ(a.instances[r].suspect_features,
              b.instances[r].suspect_features)
        << "row " << r;
  }
  EXPECT_EQ(a.flagged_rows, b.flagged_rows);
  EXPECT_EQ(a.is_dirty, b.is_dirty);
  EXPECT_FALSE(a.flagged_rows.empty());

  const std::string path = "/tmp/dquag_checkpoint_resaved.bin";
  ASSERT_TRUE(old_format->Save(path).ok());
  EXPECT_TRUE(ReadFileBytes(path) == cut);
  std::remove(path.c_str());
}

TEST(CheckpointErrorTest, SaveUnfittedFails) {
  DquagPipeline pipeline;
  EXPECT_EQ(pipeline.Save("/tmp/never.bin").code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckpointErrorTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/dquag_garbage.bin";
  {
    BinaryWriter w;
    w.WriteU64(0x1234);  // wrong magic
    ASSERT_TRUE(w.SaveToFile(path).ok());
  }
  EXPECT_FALSE(DquagPipeline::Load(path).ok());
  EXPECT_FALSE(DquagPipeline::Load("/tmp/does_not_exist.bin").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dquag
