// Tests for binary I/O primitives and pipeline checkpointing.

#include <cstdio>

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
