// Tests for the tape-free inference engine: numerical equivalence with the
// autograd tape across every encoder kind, workspace reuse after warm-up,
// byte-identical verdicts under the scalar and dispatched kernel tables,
// and race-freedom of concurrent Validate calls on one fitted pipeline
// (serial and parallel verdicts must be identical).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/validation_service.h"
#include "data/generators.h"
#include "engine/inference_context.h"
#include "tensor/simd.h"

namespace dquag {
namespace {

/// Max |a - b| over two equal-shaped tensors.
float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

/// Fits a small pipeline of the given encoder kind on synthetic NY-Taxi
/// rows (fast settings; enough training for non-degenerate weights).
DquagPipeline FitPipeline(EncoderKind kind, int64_t rows = 160,
                          int64_t epochs = 2) {
  Rng rng(7);
  Table clean = datasets::GenerateNyTaxi(rows, rng, /*dims=*/10);
  DquagPipelineOptions options;
  options.config.encoder.kind = kind;
  options.config.encoder.hidden_dim = 16;
  options.config.epochs = epochs;
  options.config.batch_size = 64;
  DquagPipeline pipeline(std::move(options));
  EXPECT_TRUE(pipeline.Fit(clean).ok());
  return pipeline;
}

/// Verdicts must agree exactly: same rows flagged, same suspects, and the
/// same per-instance errors (identical code path => identical floats).
void ExpectSameVerdict(const BatchVerdict& a, const BatchVerdict& b) {
  EXPECT_EQ(a.is_dirty, b.is_dirty);
  EXPECT_EQ(a.flagged_rows, b.flagged_rows);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].error, b.instances[i].error) << "row " << i;
    EXPECT_EQ(a.instances[i].flagged, b.instances[i].flagged);
    EXPECT_EQ(a.instances[i].suspect_features, b.instances[i].suspect_features);
  }
}

class EngineEquivalenceTest : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EngineEquivalenceTest, MatchesTapeWithin1e5) {
  DquagPipeline pipeline = FitPipeline(GetParam());
  Rng rng(11);
  Table fresh = datasets::GenerateNyTaxi(64, rng, /*dims=*/10);
  const Tensor x = pipeline.preprocessor().Transform(fresh);
  const DquagModel& model = pipeline.model();
  const DquagForward tape = model.Forward(MakeVar(x));

  EXPECT_LE(MaxAbsDiff(model.ReconstructValidation(x),
                       tape.validation->value()),
            1e-5f);
  EXPECT_LE(MaxAbsDiff(model.ReconstructRepair(x), tape.repair->value()),
            1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EngineEquivalenceTest,
    ::testing::Values(EncoderKind::kGcn, EncoderKind::kGcnGat,
                      EncoderKind::kGcnGin, EncoderKind::kGatGin,
                      EncoderKind::kGraph2Vec),
    [](const ::testing::TestParamInfo<EncoderKind>& info) {
      std::string name = EncoderKindName(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

TEST(InferenceContextTest, WorkspacesStopAllocatingAfterWarmup) {
  DquagPipeline pipeline = FitPipeline(EncoderKind::kGatGin);
  Rng rng(13);
  Table fresh = datasets::GenerateNyTaxi(96, rng, /*dims=*/10);
  const Tensor x = pipeline.preprocessor().Transform(fresh);

  InferenceContext ctx;
  ctx.Rewind();
  pipeline.model().InferValidation(x, ctx);
  const size_t buffers_after_warmup = ctx.num_buffers();
  const int64_t capacity_after_warmup = ctx.capacity_floats();
  EXPECT_GT(buffers_after_warmup, 0u);

  for (int pass = 0; pass < 5; ++pass) {
    ctx.Rewind();
    pipeline.model().InferValidation(x, ctx);
    EXPECT_EQ(ctx.num_buffers(), buffers_after_warmup);
    EXPECT_EQ(ctx.capacity_floats(), capacity_after_warmup);
  }
}

TEST(InferenceContextTest, AcquireReusesCapacityAcrossShapes) {
  InferenceContext ctx;
  Tensor& big = ctx.Acquire({64, 32});
  big.Fill(3.0f);
  const float* data_before = big.data();
  ctx.Rewind();
  Tensor& small = ctx.Acquire({8, 4});
  EXPECT_EQ(&big, &small);          // same slot handed out again
  EXPECT_EQ(small.data(), data_before);  // same storage, no reallocation
  EXPECT_EQ(small.shape(), (Shape{8, 4}));
}

TEST(EngineConcurrencyTest, ParallelValidateMatchesSerial) {
  DquagPipeline pipeline = FitPipeline(EncoderKind::kGatGin, /*rows=*/200,
                                       /*epochs=*/3);
  Rng rng(17);
  Table batch = datasets::GenerateNyTaxi(300, rng, /*dims=*/10);

  const BatchVerdict serial = pipeline.Validate(batch);

  constexpr int kThreads = 8;
  std::vector<BatchVerdict> verdicts(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { verdicts[static_cast<size_t>(t)] =
                                      pipeline.Validate(batch); });
  }
  for (std::thread& t : threads) t.join();
  for (const BatchVerdict& v : verdicts) ExpectSameVerdict(serial, v);
}

// Every SIMD kernel must be byte-identical to the scalar reference, so the
// end-to-end verdicts are too: errors compared as raw IEEE doubles, over
// several validator-sized blocks and a ragged tail.
TEST(EngineTest, ScalarAndDispatchedVerdictsAreByteIdentical) {
  // Resets the process-wide override even when an assertion returns early,
  // so the scalar table cannot leak into later tests.
  struct OverrideReset {
    ~OverrideReset() { simd::SetKernelTableOverride(nullptr); }
  } reset;

  DquagPipeline pipeline = FitPipeline(EncoderKind::kGatGin, /*rows=*/200,
                                       /*epochs=*/3);
  Rng rng(37);
  const Table batch = datasets::GenerateNyTaxi(4500, rng, /*dims=*/10);
  const Tensor matrix = pipeline.preprocessor().Transform(batch);
  const int64_t rows = matrix.dim(0);
  constexpr int64_t kBlockRows = 2048;  // the validator's chunk size

  auto validate = [&](const simd::SimdKernelTable* table) {
    simd::SetKernelTableOverride(table);
    InferenceContext& ctx = InferenceContext::ThreadLocal();
    std::vector<InstanceVerdict> out(static_cast<size_t>(rows));
    for (int64_t start = 0; start < rows; start += kBlockRows) {
      pipeline.validator().ValidateRowsInto(
          matrix, start, std::min(rows, start + kBlockRows), ctx,
          out.data() + start);
    }
    return out;
  };
  const std::vector<InstanceVerdict> scalar =
      validate(&simd::ScalarKernels());
  const std::vector<InstanceVerdict> dispatched = validate(nullptr);

  ASSERT_EQ(scalar.size(), dispatched.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scalar[i].error, &dispatched[i].error,
                          sizeof(double)),
              0)
        << "row " << i;
    EXPECT_EQ(scalar[i].flagged, dispatched[i].flagged) << "row " << i;
    EXPECT_EQ(scalar[i].suspect_features, dispatched[i].suspect_features)
        << "row " << i;
  }
}

TEST(ValidationServiceTest, FannedOutVerdictMatchesPipeline) {
  DquagPipeline pipeline = FitPipeline(EncoderKind::kGatGin, /*rows=*/200,
                                       /*epochs=*/3);
  Rng rng(19);
  // One more row than a model row block: the service fans out two blocks.
  Table batch = datasets::GenerateNyTaxi(257, rng, /*dims=*/10);
  const BatchVerdict expected = pipeline.Validate(batch);

  ValidationService service(std::move(pipeline));
  ExpectSameVerdict(expected, service.Validate(batch));
}

TEST(ValidationServiceTest, ConcurrentClientsSeeIdenticalVerdicts) {
  ValidationService service(FitPipeline(EncoderKind::kGcnGin, /*rows=*/200,
                                        /*epochs=*/3));
  Rng rng(23);
  // Three model row blocks, so every client's call fans out on the pool.
  Table batch = datasets::GenerateNyTaxi(600, rng, /*dims=*/10);
  const BatchVerdict serial = service.Validate(batch);

  constexpr int kClients = 6;
  std::vector<BatchVerdict> verdicts(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] { verdicts[static_cast<size_t>(t)] =
                                      service.Validate(batch); });
  }
  for (std::thread& t : clients) t.join();
  for (const BatchVerdict& v : verdicts) ExpectSameVerdict(serial, v);
}

TEST(ValidationServiceTest, RepairAndObserveVerdictAreServed) {
  ValidationService service(FitPipeline(EncoderKind::kGatGin, /*rows=*/200,
                                        /*epochs=*/3));
  Rng rng(29);
  Table batch = datasets::GenerateNyTaxi(128, rng, /*dims=*/10);

  const BatchVerdict verdict = service.Validate(batch);
  const RepairResult repair = service.pipeline().Repair(batch, verdict);
  EXPECT_EQ(repair.repaired.num_rows(), batch.num_rows());

  const MonitorObservation obs = service.ObserveVerdict(verdict);
  EXPECT_EQ(obs.batch_index, 0);
  EXPECT_EQ(obs.flagged_fraction, verdict.flagged_fraction);
  EXPECT_EQ(service.monitor_history().size(), 1u);
}

TEST(ValidationServiceTest, FromCheckpointServesIdentically) {
  DquagPipeline pipeline = FitPipeline(EncoderKind::kGatGin, /*rows=*/200,
                                       /*epochs=*/3);
  Rng rng(31);
  Table batch = datasets::GenerateNyTaxi(100, rng, /*dims=*/10);
  const BatchVerdict expected = pipeline.Validate(batch);

  const std::string path =
      ::testing::TempDir() + "/engine_test_checkpoint.ckpt";
  ASSERT_TRUE(pipeline.Save(path).ok());
  auto service = ValidationService::FromCheckpoint(path);
  ASSERT_TRUE(service.ok());
  ExpectSameVerdict(expected, (*service)->Validate(batch));
}

}  // namespace
}  // namespace dquag
