// Tests for the data-parallel training fast path: thread-count invariance
// of Fit (fixed shard layout + per-shard gradient sinks + fixed-order tree
// reduction), parallel-vs-serial numerical agreement, gradient correctness
// through the fused backward kernels (finite differences and sink
// redirection), and allocation stability of the training arenas after
// warm-up (the engine_test-style high-water assertion).

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/grad_arena.h"
#include "autograd/ops.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "data/generators.h"
#include "data/preprocessor.h"
#include "nn/losses.h"
#include "util/thread_pool.h"

namespace dquag {
namespace {

constexpr int64_t kFeatures = 6;

FeatureGraph TestGraph() {
  FeatureGraph g(kFeatures);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  g.AddUndirectedEdge(3, 4);
  g.AddUndirectedEdge(4, 5);
  g.AddUndirectedEdge(0, 5);
  return g;
}

/// GAT + GIN covers the widest op set in backward: batched matmuls,
/// gather/scatter, segment softmax, ELU and LeakyReLU.
DquagConfig TestConfig() {
  DquagConfig config;
  config.encoder.kind = EncoderKind::kGatGin;
  config.encoder.hidden_dim = 16;
  config.encoder.num_layers = 2;
  config.epochs = 3;
  config.batch_size = 128;
  return config;
}

/// Learnable structure (x1 tracks x0, x3 = 1 - x2) plus noise columns.
Tensor TestData(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  Tensor data({rows, kFeatures});
  for (int64_t r = 0; r < rows; ++r) {
    const float a = static_cast<float>(rng.Uniform());
    const float b = static_cast<float>(rng.Uniform());
    data(r, 0) = a;
    data(r, 1) = a;
    data(r, 2) = b;
    data(r, 3) = 1.0f - b;
    data(r, 4) = static_cast<float>(rng.Uniform());
    data(r, 5) = static_cast<float>(rng.Uniform());
  }
  return data;
}

TrainingReport Fit(const FeatureGraph& graph, DquagConfig config,
                   const Tensor& data, ThreadPool* pool,
                   int64_t train_shards) {
  config.train_shards = train_shards;
  Rng rng(11);
  DquagModel model(graph, config, rng);
  Trainer trainer(&model, config);
  trainer.set_thread_pool(pool);
  return trainer.Fit(data);
}

TrainingReport FitWithPool(ThreadPool* pool, int64_t train_shards) {
  return Fit(TestGraph(), TestConfig(), TestData(320, 17), pool,
             train_shards);
}

void ExpectIdentical(const TrainingReport& a, const TrainingReport& b) {
  ASSERT_EQ(a.epoch_losses.size(), b.epoch_losses.size());
  for (size_t e = 0; e < a.epoch_losses.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epoch_losses[e], b.epoch_losses[e]) << "epoch " << e;
  }
  EXPECT_DOUBLE_EQ(a.error_statistics.threshold,
                   b.error_statistics.threshold);
  ASSERT_EQ(a.clean_errors.size(), b.clean_errors.size());
  for (size_t i = 0; i < a.clean_errors.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.clean_errors[i], b.clean_errors[i]) << "row " << i;
  }
}

// (a) Fixed seed => identical epoch losses, threshold, and calibration
// errors on 1-, 2-, and 8-thread pools. The shard layout is a function of
// the batch size only and shards reduce in a fixed order, so this holds
// exactly, not within a tolerance — also for one shard, whose gradient
// reduction still fans out over the pool.
TEST(TrainerParallelTest, IdenticalResultsAcrossThreadCounts) {
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  for (const int64_t shards : {int64_t{8}, int64_t{1}}) {
    SCOPED_TRACE("train_shards=" + std::to_string(shards));
    const TrainingReport r1 = FitWithPool(&one, shards);
    {
      SCOPED_TRACE("2 threads");
      ExpectIdentical(r1, FitWithPool(&two, shards));
    }
    {
      SCOPED_TRACE("8 threads");
      ExpectIdentical(r1, FitWithPool(&eight, shards));
    }
  }
}

void ExpectShardedMatchesSerialWithin1e4(const FeatureGraph& graph,
                                         const DquagConfig& config,
                                         const Tensor& data) {
  const TrainingReport parallel =
      Fit(graph, config, data, nullptr, /*train_shards=*/8);
  const TrainingReport serial =
      Fit(graph, config, data, nullptr, /*train_shards=*/1);

  ASSERT_EQ(parallel.epoch_losses.size(), serial.epoch_losses.size());
  for (size_t e = 0; e < parallel.epoch_losses.size(); ++e) {
    EXPECT_NEAR(parallel.epoch_losses[e], serial.epoch_losses[e], 1e-4)
        << "epoch " << e;
  }
  EXPECT_NEAR(parallel.error_statistics.threshold,
              serial.error_statistics.threshold, 1e-4);
}

// Sharded training only reassociates the loss/gradient sums of the
// one-shard step; with the same seed the trajectories must stay within
// float-reassociation distance. Checked on the toy graph and on the
// paper-scale shape: the default config on 18-column NY Taxi with its
// mined feature graph.
TEST(TrainerParallelTest, ParallelMatchesSerialPathWithin1e4) {
  {
    SCOPED_TRACE("toy graph");
    ExpectShardedMatchesSerialWithin1e4(TestGraph(), TestConfig(),
                                        TestData(320, 17));
  }
  {
    SCOPED_TRACE("NY Taxi, default config");
    Rng rng(41);
    const Table taxi = datasets::GenerateNyTaxi(1000, rng);
    TablePreprocessor preprocessor;
    preprocessor.Fit(taxi);
    auto graph = FeatureGraph::FromRelationships(
        taxi.schema().Names(), MineRelationships(TableToMinerColumns(taxi)));
    ASSERT_TRUE(graph.ok());
    DquagConfig config;
    config.epochs = 2;
    ExpectShardedMatchesSerialWithin1e4(*graph, config,
                                        preprocessor.Transform(taxi));
  }
}

/// Unweighted training objective with alpha = beta = 1: both decoders'
/// mean squared error, built from the trainer's sum-form losses.
VarPtr MeanReconstructionLoss(const DquagForward& out, const VarPtr& target) {
  const float inv_numel = 1.0f / static_cast<float>(target->value().numel());
  return ag::MulScalar(ag::Add(SquaredErrorSum(out.validation, target),
                               SquaredErrorSum(out.repair, target)),
                       inv_numel);
}

// (b) Finite-difference gradient check of the full model loss through the
// fused backward kernels (MatMulTrans*Acc, activation backward, scatter /
// gather / segment-softmax accumulation).
TEST(TrainerParallelTest, FusedBackwardMatchesFiniteDifference) {
  DquagConfig config = TestConfig();
  config.encoder.hidden_dim = 8;
  Rng rng(23);
  DquagModel model(TestGraph(), config, rng);
  Rng data_rng(29);
  const Tensor x = Tensor::RandUniform({5, kFeatures}, data_rng, 0.0f, 1.0f);

  const auto loss_value = [&]() -> double {
    NoGradGuard no_grad;
    VarPtr input = MakeVar(x);
    VarPtr target = MakeVar(x);
    DquagForward out = model.Forward(input);
    VarPtr total = MeanReconstructionLoss(out, target);
    return static_cast<double>(total->value()[0]);
  };

  model.ZeroGrad();
  {
    VarPtr input = MakeVar(x);
    VarPtr target = MakeVar(x);
    DquagForward out = model.Forward(input);
    VarPtr total = MeanReconstructionLoss(out, target);
    Backward(total);
  }

  const float eps = 1e-2f;
  int64_t checked = 0;
  for (const VarPtr& p : model.Parameters()) {
    ASSERT_TRUE(p->has_grad());
    // Two probes per parameter keep the test fast while touching every
    // kernel the parameter's gradient flows through.
    for (const int64_t idx : {int64_t{0}, p->value().numel() / 2}) {
      float& w = p->mutable_value()[idx];
      const float saved = w;
      w = saved + eps;
      const double f_plus = loss_value();
      w = saved - eps;
      const double f_minus = loss_value();
      w = saved;
      const double fd = (f_plus - f_minus) / (2.0 * eps);
      const double analytic = static_cast<double>(p->grad()[idx]);
      EXPECT_NEAR(analytic, fd, 3e-2 + 3e-2 * std::abs(fd))
          << "param numel " << p->value().numel() << " idx " << idx;
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

// Gradient-sink redirection: backward under a GradArena with registered
// sinks must produce exactly the gradients of the plain path, in the sinks,
// leaving the parameters' own gradients untouched.
TEST(TrainerParallelTest, GradSinksReceiveExactGradients) {
  DquagConfig config = TestConfig();
  Rng rng(31);
  DquagModel model(TestGraph(), config, rng);
  Rng data_rng(37);
  const Tensor x = Tensor::RandUniform({7, kFeatures}, data_rng, 0.0f, 1.0f);
  const std::vector<VarPtr> params = model.Parameters();

  const auto run_backward = [&]() {
    VarPtr input = MakeVar(x);
    VarPtr target = MakeVar(x);
    DquagForward out = model.Forward(input);
    Backward(MeanReconstructionLoss(out, target));
  };

  model.ZeroGrad();
  run_backward();  // reference gradients into the parameters

  GradArena arena;
  std::vector<Tensor> sinks;
  sinks.reserve(params.size());
  for (const VarPtr& p : params) {
    sinks.push_back(Tensor::Zeros(p->value().shape()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    arena.RegisterSink(params[i].get(), &sinks[i]);
  }
  std::vector<Tensor> reference;
  reference.reserve(params.size());
  for (const VarPtr& p : params) reference.push_back(p->grad());
  model.ZeroGrad();
  {
    GradArenaScope scope(arena);
    run_backward();
  }

  for (size_t i = 0; i < params.size(); ++i) {
    ASSERT_TRUE(arena.touched(params[i].get())) << "param " << i;
    ASSERT_EQ(sinks[i].numel(), reference[i].numel());
    for (int64_t j = 0; j < sinks[i].numel(); ++j) {
      EXPECT_EQ(sinks[i][j], reference[i][j]) << "param " << i << " el " << j;
    }
    // The parameter's own gradient stayed zeroed: everything was
    // redirected.
    for (int64_t j = 0; j < reference[i].numel(); ++j) {
      EXPECT_EQ(params[i]->grad()[j], 0.0f);
    }
  }
}

// Concurrent shard stepping on a real multi-thread pool must keep Adam's
// trajectory identical to repeated runs (smoke test that doubles as the
// ThreadSanitizer target for the trainer).
TEST(TrainerParallelTest, RepeatedParallelFitsAreIdentical) {
  ThreadPool pool(4);
  const TrainingReport a = FitWithPool(&pool, /*train_shards=*/8);
  const TrainingReport b = FitWithPool(&pool, /*train_shards=*/8);
  ASSERT_EQ(a.epoch_losses.size(), b.epoch_losses.size());
  for (size_t e = 0; e < a.epoch_losses.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epoch_losses[e], b.epoch_losses[e]);
  }
  EXPECT_DOUBLE_EQ(a.error_statistics.threshold,
                   b.error_statistics.threshold);
}

}  // namespace
}  // namespace dquag
