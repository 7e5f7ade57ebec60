// google-benchmark microbenchmarks for the numeric substrate: tensor ops,
// GNN layer forwards, end-to-end model inference throughput, and the SIMD
// kernel table (scalar vs dispatched, with checksum parity).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/model.h"
#include "gnn/encoder.h"
#include "nn/feature_tokenizer.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace dquag {
namespace {

void BM_MatMul2D(benchmark::State& state) {
  const int64_t m = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({m, 64}, rng);
  Tensor b = Tensor::Randn({64, 64}, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * 64 * 64 * 2);
}
BENCHMARK(BM_MatMul2D)->Arg(128)->Arg(1536)->Arg(8192);

void BM_MatMulTransA(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::Randn({1536, 64}, rng);
  Tensor g = Tensor::Randn({1536, 64}, rng);
  for (auto _ : state) {
    Tensor c = MatMulTransA(a, g);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMulTransA);

void BM_BroadcastMul(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::Randn({128, 12, 64}, rng);
  Tensor b = Tensor::Randn({12, 64}, rng);
  for (auto _ : state) {
    Tensor c = Mul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_BroadcastMul);

void BM_GatherScatter(benchmark::State& state) {
  Rng rng(1);
  FeatureGraph graph = FeatureGraph::Complete(12);
  Tensor h = Tensor::Randn({128, 12, 64}, rng);
  for (auto _ : state) {
    Tensor gathered = GatherAxis1(h, graph.src());
    Tensor scattered = ScatterAddAxis1(gathered, graph.dst(), 12);
    benchmark::DoNotOptimize(scattered.data());
  }
}
BENCHMARK(BM_GatherScatter);

void BM_SegmentSoftmax(benchmark::State& state) {
  Rng rng(1);
  FeatureGraph graph = FeatureGraph::Complete(12);
  const int64_t num_arcs = graph.num_arcs();
  Tensor scores = Tensor::Randn({128, num_arcs}, rng);
  for (auto _ : state) {
    Tensor alpha = SegmentSoftmaxAxis1(scores, graph.dst(), 12);
    benchmark::DoNotOptimize(alpha.data());
  }
}
BENCHMARK(BM_SegmentSoftmax);

/// One layer forward per encoder family (inference mode, batch 128).
void BM_LayerForward(benchmark::State& state) {
  const int64_t kind = state.range(0);
  Rng rng(1);
  NoGradGuard no_grad;
  FeatureGraph graph = FeatureGraph::Chain(12);
  VarPtr h = MakeVar(Tensor::Randn({128, 12, 64}, rng));
  std::unique_ptr<GnnLayer> layer;
  switch (kind) {
    case 0: layer = std::make_unique<GcnLayer>(graph, 64, 64, rng); break;
    case 1: layer = std::make_unique<GatLayer>(graph, 64, 64, rng); break;
    default: layer = std::make_unique<GinLayer>(graph, 64, 64, rng); break;
  }
  for (auto _ : state) {
    VarPtr out = layer->Forward(h);
    benchmark::DoNotOptimize(out->value().data());
  }
  state.SetLabel(kind == 0 ? "GCN" : kind == 1 ? "GAT" : "GIN");
}
BENCHMARK(BM_LayerForward)->Arg(0)->Arg(1)->Arg(2);

void BM_ModelInference(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(1);
  FeatureGraph graph = FeatureGraph::Complete(12);
  DquagConfig config;
  DquagModel model(graph, config, rng);
  Tensor x = Tensor::RandUniform({batch, 12}, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.ReconstructValidation(x);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ModelInference)->Arg(128)->Arg(2048);

// ---- SIMD kernel table: scalar (Arg 0) vs dispatched (Arg 1) --------------
//
// Every benchmark first runs both tables on identical inputs and compares
// output bytes; a mismatch aborts the benchmark via SkipWithError, so these
// double as a continuous bit-identity check at serving shapes. Shapes mirror
// Phase-2 inference: 256-row engine blocks x 18 feature nodes = 4608 GEMM
// rows at hidden width 64. The three float GEMMs take the row count as a
// second argument and also run at the trainer's shape: a 16-row shard x 13
// Hotel Booking nodes = 208 rows.

constexpr int64_t kRows = 4608;
constexpr int64_t kTrainRows = 208;
constexpr int64_t kDim = 64;

const simd::SimdKernelTable& TableFor(const benchmark::State& state) {
  return state.range(0) == 0 ? simd::ScalarKernels()
                             : simd::BestSupportedKernels();
}

/// memcmp-equality of two float buffers, reported through the benchmark.
bool ParityOk(benchmark::State& state, const float* a, const float* b,
              int64_t n) {
  if (std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) != 0) {
    state.SkipWithError("checksum mismatch vs scalar table");
    return false;
  }
  return true;
}

/// The forward GEMM with its epilogue, as Linear runs it: bias seed, and
/// ELU off (Arg 2 = 0) or on (Arg 2 = 1).
void BM_SimdMatMul(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  const int64_t rows = state.range(1);
  const bool elu = state.range(2) != 0;
  Rng rng(11);
  Tensor a = Tensor::Randn({rows, kDim}, rng);
  Tensor b = Tensor::Randn({kDim, kDim}, rng);
  Tensor bias = Tensor::Randn({kDim}, rng);
  std::vector<float> ref(rows * kDim), got(rows * kDim);
  simd::ScalarKernels().matmul(a.data(), b.data(), bias.data(), ref.data(),
                               rows, kDim, kDim, elu);
  kt.matmul(a.data(), b.data(), bias.data(), got.data(), rows, kDim, kDim,
            elu);
  if (!ParityOk(state, ref.data(), got.data(), rows * kDim)) return;
  for (auto _ : state) {
    kt.matmul(a.data(), b.data(), bias.data(), got.data(), rows, kDim, kDim,
              elu);
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(std::string(kt.name) + (elu ? " elu" : ""));
}
BENCHMARK(BM_SimdMatMul)->ArgsProduct({{0, 1}, {kRows, kTrainRows}, {0, 1}});

void BM_SimdMatMulTransA(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  const int64_t rows = state.range(1);
  Rng rng(12);
  Tensor a = Tensor::Randn({rows, kDim}, rng);
  Tensor g = Tensor::Randn({rows, kDim}, rng);
  std::vector<float> ref(kDim * kDim, 0.0f), got(kDim * kDim, 0.0f);
  simd::ScalarKernels().matmul_trans_a(a.data(), g.data(), ref.data(), rows,
                                       kDim, kDim);
  kt.matmul_trans_a(a.data(), g.data(), got.data(), rows, kDim, kDim);
  if (!ParityOk(state, ref.data(), got.data(), kDim * kDim)) return;
  for (auto _ : state) {
    kt.matmul_trans_a(a.data(), g.data(), got.data(), rows, kDim, kDim);
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdMatMulTransA)->ArgsProduct({{0, 1}, {kRows, kTrainRows}});

void BM_SimdMatMulTransB(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  const int64_t rows = state.range(1);
  Rng rng(13);
  Tensor a = Tensor::Randn({rows, kDim}, rng);
  Tensor b = Tensor::Randn({kDim, kDim}, rng);
  std::vector<float> ref(rows * kDim, 0.0f), got(rows * kDim, 0.0f);
  simd::ScalarKernels().matmul_trans_b(a.data(), b.data(), ref.data(), rows,
                                       kDim, kDim);
  kt.matmul_trans_b(a.data(), b.data(), got.data(), rows, kDim, kDim);
  if (!ParityOk(state, ref.data(), got.data(), rows * kDim)) return;
  for (auto _ : state) {
    kt.matmul_trans_b(a.data(), b.data(), got.data(), rows, kDim, kDim);
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdMatMulTransB)->ArgsProduct({{0, 1}, {kRows, kTrainRows}});

void BM_SimdDualMatVec(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  Rng rng(14);
  Tensor x = Tensor::Randn({kRows, kDim}, rng);
  Tensor w1 = Tensor::Randn({kDim}, rng);
  Tensor w2 = Tensor::Randn({kDim}, rng);
  std::vector<float> r1(kRows), r2(kRows), g1(kRows), g2(kRows);
  simd::ScalarKernels().dual_matvec(x.data(), w1.data(), w2.data(), r1.data(),
                                    r2.data(), kRows, kDim);
  kt.dual_matvec(x.data(), w1.data(), w2.data(), g1.data(), g2.data(), kRows,
                 kDim);
  if (!ParityOk(state, r1.data(), g1.data(), kRows) ||
      !ParityOk(state, r2.data(), g2.data(), kRows)) {
    return;
  }
  for (auto _ : state) {
    kt.dual_matvec(x.data(), w1.data(), w2.data(), g1.data(), g2.data(),
                   kRows, kDim);
    benchmark::DoNotOptimize(g1.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdDualMatVec)->Arg(0)->Arg(1);

void BM_SimdReadoutDot(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  constexpr int64_t d = 18;
  constexpr int64_t batch = 256;
  Rng rng(15);
  Tensor z = Tensor::Randn({batch, d, kDim}, rng);
  Tensor w = Tensor::Randn({d, kDim}, rng);
  Tensor bias = Tensor::Randn({d}, rng);
  std::vector<float> ref(batch * d), got(batch * d);
  simd::ScalarKernels().readout_dot(z.data(), w.data(), bias.data(),
                                    ref.data(), batch, d, kDim);
  kt.readout_dot(z.data(), w.data(), bias.data(), got.data(), batch, d, kDim);
  if (!ParityOk(state, ref.data(), got.data(), batch * d)) return;
  for (auto _ : state) {
    kt.readout_dot(z.data(), w.data(), bias.data(), got.data(), batch, d,
                   kDim);
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdReadoutDot)->Arg(0)->Arg(1);

void BM_SimdExp(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  const int64_t n = kRows * kDim;
  Rng rng(16);
  Tensor x = Tensor::RandUniform({n}, rng, -6.0f, 6.0f);
  std::vector<float> ref(n), got(n);
  std::memcpy(ref.data(), x.data(), n * sizeof(float));
  std::memcpy(got.data(), x.data(), n * sizeof(float));
  simd::ScalarKernels().exp_inplace(ref.data(), n);
  kt.exp_inplace(got.data(), n);
  if (!ParityOk(state, ref.data(), got.data(), n)) return;
  for (auto _ : state) {
    // exp is in place; the refill memcpy is charged to both variants alike.
    std::memcpy(got.data(), x.data(), n * sizeof(float));
    kt.exp_inplace(got.data(), n);
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdExp)->Arg(0)->Arg(1);

void BM_SimdElu(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  const int64_t n = kRows * kDim;
  Rng rng(17);
  Tensor x = Tensor::RandUniform({n}, rng, -4.0f, 4.0f);
  std::vector<float> ref(n), got(n);
  simd::ScalarKernels().elu(x.data(), ref.data(), n, 1.0f);
  kt.elu(x.data(), got.data(), n, 1.0f);
  if (!ParityOk(state, ref.data(), got.data(), n)) return;
  for (auto _ : state) {
    kt.elu(x.data(), got.data(), n, 1.0f);
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdElu)->Arg(0)->Arg(1);

void BM_SimdAxpy(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  const int64_t n = kRows * kDim;
  Rng rng(18);
  Tensor x = Tensor::Randn({n}, rng);
  std::vector<float> ref(n, 0.5f), got(n, 0.5f);
  simd::ScalarKernels().axpy(x.data(), 0.37f, ref.data(), n);
  kt.axpy(x.data(), 0.37f, got.data(), n);
  if (!ParityOk(state, ref.data(), got.data(), n)) return;
  for (auto _ : state) {
    kt.axpy(x.data(), 1e-6f, got.data(), n);  // tiny s: values stay finite
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdAxpy)->Arg(0)->Arg(1);

void BM_SimdAddProduct(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  const int64_t n = kRows * kDim;
  Rng rng(19);
  Tensor a = Tensor::Randn({n}, rng);
  Tensor b = Tensor::Randn({n}, rng);
  std::vector<float> ref(n, 0.5f), got(n, 0.5f);
  simd::ScalarKernels().add_product(a.data(), b.data(), 0.37f, ref.data(), n);
  kt.add_product(a.data(), b.data(), 0.37f, got.data(), n);
  if (!ParityOk(state, ref.data(), got.data(), n)) return;
  for (auto _ : state) {
    kt.add_product(a.data(), b.data(), 1e-6f, got.data(), n);
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdAddProduct)->Arg(0)->Arg(1);

void BM_SimdSegmentSoftmaxCsr(benchmark::State& state) {
  const simd::SimdKernelTable& kt = TableFor(state);
  constexpr int64_t d = 18;
  FeatureGraph graph = FeatureGraph::Complete(d);
  graph.AddSelfLoops();
  const FeatureGraph::CsrByDst& csr = graph.csr_by_dst();
  const int64_t num_arcs = graph.num_arcs();
  Rng rng(20);
  Tensor scores = Tensor::Randn({num_arcs}, rng);
  std::vector<float> ref(num_arcs), got(num_arcs);
  std::memcpy(ref.data(), scores.data(), num_arcs * sizeof(float));
  std::memcpy(got.data(), scores.data(), num_arcs * sizeof(float));
  simd::ScalarKernels().segment_softmax_csr(ref.data(), csr.offsets.data(),
                                            static_cast<size_t>(d),
                                            csr.order.data());
  kt.segment_softmax_csr(got.data(), csr.offsets.data(),
                         static_cast<size_t>(d), csr.order.data());
  if (!ParityOk(state, ref.data(), got.data(), num_arcs)) return;
  for (auto _ : state) {
    std::memcpy(got.data(), scores.data(), num_arcs * sizeof(float));
    kt.segment_softmax_csr(got.data(), csr.offsets.data(),
                           static_cast<size_t>(d), csr.order.data());
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(state.iterations() * num_arcs);
  state.SetLabel(kt.name);
}
BENCHMARK(BM_SimdSegmentSoftmaxCsr)->Arg(0)->Arg(1);

}  // namespace
}  // namespace dquag

BENCHMARK_MAIN();
