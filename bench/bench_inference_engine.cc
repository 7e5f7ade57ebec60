// Tape vs engine vs SIMD-dispatched vs int8-quantized inference throughput.
//
// Phase 2 is the deployed hot path; this bench quantifies each rung of the
// ladder on the Figure-4 data shape (NY Taxi, 18 columns):
//   part 1 — tape (NoGrad autograd ops) vs the tape-free engine;
//   part 2 — the engine under the forced-scalar kernel table (the portable
//             baseline, and a stand-in for the pre-dispatch float path) vs
//             the runtime-dispatched table vs the int8 quantized path, all
//             single-thread at the validator chunk size; also verifies the
//             scalar and dispatched tables produce BYTE-IDENTICAL verdicts
//             and reports the quantized verdict flip fraction;
//   part 3 — ValidationService scaling across concurrent client threads.
//
// Exits non-zero if the speedup gate fails (quantized vs forced-scalar
// float, kMinSpeedup = 2.0x), if scalar/dispatched verdicts diverge, or if
// the quantized flip fraction exceeds 0.5% — CI runs this as a regression
// gate.
// DQUAG_BENCH_FAST=1 shrinks the workload for smoke runs.

#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/validation_service.h"
#include "data/generators.h"
#include "engine/inference_context.h"
#include "tensor/simd.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dquag {
namespace {

/// The int8 path must run at least this many times faster than the
/// forced-scalar float path.
constexpr double kMinSpeedup = 2.0;

/// Identical per-instance verdicts, bit for bit (errors compared as raw
/// IEEE doubles).
bool VerdictsBitIdentical(const std::vector<InstanceVerdict>& a,
                          const std::vector<InstanceVerdict>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].error, &b[i].error, sizeof(double)) != 0 ||
        a[i].flagged != b[i].flagged ||
        a[i].suspect_features != b[i].suspect_features) {
      return false;
    }
  }
  return true;
}

int RunAll() {
  const bool fast = bench::FastMode();
  const int64_t train_rows = bench::EnvInt("DQUAG_ROWS", fast ? 1000 : 3000);
  const int64_t epochs = bench::EnvInt("DQUAG_EPOCHS", fast ? 3 : 10);
  const int64_t eval_rows =
      bench::EnvInt("DQUAG_ENGINE_EVAL_ROWS", fast ? 20000 : 100000);

  // Train on the Figure-4 shape: NY Taxi, 18 columns.
  Rng rng(41);
  Table clean = datasets::GenerateNyTaxi(train_rows, rng, /*dims=*/18);
  DquagPipelineOptions options;
  options.config.epochs = epochs;
  options.config.seed = 41;
  auto pipeline = std::make_unique<DquagPipeline>(std::move(options));
  DQUAG_CHECK(pipeline->Fit(clean).ok());

  Rng eval_rng(97);
  Table eval = datasets::GenerateNyTaxi(eval_rows, eval_rng, /*dims=*/18);
  const Tensor matrix = pipeline->preprocessor().Transform(eval);
  const int64_t d = matrix.dim(1);
  const DquagModel& model = pipeline->model();

  std::printf("=== tape vs engine: validation-head reconstruction ===\n");
  std::printf("(%lld eval rows, 18 columns, hidden %lld, single client)\n",
              static_cast<long long>(eval_rows),
              static_cast<long long>(model.encoder().config().hidden_dim));
  std::printf("%10s  %14s  %14s  %8s\n", "batch", "tape rows/s",
              "engine rows/s", "speedup");
  // Request sizes of two, eight and 32 model row blocks
  // (DquagModel::kRowBlock); the engine walks each in 256-row blocks.
  for (const int64_t batch : {512LL, 2048LL, 8192LL}) {
    auto run_chunks = [&](auto&& body) {
      for (int64_t start = 0; start < eval_rows; start += batch) {
        const int64_t end = std::min(eval_rows, start + batch);
        body(start, end);
      }
    };
    // Tape: NoGrad autograd ops, allocating per op (the pre-engine path).
    Stopwatch tape_timer;
    run_chunks([&](int64_t start, int64_t end) {
      Tensor slice({end - start, d});
      std::copy(matrix.data() + start * d, matrix.data() + end * d,
                slice.data());
      Tensor out = model.ReconstructValidationTape(slice);
      (void)out;
    });
    const double tape_s = tape_timer.ElapsedSeconds();

    // Engine: fused kernels over a reused per-thread workspace.
    InferenceContext& ctx = InferenceContext::ThreadLocal();
    Stopwatch engine_timer;
    run_chunks([&](int64_t start, int64_t end) {
      ctx.Rewind();
      Tensor& slice = ctx.Acquire({end - start, d});
      std::copy(matrix.data() + start * d, matrix.data() + end * d,
                slice.data());
      const Tensor& out = model.InferValidation(slice, ctx);
      (void)out;
    });
    const double engine_s = engine_timer.ElapsedSeconds();

    std::printf("%10lld  %14.0f  %14.0f  %7.2fx\n",
                static_cast<long long>(batch), eval_rows / tape_s,
                eval_rows / engine_s, tape_s / engine_s);
  }

  std::printf("\n=== SIMD dispatch + int8 quantization (single thread, "
              "batch 2048) ===\n");
  std::printf("(active kernel table: %s)\n", simd::ActiveKernels().name);

  // Engine throughput under a given kernel table / quantization mode. Best
  // of `reps` passes over the eval set — single-thread, validator chunk
  // size.
  auto time_engine = [&](bool quantized) {
    InferenceContext& ctx = InferenceContext::ThreadLocal();
    ctx.set_quantized(quantized);
    const int reps = fast ? 2 : 3;
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      Stopwatch timer;
      for (int64_t start = 0; start < eval_rows; start += 2048) {
        const int64_t end = std::min(eval_rows, start + 2048);
        ctx.Rewind();
        Tensor& slice = ctx.Acquire({end - start, d});
        std::copy(matrix.data() + start * d, matrix.data() + end * d,
                  slice.data());
        const Tensor& out = model.InferValidation(slice, ctx);
        (void)out;
      }
      const double rows_per_sec = eval_rows / timer.ElapsedSeconds();
      best = std::max(best, rows_per_sec);
    }
    ctx.set_quantized(false);
    return best;
  };

  simd::SetKernelTableOverride(&simd::ScalarKernels());
  const double scalar_float = time_engine(false);
  simd::SetKernelTableOverride(nullptr);
  const double dispatched_float = time_engine(false);
  const double quantized_rows = time_engine(true);

  const double dispatch_speedup = dispatched_float / scalar_float;
  const double quant_speedup = quantized_rows / scalar_float;
  std::printf("%22s  %14s  %22s\n", "path", "rows/s", "vs scalar float");
  std::printf("%22s  %14.0f  %21.2fx\n", "scalar float", scalar_float, 1.0);
  std::printf("%22s  %14.0f  %21.2fx\n", "dispatched float",
              dispatched_float, dispatch_speedup);
  std::printf("%22s  %14.0f  %21.2fx\n", "dispatched quantized",
              quantized_rows, quant_speedup);

  // Verdict gates. Scalar vs dispatched float must be byte-identical; the
  // quantized path may flip at most 0.5% of verdicts (margin-band rows are
  // re-checked on the float path; see ValidationMode).
  const Validator& validator = pipeline->validator();
  const int64_t gate_rows = std::min<int64_t>(eval_rows, 20000);
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  std::vector<InstanceVerdict> v_scalar(gate_rows), v_dispatched(gate_rows),
      v_quantized(gate_rows);
  simd::SetKernelTableOverride(&simd::ScalarKernels());
  validator.ValidateRowsInto(matrix, 0, gate_rows, ctx, v_scalar.data());
  simd::SetKernelTableOverride(nullptr);
  validator.ValidateRowsInto(matrix, 0, gate_rows, ctx, v_dispatched.data());
  validator.ValidateRowsInto(matrix, 0, gate_rows, ctx, v_quantized.data(),
                             ValidationMode{/*quantized=*/true,
                                            /*recheck_margin=*/0.25});
  const bool bit_identical = VerdictsBitIdentical(v_scalar, v_dispatched);
  int64_t flips = 0;
  for (int64_t r = 0; r < gate_rows; ++r) {
    if (v_dispatched[static_cast<size_t>(r)].flagged !=
        v_quantized[static_cast<size_t>(r)].flagged) {
      ++flips;
    }
  }
  const double flip_fraction =
      static_cast<double>(flips) / static_cast<double>(gate_rows);
  std::printf("scalar vs dispatched verdicts: %s (%lld rows)\n",
              bit_identical ? "byte-identical" : "DIVERGED",
              static_cast<long long>(gate_rows));
  std::printf("quantized verdict flips: %lld/%lld (%.4f%%)\n",
              static_cast<long long>(flips),
              static_cast<long long>(gate_rows), 100.0 * flip_fraction);

  bool failed = false;
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: scalar and dispatched float verdicts diverged\n");
    failed = true;
  }
  if (flip_fraction > 0.005) {
    std::fprintf(stderr, "FAIL: quantized flip fraction %.4f%% > 0.5%%\n",
                 100.0 * flip_fraction);
    failed = true;
  }
  if (quant_speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: quantized speedup %.2fx vs scalar float below the "
                 "%.2fx gate\n",
                 quant_speedup, kMinSpeedup);
    failed = true;
  }

  std::printf("\n=== ValidationService scaling (concurrent clients) ===\n");
  ValidationServiceOptions service_options;
  ValidationService service(std::move(*pipeline), service_options);
  std::printf("%10s  %14s  %14s\n", "clients", "rows/s", "per-client");
  for (const int clients : {1, 2, 4, 8}) {
    const int rounds = fast ? 2 : 4;
    Stopwatch timer;
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int t = 0; t < clients; ++t) {
      workers.emplace_back([&] {
        for (int r = 0; r < rounds; ++r) {
          BatchVerdict verdict = service.ValidateMatrix(matrix);
          (void)verdict;
        }
      });
    }
    for (std::thread& t : workers) t.join();
    const double seconds = timer.ElapsedSeconds();
    const double total_rows =
        static_cast<double>(clients) * rounds * eval_rows;
    std::printf("%10d  %14.0f  %14.0f\n", clients, total_rows / seconds,
                total_rows / seconds / clients);
  }
  std::printf("(verdicts are identical to serial validation by construction)\n");
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace dquag

int main() {
  dquag::SetLogLevel(dquag::LogLevel::kWarning);
  return dquag::RunAll();
}
