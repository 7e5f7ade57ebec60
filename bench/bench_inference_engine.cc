// SIMD-dispatched inference throughput of the engine.
//
// Phase 2 is the deployed hot path; this bench measures it on the Figure-4
// data shape (NY Taxi, 18 columns):
//   part 1 — the engine under the forced-scalar kernel table (the portable
//             baseline, and a stand-in for the pre-dispatch float path) vs
//             the runtime-dispatched table, single-thread in 2048-row
//             slices, timed as kPairs adjacent scalar/dispatched pass pairs
//             whose median ratio is the speedup; also verifies the scalar
//             and dispatched tables produce BYTE-IDENTICAL verdicts;
//   part 2 — ValidationService scaling across concurrent client threads.
//
// Exits non-zero if the speedup gate fails (dispatched vs forced-scalar
// float, kMinSpeedup = 2.0x) or if scalar/dispatched verdicts diverge — CI
// runs this as a regression gate.
// DQUAG_BENCH_FAST=1 shrinks the workload for smoke runs.

#include <algorithm>
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

/// The dispatched table must run at least this many times faster than the
/// forced-scalar one.
constexpr double kMinSpeedup = 2.0;

/// Adjacent scalar/dispatched pass pairs timed for the gate. A pair's two
/// passes share the machine's state of the moment, and the median ratio
/// shrugs off a pass that a neighbouring process slowed.
constexpr int kPairs = 7;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

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

  std::printf("=== SIMD dispatch (single thread, batch 2048, median of "
              "%d pass pairs) ===\n",
              kPairs);
  std::printf("(active kernel table: %s)\n", simd::ActiveKernels().name);

  // Rows per second of one pass over the eval set under `table`.
  auto time_pass = [&](const simd::SimdKernelTable* table) {
    simd::SetKernelTableOverride(table);
    InferenceContext& ctx = InferenceContext::ThreadLocal();
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
    simd::SetKernelTableOverride(nullptr);
    return rows_per_sec;
  };

  time_pass(nullptr);  // warm the workspace and the caches
  std::vector<double> scalar_rates, dispatched_rates, ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    scalar_rates.push_back(time_pass(&simd::ScalarKernels()));
    dispatched_rates.push_back(time_pass(nullptr));
    ratios.push_back(dispatched_rates.back() / scalar_rates.back());
  }
  const double dispatch_speedup = Median(ratios);
  std::printf("%22s  %14s  %22s\n", "path", "median rows/s",
              "vs scalar float");
  std::printf("%22s  %14.0f  %21.2fx\n", "scalar float",
              Median(scalar_rates), 1.0);
  std::printf("%22s  %14.0f  %21.2fx\n", "dispatched float",
              Median(dispatched_rates), dispatch_speedup);
  std::printf("pair ratios:");
  for (double ratio : ratios) std::printf(" %.2fx", ratio);
  std::printf("\n");

  // Verdict gate: scalar vs dispatched float must be byte-identical.
  const Validator& validator = pipeline->validator();
  const int64_t gate_rows = std::min<int64_t>(eval_rows, 20000);
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  std::vector<InstanceVerdict> v_scalar(gate_rows), v_dispatched(gate_rows);
  simd::SetKernelTableOverride(&simd::ScalarKernels());
  validator.ValidateRowsInto(matrix, 0, gate_rows, ctx, v_scalar.data());
  simd::SetKernelTableOverride(nullptr);
  validator.ValidateRowsInto(matrix, 0, gate_rows, ctx, v_dispatched.data());
  const bool bit_identical = VerdictsBitIdentical(v_scalar, v_dispatched);
  std::printf("scalar vs dispatched verdicts: %s (%lld rows)\n",
              bit_identical ? "byte-identical" : "DIVERGED",
              static_cast<long long>(gate_rows));

  bool failed = false;
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: scalar and dispatched float verdicts diverged\n");
    failed = true;
  }
  if (dispatch_speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: dispatched speedup %.2fx vs scalar float below the "
                 "%.2fx gate\n",
                 dispatch_speedup, kMinSpeedup);
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
