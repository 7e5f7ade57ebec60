// Reproduces Figure 4: validation time vs data size and dimensionality on
// the NY Taxi dataset (§4.5).
//
// A model is trained per dimensionality (5, 10, 18 columns) on a modest
// clean sample; Phase-2 validation is then timed on datasets of increasing
// size, running through the ValidationService — the deployed configuration:
// tape-free inference, one thread-pool task per 256-row model block. The
// expected result is LINEAR growth in rows (and roughly linear in
// dimensionality). Absolute times reflect this CPU substrate, not the
// paper's A100 — the shape is the reproduction target.
//
// DQUAG_FIG4_MAX_ROWS (default 250000) caps the sweep so the whole bench
// suite stays inside a coffee break; set 1000000 to reproduce the paper's
// full x-axis.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/validation_service.h"
#include "data/generators.h"
#include "eval/experiment.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dquag {
namespace {

void RunAll() {
  const bool fast = bench::FastMode();
  const int64_t train_rows = bench::EnvInt("DQUAG_ROWS", fast ? 1500 : 5000);
  const int64_t epochs = bench::EnvInt("DQUAG_EPOCHS", fast ? 5 : 15);
  const int64_t max_rows =
      bench::EnvInt("DQUAG_FIG4_MAX_ROWS", fast ? 20000 : 250000);

  std::vector<int64_t> sizes;
  for (int64_t s : {10000LL, 25000LL, 50000LL, 100000LL, 250000LL, 500000LL,
                    1000000LL}) {
    if (s <= max_rows) sizes.push_back(s);
  }
  if (sizes.empty()) sizes.push_back(max_rows);

  std::printf("=== Figure 4: validation time (s) on NY Taxi ===\n");
  std::printf("%12s", "rows");
  for (int64_t dims : {5, 10, 18}) {
    std::printf("  %8lld-dim", static_cast<long long>(dims));
  }
  std::printf("\n");

  // One trained pipeline per dimensionality, each served by a
  // ValidationService (the deployed Phase-2 configuration).
  std::vector<std::unique_ptr<ValidationService>> services;
  for (int64_t dims : {5, 10, 18}) {
    Rng rng(41 + static_cast<uint64_t>(dims));
    Table clean = datasets::GenerateNyTaxi(train_rows, rng, dims);
    DquagPipelineOptions options;
    options.config.epochs = epochs;
    options.config.seed = 41;
    DquagPipeline pipeline(std::move(options));
    DQUAG_CHECK(pipeline.Fit(clean).ok());
    services.push_back(
        std::make_unique<ValidationService>(std::move(pipeline)));
  }

  for (int64_t rows : sizes) {
    std::printf("%12lld", static_cast<long long>(rows));
    int service_index = 0;
    for (int64_t dims : {5, 10, 18}) {
      Rng rng(97 + static_cast<uint64_t>(dims));
      Table data = datasets::GenerateNyTaxi(rows, rng, dims);
      const ValidationService& service = *services[service_index++];
      // Time preprocessing + reconstruction + thresholding (the paper's
      // "data quality validation time").
      Stopwatch timer;
      BatchVerdict verdict = service.Validate(data);
      const double seconds = timer.ElapsedSeconds();
      std::printf("  %12.2f", seconds);
      (void)verdict;
    }
    std::printf("\n");
  }
  std::printf("(expect each column to grow linearly with rows)\n");
}

}  // namespace
}  // namespace dquag

int main() {
  dquag::SetLogLevel(dquag::LogLevel::kWarning);
  dquag::RunAll();
  return 0;
}
