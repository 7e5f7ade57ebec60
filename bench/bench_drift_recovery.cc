// Drift-to-recovery latency for the continuous pipeline.
//
// Two legs, one story. The in-process leg trains a pipeline, streams a
// benign covariate shift past it and measures how many batches the
// monitor + RetrainController need to arm the retrain trigger, then the
// wall time of the full retrain -> atomic-save -> swap protocol and the
// flag-rate recovery it buys. The socket leg replays the same drift
// through a live ServeDaemon with --auto-retrain semantics under
// concurrent client traffic and counts requests: the hot swap must not
// drop or error a single one, and the bench exits non-zero if it does —
// this is the zero-drop gate CI enforces.
//
// DQUAG_BENCH_FAST=1 shrinks the workload. Knobs: DQUAG_TRAIN_ROWS,
// DQUAG_EPOCHS, DQUAG_DRIFT_CLIENTS.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/retrain_controller.h"
#include "core/validation_service.h"
#include "data/batch_sampler.h"
#include "data/generators.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dquag {
namespace {

// Benign covariate shift: every numeric column moves up by `frac` of its
// observed span (same regime the drift tests use).
Table ShiftNumericColumns(const Table& table, double frac) {
  Table shifted = table;
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().column(c).type != ColumnType::kNumeric) continue;
    std::vector<double>& column = shifted.Numeric(c);
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (double v : column) {
      if (IsMissing(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double span = hi > lo ? hi - lo : 1.0;
    for (double& value : column) {
      if (!IsMissing(value)) value += frac * span;
    }
  }
  return shifted;
}

struct DriftMetrics {
  int64_t detection_batches = 0;
  int64_t detection_rows = 0;
  double retrain_wall_ms = 0.0;
  double degraded_flag_rate = 0.0;
  double recovered_flag_rate = 0.0;
  bool ok = false;
};

DriftMetrics RunInProcessLeg(const std::string& checkpoint,
                             const Table& clean, const Table& shifted,
                             int64_t batch_rows, int64_t finetune_epochs) {
  DriftMetrics m;

  ValidationServiceOptions service_options;
  service_options.monitor.warmup_rows = 2 * batch_rows;
  service_options.monitor.drift_window_rows = 6 * batch_rows;
  auto service_or =
      ValidationService::FromCheckpoint(checkpoint, service_options);
  DQUAG_CHECK(service_or.ok());
  std::shared_ptr<ValidationService> service = std::move(*service_or);

  RetrainOptions retrain;
  retrain.min_buffer_rows = batch_rows / 2;
  retrain.max_buffer_rows = 10 * batch_rows;
  retrain.trigger_observations = 3;
  retrain.finetune_epochs = finetune_epochs;
  RetrainController controller(
      checkpoint, retrain, [&](const std::string& new_path) -> Status {
        auto swapped =
            ValidationService::FromCheckpoint(new_path, service_options);
        if (!swapped.ok()) return swapped.status();
        service = std::move(*swapped);
        return Status::Ok();
      });

  auto feed = [&](const Table& source, Rng& batch_rng) {
    Table batch = SampleBatch(source, batch_rows, batch_rng);
    BatchVerdict verdict = service->Validate(batch);
    MonitorObservation observation = service->ObserveVerdict(verdict);
    controller.ObserveBatch(batch, verdict, observation);
    return verdict.flagged_fraction;
  };

  // Warm up the monitor on the original regime.
  Rng stream_rng(99);
  for (int i = 0; i < 3; ++i) feed(clean, stream_rng);

  // Drift starts NOW; count batches until the trigger arms.
  while (!controller.ShouldRetrain() && m.detection_batches < 60) {
    m.degraded_flag_rate = feed(shifted, stream_rng);
    ++m.detection_batches;
  }
  m.detection_rows = m.detection_batches * batch_rows;
  if (!controller.ShouldRetrain()) {
    std::fprintf(stderr, "FAIL: drift not detected within 60 batches\n");
    return m;
  }

  Stopwatch retrain_timer;
  auto new_path = controller.RetrainAndSwap();
  m.retrain_wall_ms = retrain_timer.ElapsedSeconds() * 1e3;
  if (!new_path.ok()) {
    std::fprintf(stderr, "FAIL: retrain: %s\n",
                 new_path.status().ToString().c_str());
    return m;
  }

  Rng eval_rng(7);
  m.recovered_flag_rate =
      service->Validate(SampleBatch(shifted, 2 * batch_rows, eval_rng))
          .flagged_fraction;
  m.ok = m.recovered_flag_rate < m.degraded_flag_rate;
  if (!m.ok) {
    std::fprintf(stderr, "FAIL: flag rate did not recover (%.3f -> %.3f)\n",
                 m.degraded_flag_rate, m.recovered_flag_rate);
  }
  std::remove(new_path->c_str());
  return m;
}

struct ServeMetrics {
  int64_t requests_total = 0;
  int64_t requests_during_retrain = 0;
  int64_t requests_dropped = 0;
  int64_t retrains = 0;
  double drift_to_swap_ms = 0.0;
  bool ok = false;
};

ServeMetrics RunServeLeg(const std::string& checkpoint, const Table& clean,
                         const Table& shifted, int64_t batch_rows,
                         int64_t clients, int64_t finetune_epochs) {
  ServeMetrics m;

  ServeOptions options;
  options.auto_retrain = true;
  options.retrain.min_buffer_rows = batch_rows / 2;
  options.retrain.max_buffer_rows = 10 * batch_rows;
  options.retrain.trigger_observations = 3;
  options.retrain.finetune_epochs = finetune_epochs;
  options.registry.service.monitor.warmup_rows = 2 * batch_rows;
  options.registry.service.monitor.drift_window_rows = 6 * batch_rows;
  ServeDaemon daemon(options);
  DQUAG_CHECK(daemon.Start().ok());
  DQUAG_CHECK(daemon.registry().Deploy("bench/drift", checkpoint).ok());

  Rng sample_rng(31);
  const std::string clean_csv =
      WriteCsvString(SampleBatch(clean, batch_rows, sample_rng).ToCsv());
  const std::string shifted_csv =
      WriteCsvString(SampleBatch(shifted, batch_rows, sample_rng).ToCsv());

  std::atomic<bool> stop{false};
  std::atomic<bool> drifted{false};
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> requests_after_drift{0};
  std::atomic<int64_t> dropped{0};
  std::vector<std::thread> workers;
  for (int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      auto client = ServeClient::Connect("127.0.0.1", daemon.port());
      if (!client.ok()) {
        dropped.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        const bool in_drift = drifted.load(std::memory_order_acquire);
        auto verdict =
            client->Validate("bench/drift", in_drift ? shifted_csv
                                                     : clean_csv);
        requests.fetch_add(1);
        if (in_drift) requests_after_drift.fetch_add(1);
        if (!verdict.ok()) dropped.fetch_add(1);
      }
    });
  }

  auto observer = ServeClient::Connect("127.0.0.1", daemon.port());
  DQUAG_CHECK(observer.ok());

  // Clean traffic, then flip the regime and time drift -> swap over the
  // wire (detection + retrain + hot swap, as a client experiences it).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  drifted.store(true, std::memory_order_release);
  Stopwatch swap_timer;
  for (int poll = 0; poll < 1200 && m.retrains == 0; ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto stats = observer->Stats("bench/drift");
    if (stats.ok() && !stats->empty()) m.retrains = (*stats)[0].retrains;
  }
  m.drift_to_swap_ms = swap_timer.ElapsedSeconds() * 1e3;
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  m.requests_total = requests.load();
  m.requests_during_retrain = requests_after_drift.load();
  m.requests_dropped = dropped.load();
  m.ok = m.retrains >= 1 && m.requests_dropped == 0 && m.requests_total > 0;
  if (m.retrains < 1) {
    std::fprintf(stderr, "FAIL: daemon never retrained under drift\n");
  }
  if (m.requests_dropped != 0) {
    std::fprintf(stderr, "FAIL: %lld requests dropped during retrain/swap\n",
                 static_cast<long long>(m.requests_dropped));
  }

  auto snapshot = daemon.RetrainSnapshot("bench/drift");
  daemon.Stop();
  if (snapshot.ok()) std::remove(snapshot->current_checkpoint.c_str());
  return m;
}

int RunAll() {
  const bool fast = bench::FastMode();
  const int64_t train_rows = bench::EnvInt("DQUAG_TRAIN_ROWS", 600);
  const int64_t epochs = bench::EnvInt("DQUAG_EPOCHS", fast ? 2 : 4);
  const int64_t clients =
      bench::EnvInt("DQUAG_DRIFT_CLIENTS", fast ? 2 : 4);
  const int64_t batch_rows = fast ? 128 : 200;
  const int64_t finetune_epochs = fast ? 1 : 3;
  const double shift = 0.3;

  std::printf("=== drift detection -> retrain -> zero-drop swap ===\n");
  std::printf("(%lld train rows, %lld-row batches, shift %.2f, "
              "%lld socket clients)\n",
              static_cast<long long>(train_rows),
              static_cast<long long>(batch_rows), shift,
              static_cast<long long>(clients));

  Rng rng(1234);
  Table clean = datasets::GenerateCreditCard(train_rows, rng);
  Table shifted = ShiftNumericColumns(clean, shift);

  DquagPipelineOptions pipeline_options;
  pipeline_options.config.encoder.hidden_dim = 16;
  pipeline_options.config.epochs = epochs;
  pipeline_options.config.seed = 7;
  DquagPipeline pipeline(std::move(pipeline_options));
  DQUAG_CHECK(pipeline.Fit(clean).ok());
  const std::string checkpoint = "bench_drift_model.ckpt";
  DQUAG_CHECK(pipeline.Save(checkpoint).ok());

  const DriftMetrics drift =
      RunInProcessLeg(checkpoint, clean, shifted, batch_rows,
                      finetune_epochs);
  const ServeMetrics serve = RunServeLeg(checkpoint, clean, shifted,
                                         batch_rows, clients,
                                         finetune_epochs);
  std::remove(checkpoint.c_str());

  std::printf("%20s  %14s  %14s  %12s  %12s\n", "detect_batches",
              "detect_rows", "retrain_ms", "degraded", "recovered");
  std::printf("%20lld  %14lld  %14.1f  %12.3f  %12.3f\n",
              static_cast<long long>(drift.detection_batches),
              static_cast<long long>(drift.detection_rows),
              drift.retrain_wall_ms, drift.degraded_flag_rate,
              drift.recovered_flag_rate);
  std::printf("%20s  %14s  %14s  %12s\n", "drift_to_swap_ms",
              "requests", "during_swap", "dropped");
  std::printf("%20.1f  %14lld  %14lld  %12lld\n", serve.drift_to_swap_ms,
              static_cast<long long>(serve.requests_total),
              static_cast<long long>(serve.requests_during_retrain),
              static_cast<long long>(serve.requests_dropped));

  return drift.ok && serve.ok ? 0 : 1;
}

}  // namespace
}  // namespace dquag

int main() {
  dquag::SetLogLevel(dquag::LogLevel::kWarning);
  return dquag::RunAll();
}
