// The three workloads. Each one builds its own generated inputs from the
// seed, sets up (fit, checkpoint, daemon, deploy), then runs rounds of the
// four user paths of the system for --seconds:
//
//   offline  ValidateStream and RepairStream over a dirty CSV file
//   open     open-loop validate/repair requests to the daemon, one hot swap
//   closed   closed-loop requests over four waiting connections
//   train    Fit -> Save -> Load -> FineTune -> Save -> hot swap
//
// Every workload reports every metric; what differs is the dataset and how
// much work each path gets per round, so where the time goes. The paths
// take turns within each round rather than running once each, so a burst
// of load from outside the benchmark lands on one sample of every metric
// instead of on all samples of one; metrics are medians over rounds (or
// percentiles over the pooled requests), pooled over the processes an
// untraced run is split into. With --trace 1 the same paths run as the
// layers' public calls, one span per call, and the per-layer metrics are
// reported.
// All timing happens here, outside the library.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/trainer.h"
#include "core/validation_service.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "data/table_chunk_reader.h"
#include "engine/inference_context.h"
#include "graph/feature_graph.h"
#include "graph/relationship_inference.h"
#include "harness.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "tensor/simd.h"
#include "tensor/tensor_ops.h"
#include "util/csv.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using namespace dquag;

// A request is answered within the latency limit when due -> response
// takes at most this long; failed and refused requests never are.
constexpr double kSloLimitMs = 200.0;
// The open loop is invalid when the generator's own lateness reaches this:
// the daemon would then be charged for the client's slowness.
constexpr double kMaxGeneratorLagMs = 20.0;
// One process drives the load with at most four connections: on a
// four-core box more load processes slow each other down.
constexpr int kConnections = 4;
constexpr int64_t kRequestRows = 32;
constexpr int kRequestBodies = 64;
constexpr double kRepairShare = 0.1;
// Every kParityEvery-th open-loop request is re-validated locally.
constexpr int kParityEvery = 8;
constexpr int kSetupRepeats = 2;
constexpr int kRetrainsPerCycle = 2;
// Samples taken while the host stole at most this share of the CPU time
// all count as quiet (see QuietMedian).
constexpr double kQuietStealShare = 0.02;
// The traced run does a fixed amount of work: two traced layer-by-layer
// offline passes after an untraced warm-up, and the open loop and train
// cycles of three rounds.
constexpr int kTracedPasses = 2;
constexpr int kTracedRounds = 3;
constexpr int64_t kFanoutRows = 16384;
constexpr int kPings = 20;
// The model side is fixed: every seed fits the same clean rows with the same
// training seed, as a deployed model would be, so the seed varies only the
// data being validated and the traffic. Training on seed-dependent rows
// would change the mined feature graph, and with it the model's size and
// cost, from seed to seed.
constexpr uint64_t kModelSeed = 20250325;

const char kFloatTenant[] = "bench/float";
const char kInt8Tenant[] = "bench/int8";
const char kRetrainTenant[] = "bench/retrain";

enum class Dataset { kAirbnb, kNyTaxi, kHotel };

/// Inputs and the work of one round of each path.
struct WorkloadSpec {
  const char* name;
  Dataset dataset;
  int64_t base_rows;       // clean rows of the model fitted in set-up
  int64_t base_epochs;
  int64_t fit_rows;        // clean rows of the Fit in each train round
  int64_t fit_epochs;
  int64_t finetune_rows;   // fresh clean buffer for FineTune
  int64_t finetune_epochs;
  int64_t file_rows;       // rows of the dirty CSV file (offline path)
  double request_rate;     // open-loop requests per second
  double open_s;           // open-loop seconds per round
  double closed_s;         // closed-loop seconds per round
};

// Per round, each workload spends about half its time on its own path:
// offline_csv in the stream passes, serve_online in the two serving loops,
// train_retrain in Fit and FineTune. The open-loop rate
// is well under what four connections sustain today (about 90 requests/s,
// bounded by the ~44 ms back-to-back round trip), so the daemon is not
// saturated and latency is not queueing.
constexpr WorkloadSpec kWorkloads[] = {
    {"offline_csv", Dataset::kAirbnb, 1500, 6, 1000, 4, 1000, 3, 30000,
     40.0, 0.4, 0.25},
    {"serve_online", Dataset::kNyTaxi, 1500, 6, 600, 4, 500, 3, 10000, 40.0,
     0.8, 0.4},
    {"train_retrain", Dataset::kHotel, 1500, 6, 1000, 6, 800, 4, 12000,
     40.0, 0.3, 0.2},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ---- Generated inputs ---------------------------------------------------------

Table GenerateClean(Dataset dataset, int64_t rows, Rng& rng) {
  switch (dataset) {
    case Dataset::kAirbnb:
      return datasets::GenerateAirbnbClean(rows, rng);
    case Dataset::kNyTaxi:
      return datasets::GenerateNyTaxi(rows, rng);
    case Dataset::kHotel:
      return datasets::GenerateHotelBooking(rows, rng);
  }
  return Table();
}

/// Dirty rows plus the ground-truth mask of rows that carry dirt (~10%).
/// Airbnb uses its own real-world-style corruption, whose neighbourhood /
/// borough conflicts are the paper's hidden errors; the others get injected
/// anomalies, typos and (hotel) the Group-without-adults conflict.
Table GenerateDirty(Dataset dataset, int64_t rows, Rng& rng,
                    std::vector<bool>* mask) {
  if (dataset == Dataset::kAirbnb) {
    return datasets::GenerateAirbnbDirty(rows, rng, mask);
  }
  Table clean = GenerateClean(dataset, rows, rng);
  ErrorInjector injector(rng.Next());
  const bool taxi = dataset == Dataset::kNyTaxi;
  InjectionResult first =
      taxi ? injector.InjectNumericAnomalies(
                 clean, {"fare_amount", "trip_duration_min"}, 0.04)
           : injector.InjectHotelGroupConflict(clean, 0.06);
  InjectionResult second =
      taxi ? injector.InjectTypos(first.table, {"payment_type"}, 0.03)
           : injector.InjectNumericAnomalies(first.table, {"adr"}, 0.04);
  mask->assign(static_cast<size_t>(rows), false);
  for (size_t r = 0; r < mask->size(); ++r) {
    (*mask)[r] = first.row_corrupted[r] || second.row_corrupted[r];
  }
  return std::move(second.table);
}

DquagPipelineOptions PipelineOptions(int64_t epochs, uint64_t seed) {
  DquagPipelineOptions options;
  options.config.epochs = epochs;
  options.config.seed = seed;
  return options;
}

// ---- Verdict comparison (bit for bit) -----------------------------------------

bool SameInstance(const InstanceVerdict& a, const InstanceVerdict& b) {
  return a.error == b.error && a.flagged == b.flagged &&
         a.suspect_features == b.suspect_features;
}

bool SameBatchVerdict(const BatchVerdict& a, const BatchVerdict& b) {
  if (a.is_dirty != b.is_dirty || a.flagged_fraction != b.flagged_fraction ||
      a.threshold != b.threshold || a.flagged_rows != b.flagged_rows ||
      a.instances.size() != b.instances.size()) {
    return false;
  }
  for (size_t i = 0; i < a.instances.size(); ++i) {
    if (!SameInstance(a.instances[i], b.instances[i])) return false;
  }
  return true;
}

/// A streamed verdict against whole-table validation of the same rows.
bool StreamMatches(const StreamVerdict& stream, const BatchVerdict& whole) {
  if (stream.total_rows != static_cast<int64_t>(whole.instances.size()) ||
      stream.is_dirty != whole.is_dirty ||
      stream.flagged_fraction != whole.flagged_fraction ||
      stream.threshold != whole.threshold ||
      stream.flagged_rows != whole.flagged_rows ||
      stream.flagged_instances.size() != whole.flagged_rows.size()) {
    return false;
  }
  for (size_t i = 0; i < whole.flagged_rows.size(); ++i) {
    if (!SameInstance(stream.flagged_instances[i],
                      whole.instances[whole.flagged_rows[i]])) {
      return false;
    }
  }
  return true;
}

WireVerdict ToWire(const BatchVerdict& verdict, int64_t rows) {
  WireVerdict wire;
  wire.total_rows = rows;
  wire.flagged_fraction = verdict.flagged_fraction;
  wire.threshold = verdict.threshold;
  wire.is_dirty = verdict.is_dirty;
  for (size_t row : verdict.flagged_rows) {
    wire.flagged.push_back({static_cast<uint64_t>(row),
                            verdict.instances[row].error,
                            verdict.instances[row].suspect_features});
  }
  return wire;
}

bool SameWire(const WireVerdict& a, const WireVerdict& b) {
  if (a.total_rows != b.total_rows ||
      a.flagged_fraction != b.flagged_fraction ||
      a.threshold != b.threshold || a.is_dirty != b.is_dirty ||
      a.flagged.size() != b.flagged.size()) {
    return false;
  }
  for (size_t i = 0; i < a.flagged.size(); ++i) {
    if (a.flagged[i].row != b.flagged[i].row ||
        a.flagged[i].error != b.flagged[i].error ||
        a.flagged[i].suspect_features != b.flagged[i].suspect_features) {
      return false;
    }
  }
  return true;
}

// ---- Run bookkeeping ------------------------------------------------------------

/// Operations attempted and failed; a correctness-gate mismatch counts as a
/// failed operation and also marks the run incorrect.
struct Ledger {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> gate_failures{0};
  std::mutex mutex;
  std::vector<std::string> errors;  // guarded by mutex; first few kept

  void Op(bool ok, const std::string& what) {
    attempted.fetch_add(1);
    if (!ok) Fail(what);
  }
  void Gate(bool ok, const std::string& what) {
    if (ok) return;
    gate_failures.fetch_add(1);
    Op(false, "gate: " + what);
  }
  void Fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex);
    if (errors.size() < 10) errors.push_back(what);
  }
};

std::string Join(const std::filesystem::path& dir, const std::string& name) {
  return (dir / name).string();
}

// ---- Set-up -----------------------------------------------------------------------

/// Everything the timed paths use, built before timing starts.
struct Fixture {
  Table base_clean;
  Table fit_table;
  Table finetune_buffer;
  Table dirty;
  std::vector<bool> dirty_mask;
  Table probe;  // rows for the hot-swap gate
  std::vector<std::string> bodies;  // pre-serialized 32-row request CSVs
  std::string csv_path;
  std::string base_ckpt;
  std::string swap_ckpt;  // same model as base_ckpt, second file
  std::unique_ptr<ValidationService> local_float;
  std::unique_ptr<ValidationService> local_int8;
  BatchVerdict reference;  // whole-table verdict of `dirty`
  std::unique_ptr<ServeDaemon> daemon;
};

Status BuildFixture(const WorkloadSpec& spec, uint64_t seed,
                    const std::filesystem::path& dir, Fixture* f) {
  Rng model_rng(kModelSeed);
  f->base_clean = GenerateClean(spec.dataset, spec.base_rows, model_rng);
  f->fit_table = GenerateClean(spec.dataset, spec.fit_rows, model_rng);
  // The retrain buffer is a fresh clean sample from another stream.
  f->finetune_buffer =
      GenerateClean(spec.dataset, spec.finetune_rows, model_rng);

  Rng rng(seed);
  f->dirty = GenerateDirty(spec.dataset, spec.file_rows, rng, &f->dirty_mask);
  std::vector<bool> request_mask;
  const Table requests = GenerateDirty(
      spec.dataset, kRequestBodies * kRequestRows, rng, &request_mask);
  f->probe = requests.SliceRows(0, 8 * kRequestRows);
  f->bodies.clear();
  for (int i = 0; i < kRequestBodies; ++i) {
    f->bodies.push_back(WriteCsvString(
        requests.SliceRows(i * kRequestRows, kRequestRows).ToCsv()));
  }

  DquagPipeline base(PipelineOptions(spec.base_epochs, kModelSeed));
  DQUAG_RETURN_IF_ERROR(base.Fit(f->base_clean));
  f->base_ckpt = Join(dir, "base.ckpt");
  f->swap_ckpt = Join(dir, "swap.ckpt");
  DQUAG_RETURN_IF_ERROR(base.Save(f->base_ckpt));
  DQUAG_RETURN_IF_ERROR(base.Save(f->swap_ckpt));
  f->csv_path = Join(dir, "dirty.csv");
  DQUAG_RETURN_IF_ERROR(WriteCsvFile(f->dirty.ToCsv(), f->csv_path));
  // Numbers lose digits in CSV text, so the reference rows are the file's.
  DQUAG_ASSIGN_OR_RETURN(const CsvDocument document,
                         ReadCsvFile(f->csv_path));
  DQUAG_ASSIGN_OR_RETURN(f->dirty,
                         Table::FromCsv(f->dirty.schema(), document));

  f->local_float = std::make_unique<ValidationService>(std::move(base));
  ValidationServiceOptions int8_options;
  int8_options.quantized = true;
  DQUAG_ASSIGN_OR_RETURN(f->local_int8, ValidationService::FromCheckpoint(
                                            f->base_ckpt, int8_options));
  // The offline gate's reference: the materialized table validated once.
  f->reference = f->local_float->Validate(f->dirty);

  ServeOptions serve_options;
  serve_options.registry.max_resident = 4;
  f->daemon = std::make_unique<ServeDaemon>(serve_options);
  DQUAG_RETURN_IF_ERROR(f->daemon->Start());
  ModelRegistry& registry = f->daemon->registry();
  DeployOptions int8_deploy;
  int8_deploy.quantized = true;
  DQUAG_RETURN_IF_ERROR(registry.Deploy(kFloatTenant, f->base_ckpt));
  DQUAG_RETURN_IF_ERROR(
      registry.Deploy(kInt8Tenant, f->base_ckpt, int8_deploy));
  DQUAG_RETURN_IF_ERROR(registry.Deploy(kRetrainTenant, f->base_ckpt));
  for (const char* tenant : {kFloatTenant, kInt8Tenant, kRetrainTenant}) {
    DQUAG_RETURN_IF_ERROR(registry.Acquire(tenant).status());  // load now
  }
  return Status::Ok();
}

void TearDown(Fixture* f) {
  if (f->daemon != nullptr) f->daemon->Stop();
  *f = Fixture();
}

// ---- Offline path --------------------------------------------------------------

struct OfflineResult {
  std::vector<double> validate_s;
  std::vector<double> repair_s;
  // Share of CPU time stolen by the host during each sample above.
  std::vector<double> validate_steal;
  std::vector<double> repair_steal;
  Table repaired;  // the last repair pass's output
};

/// Two ValidateStream passes (validation is the cheaper pass, so it gets
/// two samples per round) and one RepairStream pass over the CSV file, each
/// gated against whole-table validation of the same rows.
void RunOfflinePass(const Fixture& f, Ledger& ledger, OfflineResult* result) {
  const Schema& schema = f.dirty.schema();
  for (int pass = 0; pass < 2; ++pass) {
    auto reader = CsvChunkReader::Open(f.csv_path, schema);
    if (!reader.ok()) {
      ledger.Op(false, "open csv: " + reader.status().ToString());
      return;
    }
    const CpuTicks ticks = ReadCpuTicks();
    const Clock::time_point t = Clock::now();
    auto verdict = f.local_float->ValidateStream(**reader);
    result->validate_s.push_back(SecondsSince(t));
    result->validate_steal.push_back(StealShare(ticks, ReadCpuTicks()));
    ledger.Op(verdict.ok(), "ValidateStream");
    if (verdict.ok()) {
      ledger.Gate(StreamMatches(*verdict, f.reference),
                  "streamed verdict != whole-table verdict");
    }
  }

  auto repair_reader = CsvChunkReader::Open(f.csv_path, schema);
  if (!repair_reader.ok()) {
    ledger.Op(false, "open csv: " + repair_reader.status().ToString());
    return;
  }
  result->repaired = Table(schema);
  const CpuTicks ticks = ReadCpuTicks();
  const Clock::time_point t = Clock::now();
  auto repair = f.local_float->RepairStream(
      **repair_reader, [&](const StreamChunk& chunk) {
        result->repaired.AppendRows(chunk.repair->repaired);
      });
  result->repair_s.push_back(SecondsSince(t));
  result->repair_steal.push_back(StealShare(ticks, ReadCpuTicks()));
  ledger.Op(repair.ok(), "RepairStream");
  if (repair.ok()) {
    ledger.Gate(StreamMatches(*repair, f.reference) &&
                    result->repaired.num_rows() == f.dirty.num_rows(),
                "repair stream verdict != whole-table verdict");
  }
}

struct Quality {
  double recall = 0.0;
  double precision = 0.0;
};

Quality FlagQuality(const BatchVerdict& verdict,
                    const std::vector<bool>& dirty) {
  int64_t truly_dirty = 0;
  for (bool d : dirty) truly_dirty += d ? 1 : 0;
  int64_t hits = 0;
  for (size_t row : verdict.flagged_rows) hits += dirty[row] ? 1 : 0;
  Quality q;
  q.recall = truly_dirty > 0 ? static_cast<double>(hits) / truly_dirty : 0.0;
  q.precision = verdict.flagged_rows.empty()
                    ? 0.0
                    : static_cast<double>(hits) / verdict.flagged_rows.size();
  return q;
}

// ---- Serving paths ----------------------------------------------------------------

struct PlannedRequest {
  double due = 0.0;  // seconds after the schedule's start
  int body = 0;
  bool int8 = false;
  bool repair = false;
};

PlannedRequest PlanRequest(Rng& rng) {
  PlannedRequest request;
  request.body = static_cast<int>(rng.UniformInt(0, kRequestBodies - 1));
  request.int8 = rng.Bernoulli(0.5);
  request.repair = rng.Bernoulli(kRepairShare);
  return request;
}

struct Outcome {
  DueTiming timing;
  bool ok = false;
  WireVerdict verdict;  // kept for parity-sampled validates
  WireRepair repair;    // kept for parity-sampled repairs
};

/// Sends one planned request; fills the response when `keep` is set.
bool Send(ServeClient& client, const Fixture& f,
          const PlannedRequest& request, bool keep, Outcome* outcome) {
  const char* tenant = request.int8 ? kInt8Tenant : kFloatTenant;
  const std::string& body = f.bodies[static_cast<size_t>(request.body)];
  if (request.repair) {
    auto repaired = client.Repair(tenant, body);
    if (keep && repaired.ok()) outcome->repair = std::move(repaired).value();
    return repaired.ok();
  }
  auto verdict = client.Validate(tenant, body);
  if (keep && verdict.ok()) outcome->verdict = std::move(verdict).value();
  return verdict.ok();
}

struct OpenLoopResult {
  std::vector<PlannedRequest> plan;
  std::vector<Outcome> outcomes;
  int64_t retries = 0;
};

/// Open loop: request i is due at i / rate seconds. Each of the four
/// connections takes the next request when it is free and sends it at its
/// due time, or at once when it is already late; latency counts from the
/// due time. Halfway through, the float tenant is hot-swapped.
OpenLoopResult RunOpenLoop(Fixture& f, double rate, double seconds,
                           uint64_t seed, Tracer& tracer, Ledger& ledger) {
  OpenLoopResult result;
  const int64_t n = std::max<int64_t>(
      kConnections, static_cast<int64_t>(rate * seconds + 0.5));
  Rng rng(seed);
  for (int64_t i = 0; i < n; ++i) {
    result.plan.push_back(PlanRequest(rng));
    result.plan.back().due = static_cast<double>(i) / rate;
  }
  result.outcomes.resize(static_cast<size_t>(n));

  std::vector<ServeClient> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = ServeClient::Connect("127.0.0.1", f.daemon->port());
    if (!client.ok()) {
      ledger.Op(false, "connect: " + client.status().ToString());
      return result;
    }
    clients.push_back(std::move(client).value());
  }

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto since = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  std::atomic<int64_t> next{0};
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    senders.emplace_back([&, c] {
      ServeClient& client = clients[static_cast<size_t>(c)];
      for (;;) {
        const int64_t i = next.fetch_add(1);
        if (i >= n) break;
        const PlannedRequest& request = result.plan[static_cast<size_t>(i)];
        Outcome& outcome = result.outcomes[static_cast<size_t>(i)];
        outcome.timing.due = request.due;
        outcome.timing.free_at = since();
        std::this_thread::sleep_until(at(request.due));
        ScopedSpan span(tracer, "serve.request", -1, i);
        outcome.timing.sent = since();
        outcome.ok = Send(client, f, request, i % kParityEvery == 0,
                          &outcome);
        outcome.timing.done = since();
      }
    });
  }

  // The hot swap alternates the float tenant between two checkpoint files
  // of one model, so verdicts stay comparable across the swap.
  std::this_thread::sleep_until(at(seconds / 2));
  {
    const std::string& path =
        f.daemon->registry().DeployedPath(kFloatTenant).value() == f.base_ckpt
            ? f.swap_ckpt
            : f.base_ckpt;
    ScopedSpan span(tracer, "serve.deploy");
    const Status status = f.daemon->registry().Deploy(kFloatTenant, path);
    ledger.Op(status.ok(), "hot swap: " + status.ToString());
  }
  for (std::thread& sender : senders) sender.join();

  for (const ServeClient& client : clients) {
    result.retries += client.retry_stats().retries;
  }
  for (const Outcome& outcome : result.outcomes) {
    ledger.Op(outcome.ok, "open-loop request");
  }
  return result;
}

/// Parity gate: sampled remote answers must equal a local TryValidate
/// (or TryValidateAndRepair) of the same bytes, bit for bit.
void CheckParity(const Fixture& f, const OpenLoopResult& open,
                 Ledger& ledger) {
  for (size_t i = 0; i < open.outcomes.size(); i += kParityEvery) {
    const Outcome& outcome = open.outcomes[i];
    if (!outcome.ok) continue;
    const PlannedRequest& request = open.plan[i];
    const ValidationService& local =
        request.int8 ? *f.local_int8 : *f.local_float;
    auto doc = ParseCsv(f.bodies[static_cast<size_t>(request.body)]);
    auto table = doc.ok() ? Table::FromCsv(
                                local.pipeline().preprocessor().schema(), *doc)
                          : StatusOr<Table>(doc.status());
    if (!table.ok()) {
      ledger.Gate(false, "parse request body");
      continue;
    }
    if (request.repair) {
      auto repaired = local.TryValidateAndRepair(*table);
      ledger.Gate(repaired.ok() &&
                      WriteCsvString(repaired->repaired.ToCsv()) ==
                          outcome.repair.repaired_csv &&
                      repaired->cells_repaired ==
                          outcome.repair.cells_repaired,
                  "remote repair != local repair");
    } else {
      auto verdict = local.TryValidate(*table);
      ledger.Gate(verdict.ok() && SameWire(ToWire(*verdict, table->num_rows()),
                                           outcome.verdict),
                  "remote verdict != local verdict");
    }
  }
}

/// Closed loop: four connections send the mix back to back.
double RunClosedLoop(Fixture& f, double seconds, uint64_t seed,
                     Ledger& ledger) {
  std::atomic<int64_t> answered{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> callers;
  for (int c = 0; c < kConnections; ++c) {
    callers.emplace_back([&, c] {
      auto client = ServeClient::Connect("127.0.0.1", f.daemon->port());
      if (!client.ok()) {
        ledger.Op(false, "connect: " + client.status().ToString());
        return;
      }
      Rng rng(seed * 31 + static_cast<uint64_t>(c));
      Outcome unused;
      while (SecondsSince(start) < seconds) {
        const bool ok = Send(*client, f, PlanRequest(rng), false, &unused);
        ledger.Op(ok, "closed-loop request");
        if (ok) answered.fetch_add(1);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  return static_cast<double>(answered.load()) / SecondsSince(start);
}

// ---- Train path -------------------------------------------------------------------

struct TrainResult {
  std::vector<double> row_epochs_per_s;
  std::vector<double> retrain_s;
  // Share of CPU time stolen by the host during each sample above.
  std::vector<double> fit_steal;
  std::vector<double> retrain_steal;
};

/// One retrain cycle, the RetrainController protocol from outside: Fit,
/// Save, Load, then kRetrainsPerCycle times warm-start FineTune on a fresh
/// buffer, Save, hot swap of the resident retrain tenant. Gate: after each
/// swap the tenant answers the probe batch exactly as a fresh load of the
/// fine-tuned checkpoint does.
void RunTrainCycle(const WorkloadSpec& spec, Fixture& f,
                   const std::filesystem::path& dir, int cycle,
                   Tracer& tracer, Ledger& ledger, TrainResult* result) {
  const int64_t root = tracer.Begin("train.cycle", -1, cycle);
  const std::string fit_path = Join(dir, "fit.ckpt");

  DquagPipeline pipeline(PipelineOptions(spec.fit_epochs, kModelSeed));
  CpuTicks ticks = ReadCpuTicks();
  Clock::time_point t = Clock::now();
  Status status;
  {
    ScopedSpan span(tracer, "core.fit", root);
    status = pipeline.Fit(f.fit_table);
  }
  const double fit_s = SecondsSince(t);
  ledger.Op(status.ok(), "Fit: " + status.ToString());
  if (status.ok()) {
    result->row_epochs_per_s.push_back(
        static_cast<double>(f.fit_table.num_rows() *
                            pipeline.training_report().epochs_run) /
        fit_s);
    result->fit_steal.push_back(StealShare(ticks, ReadCpuTicks()));
  }
  {
    ScopedSpan span(tracer, "core.checkpoint_save", root);
    status = pipeline.Save(fit_path);
  }
  ledger.Op(status.ok(), "Save: " + status.ToString());
  StatusOr<DquagPipeline> loaded = Status::Internal("not loaded");
  {
    ScopedSpan span(tracer, "core.checkpoint_load", root);
    loaded = DquagPipeline::Load(fit_path);
  }
  ledger.Op(loaded.ok(), "Load: " + loaded.status().ToString());
  if (!loaded.ok()) {
    tracer.End(root);
    return;
  }

  FineTuneOptions finetune;
  finetune.epochs = spec.finetune_epochs;
  finetune.seed = kModelSeed + 1;
  // The retrain step runs kRetrainsPerCycle times, each a further warm
  // start from the last, as successive drift retrains of one tenant are.
  for (int k = 0; k < kRetrainsPerCycle; ++k) {
    const std::string tuned_path =
        Join(dir, "tuned-" + std::to_string(k % 2) + ".ckpt");
    ticks = ReadCpuTicks();
    t = Clock::now();
    {
      ScopedSpan span(tracer, "core.finetune", root);
      status = loaded->FineTune(f.finetune_buffer, finetune);
    }
    ledger.Op(status.ok(), "FineTune: " + status.ToString());
    {
      ScopedSpan span(tracer, "core.checkpoint_save", root);
      status = loaded->Save(tuned_path);
    }
    ledger.Op(status.ok(), "Save: " + status.ToString());
    {
      ScopedSpan span(tracer, "serve.deploy", root);
      status = f.daemon->registry().Deploy(kRetrainTenant, tuned_path);
    }
    ledger.Op(status.ok(), "hot swap: " + status.ToString());
    result->retrain_s.push_back(SecondsSince(t));
    result->retrain_steal.push_back(StealShare(ticks, ReadCpuTicks()));

    ScopedSpan span(tracer, "serve.swap_check", root);
    auto served = f.daemon->registry().Acquire(kRetrainTenant);
    auto fresh = DquagPipeline::Load(tuned_path);
    ledger.Gate(served.ok() && fresh.ok() &&
                    [&] {
                      auto verdict = (*served)->TryValidate(f.probe);
                      return verdict.ok() &&
                             SameBatchVerdict(*verdict,
                                              fresh->Validate(f.probe));
                    }(),
                "hot-swapped tenant != fresh load of its checkpoint");
  }
  tracer.End(root);
  std::filesystem::remove(fit_path);
}

// ---- Traced layer probes ----------------------------------------------------------

double UsPerKrow(double seconds, int64_t rows) {
  return rows > 0 ? seconds * 1e6 / (static_cast<double>(rows) / 1000.0)
                  : 0.0;
}

/// The offline path as the layers' public calls, one chunk at a time:
/// Next -> Transform -> ValidateRowsInto -> FinalizeVerdict -> Repair. The
/// model forwards inside ValidateRowsInto and Repair are timed separately
/// on the same rows, so the core layer's self time is the difference.
/// Returns rows processed; spans go to `tracer`.
int64_t LayeredOfflinePass(const Fixture& f, Tracer& tracer, int64_t pass,
                           Ledger& ledger) {
  const DquagPipeline& pipeline = f.local_float->pipeline();
  const Validator& validator = pipeline.validator();
  const DquagModel& model = pipeline.model();
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  auto reader = CsvChunkReader::Open(f.csv_path, f.dirty.schema());
  if (!reader.ok()) {
    ledger.Op(false, "open csv: " + reader.status().ToString());
    return 0;
  }
  ScopedSpan root(tracer, "offline.pass", -1, pass);
  Table chunk;
  BatchVerdict verdict;
  int64_t rows = 0;
  for (int64_t index = 0;; ++index) {
    StatusOr<int64_t> got = int64_t{0};
    {
      ScopedSpan span(tracer, "data.csv_read", root.id(), index);
      got = (*reader)->Next(chunk);
    }
    if (!got.ok()) {
      ledger.Op(false, "Next: " + got.status().ToString());
      break;
    }
    if (*got == 0) break;
    rows += *got;
    Tensor matrix;
    {
      ScopedSpan span(tracer, "data.transform", root.id(), index);
      matrix = pipeline.preprocessor().Transform(chunk);
    }
    verdict.instances.assign(static_cast<size_t>(*got), InstanceVerdict());
    verdict.threshold = validator.threshold();
    {
      ScopedSpan span(tracer, "core.validate_rows", root.id(), index);
      validator.ValidateRowsInto(matrix, 0, *got, ctx,
                                 verdict.instances.data());
    }
    {
      ScopedSpan span(tracer, "model.forward_validation", root.id(), index);
      ctx.Rewind();
      model.InferValidation(matrix, ctx);
    }
    {
      ScopedSpan span(tracer, "core.finalize", root.id(), index);
      validator.FinalizeVerdict(verdict);
    }
    {
      ScopedSpan span(tracer, "core.repair", root.id(), index);
      pipeline.Repair(chunk, verdict);
    }
    {
      ScopedSpan span(tracer, "model.forward_repair", root.id(), index);
      ctx.Rewind();
      model.InferRepair(matrix, ctx);
    }
  }
  ledger.Op(rows == f.dirty.num_rows(), "layered offline pass");
  return rows;
}

template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t = Clock::now();
    fn();
    samples.push_back(SecondsSince(t));
  }
  return Median(samples);
}

std::vector<Metric> TracedRun(const WorkloadSpec& spec, Fixture& f,
                              const RunOptions& options,
                              const std::filesystem::path& dir,
                              Tracer& tracer, Ledger& ledger) {
  const DquagPipeline& pipeline = f.local_float->pipeline();

  // Offline path, layer by layer, after one untraced warm-up pass.
  Tracer untraced(/*enabled=*/false);
  LayeredOfflinePass(f, untraced, -1, ledger);
  double traced_wall = 0.0;
  int64_t traced_rows = 0;
  for (int64_t pass = 0; pass < kTracedPasses; ++pass) {
    const Clock::time_point t = Clock::now();
    traced_rows += LayeredOfflinePass(f, tracer, pass, ledger);
    traced_wall += SecondsSince(t);
  }
  // Tracing overhead: what recording those spans cost, from the measured
  // cost of one span. Timing a traced against an untraced pass instead
  // measures the machine's noise, which is larger than the spans' cost.
  const double offline_spans = static_cast<double>(tracer.spans().size());
  double span_cost_s = 0.0;
  {
    Tracer scratch(/*enabled=*/true);
    constexpr int kSpans = 20000;
    const Clock::time_point t = Clock::now();
    for (int i = 0; i < kSpans; ++i) ScopedSpan span(scratch, "probe", 0, i);
    span_cost_s = SecondsSince(t) / kSpans;
  }
  // The pipelined stream over the same file, timed whole.
  double stream_s = 0.0;
  int64_t peak_buffered = 0;
  {
    auto reader = CsvChunkReader::Open(f.csv_path, f.dirty.schema());
    const Clock::time_point t = Clock::now();
    auto verdict = reader.ok() ? f.local_float->ValidateStream(**reader)
                               : StatusOr<StreamVerdict>(reader.status());
    stream_s = SecondsSince(t);
    ledger.Op(verdict.ok(), "ValidateStream");
    if (verdict.ok()) {
      ledger.Gate(StreamMatches(*verdict, f.reference),
                  "streamed verdict != whole-table verdict");
      peak_buffered = verdict->peak_buffered_rows;
    }
  }
  const double busy_per_pass =
      (tracer.TotalSeconds("data.csv_read") +
       tracer.TotalSeconds("data.transform") +
       tracer.TotalSeconds("core.validate_rows") +
       tracer.TotalSeconds("core.finalize")) /
      static_cast<double>(kTracedPasses);

  // Serving probes.
  const int64_t probes = tracer.Begin("serve.probes");
  std::vector<double> ping_us;
  {
    auto client = ServeClient::Connect("127.0.0.1", f.daemon->port());
    ledger.Op(client.ok(), "connect");
    for (int i = 0; client.ok() && i < kPings; ++i) {
      ScopedSpan span(tracer, "serve.ping", probes, i);
      const Clock::time_point t = Clock::now();
      ledger.Op(client->Ping().ok(), "ping");
      ping_us.push_back(SecondsSince(t) * 1e6);
    }
  }
  std::vector<double> parse_us;
  std::vector<double> codec_us;
  std::vector<Table> request_tables;
  const Schema& schema = pipeline.preprocessor().schema();
  for (int i = 0; i < kRequestBodies; ++i) {
    const std::string& body = f.bodies[static_cast<size_t>(i)];
    Clock::time_point t = Clock::now();
    StatusOr<Table> table = Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, "data.request_parse", probes, i);
      auto doc = ParseCsv(body);
      table = doc.ok() ? Table::FromCsv(schema, *doc)
                       : StatusOr<Table>(doc.status());
    }
    parse_us.push_back(SecondsSince(t) * 1e6);
    ledger.Op(table.ok(), "parse request body");
    if (!table.ok()) continue;
    const WireVerdict wire =
        ToWire(f.local_float->Validate(*table), table->num_rows());
    WireRequest request;
    request.verb = WireVerb::kValidate;
    request.tenant = kFloatTenant;
    request.body = body;
    t = Clock::now();
    bool round_trip = false;
    {
      ScopedSpan span(tracer, "serve.wire_codec", probes, i);
      auto decoded_request = DecodeRequest(EncodeRequest(request));
      auto decoded_verdict = DecodeVerdict(EncodeVerdict(wire));
      round_trip = decoded_request.ok() && decoded_verdict.ok() &&
                   decoded_request->body == body &&
                   SameWire(*decoded_verdict, wire);
    }
    codec_us.push_back(SecondsSince(t) * 1e6);
    ledger.Gate(round_trip, "wire codec round trip");
    request_tables.push_back(std::move(table).value());
  }
  // int8 validation of the request rows, as the int8 tenant serves them.
  Table request_rows(schema);
  for (const Table& table : request_tables) request_rows.AppendRows(table);
  const Tensor request_matrix =
      pipeline.preprocessor().Transform(request_rows);
  std::vector<InstanceVerdict> scratch(
      static_cast<size_t>(request_rows.num_rows()));
  const ValidationMode int8_mode{true, 0.25};
  InferenceContext& ctx = InferenceContext::ThreadLocal();
  pipeline.validator().ValidateRowsInto(request_matrix, 0,
                                        request_rows.num_rows(), ctx,
                                        scratch.data(), int8_mode);  // warm
  const double int8_s = MedianSeconds(5, [&] {
    ScopedSpan span(tracer, "core.validate_int8", probes);
    pipeline.validator().ValidateRowsInto(request_matrix, 0,
                                          request_rows.num_rows(), ctx,
                                          scratch.data(), int8_mode);
  });
  // Parallel fan-out against the serial validator on one matrix.
  const Tensor fanout_matrix = pipeline.preprocessor().Transform(
      f.dirty.SliceRows(0, std::min(kFanoutRows, f.dirty.num_rows())));
  const double fanout_parallel_s = MedianSeconds(3, [&] {
    ScopedSpan span(tracer, "core.fanout_parallel", probes);
    f.local_float->ValidateMatrix(fanout_matrix);
  });
  const double fanout_serial_s = MedianSeconds(3, [&] {
    ScopedSpan span(tracer, "core.fanout_serial", probes);
    pipeline.validator().ValidateMatrix(fanout_matrix);
  });
  tracer.End(probes);

  const OpenLoopResult open =
      RunOpenLoop(f, spec.request_rate, kTracedRounds * spec.open_s,
                  options.seed, tracer, ledger);
  CheckParity(f, open, ledger);
  std::vector<double> queue_ms;
  std::vector<double> lag_ms;
  std::vector<double> round_trip_us;
  for (const Outcome& outcome : open.outcomes) {
    queue_ms.push_back(outcome.timing.QueueWait() * 1e3);
    lag_ms.push_back(outcome.timing.GeneratorLag() * 1e3);
    round_trip_us.push_back((outcome.timing.done - outcome.timing.sent) *
                            1e6);
  }
  double handle_p50_us = 0.0;
  double handle_p99_us = 0.0;
  int64_t rejected = 0;
  int64_t failed = 0;
  {
    auto client = ServeClient::Connect("127.0.0.1", f.daemon->port());
    auto stats = client.ok() ? client->Stats()
                             : StatusOr<std::vector<TenantStatsSnapshot>>(
                                   client.status());
    ledger.Op(stats.ok(), "stats");
    if (stats.ok()) {
      for (const TenantStatsSnapshot& tenant : *stats) {
        rejected += tenant.requests_rejected;
        failed += tenant.requests_failed;
        if (tenant.tenant == kFloatTenant) {
          handle_p50_us = static_cast<double>(tenant.latency.p50_us);
          handle_p99_us = static_cast<double>(tenant.latency.p99_us);
        }
      }
    }
  }

  // Train path layers: the pieces of Fit called one by one, then the
  // retrain cycle itself.
  const int64_t train_root = tracer.Begin("train.probes");
  TablePreprocessor preprocessor;
  const double preprocessor_fit_s = MedianSeconds(3, [&] {
    ScopedSpan span(tracer, "data.preprocessor_fit", train_root);
    preprocessor = TablePreprocessor();
    preprocessor.Fit(f.fit_table);
  });
  StatusOr<FeatureGraph> graph = Status::Internal("not built");
  const double graph_s = MedianSeconds(3, [&] {
    ScopedSpan span(tracer, "graph.build", train_root);
    graph = FeatureGraph::FromRelationships(
        f.fit_table.schema().Names(),
        MineRelationships(TableToMinerColumns(f.fit_table)));
  });
  ledger.Op(graph.ok(), "graph build");
  double step_ms = 0.0;
  double compute_errors_ms = 0.0;
  if (graph.ok()) {
    const DquagConfig config =
        PipelineOptions(spec.fit_epochs, kModelSeed).config;
    Rng rng(kModelSeed);
    DquagModel model(*graph, config, rng);
    Trainer trainer(&model, config);
    const Tensor matrix = preprocessor.Transform(f.fit_table);
    std::vector<double> steps;
    for (int64_t start = 0; start + config.batch_size <= matrix.shape()[0];
         start += config.batch_size) {
      const Tensor batch =
          Slice(matrix, 0, start, start + config.batch_size);
      ScopedSpan span(tracer, "core.train_step", train_root);
      const Clock::time_point t = Clock::now();
      trainer.Step(batch);
      steps.push_back(SecondsSince(t) * 1e3);
    }
    step_ms = Median(steps);
    compute_errors_ms = MedianSeconds(3, [&] {
      ScopedSpan span(tracer, "core.compute_errors", train_root);
      trainer.ComputeErrors(matrix);
    }) * 1e3;
  }
  tracer.End(train_root);
  TrainResult train;
  for (int cycle = 0; cycle < kTracedRounds; ++cycle) {
    RunTrainCycle(spec, f, dir, cycle, tracer, ledger, &train);
  }
  const int64_t cycles = tracer.Count("train.cycle");
  const double deploy_count =
      static_cast<double>(tracer.Count("serve.deploy"));

  const auto per_krow = [&](const std::string& name) {
    return UsPerKrow(tracer.TotalSeconds(name), traced_rows);
  };
  const double client_p50_us = Median(round_trip_us);
  return {
      {"data.csv_read_us_per_krow", per_krow("data.csv_read"), "us/krow"},
      {"data.request_parse_us", Median(parse_us), "us"},
      {"data.transform_us_per_krow", per_krow("data.transform"), "us/krow"},
      {"data.preprocessor_fit_ms", preprocessor_fit_s * 1e3, "ms"},
      {"graph.build_ms", graph_s * 1e3, "ms"},
      {"model.forward_validation_us_per_krow",
       per_krow("model.forward_validation"), "us/krow"},
      {"model.forward_repair_us_per_krow", per_krow("model.forward_repair"),
       "us/krow"},
      {"core.validate_self_us_per_krow",
       UsPerKrow(tracer.TotalSeconds("core.validate_rows") -
                     tracer.TotalSeconds("model.forward_validation"),
                 traced_rows),
       "us/krow"},
      {"core.validate_int8_us_per_krow",
       UsPerKrow(int8_s, request_rows.num_rows()), "us/krow"},
      {"core.finalize_us_per_krow", per_krow("core.finalize"), "us/krow"},
      {"core.repair_self_us_per_krow",
       UsPerKrow(tracer.TotalSeconds("core.repair") -
                     tracer.TotalSeconds("model.forward_repair"),
                 traced_rows),
       "us/krow"},
      {"core.stream_wall_over_busy",
       busy_per_pass > 0.0 ? stream_s / busy_per_pass : 0.0, "ratio"},
      {"core.stream_peak_buffered_rows", static_cast<double>(peak_buffered),
       "rows"},
      {"core.fanout_wall_over_serial",
       fanout_serial_s > 0.0 ? fanout_parallel_s / fanout_serial_s : 0.0,
       "ratio"},
      {"core.train_step_ms", step_ms, "ms"},
      {"core.compute_errors_ms", compute_errors_ms, "ms"},
      {"core.finetune_s",
       cycles > 0 ? tracer.TotalSeconds("core.finetune") /
                        static_cast<double>(tracer.Count("core.finetune"))
                  : 0.0,
       "s"},
      {"core.checkpoint_save_ms",
       cycles > 0 ? tracer.TotalSeconds("core.checkpoint_save") * 1e3 /
                        static_cast<double>(
                            tracer.Count("core.checkpoint_save"))
                  : 0.0,
       "ms"},
      {"core.checkpoint_load_ms",
       cycles > 0 ? tracer.TotalSeconds("core.checkpoint_load") * 1e3 /
                        static_cast<double>(cycles)
                  : 0.0,
       "ms"},
      {"serve.ping_rtt_us", Median(ping_us), "us"},
      {"serve.server_handle_us_p50", handle_p50_us, "us"},
      {"serve.server_handle_us_p99", handle_p99_us, "us"},
      {"serve.transport_us_p50", client_p50_us - handle_p50_us, "us"},
      {"serve.wire_codec_us", Median(codec_us), "us"},
      {"serve.queue_wait_ms_tail",
       Quantile(queue_ms, TailQuantile(queue_ms.size())), "ms"},
      {"serve.gen_lag_ms_tail", Quantile(lag_ms, TailQuantile(lag_ms.size())),
       "ms"},
      {"serve.deploy_swap_ms",
       deploy_count > 0 ? tracer.TotalSeconds("serve.deploy") * 1e3 /
                              deploy_count
                        : 0.0,
       "ms"},
      {"serve.rejected", static_cast<double>(rejected), "count"},
      {"serve.failed", static_cast<double>(failed), "count"},
      {"serve.retries", static_cast<double>(open.retries), "count"},
      {"trace_overhead_frac",
       traced_wall > 0.0 ? offline_spans * span_cost_s / traced_wall : 0.0,
       "fraction"},
      {"unattributed_frac", tracer.UnattributedFraction(), "fraction"},
  };
}

// ---- End-to-end run ----------------------------------------------------------------
//
// An untraced run is split into parts, each its own process (perfbench/run.py
// starts them one after another). How fast a process trains and validates
// varies from one process to the next on a shared VM by more than it varies
// within one, so pooling the samples of several processes steadies every
// metric. Each part sets up once, runs rounds for its share of --seconds
// and writes its raw samples to a file; a last invocation merges the files
// into the metrics.

/// Raw samples of one part, by name: per-round and per-request series, and
/// one-element series for the part's set-up time, quality, peak memory and
/// operation counts. `errors` are the first failure messages.
struct Samples {
  std::map<std::string, std::vector<double>> series;
  std::vector<std::string> errors;
};

// A failed or refused request never meets the latency limit and sorts last.
constexpr double kFailedLatencyMs = 1e300;

/// Rounds of the four paths while the next one, at the pace so far, would
/// end at most half a round after `deadline` (at least one round),
/// recording what each round measured.
void RunPart(const WorkloadSpec& spec, Fixture& f, const RunOptions& options,
             Clock::time_point deadline, const std::filesystem::path& dir,
             Ledger& ledger, Samples* samples) {
  Tracer off(/*enabled=*/false);
  OfflineResult offline;
  TrainResult train;
  auto& s = samples->series;
  const CpuTicks run_ticks = ReadCpuTicks();
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  for (; rounds == 0 ||
         Clock::now() + (Clock::now() - start) / (2 * rounds) <= deadline;
       ++rounds) {
    RunOfflinePass(f, ledger, &offline);
    const uint64_t round_seed =
        (options.seed * 1000003 + static_cast<uint64_t>(options.part)) * 1009 +
        static_cast<uint64_t>(rounds);
    const OpenLoopResult open = RunOpenLoop(f, spec.request_rate, spec.open_s,
                                            round_seed, off, ledger);
    CheckParity(f, open, ledger);
    for (const Outcome& outcome : open.outcomes) {
      s["latency_ms"].push_back(
          outcome.ok ? outcome.timing.Latency() * 1e3 : kFailedLatencyMs);
      s["gen_lag_ms"].push_back(outcome.timing.GeneratorLag() * 1e3);
    }
    const CpuTicks ticks = ReadCpuTicks();
    s["closed_rps"].push_back(
        RunClosedLoop(f, spec.closed_s, round_seed, ledger));
    s["closed_steal"].push_back(StealShare(ticks, ReadCpuTicks()));
    RunTrainCycle(spec, f, dir, rounds, off, ledger, &train);
  }
  const Quality quality = FlagQuality(f.reference, f.dirty_mask);
  s["steal_share"] = {StealShare(run_ticks, ReadCpuTicks())};
  s["validate_s"] = offline.validate_s;
  s["validate_steal"] = offline.validate_steal;
  s["repair_s"] = offline.repair_s;
  s["repair_steal"] = offline.repair_steal;
  s["fit_row_epochs_per_s"] = train.row_epochs_per_s;
  s["fit_steal"] = train.fit_steal;
  s["retrain_s"] = train.retrain_s;
  s["retrain_steal"] = train.retrain_steal;
  s["flag_recall"] = {quality.recall};
  s["flag_precision"] = {quality.precision};
  // §4.6: the share still flagged once the repaired rows are validated
  // again.
  s["post_repair_flag_rate"] = {
      f.local_float->Validate(offline.repaired).flagged_fraction};
  s["rounds"] = {static_cast<double>(rounds)};
}

bool WriteSamples(const std::string& path, const Samples& samples) {
  std::ofstream out(path);
  for (const auto& [name, values] : samples.series) {
    out << name;
    for (double value : values) out << ' ' << JsonNumber(value);
    out << '\n';
  }
  for (const std::string& error : samples.errors) {
    out << "error " << error << '\n';
  }
  out.close();
  return static_cast<bool>(out);
}

bool ReadSamples(const std::string& path, Samples* samples) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name == "error") {
      samples->errors.push_back(line.substr(std::min<size_t>(6, line.size())));
      continue;
    }
    std::vector<double>& values = samples->series[name];
    double value = 0.0;
    while (fields >> value) values.push_back(value);
  }
  return true;
}

/// The end-to-end metrics from the parts' samples: timings are medians over
/// the pooled rounds of all parts (over the quieter ones when the host
/// stole CPU time, see QuietMedian), latency percentiles over the pooled
/// requests, set-up time and peak memory medians over the parts. Quality
/// must read the same in every part. `extra` gets the envelope fields that
/// are not metrics; `valid` turns false when the open-loop generator fell
/// behind its schedule.
std::vector<Metric> MergeParts(const WorkloadSpec& spec,
                               const std::vector<Samples>& parts,
                               Ledger& ledger, std::string* extra,
                               bool* valid) {
  std::map<std::string, std::vector<double>> pooled;
  for (const Samples& part : parts) {
    for (const auto& [name, values] : part.series) {
      std::vector<double>& all = pooled[name];
      all.insert(all.end(), values.begin(), values.end());
    }
    for (const std::string& error : part.errors) {
      if (ledger.errors.size() < 10) ledger.errors.push_back(error);
    }
  }
  const auto sum = [&](const std::string& name) {
    double total = 0.0;
    for (double value : pooled[name]) total += value;
    return static_cast<int64_t>(total);
  };
  ledger.attempted.fetch_add(sum("attempted"));
  ledger.failed.fetch_add(sum("failed"));
  ledger.gate_failures.fetch_add(sum("gate_failures"));
  for (const char* name :
       {"flag_recall", "flag_precision", "post_repair_flag_rate"}) {
    const std::vector<double>& values = pooled[name];
    ledger.Gate(!values.empty() &&
                    std::all_of(values.begin(), values.end(),
                                [&](double v) { return v == values[0]; }),
                std::string("parts disagree on ") + name);
  }

  const std::vector<double>& latency_ms = pooled["latency_ms"];
  const std::vector<double>& lag_ms = pooled["gen_lag_ms"];
  const int64_t within_slo =
      std::count_if(latency_ms.begin(), latency_ms.end(),
                    [](double ms) { return ms <= kSloLimitMs; });
  const double tail_q = TailQuantile(latency_ms.size());
  const double gen_lag_ms = Quantile(lag_ms, TailQuantile(lag_ms.size()));
  if (gen_lag_ms >= kMaxGeneratorLagMs) {
    *valid = false;
    ledger.Fail("open-loop generator fell behind its schedule");
  }
  const double rows = static_cast<double>(spec.file_rows);
  const double attempted =
      static_cast<double>(std::max<int64_t>(1, ledger.attempted.load()));
  *extra = ", \"parts\": " + std::to_string(parts.size()) +
           ", \"rounds\": " + std::to_string(sum("rounds")) +
           ", \"open_loop_requests\": " + std::to_string(latency_ms.size()) +
           ", \"request_tail_percentile\": " + JsonNumber(tail_q * 100) +
           ", \"request_tail_ms\": " +
           JsonNumber(Quantile(latency_ms, tail_q)) +
           ", \"slo_limit_ms\": " + JsonNumber(kSloLimitMs) +
           ", \"slo_met_frac\": " +
           JsonNumber(static_cast<double>(within_slo) /
                      static_cast<double>(std::max<size_t>(
                          1, latency_ms.size()))) +
           ", \"gen_lag_ms_tail\": " + JsonNumber(gen_lag_ms) +
           ", \"host_steal_frac\": " +
           JsonNumber(Median(pooled["steal_share"])) +
           ", \"ops_failed_frac\": " +
           JsonNumber(static_cast<double>(ledger.failed.load()) / attempted);
  const auto first = [&](const std::string& name) {
    return pooled[name].empty() ? 0.0 : pooled[name][0];
  };
  const auto quiet = [&](const std::string& name, const std::string& steal) {
    return QuietMedian(pooled[name], pooled[steal], kQuietStealShare);
  };
  return {
      {"setup_s", Median(pooled["setup_s"]), "s"},
      {"validate_rows_per_s", rows / quiet("validate_s", "validate_steal"),
       "rows/s"},
      {"repair_rows_per_s", rows / quiet("repair_s", "repair_steal"),
       "rows/s"},
      {"flag_recall", first("flag_recall"), "fraction"},
      {"flag_precision", first("flag_precision"), "fraction"},
      {"post_repair_flag_rate", first("post_repair_flag_rate"), "fraction"},
      {"request_p50_ms", Median(latency_ms), "ms"},
      {"saturated_rps", quiet("closed_rps", "closed_steal"), "req/s"},
      {"fit_row_epochs_per_s", quiet("fit_row_epochs_per_s", "fit_steal"),
       "row-epochs/s"},
      {"retrain_s", quiet("retrain_s", "retrain_steal"), "s"},
      {"peak_rss_mib", Median(pooled["peak_rss_mib"]), "MiB"},
  };
}

// ---- Reporting -----------------------------------------------------------------------

void PrintEnvelope(const RunOptions& options, const std::string& extra) {
#if defined(PERFBENCH_NATIVE_ARCH) && PERFBENCH_NATIVE_ARCH
  const bool native = true;
#else
  const bool native = false;
#endif
  std::printf(
      "{\"envelope\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": %s, \"source_digest\": %s, "
      "\"kernel_table\": %s, \"hardware_concurrency\": %u, "
      "\"native_arch\": %s%s}}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      JsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
      JsonString(options.git_sha).c_str(),
      JsonString(options.source_digest).c_str(),
      JsonString(simd::ActiveKernels().name).c_str(),
      std::thread::hardware_concurrency(), native ? "true" : "false",
      extra.c_str());
}

/// Prints the report, the envelope and, last, the result line; returns the
/// exit code.
int Report(const RunOptions& options, const std::vector<Metric>& metrics,
           const std::string& extra, bool valid, const Ledger& ledger) {
  for (const Metric& metric : metrics) {
    std::printf("%-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& message : ledger.errors) {
    std::printf("FAILED: %s\n", message.c_str());
  }
  PrintEnvelope(options, extra);
  const bool correct = valid && ledger.gate_failures.load() == 0 &&
                       ledger.failed.load() == 0;
  std::printf("%s\n", ResultJson(correct, ledger.attempted.load(),
                                 ledger.failed.load(), metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Merges the sample files named in --merge (comma-separated).
int MergeRun(const WorkloadSpec& spec, const RunOptions& options) {
  std::vector<Samples> parts;
  std::istringstream paths(options.merge);
  std::string path;
  while (std::getline(paths, path, ',')) {
    parts.emplace_back();
    if (!ReadSamples(path, &parts.back())) {
      std::fprintf(stderr, "cannot read samples from %s\n", path.c_str());
      return 2;
    }
  }
  Ledger ledger;
  std::string extra;
  bool valid = true;
  const std::vector<Metric> metrics =
      MergeParts(spec, parts, ledger, &extra, &valid);
  return Report(options, metrics, extra, valid, ledger);
}

}  // namespace

int RunWorkload(const RunOptions& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (offline_csv, serve_online, "
                 "train_retrain)\n", options.workload.c_str());
    return 2;
  }
  SetLogLevel(LogLevel::kWarning);
  if (!options.merge.empty()) return MergeRun(*spec, options);

  const std::filesystem::path dir = options.work_dir;
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 error.message().c_str());
    return 2;
  }

  Ledger ledger;
  Fixture fixture;
  // A part lasts --seconds, its set-ups included, so a slow host gives
  // fewer rounds rather than a longer run.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  // Set-up runs twice and both are timed: the first in a fresh process is
  // sometimes twice as slow as the second (threads and memory are new), so
  // the pooled median over the parts reads steadily, and the timed rounds
  // start warm. The second fixture is kept.
  std::vector<double> setup_s;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    TearDown(&fixture);
    const Clock::time_point setup_start = Clock::now();
    const Status status = BuildFixture(*spec, options.seed, dir, &fixture);
    setup_s.push_back(SecondsSince(setup_start));
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      TearDown(&fixture);
      std::filesystem::remove_all(dir, error);
      return 1;
    }
  }

  if (options.trace) {
    Tracer tracer(/*enabled=*/true);
    const std::vector<Metric> metrics =
        TracedRun(*spec, fixture, options, dir, tracer, ledger);
    TearDown(&fixture);
    std::filesystem::remove_all(dir, error);
    const std::filesystem::path trace_path =
        dir.parent_path() / ("perfbench-trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json");
    if (!tracer.WriteJson(trace_path.string())) {
      ledger.Fail("writing " + trace_path.string());
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                trace_path.c_str());
    return Report(options, metrics, "", true, ledger);
  }

  Samples samples;
  RunPart(*spec, fixture, options, deadline, dir, ledger, &samples);
  TearDown(&fixture);
  std::filesystem::remove_all(dir, error);
  samples.series["setup_s"] = setup_s;
  samples.series["peak_rss_mib"] = {PeakRssMib()};
  samples.series["attempted"] = {static_cast<double>(ledger.attempted)};
  samples.series["failed"] = {static_cast<double>(ledger.failed)};
  samples.series["gate_failures"] = {
      static_cast<double>(ledger.gate_failures)};
  samples.errors = ledger.errors;
  if (options.part_out.empty()) {
    // Started without a part file: this one part is the whole run.
    Ledger merged;
    std::string extra;
    bool valid = true;
    const std::vector<Metric> metrics =
        MergeParts(*spec, {samples}, merged, &extra, &valid);
    return Report(options, metrics, extra, valid, merged);
  }
  if (!WriteSamples(options.part_out, samples)) {
    std::fprintf(stderr, "cannot write samples to %s\n",
                 options.part_out.c_str());
    return 2;
  }
  std::printf("part %d: %g rounds, set-up %.3f s then %.3f s, %lld "
              "operations, %lld failed\n",
              options.part, samples.series["rounds"][0], setup_s.front(),
              setup_s.back(),
              static_cast<long long>(ledger.attempted.load()),
              static_cast<long long>(ledger.failed.load()));
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
