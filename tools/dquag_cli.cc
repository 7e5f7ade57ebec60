// dquag — command-line interface to the DQuaG pipeline.
//
// Subcommands:
//   dquag train     --clean data.csv --schema schema.json --out model.ckpt
//                   [--epochs N] [--encoder gat+gin] [--relationships r.json]
//   dquag convert   <data.csv> <data.dqc> --schema schema.json
//                   [--block-rows N]      (CSV -> columnar .dqc, out-of-core)
//   dquag validate  --model model.ckpt --data new.csv [--verbose]
//                   [--chunk-rows N] [--format csv|columnar]
//   dquag repair    --model model.ckpt --data new.csv --out repaired.csv
//   dquag explain   --model model.ckpt --data new.csv --row K
//   dquag serve-sim --model model.ckpt --data new.csv [--threads T]
//                   [--rounds R] [--chunk-rows N]    (concurrent serving sim)
//   dquag serve     --port P [--host H] [--capacity N] [--max-inflight K]
//                   [--max-connections C]
//                   [--io-timeout-ms MS]  (disconnect stalled peers; 0=off)
//                   [--deploy tenant=model.ckpt[,t2=m2.ckpt...]]
//                   [--auto-retrain [--retrain-epochs N]
//                    [--retrain-min-rows R] [--retrain-buffer-rows B]
//                    [--retrain-triggers K] [--retrain-cooldown-rows C]
//                    [--retrain-seed S]]   (drift-triggered fine-tune +
//                                           zero-drop hot swap; C defaults
//                                           to B, 0 = no cooldown)
//                                                    (socket-backed daemon)
//   dquag deploy    --port P --tenant T --checkpoint model.ckpt [--host H]
//   dquag stats     --port P [--tenant T] [--host H]
//   dquag shutdown  --port P [--host H]
//
// Client commands (deploy/stats/shutdown) also take:
//   --timeout-ms MS          end-to-end deadline per call (0 = none); the
//                            remaining budget rides in the wire header so
//                            the daemon drops work the client abandoned
//   --retries N              retry idempotent calls (stats) with
//                            exponential backoff; deploy/shutdown never
//                            retry
//   --connect-timeout-ms MS  bound on TCP connect (default 5000)
//   dquag schema-template --data data.csv   (guess a schema from a CSV)
//
// validate and serve-sim stream their input through the ValidationService:
// chunks of --chunk-rows rows (default 4096) are read, validated on the
// tape-free inference engine as one process-pool task per 256-row model
// block (so --chunk-rows sets the I/O unit, not the parallelism), and
// retired with bounded memory. validate never materializes the file; the
// verdict is bit-identical to validating the whole table at once, for any
// chunk size.
// A malformed row past the first chunk fails the run with exit code 1 and
// the row named on stderr. Data files may be CSV or the columnar .dqc
// format produced by `dquag convert` — `--format` forces a reader,
// otherwise the .dqc suffix selects columnar.
//
// serve starts the real daemon (serve/server.h): a multi-tenant model
// registry (LRU-bounded residency, lazy checkpoint loads, atomic hot-swap
// via repeated `dquag deploy`) behind the length-prefixed wire protocol.
// It runs until SIGINT or a client's shutdown request, then prints one
// stats line per tenant — the same schema serve-sim reports.
//
// Every command names the flags it reads; any other --flag fails the run
// with exit code 1 ("unknown flag --X for <command>"), so a misspelt or
// retired flag is never silently ignored.
//
// Exit code: 0 on success (validate: also when the batch is clean),
// 2 when validate classifies the batch dirty, 1 on errors.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/explainer.h"
#include "core/pipeline.h"
#include "core/validation_service.h"
#include "data/columnar_reader.h"
#include "data/columnar_writer.h"
#include "data/schema_json.h"
#include "data/table_chunk_reader.h"
#include "graph/relationship_json.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/serving_stats.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dquag {
namespace {

/// Minimal --flag value parser; flags without '--' are positional.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        const std::string key = token.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_[key] = argv[++i];
        } else {
          // A boolean flag.
          values_.insert_or_assign(key, std::string(1, '1'));
        }
      } else {
        positional_.push_back(std::move(token));
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoll(it->second.c_str(), nullptr, 10);
  }

  /// The first flag given that is not in `known`, or "" when all are.
  std::string UnknownFlag(const std::vector<std::string>& known) const {
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        return key;
      }
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Data-file format selection: an explicit --format wins, otherwise the
/// .dqc suffix selects columnar and anything else is CSV.
StatusOr<bool> UseColumnar(const Args& args, const std::string& path) {
  if (args.Has("format")) {
    const std::string format = args.Get("format");
    if (format == "columnar") return true;
    if (format == "csv") return false;
    return Status::InvalidArgument("--format must be csv or columnar, got '" +
                                   format + "'");
  }
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".dqc") == 0;
}

/// Materializes a data file of either format, checking it against the
/// expected schema.
StatusOr<Table> LoadDataTable(const Args& args, const std::string& path,
                              const Schema& schema) {
  DQUAG_ASSIGN_OR_RETURN(const bool columnar, UseColumnar(args, path));
  if (columnar) {
    DQUAG_ASSIGN_OR_RETURN(Table table, ReadColumnarTable(path));
    if (!(table.schema() == schema)) {
      return Status::InvalidArgument(
          "columnar file schema does not match the expected schema");
    }
    return table;
  }
  DQUAG_ASSIGN_OR_RETURN(CsvDocument csv, ReadCsvFile(path));
  return Table::FromCsv(schema, csv);
}

/// Opens a streaming chunk reader of either format.
StatusOr<std::unique_ptr<TableChunkReader>> OpenDataChunkReader(
    const Args& args, const std::string& path, const Schema& schema,
    int64_t chunk_rows) {
  DQUAG_ASSIGN_OR_RETURN(const bool columnar, UseColumnar(args, path));
  if (columnar) {
    ColumnarReaderOptions options;
    options.chunk_rows = chunk_rows;
    DQUAG_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarReader> reader,
                           ColumnarReader::Open(path, options));
    if (!(reader->schema() == schema)) {
      return Status::InvalidArgument(
          "columnar file schema does not match the expected schema");
    }
    return std::unique_ptr<TableChunkReader>(std::move(reader));
  }
  CsvChunkReaderOptions options;
  options.chunk_rows = chunk_rows;
  DQUAG_ASSIGN_OR_RETURN(std::unique_ptr<CsvChunkReader> reader,
                         CsvChunkReader::Open(path, schema, options));
  return std::unique_ptr<TableChunkReader>(std::move(reader));
}

StatusOr<Table> LoadTable(const Args& args, const std::string& schema_path,
                          const std::string& data_path) {
  auto schema = LoadSchema(schema_path);
  if (!schema.ok()) return schema.status();
  return LoadDataTable(args, data_path, *schema);
}

int CmdConvert(const Args& args) {
  std::string csv_path = args.Get("data");
  std::string dqc_path = args.Get("out");
  // Positional form: dquag convert data.csv data.dqc --schema schema.json
  if (csv_path.empty() && args.positional().size() >= 1) {
    csv_path = args.positional()[0];
  }
  if (dqc_path.empty() && args.positional().size() >= 2) {
    dqc_path = args.positional()[1];
  }
  const std::string schema_path = args.Get("schema");
  if (csv_path.empty() || dqc_path.empty() || schema_path.empty()) {
    std::fprintf(stderr,
                 "usage: dquag convert <data.csv> <data.dqc> "
                 "--schema schema.json [--block-rows N]\n");
    return 1;
  }
  auto schema = LoadSchema(schema_path);
  if (!schema.ok()) return Fail(schema.status());
  ColumnarWriterOptions options;
  options.block_rows = args.GetInt("block-rows", 4096);
  if (options.block_rows <= 0) {
    return Fail(Status::InvalidArgument("--block-rows must be > 0"));
  }
  auto rows = ConvertCsvToColumnar(csv_path, *schema, dqc_path, options);
  if (!rows.ok()) return Fail(rows.status());
  std::printf("converted %lld rows: %s -> %s (block %lld)\n",
              static_cast<long long>(*rows), csv_path.c_str(),
              dqc_path.c_str(), static_cast<long long>(options.block_rows));
  return 0;
}

int CmdTrain(const Args& args) {
  const std::string clean_path = args.Get("clean");
  const std::string schema_path = args.Get("schema");
  const std::string out_path = args.Get("out", "model.ckpt");
  if (clean_path.empty() || schema_path.empty()) {
    std::fprintf(stderr,
                 "usage: dquag train --clean data.csv --schema schema.json "
                 "--out model.ckpt [--epochs N] [--encoder gat+gin]\n");
    return 1;
  }
  auto table = LoadTable(args, schema_path, clean_path);
  if (!table.ok()) return Fail(table.status());

  DquagPipelineOptions options;
  options.config.epochs = args.GetInt("epochs", 25);
  options.config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  if (args.Has("encoder")) {
    auto kind = ParseEncoderKind(args.Get("encoder"));
    if (!kind.ok()) return Fail(kind.status());
    options.config.encoder.kind = *kind;
  }
  if (args.Has("relationships")) {
    auto rels = LoadRelationships(args.Get("relationships"));
    if (!rels.ok()) return Fail(rels.status());
    options.relationships = *rels;
  }

  DquagPipeline pipeline(std::move(options));
  Status status = pipeline.Fit(*table);
  if (!status.ok()) return Fail(status);
  std::printf("trained on %lld rows; threshold %.6f; %zu relationships\n",
              static_cast<long long>(table->num_rows()),
              pipeline.threshold(), pipeline.relationships().size());
  status = pipeline.Save(out_path);
  if (!status.ok()) return Fail(status);
  std::printf("checkpoint: %s\n", out_path.c_str());
  return 0;
}

StatusOr<DquagPipeline> LoadModelAndData(const Args& args, Table* table) {
  const std::string model_path = args.Get("model");
  const std::string data_path = args.Get("data");
  if (model_path.empty() || data_path.empty()) {
    return Status::InvalidArgument("--model and --data are required");
  }
  auto pipeline = DquagPipeline::Load(model_path);
  if (!pipeline.ok()) return pipeline.status();
  auto loaded =
      LoadDataTable(args, data_path, pipeline->preprocessor().schema());
  if (!loaded.ok()) return loaded.status();
  *table = std::move(*loaded);
  return pipeline;
}

StatusOr<std::unique_ptr<ValidationService>> LoadService(const Args& args) {
  const std::string model_path = args.Get("model");
  const std::string data_path = args.Get("data");
  if (model_path.empty() || data_path.empty()) {
    return Status::InvalidArgument("--model and --data are required");
  }
  return ValidationService::FromCheckpoint(model_path);
}

StatusOr<std::unique_ptr<ValidationService>> LoadServiceAndData(
    const Args& args, Table* table) {
  auto service = LoadService(args);
  if (!service.ok()) return service.status();
  auto loaded = LoadDataTable(args, args.Get("data"),
                              (*service)->pipeline().preprocessor().schema());
  if (!loaded.ok()) return loaded.status();
  *table = std::move(*loaded);
  return service;
}

void PrintFlaggedRow(const Schema& schema, size_t row,
                     const InstanceVerdict& inst) {
  std::printf("row %zu: error %.5f; suspect:", row, inst.error);
  for (int64_t c : inst.suspect_features) {
    std::printf(" %s", schema.column(c).name.c_str());
  }
  std::printf("\n");
}

/// validate: the data file is consumed chunk by chunk and never
/// materialized; output and exit code do not depend on --chunk-rows.
int CmdValidate(const Args& args) {
  auto service = LoadService(args);
  if (!service.ok()) return Fail(service.status());
  const int64_t chunk_rows = args.GetInt("chunk-rows", 4096);
  if (chunk_rows <= 0) {
    return Fail(Status::InvalidArgument("--chunk-rows must be > 0"));
  }
  const Schema& schema = (*service)->pipeline().preprocessor().schema();
  auto reader =
      OpenDataChunkReader(args, args.Get("data"), schema, chunk_rows);
  if (!reader.ok()) return Fail(reader.status());
  auto verdict = (*service)->ValidateStream(**reader);
  if (!verdict.ok()) return Fail(verdict.status());
  std::printf("%s: %.2f%% of %lld instances flagged (cutoff %.2f%%)\n",
              verdict->is_dirty ? "DIRTY" : "clean",
              verdict->flagged_fraction * 100.0,
              static_cast<long long>(verdict->total_rows),
              (*service)->pipeline().validator().batch_cutoff() * 100.0);
  if (args.Has("verbose")) {
    for (size_t i = 0; i < verdict->flagged_rows.size(); ++i) {
      PrintFlaggedRow(schema, verdict->flagged_rows[i],
                      verdict->flagged_instances[i]);
    }
  }
  return verdict->is_dirty ? 2 : 0;
}

int CmdServeSim(const Args& args) {
  Table table;
  auto service_or = LoadServiceAndData(args, &table);
  if (!service_or.ok()) return Fail(service_or.status());
  ValidationService& service = **service_or;
  const int64_t threads = args.GetInt("threads", 4);
  const int64_t rounds = args.GetInt("rounds", 8);
  if (threads <= 0 || rounds <= 0) {
    return Fail(Status::InvalidArgument("--threads and --rounds must be > 0"));
  }
  const int64_t chunk_rows = args.GetInt("chunk-rows", 4096);
  if (chunk_rows <= 0) {
    return Fail(Status::InvalidArgument("--chunk-rows must be > 0"));
  }
  const std::string data_path = args.Get("data");
  // LoadServiceAndData already read the whole file, so the format check
  // and the per-round columnar opens below cannot fail on it.
  auto columnar = UseColumnar(args, data_path);
  if (!columnar.ok()) return Fail(columnar.status());
  std::printf("serving %lld rows to %lld concurrent clients, %lld rounds "
              "each (chunk %lld)\n",
              static_cast<long long>(table.num_rows()),
              static_cast<long long>(threads),
              static_cast<long long>(rounds),
              static_cast<long long>(chunk_rows));
  // Simulated clients report through the SAME lock-free counters the
  // daemon keeps per tenant, so serve-sim and `dquag stats` emit one
  // metric schema (serve/serving_stats.h).
  TenantCounters counters;
  Stopwatch timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(threads));
  for (int64_t t = 0; t < threads; ++t) {
    clients.emplace_back([&] {
      for (int64_t r = 0; r < rounds; ++r) {
        Stopwatch request_timer;
        // Each round streams the batch through its own cursor; readers
        // are cheap, the chunk buffers live inside ObserveStream. With a
        // columnar file every round exercises the real mmap read path.
        std::unique_ptr<TableChunkReader> reader;
        if (*columnar) {
          ColumnarReaderOptions reader_options;
          reader_options.chunk_rows = chunk_rows;
          auto opened = ColumnarReader::Open(data_path, reader_options);
          DQUAG_CHECK(opened.ok());
          reader = std::move(*opened);
        } else {
          reader = std::make_unique<TableViewChunkReader>(&table, chunk_rows);
        }
        auto obs = service.ObserveStream(*reader);
        DQUAG_CHECK(obs.ok());  // readers over validated inputs
        counters.RecordRequest(
            table.num_rows(),
            static_cast<int64_t>(obs->flagged_fraction *
                                 static_cast<double>(table.num_rows()) +
                                 0.5),
            obs->batch_dirty,
            static_cast<uint64_t>(request_timer.ElapsedSeconds() * 1e6));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = timer.ElapsedSeconds();

  const TenantStatsSnapshot stats = counters.Snapshot("sim", true);
  std::printf("throughput: %.0f rows/s over %.2fs (%lld batches)\n",
              static_cast<double>(stats.rows_validated) / seconds, seconds,
              static_cast<long long>(stats.requests_ok));
  std::printf("flagged: %.2f%% of rows; dirty batches: %lld/%lld; "
              "monitor %s\n",
              stats.rows_validated == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(stats.rows_flagged) /
                        static_cast<double>(stats.rows_validated),
              static_cast<long long>(stats.dirty_batches),
              static_cast<long long>(stats.requests_ok),
              service.alarming() ? "ALARMING" : "quiet");
  std::printf("%s\n", FormatStatsLine(stats).c_str());
  return 0;
}

volatile std::sig_atomic_t g_interrupted = 0;
void HandleSigint(int) { g_interrupted = 1; }

/// One --deploy entry: tenant and checkpoint path.
struct DeploySpecEntry {
  std::string tenant;
  std::string path;
};

/// Parses "tenant=path[,tenant=path...]" from --deploy.
Status ParseDeploySpec(const std::string& spec,
                       std::vector<DeploySpecEntry>* out) {
  size_t start = 0;
  while (start < spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      return Status::InvalidArgument(
          "--deploy expects tenant=checkpoint, got '" + entry + "'");
    }
    DeploySpecEntry parsed;
    parsed.tenant = entry.substr(0, eq);
    parsed.path = entry.substr(eq + 1);
    out->push_back(std::move(parsed));
    start = comma + 1;
  }
  return Status::Ok();
}

int CmdServe(const Args& args) {
  ServeOptions options;
  options.port = static_cast<int>(args.GetInt("port", 0));
  options.listen_host = args.Get("host", "127.0.0.1");
  options.max_connections = args.GetInt("max-connections", 64);
  options.io_timeout_ms = args.GetInt("io-timeout-ms", 30000);
  options.registry.max_resident = args.GetInt("capacity", 4);
  options.registry.max_inflight_per_tenant = args.GetInt("max-inflight", 32);
  options.auto_retrain = args.Has("auto-retrain");
  options.retrain.finetune_epochs = args.GetInt("retrain-epochs", 5);
  options.retrain.min_buffer_rows = args.GetInt("retrain-min-rows", 256);
  options.retrain.max_buffer_rows = args.GetInt("retrain-buffer-rows", 8192);
  options.retrain.trigger_observations = args.GetInt("retrain-triggers", 3);
  if (args.Has("retrain-cooldown-rows")) {
    options.retrain.cooldown_rows = args.GetInt("retrain-cooldown-rows", 0);
  }
  options.retrain.seed =
      static_cast<uint64_t>(args.GetInt("retrain-seed", 0));

  std::vector<DeploySpecEntry> deploys;
  if (args.Has("deploy")) {
    Status status = ParseDeploySpec(args.Get("deploy"), &deploys);
    if (!status.ok()) return Fail(status);
  }

  // Crash recovery: a save interrupted before its atomic rename leaves a
  // `*.tmp` beside the checkpoint. Sweep each checkpoint directory once so
  // aborted writes never accumulate (the committed files are untouched).
  {
    std::map<std::string, bool> swept;
    for (const DeploySpecEntry& deploy : deploys) {
      const size_t slash = deploy.path.find_last_of('/');
      const std::string dir =
          slash == std::string::npos ? "." : deploy.path.substr(0, slash);
      if (swept[dir]) continue;
      swept[dir] = true;
      const int64_t removed = RemoveOrphanedTempFiles(dir);
      if (removed > 0) {
        std::printf("recovered %s: removed %lld orphaned temp file(s)\n",
                    dir.c_str(), static_cast<long long>(removed));
      }
    }
  }

  ServeDaemon daemon(options);
  Status status = daemon.Start();
  if (!status.ok()) return Fail(status);
  for (const DeploySpecEntry& deploy : deploys) {
    status = daemon.registry().Deploy(deploy.tenant, deploy.path);
    if (!status.ok()) {
      daemon.Stop();
      return Fail(status);
    }
    std::printf("deployed %s <- %s (lazy)\n", deploy.tenant.c_str(),
                deploy.path.c_str());
  }
  std::printf("dquag serve: listening on %s:%d (%zu tenants, capacity %lld,"
              " max-inflight %lld%s)\n",
              options.listen_host.c_str(), daemon.port(), deploys.size(),
              static_cast<long long>(options.registry.max_resident),
              static_cast<long long>(
                  options.registry.max_inflight_per_tenant),
              options.auto_retrain ? ", auto-retrain" : "");
  std::fflush(stdout);

  std::signal(SIGINT, HandleSigint);
  std::signal(SIGTERM, HandleSigint);
  while (!daemon.shutdown_requested() && g_interrupted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  daemon.Stop();
  for (const TenantStatsSnapshot& snapshot :
       daemon.registry().StatsSnapshot()) {
    std::printf("%s\n", FormatStatsLine(snapshot).c_str());
  }
  return 0;
}

StatusOr<ServeClient> ConnectFromArgs(const Args& args) {
  const int port = static_cast<int>(args.GetInt("port", 0));
  if (port <= 0) {
    return Status::InvalidArgument("--port is required");
  }
  ClientOptions options;
  options.connect_timeout_ms = args.GetInt("connect-timeout-ms", 5000);
  // --timeout-ms is the end-to-end budget; it doubles as the per-operation
  // socket timeout so a stalled daemon resolves within the same budget.
  options.deadline_ms = args.GetInt("timeout-ms", 0);
  options.io_timeout_ms = options.deadline_ms;
  options.retry.max_retries =
      static_cast<int>(args.GetInt("retries", 0));
  return ServeClient::Connect(args.Get("host", "127.0.0.1"), port,
                              std::move(options));
}

int CmdDeploy(const Args& args) {
  const std::string tenant = args.Get("tenant");
  const std::string checkpoint = args.Get("checkpoint");
  if (tenant.empty() || checkpoint.empty()) {
    std::fprintf(stderr,
                 "usage: dquag deploy --port P --tenant T "
                 "--checkpoint model.ckpt [--host H]\n");
    return 1;
  }
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status());
  Status status = client->Deploy(tenant, checkpoint);
  if (!status.ok()) return Fail(status);
  std::printf("deployed %s <- %s\n", tenant.c_str(), checkpoint.c_str());
  return 0;
}

int CmdStats(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status());
  auto stats = client->Stats(args.Get("tenant"));
  if (!stats.ok()) return Fail(stats.status());
  for (const TenantStatsSnapshot& snapshot : *stats) {
    std::printf("%s\n", FormatStatsLine(snapshot).c_str());
  }
  return 0;
}

int CmdShutdown(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status());
  Status status = client->Shutdown();
  if (!status.ok()) return Fail(status);
  std::printf("shutdown requested\n");
  return 0;
}

int CmdRepair(const Args& args) {
  Table table;
  auto pipeline = LoadModelAndData(args, &table);
  if (!pipeline.ok()) return Fail(pipeline.status());
  const std::string out_path = args.Get("out", "repaired.csv");
  RepairResult repair = pipeline->Repair(table, pipeline->Validate(table));
  Status status = WriteCsvFile(repair.repaired.ToCsv(), out_path);
  if (!status.ok()) return Fail(status);
  std::printf("repaired %lld cells in %lld instances -> %s\n",
              static_cast<long long>(repair.cells_repaired),
              static_cast<long long>(repair.instances_repaired),
              out_path.c_str());
  return 0;
}

int CmdExplain(const Args& args) {
  Table table;
  auto pipeline = LoadModelAndData(args, &table);
  if (!pipeline.ok()) return Fail(pipeline.status());
  const int64_t row = args.GetInt("row", 0);
  if (row < 0 || row >= table.num_rows()) {
    return Fail(Status::OutOfRange("--row out of range"));
  }
  Explainer explainer(&*pipeline);
  const InstanceExplanation explanation =
      explainer.Explain(table, static_cast<size_t>(row));
  std::printf("row %lld: %s\n", static_cast<long long>(row),
              explanation.ToString().c_str());
  return 0;
}

int CmdSchemaTemplate(const Args& args) {
  const std::string data_path = args.Get("data");
  if (data_path.empty()) {
    std::fprintf(stderr, "usage: dquag schema-template --data data.csv\n");
    return 1;
  }
  auto csv = ReadCsvFile(data_path);
  if (!csv.ok()) return Fail(csv.status());
  // Guess: a column is numeric if every non-empty cell parses as a number.
  std::vector<ColumnSpec> specs;
  for (size_t c = 0; c < csv->header.size(); ++c) {
    bool numeric = true;
    for (const auto& row : csv->rows) {
      const std::string& cell = row[c];
      if (cell.empty()) continue;
      char* end = nullptr;
      std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') {
        numeric = false;
        break;
      }
    }
    specs.push_back({csv->header[c],
                     numeric ? ColumnType::kNumeric
                             : ColumnType::kCategorical,
                     ""});
  }
  std::printf("%s\n", SchemaToJson(Schema(std::move(specs))).c_str());
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dquag <train|convert|validate|repair|explain|serve|"
                 "serve-sim|deploy|stats|shutdown|schema-template> "
                 "[flags]\n");
    return 1;
  }
  SetLogLevel(LogLevel::kWarning);
  const std::string command = argv[1];
  Args args(argc, argv);
  // Each command with the flags it reads; ConnectFromArgs reads the
  // client flags.
  const auto client = [](std::vector<std::string> flags) {
    flags.insert(flags.end(), {"host", "port", "timeout-ms", "retries",
                               "connect-timeout-ms"});
    return flags;
  };
  const struct {
    const char* name;
    int (*run)(const Args&);
    std::vector<std::string> flags;
  } commands[] = {
      {"train", CmdTrain,
       {"clean", "schema", "out", "epochs", "seed", "encoder",
        "relationships", "format"}},
      {"convert", CmdConvert, {"data", "out", "schema", "block-rows"}},
      {"validate", CmdValidate,
       {"model", "data", "verbose", "chunk-rows", "format"}},
      {"repair", CmdRepair, {"model", "data", "out", "format"}},
      {"explain", CmdExplain, {"model", "data", "row", "format"}},
      {"serve-sim", CmdServeSim,
       {"model", "data", "threads", "rounds", "chunk-rows", "format"}},
      {"serve", CmdServe,
       {"port", "host", "capacity", "max-inflight", "max-connections",
        "io-timeout-ms", "deploy", "auto-retrain", "retrain-epochs",
        "retrain-min-rows", "retrain-buffer-rows", "retrain-triggers",
        "retrain-cooldown-rows", "retrain-seed"}},
      {"deploy", CmdDeploy, client({"tenant", "checkpoint"})},
      {"stats", CmdStats, client({"tenant"})},
      {"shutdown", CmdShutdown, client({})},
      {"schema-template", CmdSchemaTemplate, {"data"}},
  };
  for (const auto& cmd : commands) {
    if (command != cmd.name) continue;
    const std::string unknown = args.UnknownFlag(cmd.flags);
    if (!unknown.empty()) {
      std::fprintf(stderr, "unknown flag --%s for %s\n", unknown.c_str(),
                   cmd.name);
      return 1;
    }
    return cmd.run(args);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 1;
}

}  // namespace
}  // namespace dquag

int main(int argc, char** argv) { return dquag::Run(argc, argv); }
