// End-to-end tests for the `dquag serve` daemon over real sockets.
//
// The headline test runs N concurrent clients against M tenants (two
// distinct schemas) and checks that every remote verdict is bit-identical
// to a direct ValidationService call on the same bytes. The rest covers
// the daemon's failure philosophy: graceful per-tenant overload,
// connection-limit overload, zero-drop hot-swap under live traffic,
// malformed-input survival, and the remote shutdown handshake.

#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/validation_service.h"
#include "data/generators.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/csv.h"
#include "util/rng.h"

namespace dquag {
namespace {

constexpr const char* kHost = "127.0.0.1";

enum class Dataset { kNyTaxi, kHotel };

/// Trains a tiny checkpoint once per (dataset, seed) and caches the path;
/// training is the expensive part of these tests, so every daemon reuses
/// the same fitted models.
std::string Checkpoint(Dataset dataset, uint64_t seed) {
  static std::map<std::pair<int, uint64_t>, std::string>* cache =
      new std::map<std::pair<int, uint64_t>, std::string>();
  const auto key = std::make_pair(static_cast<int>(dataset), seed);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  Rng rng(seed);
  Table clean = dataset == Dataset::kNyTaxi
                    ? datasets::GenerateNyTaxi(96, rng, /*dims=*/10)
                    : datasets::GenerateHotelBooking(96, rng);
  DquagPipelineOptions options;
  options.config.encoder.hidden_dim = 8;
  options.config.epochs = 1;
  options.config.batch_size = 64;
  options.config.seed = seed;
  DquagPipeline pipeline(std::move(options));
  EXPECT_TRUE(pipeline.Fit(clean).ok());
  const std::string path = ::testing::TempDir() + "serve_itest_ckpt_" +
                           std::to_string(static_cast<int>(dataset)) + "_" +
                           std::to_string(seed) + ".bin";
  EXPECT_TRUE(pipeline.Save(path).ok());
  (*cache)[key] = path;
  return path;
}

std::string BatchCsv(Dataset dataset, uint64_t seed, int64_t rows) {
  Rng rng(seed);
  Table batch = dataset == Dataset::kNyTaxi
                    ? datasets::GenerateNyTaxi(rows, rng, /*dims=*/10)
                    : datasets::GenerateHotelBooking(rows, rng);
  return WriteCsvString(batch.ToCsv());
}

/// The daemon's view of a request batch: CSV text parsed against the
/// model's schema. The local baseline validates exactly this table so the
/// parity comparison is bit-for-bit, CSV round-trip included.
Table TableFromCsvText(const ValidationService& service,
                       const std::string& csv_text) {
  auto doc = ParseCsv(csv_text);
  EXPECT_TRUE(doc.ok());
  auto table =
      Table::FromCsv(service.pipeline().preprocessor().schema(), *doc);
  EXPECT_TRUE(table.ok());
  return std::move(*table);
}

/// Bit-exact comparison of a remote verdict with a local one. Returns a
/// non-empty description of the first mismatch, empty on equality.
std::string CompareVerdicts(const WireVerdict& remote,
                            const BatchVerdict& local,
                            int64_t expected_rows) {
  if (remote.total_rows != expected_rows) return "total_rows differs";
  if (remote.flagged_fraction != local.flagged_fraction) {
    return "flagged_fraction differs";
  }
  if (remote.threshold != local.threshold) return "threshold differs";
  if (remote.is_dirty != local.is_dirty) return "is_dirty differs";
  if (remote.flagged.size() != local.flagged_rows.size()) {
    return "flagged count differs";
  }
  for (size_t i = 0; i < remote.flagged.size(); ++i) {
    const size_t row = local.flagged_rows[i];
    if (remote.flagged[i].row != static_cast<uint64_t>(row)) {
      return "flagged row index differs";
    }
    if (remote.flagged[i].error != local.instances[row].error) {
      return "flagged row error differs";
    }
    if (remote.flagged[i].suspect_features !=
        local.instances[row].suspect_features) {
      return "suspect features differ";
    }
  }
  return "";
}

/// Raw TCP connect for the tests that speak deliberately broken protocol.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, kHost, &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

// ----------------------------------------------------------------- basics

TEST(ServeIntegrationTest, PingDeployValidateOverSocket) {
  ServeDaemon daemon;
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_GT(daemon.port(), 0);

  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  // Unknown tenant surfaces as NotFound, not a dropped connection.
  auto ghost = client->Validate("ghost", "x\n1\n");
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.status().code(), StatusCode::kNotFound);

  // Deploy over the wire, then validate a real batch.
  ASSERT_TRUE(
      client->Deploy("acme", Checkpoint(Dataset::kNyTaxi, 42)).ok());
  auto verdict = client->Validate("acme", BatchCsv(Dataset::kNyTaxi, 7, 32));
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(verdict->total_rows, 32);
  EXPECT_GT(verdict->threshold, 0.0);

  auto stats = client->Stats("acme");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 1u);
  EXPECT_EQ((*stats)[0].requests_ok, 1);
  EXPECT_EQ((*stats)[0].rows_validated, 32);
  EXPECT_EQ((*stats)[0].latency.count, 1);

  daemon.Stop();
}

TEST(ServeIntegrationTest, RepairOverSocketMatchesLocalRepair) {
  ServeDaemon daemon;
  ASSERT_TRUE(daemon.Start().ok());
  const std::string checkpoint = Checkpoint(Dataset::kNyTaxi, 42);
  auto local = ValidationService::FromCheckpoint(checkpoint);
  ASSERT_TRUE(local.ok());

  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Deploy("acme", checkpoint).ok());

  // Two model row blocks: both sides validate on the pool.
  const std::string csv = BatchCsv(Dataset::kNyTaxi, 11, 300);
  auto remote = client->Repair("acme", csv);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  Table batch = TableFromCsvText(**local, csv);
  auto expected = (*local)->TryValidateAndRepair(batch);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(remote->cells_repaired, expected->cells_repaired);
  EXPECT_EQ(remote->instances_repaired, expected->instances_repaired);
  EXPECT_EQ(remote->repaired_csv,
            WriteCsvString(expected->repaired.ToCsv()));
  daemon.Stop();
}

// --------------------------------------------------- headline parity test

TEST(ServeIntegrationTest, ConcurrentClientsAcrossTenantsMatchLocal) {
  // M = 3 tenants over two distinct schemas; two tenants share a schema
  // but run different fitted models.
  struct Tenant {
    const char* name;
    Dataset dataset;
    uint64_t train_seed;
  };
  const std::vector<Tenant> tenants = {
      {"taxi/prod", Dataset::kNyTaxi, 42},
      {"taxi/staging", Dataset::kNyTaxi, 43},
      {"hotel/prod", Dataset::kHotel, 44},
  };

  ServeOptions options;
  options.registry.max_resident = 2;  // forces evictions under traffic
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());

  // Local baselines loaded from the very same checkpoints.
  std::map<std::string, std::unique_ptr<ValidationService>> baselines;
  {
    auto deployer = ServeClient::Connect(kHost, daemon.port());
    ASSERT_TRUE(deployer.ok());
    for (const Tenant& tenant : tenants) {
      const std::string path = Checkpoint(tenant.dataset, tenant.train_seed);
      ASSERT_TRUE(deployer->Deploy(tenant.name, path).ok());
      auto baseline = ValidationService::FromCheckpoint(path);
      ASSERT_TRUE(baseline.ok());
      baselines[tenant.name] = std::move(*baseline);
    }
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  // Two model row blocks per request, so every verdict fans out on the
  // daemon's pool and the baseline's.
  constexpr int64_t kBatchRows = 300;
  std::atomic<int> mismatches{0};
  std::atomic<int> transport_failures{0};
  std::vector<std::string> first_mismatch(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServeClient::Connect(kHost, daemon.port());
      if (!client.ok()) {
        transport_failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Each client sweeps every tenant so all pairs interleave.
        for (size_t t = 0; t < tenants.size(); ++t) {
          const Tenant& tenant = tenants[t];
          const uint64_t batch_seed =
              1000 + static_cast<uint64_t>(c * 100 + round * 10 + t);
          const std::string csv = BatchCsv(tenant.dataset, batch_seed,
                                           kBatchRows);
          auto remote = client->Validate(tenant.name, csv);
          if (!remote.ok()) {
            transport_failures.fetch_add(1);
            continue;
          }
          const ValidationService& baseline = *baselines.at(tenant.name);
          Table batch = TableFromCsvText(baseline, csv);
          auto local = baseline.TryValidate(batch);
          if (!local.ok()) {
            transport_failures.fetch_add(1);
            continue;
          }
          const std::string diff =
              CompareVerdicts(*remote, *local, batch.num_rows());
          if (!diff.empty()) {
            mismatches.fetch_add(1);
            if (first_mismatch[static_cast<size_t>(c)].empty()) {
              first_mismatch[static_cast<size_t>(c)] =
                  std::string(tenant.name) + ": " + diff;
            }
          }
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(transport_failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  for (const std::string& diff : first_mismatch) {
    EXPECT_TRUE(diff.empty()) << diff;
  }

  // Every tenant served every client each round, despite max_resident=2
  // forcing checkpoint reloads mid-run.
  auto stats_client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(stats_client.ok());
  auto stats = stats_client->Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), tenants.size());
  int64_t evictions = 0;
  for (const TenantStatsSnapshot& snapshot : *stats) {
    EXPECT_EQ(snapshot.requests_ok, kClients * kRounds);
    EXPECT_EQ(snapshot.requests_failed, 0);
    EXPECT_EQ(snapshot.rows_validated, kClients * kRounds * kBatchRows);
    EXPECT_EQ(snapshot.latency.count, kClients * kRounds);
    EXPECT_LE(snapshot.latency.p50_us, snapshot.latency.p99_us);
    evictions += snapshot.evictions;
  }
  EXPECT_GT(evictions, 0);  // the LRU bound was actually exercised
  daemon.Stop();
}

// ------------------------------------------------------------- overloads

TEST(ServeIntegrationTest, TenantOverloadRejectsGracefully) {
  ServeOptions options;
  options.registry.max_inflight_per_tenant = 1;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_TRUE(
      daemon.registry().Deploy("acme", Checkpoint(Dataset::kNyTaxi, 42)).ok());

  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  const std::string csv = BatchCsv(Dataset::kNyTaxi, 5, 16);

  {
    // Pin the tenant's only admission slot, as a stuck request would.
    auto ticket = daemon.registry().Admit("acme");
    ASSERT_TRUE(ticket.ok());
    auto rejected = client->Validate("acme", csv);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  }
  // Slot released: the same connection is immediately served again.
  EXPECT_TRUE(client->Validate("acme", csv).ok());

  auto stats = client->Stats("acme");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)[0].requests_rejected, 1);
  EXPECT_EQ((*stats)[0].requests_ok, 1);
  daemon.Stop();
}

TEST(ServeIntegrationTest, ConnectionLimitAnswersOverloadedFrame) {
  ServeOptions options;
  options.max_connections = 1;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());

  auto first = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Ping().ok());  // occupies the only connection slot

  // The daemon accepts the TCP connection, answers one explicit
  // kOverloaded frame and hangs up — read it without writing anything
  // (a write after the server's close would race an RST past the frame).
  const int fd = RawConnect(daemon.port());
  auto payload = ReadFrame(fd);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto response = DecodeResponse(*payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kOverloaded);
  ::close(fd);
  EXPECT_GE(daemon.connections_rejected(), 1);
  daemon.Stop();
}

// -------------------------------------------------------------- hot swap

TEST(ServeIntegrationTest, HotSwapOverSocketDropsNothing) {
  ServeDaemon daemon;
  ASSERT_TRUE(daemon.Start().ok());
  const std::string v1 = Checkpoint(Dataset::kNyTaxi, 42);
  const std::string v2 = Checkpoint(Dataset::kNyTaxi, 43);

  auto admin = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(admin.ok());
  ASSERT_TRUE(admin->Deploy("swap", v1).ok());
  const std::string csv = BatchCsv(Dataset::kNyTaxi, 5, 16);
  ASSERT_TRUE(admin->Validate("swap", csv).ok());  // make it resident

  std::atomic<bool> stop{false};
  std::atomic<int64_t> responses{0};
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> traffic;
  for (int c = 0; c < 2; ++c) {
    traffic.emplace_back([&] {
      auto client = ServeClient::Connect(kHost, daemon.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto verdict = client->Validate("swap", csv);
        if (verdict.ok()) {
          responses.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }

  // Re-deploy under live traffic, ending on v2. Deploy loads the new
  // checkpoint before the swap, so no request ever sees a missing model.
  for (const std::string* next : {&v2, &v1, &v2}) {
    ASSERT_TRUE(admin->Deploy("swap", *next).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : traffic) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(responses.load(), 0);

  // The served model is now v2: thresholds are bit-identical to a local
  // load of the v2 checkpoint.
  auto v2_local = ValidationService::FromCheckpoint(v2);
  ASSERT_TRUE(v2_local.ok());
  auto verdict = admin->Validate("swap", csv);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->threshold, (*v2_local)->pipeline().threshold());

  auto stats = admin->Stats("swap");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)[0].swaps, 3);
  EXPECT_EQ((*stats)[0].requests_failed, 0);
  daemon.Stop();
}

// ------------------------------------------------- malformed-input safety

TEST(ServeIntegrationTest, GarbageBytesGetBadRequestAndDaemonSurvives) {
  ServeDaemon daemon;
  ASSERT_TRUE(daemon.Start().ok());

  // Unframeable garbage: the daemon answers once, then hangs up.
  {
    const int fd = RawConnect(daemon.port());
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
    auto payload = ReadFrame(fd);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    auto response = DecodeResponse(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kBadRequest);
    ::close(fd);
  }

  // A well-framed but undecodable payload: kBadRequest, and the SAME
  // connection keeps working afterwards.
  {
    const int fd = RawConnect(daemon.port());
    ASSERT_TRUE(WriteFrame(fd, "this is not a request").ok());
    auto payload = ReadFrame(fd);
    ASSERT_TRUE(payload.ok());
    auto response = DecodeResponse(*payload);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kBadRequest);

    WireRequest ping;
    ping.verb = WireVerb::kPing;
    ping.request_id = 9;
    ASSERT_TRUE(WriteFrame(fd, EncodeRequest(ping)).ok());
    auto pong_payload = ReadFrame(fd);
    ASSERT_TRUE(pong_payload.ok());
    auto pong = DecodeResponse(*pong_payload);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->code, WireCode::kOk);
    EXPECT_EQ(pong->request_id, 9u);
    ::close(fd);
  }

  // Fresh connections are unaffected by any of the above.
  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  daemon.Stop();
}

TEST(ServeIntegrationTest, BadBatchesAreBadRequestsNotAborts) {
  ServeDaemon daemon;
  ASSERT_TRUE(daemon.Start().ok());
  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->Deploy("acme", Checkpoint(Dataset::kNyTaxi, 42)).ok());

  // Wrong schema entirely.
  auto wrong = client->Validate("acme", "a,b\n1,2\n");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // A deploy body is the checkpoint path alone: an option line after it
  // (the retired int8 switch) is a bad request, and acme keeps its model.
  const Status with_option = client->Deploy(
      "acme", Checkpoint(Dataset::kNyTaxi, 42) + "\nquantized=1");
  EXPECT_EQ(with_option.code(), StatusCode::kInvalidArgument)
      << with_option.ToString();

  // Deploying a path that is not a checkpoint fails without killing the
  // old deployment (the tenant is not resident yet, so the load error
  // surfaces on first use and re-deploy heals it). The registry fails
  // closed: no servable model is kUnavailable — retryable, unlike a bad
  // request.
  ASSERT_TRUE(client->Deploy("broken", "/no/such/file.ckpt").ok());
  auto load_failed =
      client->Validate("broken", BatchCsv(Dataset::kNyTaxi, 5, 8));
  ASSERT_FALSE(load_failed.ok());
  EXPECT_EQ(load_failed.status().code(), StatusCode::kUnavailable);

  // A header-only batch is valid input: zero rows, clean verdict.
  Rng rng(3);
  Table empty_shape = datasets::GenerateNyTaxi(1, rng, /*dims=*/10);
  CsvDocument doc = empty_shape.ToCsv();
  doc.rows.clear();
  auto empty = client->Validate("acme", WriteCsvString(doc));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->total_rows, 0);
  EXPECT_FALSE(empty->is_dirty);
  EXPECT_TRUE(empty->flagged.empty());

  // After all of that, the daemon still validates normally.
  EXPECT_TRUE(client->Validate("acme", BatchCsv(Dataset::kNyTaxi, 5, 8)).ok());
  daemon.Stop();
}

// -------------------------------------------------------------- shutdown

TEST(ServeIntegrationTest, RemoteShutdownFlagsTheOwner) {
  ServeDaemon daemon;
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_FALSE(daemon.shutdown_requested());

  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Shutdown().ok());

  // The verb only flags; the owner observes and tears down.
  daemon.WaitForShutdown();
  EXPECT_TRUE(daemon.shutdown_requested());
  daemon.Stop();
  EXPECT_FALSE(daemon.running());
}

}  // namespace
}  // namespace dquag
