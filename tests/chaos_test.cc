// Chaos suite: the serving stack under fault injection (util/failpoint.h).
//
// The headline test drives 4 concurrent clients across 2 tenants while
// EVERY registered failpoint site takes a turn injecting errors (or delays,
// for the void sites). Invariants, per the daemon's failure philosophy:
//   * the daemon never aborts — it is still running() after every round;
//   * a torn or unloadable checkpoint never serves — it surfaces as
//     kUnavailable while other tenants keep answering;
//   * every request resolves: either an ok verdict that is bit-identical
//     to a local ValidationService run on the same bytes, or a typed error
//     (kUnavailable, kResourceExhausted, kDeadlineExceeded, or the
//     injected kIoError surfacing through the client's own socket ops —
//     client and daemon share the process, so transport failpoints fire on
//     both ends).
//
// Also here: end-to-end deadline expiry (served as kDeadlineExceeded
// before any admission ticket is burned), client retry/backoff recovering
// from a transient load failure, and server-side disconnection of stalled
// peers.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/validation_service.h"
#include "data/generators.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/atomic_file.h"
#include "util/binary_io.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace dquag {
namespace {

constexpr const char* kHost = "127.0.0.1";

enum class Dataset { kNyTaxi, kHotel };

/// Tiny fitted checkpoint per (dataset, seed), cached across tests.
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
  const std::string path = ::testing::TempDir() + "chaos_ckpt_" +
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

/// Bit-exact parity between a remote verdict and a local reference run.
bool VerdictMatches(const WireVerdict& remote, const BatchVerdict& local,
                    int64_t expected_rows) {
  if (remote.total_rows != expected_rows) return false;
  if (remote.flagged_fraction != local.flagged_fraction) return false;
  if (remote.threshold != local.threshold) return false;
  if (remote.is_dirty != local.is_dirty) return false;
  if (remote.flagged.size() != local.flagged_rows.size()) return false;
  for (size_t i = 0; i < remote.flagged.size(); ++i) {
    const size_t row = local.flagged_rows[i];
    if (remote.flagged[i].row != static_cast<uint64_t>(row)) return false;
    if (remote.flagged[i].error != local.instances[row].error) return false;
  }
  return true;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisableAll(); }
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(ChaosTest, EverySiteUnderConcurrentTrafficNeverKillsTheDaemon) {
  ServeOptions options;
  options.io_timeout_ms = 5000;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());

  const std::vector<std::pair<std::string, Dataset>> tenants = {
      {"taxi", Dataset::kNyTaxi}, {"hotel", Dataset::kHotel}};
  ASSERT_TRUE(daemon.registry()
                  .Deploy("taxi", Checkpoint(Dataset::kNyTaxi, 42))
                  .ok());
  ASSERT_TRUE(daemon.registry()
                  .Deploy("hotel", Checkpoint(Dataset::kHotel, 43))
                  .ok());

  // Local references for the parity check, and the exact request bytes
  // each client sends (one batch per tenant, reused every round).
  std::map<std::string, std::unique_ptr<ValidationService>> reference;
  std::map<std::string, std::string> batch_csv;
  std::map<std::string, BatchVerdict> local_verdict;
  constexpr int64_t kRows = 12;
  for (const auto& [tenant, dataset] : tenants) {
    auto service = ValidationService::FromCheckpoint(
        Checkpoint(dataset, tenant == "taxi" ? 42 : 43),
        options.registry.service);
    ASSERT_TRUE(service.ok());
    reference[tenant] = std::move(*service);
    batch_csv[tenant] = BatchCsv(dataset, 7, kRows);
    auto doc = ParseCsv(batch_csv[tenant]);
    ASSERT_TRUE(doc.ok());
    auto table = Table::FromCsv(
        reference[tenant]->pipeline().preprocessor().schema(), *doc);
    ASSERT_TRUE(table.ok());
    auto verdict = reference[tenant]->TryValidate(*table);
    ASSERT_TRUE(verdict.ok());
    local_verdict[tenant] = std::move(*verdict);
  }

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 5;
  failpoint::SetSeed(2026);

  for (const std::string& site : failpoint::AllSites()) {
    // Void sites (thread-pool and dispatch seams) can only delay or crash;
    // everything else injects errors with probability 0.4.
    const bool delay_only = site == failpoint::kThreadPoolDispatch ||
                            site == failpoint::kServeDispatch;
    if (delay_only) {
      failpoint::Enable(site, failpoint::Action::kDelay,
                        /*probability=*/0.4, /*delay_ms=*/2);
    } else {
      failpoint::Enable(site, failpoint::Action::kError,
                        /*probability=*/0.4);
    }

    std::atomic<int> resolved{0};
    std::atomic<int> parity_breaks{0};
    std::atomic<int> untyped_errors{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        ClientOptions copts;
        copts.connect_timeout_ms = 2000;
        copts.io_timeout_ms = 5000;
        copts.retry.max_retries = 2;
        copts.retry.initial_backoff_ms = 1;
        copts.retry.max_backoff_ms = 8;
        copts.retry.jitter_seed = 1000 + static_cast<uint64_t>(c);
        auto client = ServeClient::Connect(kHost, daemon.port(), copts);
        if (!client.ok()) {
          // Connection itself may hit an armed wire failpoint; that is a
          // resolved (typed) outcome for every request this client owned.
          resolved += kRequestsPerClient;
          return;
        }
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const std::string& tenant =
              tenants[(c + r) % tenants.size()].first;
          auto verdict = client->Validate(tenant, batch_csv[tenant]);
          ++resolved;
          if (verdict.ok()) {
            if (!VerdictMatches(*verdict, local_verdict[tenant], kRows)) {
              ++parity_breaks;
            }
            continue;
          }
          switch (verdict.status().code()) {
            case StatusCode::kUnavailable:
            case StatusCode::kResourceExhausted:
            case StatusCode::kDeadlineExceeded:
            case StatusCode::kIoError:  // the injected transport fault
              break;
            default:
              ++untyped_errors;
              ADD_FAILURE() << "site " << site << ": untyped error "
                            << verdict.status().ToString();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    failpoint::Disable(site);

    EXPECT_EQ(resolved.load(), kClients * kRequestsPerClient) << site;
    EXPECT_EQ(parity_breaks.load(), 0) << site;
    EXPECT_EQ(untyped_errors.load(), 0) << site;
    ASSERT_TRUE(daemon.running()) << "daemon died under site " << site;
  }

  // Clean pass with everything disarmed: full parity, no residue.
  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  for (const auto& entry : tenants) {
    const std::string& tenant = entry.first;
    auto verdict = client->Validate(tenant, batch_csv[tenant]);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(VerdictMatches(*verdict, local_verdict[tenant], kRows));
  }
  daemon.Stop();
}

TEST_F(ChaosTest, TornCheckpointNeverServesWhileHealthyTenantsContinue) {
  ServeOptions options;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_TRUE(daemon.registry()
                  .Deploy("healthy", Checkpoint(Dataset::kNyTaxi, 42))
                  .ok());

  // Tear a real checkpoint in half on disk — the torn bytes must never
  // construct a service.
  const std::string intact = Checkpoint(Dataset::kHotel, 43);
  auto bytes = BinaryReader::FromFile(intact);
  ASSERT_TRUE(bytes.ok());
  const std::string torn_path = ::testing::TempDir() + "chaos_torn.bin";
  const std::string& buffer = std::move(*bytes).TakeBuffer();
  ASSERT_TRUE(
      WriteFileAtomic(torn_path, buffer.substr(0, buffer.size() / 2)).ok());

  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Deploy("torn", torn_path).ok());  // lazy: deploy ok
  auto verdict = client->Validate("torn", BatchCsv(Dataset::kHotel, 7, 8));
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kUnavailable);

  // The healthy tenant is unaffected.
  auto healthy =
      client->Validate("healthy", BatchCsv(Dataset::kNyTaxi, 7, 8));
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();
  daemon.Stop();
}

TEST_F(ChaosTest, ExpiredDeadlineIsTypedAndBurnsNoAdmission) {
  ServeOptions options;
  options.registry.max_inflight_per_tenant = 1;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_TRUE(daemon.registry()
                  .Deploy("acme", Checkpoint(Dataset::kNyTaxi, 42))
                  .ok());

  // The dispatch seam stalls past the request's whole budget, so the
  // deadline check right after it must answer kDeadlineExceeded without
  // touching the model or the admission gauge.
  failpoint::Enable(failpoint::kServeDispatch, failpoint::Action::kDelay,
                    /*probability=*/1.0, /*delay_ms=*/60);
  ClientOptions copts;
  copts.deadline_ms = 25;
  auto client = ServeClient::Connect(kHost, daemon.port(), copts);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    auto verdict = client->Validate("acme", BatchCsv(Dataset::kNyTaxi, 7, 8));
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.status().code(), StatusCode::kDeadlineExceeded);
  }
  failpoint::DisableAll();

  // No admission ticket was burned: with max_inflight=1, a leaked ticket
  // would wedge this (now failpoint-free, deadline-free) request forever.
  ClientOptions clean;
  auto client2 = ServeClient::Connect(kHost, daemon.port(), clean);
  ASSERT_TRUE(client2.ok());
  auto verdict = client2->Validate("acme", BatchCsv(Dataset::kNyTaxi, 7, 8));
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();

  // And the expired requests never reached the model: zero ok requests
  // were recorded before the clean one.
  auto stats = client2->Stats("acme");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 1u);
  EXPECT_EQ((*stats)[0].requests_ok, 1);
  daemon.Stop();
}

TEST_F(ChaosTest, RetryWithBackoffRecoversFromTransientLoadFailure) {
  ServeOptions options;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());

  // The tenant starts with an unloadable path; a concurrent re-deploy
  // heals it while the client is inside its backoff schedule.
  ASSERT_TRUE(
      daemon.registry().Deploy("flaky", "/no/such/checkpoint.bin").ok());

  ClientOptions copts;
  copts.retry.max_retries = 6;
  copts.retry.initial_backoff_ms = 40;
  copts.retry.max_backoff_ms = 200;
  auto client = ServeClient::Connect(kHost, daemon.port(), copts);
  ASSERT_TRUE(client.ok());

  std::thread healer([&daemon]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_TRUE(daemon.registry()
                    .Deploy("flaky", Checkpoint(Dataset::kNyTaxi, 42))
                    .ok());
  });
  auto verdict = client->Validate("flaky", BatchCsv(Dataset::kNyTaxi, 7, 8));
  healer.join();
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_GE(client->retry_stats().retries, 1);
  EXPECT_GT(client->retry_stats().backoff_ms, 0);
  EXPECT_EQ(client->retry_stats().giveups, 0);

  // Retry exhaustion is a give-up, not a hang: a tenant that never heals
  // returns the last failure after the final attempt.
  ClientOptions bounded;
  bounded.retry.max_retries = 1;
  bounded.retry.initial_backoff_ms = 1;
  auto client2 = ServeClient::Connect(kHost, daemon.port(), bounded);
  ASSERT_TRUE(client2.ok());
  ASSERT_TRUE(
      daemon.registry().Deploy("doomed", "/no/such/checkpoint.bin").ok());
  auto failed = client2->Validate("doomed", BatchCsv(Dataset::kNyTaxi, 7, 8));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client2->retry_stats().retries, 1);
  EXPECT_EQ(client2->retry_stats().giveups, 1);
  daemon.Stop();
}

TEST_F(ChaosTest, StalledPeerIsDisconnectedByIoTimeout) {
  ServeOptions options;
  options.io_timeout_ms = 150;
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());

  // A raw connection that never sends a frame: the server's SO_RCVTIMEO
  // fires and the daemon drops the connection instead of pinning a slot.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(daemon.port()));
  ASSERT_EQ(::inet_pton(AF_INET, kHost, &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  char byte = 0;
  // Blocking read: returns 0 (EOF) when the server gives up on us.
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  EXPECT_EQ(n, 0) << "server kept a stalled connection open";
  ::close(fd);

  // The daemon itself is fine and still serves.
  auto client = ServeClient::Connect(kHost, daemon.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  daemon.Stop();
}

}  // namespace
}  // namespace dquag
