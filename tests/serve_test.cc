// Unit tests for the serving subsystem's building blocks: the lock-free
// log-bucketed percentile counter, the wire codec (round-trips plus
// garbage/truncation fuzz — no malformed payload may do worse than return
// an error Status), and the multi-tenant model registry (lazy loads, LRU
// eviction under capacity pressure, duplicate-load suppression under a
// thundering herd, atomic hot-swap mid-traffic, bounded admission), plus
// the daemon's per-tenant dirty-batch accounting and a guard that service
// calls never wait on unrelated pool work. The threaded cases run under
// the CI ThreadSanitizer job.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/validation_service.h"
#include "data/error_injector.h"
#include "data/generators.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/percentile_counter.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/binary_io.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dquag {
namespace {

// ---------------------------------------------------------------- fixtures

/// Trains a tiny pipeline (fast settings) and saves it under TempDir.
/// Cached per seed: several tests share checkpoints without retraining.
std::string CheckpointForSeed(uint64_t seed) {
  static std::map<uint64_t, std::string>* cache =
      new std::map<uint64_t, std::string>();
  auto it = cache->find(seed);
  if (it != cache->end()) return it->second;
  Rng rng(seed);
  Table clean = datasets::GenerateNyTaxi(96, rng, /*dims=*/10);
  DquagPipelineOptions options;
  options.config.encoder.hidden_dim = 8;
  options.config.epochs = 1;
  options.config.batch_size = 64;
  options.config.seed = seed;
  DquagPipeline pipeline(std::move(options));
  EXPECT_TRUE(pipeline.Fit(clean).ok());
  const std::string path = ::testing::TempDir() + "serve_test_ckpt_" +
                           std::to_string(seed) + ".bin";
  EXPECT_TRUE(pipeline.Save(path).ok());
  (*cache)[seed] = path;
  return path;
}

Table FreshBatch(uint64_t seed, int64_t rows = 32) {
  Rng rng(seed);
  return datasets::GenerateNyTaxi(rows, rng, /*dims=*/10);
}

// ------------------------------------------------------- PercentileCounter

TEST(PercentileCounterTest, SingleValueIsExactBelowSubBucketRange) {
  for (uint64_t v : {0ull, 1ull, 7ull, 31ull}) {
    PercentileCounter counter;
    counter.Record(v);
    EXPECT_EQ(counter.Percentile(0.5), v);
    EXPECT_EQ(counter.Percentile(0.999), v);
    EXPECT_EQ(counter.max(), v);
    EXPECT_EQ(counter.count(), 1);
  }
}

TEST(PercentileCounterTest, BucketIndexInverseBoundsValue) {
  for (uint64_t v : {uint64_t{0}, uint64_t{31}, uint64_t{32}, uint64_t{33},
                     uint64_t{100}, uint64_t{1000}, uint64_t{4095},
                     uint64_t{65537}, uint64_t{1000000},
                     PercentileCounter::kMaxValue}) {
    const uint64_t index = PercentileCounter::BucketIndex(v);
    ASSERT_LT(index, PercentileCounter::kNumBuckets);
    const uint64_t upper = PercentileCounter::UpperBound(index);
    EXPECT_GE(upper, v);
    // Upper bound overshoots by at most one sub-bucket (~1/32 relative).
    EXPECT_LE(static_cast<double>(upper),
              static_cast<double>(v) * (1.0 + 1.0 / 32.0) + 1.0);
    EXPECT_EQ(PercentileCounter::BucketIndex(upper), index);
  }
}

TEST(PercentileCounterTest, PercentilesAreMonotonic) {
  PercentileCounter counter;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    counter.Record(static_cast<uint64_t>(rng.UniformInt(0, 2000000)));
  }
  const uint64_t p50 = counter.Percentile(0.50);
  const uint64_t p99 = counter.Percentile(0.99);
  const uint64_t p999 = counter.Percentile(0.999);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, counter.max() + counter.max() / 32 + 1);
  EXPECT_EQ(counter.count(), 5000);
}

TEST(PercentileCounterTest, OversizedSamplesClampIntoTopBucket) {
  PercentileCounter counter;
  counter.Record(~0ull);
  EXPECT_EQ(counter.count(), 1);
  EXPECT_EQ(counter.max(), PercentileCounter::kMaxValue);
  EXPECT_GE(counter.Percentile(0.5), PercentileCounter::kMaxValue / 2);
}

TEST(PercentileCounterTest, ConcurrentRecordersLoseNothing) {
  PercentileCounter counter;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Record(static_cast<uint64_t>(t * 1000 + i % 977));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.count(), kThreads * kPerThread);
  EXPECT_GT(counter.Percentile(0.5), 0u);
}

// ------------------------------------------------------------------- wire

TEST(WireCodecTest, RequestRoundTrip) {
  WireRequest request;
  request.verb = WireVerb::kValidate;
  request.request_id = 77;
  request.tenant = "acme/eu-west";
  request.body = "a,b\n1,2\n";
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->verb, WireVerb::kValidate);
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->tenant, "acme/eu-west");
  EXPECT_EQ(decoded->body, "a,b\n1,2\n");
}

TEST(WireCodecTest, VerdictRoundTripIsBitExact) {
  WireVerdict verdict;
  verdict.total_rows = 1000;
  verdict.flagged_fraction = 0.123456789012345678;  // exercises full bits
  verdict.threshold = 3.9e-7;
  verdict.is_dirty = true;
  verdict.flagged.push_back({12, 0.5000000000000001, {0, 3}});
  verdict.flagged.push_back({999, 1e-300, {}});
  auto decoded = DecodeVerdict(EncodeVerdict(verdict));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->total_rows, 1000);
  EXPECT_EQ(decoded->flagged_fraction, verdict.flagged_fraction);
  EXPECT_EQ(decoded->threshold, verdict.threshold);
  EXPECT_TRUE(decoded->is_dirty);
  ASSERT_EQ(decoded->flagged.size(), 2u);
  EXPECT_EQ(decoded->flagged[0].row, 12u);
  EXPECT_EQ(decoded->flagged[0].error, 0.5000000000000001);
  EXPECT_EQ(decoded->flagged[0].suspect_features,
            (std::vector<int64_t>{0, 3}));
  EXPECT_EQ(decoded->flagged[1].error, 1e-300);
}

TEST(WireCodecTest, RepairAndStatsRoundTrip) {
  WireRepair repair{"x,y\n1,2\n", 3, 2};
  auto repair_decoded = DecodeRepair(EncodeRepair(repair));
  ASSERT_TRUE(repair_decoded.ok());
  EXPECT_EQ(repair_decoded->repaired_csv, repair.repaired_csv);
  EXPECT_EQ(repair_decoded->cells_repaired, 3);
  EXPECT_EQ(repair_decoded->instances_repaired, 2);

  TenantStatsSnapshot snapshot;
  snapshot.tenant = "beta";
  snapshot.resident = true;
  snapshot.requests_ok = 5;
  snapshot.requests_rejected = 1;
  snapshot.rows_validated = 320;
  snapshot.latency = {5, 100, 900, 1500, 1600};
  auto stats_decoded = DecodeStats(EncodeStats({snapshot}));
  ASSERT_TRUE(stats_decoded.ok());
  ASSERT_EQ(stats_decoded->size(), 1u);
  EXPECT_EQ((*stats_decoded)[0].tenant, "beta");
  EXPECT_TRUE((*stats_decoded)[0].resident);
  EXPECT_EQ((*stats_decoded)[0].requests_rejected, 1);
  EXPECT_EQ((*stats_decoded)[0].latency.p999_us, 1500);
}

TEST(WireCodecTest, TruncationsAndTrailingBytesAreErrors) {
  WireRequest request;
  request.verb = WireVerb::kDeploy;
  request.tenant = "t";
  request.body = "/models/x.ckpt";
  const std::string encoded = EncodeRequest(request);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(DecodeRequest(encoded.substr(0, cut)).ok())
        << "prefix of length " << cut << " decoded";
  }
  EXPECT_FALSE(DecodeRequest(encoded + "x").ok());
  EXPECT_TRUE(DecodeRequest(encoded).ok());
}

TEST(WireCodecTest, OnlyTheCurrentVersionDecodes) {
  // Client and daemon ship together: a request or response stamped with
  // any version word but kWireVersion is refused, older or newer.
  WireRequest request;
  request.verb = WireVerb::kStats;
  const std::string request_payload = EncodeRequest(request);
  const std::string response_payload = EncodeResponse(WireResponse{});
  ASSERT_TRUE(DecodeRequest(request_payload).ok());
  ASSERT_TRUE(DecodeResponse(response_payload).ok());
  for (uint64_t version : {uint64_t{1}, uint64_t{2}, uint64_t{4}}) {
    BinaryWriter w;
    w.WriteU64(version);
    const std::string word = w.buffer();
    EXPECT_EQ(DecodeRequest(word + request_payload.substr(8)).status().code(),
              StatusCode::kInvalidArgument)
        << "request version " << version;
    EXPECT_EQ(
        DecodeResponse(word + response_payload.substr(8)).status().code(),
        StatusCode::kInvalidArgument)
        << "response version " << version;
  }

  // The v3 stats trailer is required, not optional.
  const std::string stats = EncodeStats({TenantStatsSnapshot{}});
  ASSERT_TRUE(DecodeStats(stats).ok());
  const size_t trailer_bytes = 8 + 5 * 8;  // tag + one 5-field record
  EXPECT_FALSE(
      DecodeStats(stats.substr(0, stats.size() - trailer_bytes)).ok());
}

TEST(WireCodecTest, GarbageFuzzNeverCrashes) {
  Rng rng(1234);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const int64_t size = rng.UniformInt(0, 220);
    std::string garbage(static_cast<size_t>(size), '\0');
    for (char& c : garbage) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    // None of these may abort or throw; error Statuses are the contract.
    (void)DecodeRequest(garbage);
    (void)DecodeResponse(garbage);
    (void)DecodeVerdict(garbage);
    (void)DecodeRepair(garbage);
    (void)DecodeStats(garbage);
  }
}

TEST(WireCodecTest, HostileLengthPrefixFailsCleanly) {
  // A u64 string length of ~2^63 must be rejected before allocation.
  BinaryWriter w;
  w.WriteU64(kWireVersion);
  w.WriteU64(static_cast<uint64_t>(WireVerb::kPing));
  w.WriteU64(1);
  w.WriteU64(0x7fffffffffffffffull);  // tenant "length"
  auto decoded = DecodeRequest(w.buffer());
  EXPECT_FALSE(decoded.ok());
}

class FramePairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(FramePairTest, FrameRoundTrip) {
  const std::string payload = "hello frames \x01\x02\x00 with nuls";
  ASSERT_TRUE(WriteFrame(fds_[0], payload).ok());
  auto read = ReadFrame(fds_[1]);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, payload);
}

TEST_F(FramePairTest, BadMagicIsInvalidArgument) {
  const char garbage[8] = {'X', 'X', 'X', 'X', 0, 0, 0, 0};
  ASSERT_EQ(::send(fds_[0], garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  auto read = ReadFrame(fds_[1]);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FramePairTest, OversizeLengthIsRejected) {
  char header[8];
  const uint32_t magic = kFrameMagic;
  const uint32_t huge = kMaxFramePayload + 1;
  memcpy(header, &magic, 4);
  memcpy(header + 4, &huge, 4);
  ASSERT_EQ(::send(fds_[0], header, sizeof(header), 0), 8);
  auto read = ReadFrame(fds_[1]);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FramePairTest, CleanEofIsUnavailableTornFrameIsIoError) {
  ::close(fds_[0]);
  fds_[0] = -1;
  auto read = ReadFrame(fds_[1]);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  char header[8];
  const uint32_t magic = kFrameMagic;
  const uint32_t length = 100;  // promise 100 bytes, deliver 3
  memcpy(header, &magic, 4);
  memcpy(header + 4, &length, 4);
  ASSERT_EQ(::send(pair[0], header, sizeof(header), 0), 8);
  ASSERT_EQ(::send(pair[0], "abc", 3, 0), 3);
  ::close(pair[0]);
  auto torn = ReadFrame(pair[1]);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kIoError);
  ::close(pair[1]);
}

// ----------------------------------------------------------- ModelRegistry

ModelRegistryOptions SmallRegistryOptions(int64_t max_resident = 4,
                                          int64_t max_inflight = 32) {
  ModelRegistryOptions options;
  options.max_resident = max_resident;
  options.max_inflight_per_tenant = max_inflight;
  return options;
}

TEST(ModelRegistryTest, DeployIsLazyAcquireLoadsOnce) {
  ModelRegistry registry(SmallRegistryOptions());
  ASSERT_TRUE(registry.Deploy("alpha", CheckpointForSeed(42)).ok());
  EXPECT_EQ(registry.resident_count(), 0);
  EXPECT_EQ(registry.load_count("alpha"), 0);

  auto service = registry.Acquire("alpha");
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ(registry.resident_count(), 1);
  EXPECT_EQ(registry.load_count("alpha"), 1);

  auto again = registry.Acquire("alpha");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service->get(), again->get());  // shared, not reloaded
  EXPECT_EQ(registry.load_count("alpha"), 1);
}

TEST(ModelRegistryTest, UnknownTenantIsNotFound) {
  ModelRegistry registry(SmallRegistryOptions());
  EXPECT_EQ(registry.Acquire("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Admit("ghost").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(registry.Deploy("", "x").ok());
}

TEST(ModelRegistryTest, BadCheckpointFailsOnAcquireThenRecovers) {
  ModelRegistry registry(SmallRegistryOptions());
  ASSERT_TRUE(registry.Deploy("alpha", "/no/such/checkpoint.bin").ok());
  EXPECT_FALSE(registry.Acquire("alpha").ok());
  EXPECT_EQ(registry.resident_count(), 0);
  // Re-deploying a good path heals the tenant.
  ASSERT_TRUE(registry.Deploy("alpha", CheckpointForSeed(42)).ok());
  EXPECT_TRUE(registry.Acquire("alpha").ok());
}

TEST(ModelRegistryTest, LruEvictionUnderCapacityPressure) {
  ModelRegistry registry(SmallRegistryOptions(/*max_resident=*/2));
  const std::string path = CheckpointForSeed(42);
  for (const char* tenant : {"t1", "t2", "t3"}) {
    ASSERT_TRUE(registry.Deploy(tenant, path).ok());
  }
  ASSERT_TRUE(registry.Acquire("t1").ok());
  ASSERT_TRUE(registry.Acquire("t2").ok());
  EXPECT_EQ(registry.resident_count(), 2);

  // Loading t3 must evict t1 (least recently acquired).
  ASSERT_TRUE(registry.Acquire("t3").ok());
  EXPECT_EQ(registry.resident_count(), 2);
  ASSERT_TRUE(registry.Acquire("t2").ok());  // still resident: no reload
  EXPECT_EQ(registry.load_count("t2"), 1);

  // t1 was evicted: acquiring it reloads from disk and evicts t3 (LRU
  // after t2's touch above).
  ASSERT_TRUE(registry.Acquire("t1").ok());
  EXPECT_EQ(registry.load_count("t1"), 2);
  EXPECT_EQ(registry.resident_count(), 2);
  ASSERT_TRUE(registry.Acquire("t3").ok());
  EXPECT_EQ(registry.load_count("t3"), 2);

  int64_t evictions = 0;
  for (const TenantStatsSnapshot& snapshot : registry.StatsSnapshot()) {
    evictions += snapshot.evictions;
  }
  EXPECT_GE(evictions, 2);
}

TEST(ModelRegistryTest, EvictedServiceSurvivesForHolders) {
  ModelRegistry registry(SmallRegistryOptions(/*max_resident=*/1));
  ASSERT_TRUE(registry.Deploy("t1", CheckpointForSeed(42)).ok());
  ASSERT_TRUE(registry.Deploy("t2", CheckpointForSeed(42)).ok());
  auto held = registry.Acquire("t1");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(registry.Acquire("t2").ok());  // evicts t1 from the registry
  EXPECT_EQ(registry.resident_count(), 1);
  // The held reference still serves requests, fanning its two row blocks
  // out on the pool; memory is reclaimed only when the last holder lets go.
  Table batch = FreshBatch(7, /*rows=*/300);
  auto verdict = (*held)->TryValidate(batch);
  EXPECT_TRUE(verdict.ok());
}

TEST(ModelRegistryTest, LazyLoadRaceLoadsExactlyOnce) {
  ModelRegistry registry(SmallRegistryOptions());
  ASSERT_TRUE(registry.Deploy("alpha", CheckpointForSeed(42)).ok());
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<const ValidationService*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto service = registry.Acquire("alpha");
      if (!service.ok()) {
        failures.fetch_add(1);
        return;
      }
      seen[static_cast<size_t>(t)] = service->get();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.load_count("alpha"), 1);  // the herd shared one load
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
}

TEST(ModelRegistryTest, HotSwapMidTrafficDropsNoRequest) {
  ModelRegistry registry(SmallRegistryOptions());
  const std::string checkpoint_v1 = CheckpointForSeed(42);
  const std::string checkpoint_v2 = CheckpointForSeed(43);
  ASSERT_TRUE(registry.Deploy("alpha", checkpoint_v1).ok());
  ASSERT_TRUE(registry.Acquire("alpha").ok());

  Table batch = FreshBatch(11, /*rows=*/16);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> requests{0};
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto service = registry.Acquire("alpha");
        if (!service.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto verdict = (*service)->TryValidate(batch);
        if (!verdict.ok()) failures.fetch_add(1);
        requests.fetch_add(1);
      }
    });
  }
  // Swap back and forth while traffic flows; every Deploy loads the new
  // checkpoint before the pointer moves, so there is never a gap. Waiting
  // for fresh requests between swaps keeps the interleaving real even on a
  // single-core machine where the swapper could otherwise finish first.
  for (int swap = 0; swap < 6; ++swap) {
    const int64_t before = requests.load(std::memory_order_acquire);
    while (requests.load(std::memory_order_acquire) <= before) {
      std::this_thread::yield();
    }
    const std::string& next = (swap % 2 == 0) ? checkpoint_v2
                                              : checkpoint_v1;
    ASSERT_TRUE(registry.Deploy("alpha", next).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(requests.load(), 0);
  auto stats = registry.StatsSnapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].swaps, 6);
}

TEST(ModelRegistryTest, FailedHotSwapKeepsServingOldModel) {
  ModelRegistry registry(SmallRegistryOptions());
  ASSERT_TRUE(registry.Deploy("alpha", CheckpointForSeed(42)).ok());
  auto before = registry.Acquire("alpha");
  ASSERT_TRUE(before.ok());
  const double threshold = (*before)->pipeline().threshold();

  EXPECT_FALSE(registry.Deploy("alpha", "/no/such/v2.ckpt").ok());
  auto after = registry.Acquire("alpha");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->pipeline().threshold(), threshold);
  EXPECT_EQ(before->get(), after->get());  // same live instance
}

TEST(ModelRegistryTest, TruncatedCheckpointNeverSwapsInAtAnyLength) {
  ModelRegistry registry(SmallRegistryOptions());
  ASSERT_TRUE(registry.Deploy("alpha", CheckpointForSeed(42)).ok());
  auto before = registry.Acquire("alpha");
  ASSERT_TRUE(before.ok());

  // Re-deploy the SAME model torn at stepped prefix lengths — a crash can
  // truncate a checkpoint anywhere, including exactly at a section
  // boundary. Every length must fail the swap and leave the live instance
  // untouched; none may abort or install a half-decoded service.
  auto intact = BinaryReader::FromFile(CheckpointForSeed(42));
  ASSERT_TRUE(intact.ok());
  const std::string bytes = std::move(*intact).TakeBuffer();
  const std::string torn_path =
      ::testing::TempDir() + "serve_test_torn.ckpt";
  std::vector<size_t> lengths;
  const size_t step = std::max<size_t>(1, bytes.size() / 64);
  for (size_t len = 0; len < bytes.size(); len += step) {
    lengths.push_back(len);
  }
  lengths.push_back(bytes.size() - 1);  // torn by exactly one byte
  for (size_t len : lengths) {
    {
      std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    const Status swap = registry.Deploy("alpha", torn_path);
    EXPECT_FALSE(swap.ok()) << "torn prefix of " << len << " bytes loaded";
    auto still = registry.Acquire("alpha");
    ASSERT_TRUE(still.ok());
    EXPECT_EQ(before->get(), still->get()) << "len " << len;
  }

  // A fresh tenant lazily loading the torn file fails closed with
  // kUnavailable — the retryable "no servable model" contract.
  ASSERT_TRUE(registry.Deploy("beta", torn_path).ok());  // lazy: records path
  auto acquire = registry.Acquire("beta");
  ASSERT_FALSE(acquire.ok());
  EXPECT_EQ(acquire.status().code(), StatusCode::kUnavailable);

  // Re-deploying the intact bytes heals the fresh tenant.
  ASSERT_TRUE(registry.Deploy("beta", CheckpointForSeed(42)).ok());
  EXPECT_TRUE(registry.Acquire("beta").ok());
  std::remove(torn_path.c_str());
}

TEST(ModelRegistryTest, AdmissionBudgetRejectsGracefully) {
  ModelRegistry registry(
      SmallRegistryOptions(/*max_resident=*/4, /*max_inflight=*/2));
  ASSERT_TRUE(registry.Deploy("alpha", CheckpointForSeed(42)).ok());
  auto first = registry.Admit("alpha");
  ASSERT_TRUE(first.ok());
  auto second = registry.Admit("alpha");
  ASSERT_TRUE(second.ok());
  auto third = registry.Admit("alpha");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  // Releasing a ticket reopens the budget.
  *first = ModelRegistry::AdmitTicket();
  auto fourth = registry.Admit("alpha");
  EXPECT_TRUE(fourth.ok());
}

// ------------------------------------------------------------ ServeDaemon

TEST(ServeDaemonTest, RepairOfDirtyBatchCountsAsDirty) {
  ServeOptions options;
  options.registry = SmallRegistryOptions();
  ServeDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_TRUE(daemon.registry().Deploy("acme", CheckpointForSeed(42)).ok());
  auto client = ServeClient::Connect("127.0.0.1", daemon.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ErrorInjector injector(5);
  const Table dirty =
      injector.InjectNumericAnomalies(FreshBatch(3, /*rows=*/64),
                                      {"fare_amount", "trip_distance"}, 0.5)
          .table;
  const std::string csv = WriteCsvString(dirty.ToCsv());
  auto verdict = client->Validate("acme", csv);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ASSERT_TRUE(verdict->is_dirty);

  auto repair = client->Repair("acme", csv);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  auto stats = client->Stats("acme");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 1u);
  EXPECT_EQ((*stats)[0].requests_ok, 2);
  EXPECT_EQ((*stats)[0].dirty_batches, 2);  // the validate and the repair
  daemon.Stop();
}

/// Starts an auto-retrain daemon whose retrain options `edit` broke. Such
/// options would abort the process when the first request built a tenant's
/// controller, so Start() must refuse them and leave nothing running.
void ExpectStartRejectsRetrainOptions(
    const std::function<void(RetrainOptions&)>& edit) {
  ServeOptions options;
  options.auto_retrain = true;
  edit(options.retrain);
  ServeDaemon daemon(options);
  const Status status = daemon.Start();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_FALSE(daemon.running());
}

TEST(ServeDaemonTest, StartRejectsZeroRetrainMinRows) {
  ExpectStartRejectsRetrainOptions(
      [](RetrainOptions& retrain) { retrain.min_buffer_rows = 0; });
}

TEST(ServeDaemonTest, StartRejectsRetrainBufferBelowMinRows) {
  ExpectStartRejectsRetrainOptions([](RetrainOptions& retrain) {
    retrain.min_buffer_rows = 256;
    retrain.max_buffer_rows = 255;
  });
}

TEST(ServeDaemonTest, StartRejectsZeroRetrainTriggers) {
  ExpectStartRejectsRetrainOptions(
      [](RetrainOptions& retrain) { retrain.trigger_observations = 0; });
}

// ------------------------------------------------------ pool independence

TEST(ValidationServiceTest, ValidateNeverWaitsOnUnrelatedPoolWork) {
  // Default encoder on the 18-column taxi table: 256 rows through its
  // message-passing layers is big enough that a kernel which fanned out and
  // then waited for the whole shared pool to go idle would wait here.
  Rng rng(17);
  DquagPipelineOptions options;
  options.config.epochs = 1;
  options.config.seed = 17;
  DquagPipeline pipeline(std::move(options));
  ASSERT_TRUE(pipeline.Fit(datasets::GenerateNyTaxi(600, rng)).ok());
  const std::string path =
      ::testing::TempDir() + "serve_test_pool_independence.bin";
  ASSERT_TRUE(pipeline.Save(path).ok());
  auto service = ValidationService::FromCheckpoint(path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const Table batch = datasets::GenerateNyTaxi(256, rng);

  // An unrelated pool task that stays blocked until released.
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  bool done = false;
  GlobalThreadPool().Submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started; });
  }

  auto pending = std::async(std::launch::async,
                            [&] { return (*service)->TryValidate(batch); });
  const bool finished = pending.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  // Release before asserting, so a failure reports instead of hanging.
  {
    std::unique_lock<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_TRUE(finished) << "TryValidate waited on an unrelated pool task";
  EXPECT_TRUE(pending.get().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dquag
