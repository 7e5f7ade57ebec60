// Blocking client for the `dquag serve` daemon.
//
// One ServeClient wraps one persistent TCP connection and issues one
// request at a time (connections are cheap; open one per client thread).
// Verb helpers translate error responses into Status with matching codes —
// an overloaded daemon surfaces as ResourceExhausted, an unknown tenant as
// NotFound, a torn or missing checkpoint as Unavailable — so callers
// branch on codes, not string matching.
//
// Robustness knobs (ClientOptions):
//   * connect_timeout_ms — connect() runs non-blocking under poll(), so a
//     black-holed address fails with DeadlineExceeded instead of hanging
//     the caller for the kernel's SYN-retry eternity.
//   * io_timeout_ms — SO_RCVTIMEO/SO_SNDTIMEO per operation; a stalled
//     daemon surfaces as DeadlineExceeded mid-call.
//   * deadline_ms — end-to-end budget for one logical call INCLUDING
//     retries; the remaining budget is stamped into each wire request so
//     the server can drop work the client has already abandoned.
//   * retry — exponential backoff with deterministic jitter, applied ONLY
//     to idempotent verbs (ping/validate/stats). Deploy, repair and
//     shutdown are never retried: a duplicate deploy could double-swap a
//     model, and the caller must decide that, not the transport.
//
// Retry accounting is exposed via retry_stats() for tests and the CLI.
// Used by the CLI (deploy/stats/shutdown), the integration tests, the
// chaos suite, bench_drift_recovery and perfbench's serve workload.

#ifndef DQUAG_SERVE_CLIENT_H_
#define DQUAG_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.h"
#include "util/rng.h"

namespace dquag {

/// Exponential backoff schedule for retryable failures.
struct RetryPolicy {
  /// Re-attempts after the first try; 0 disables retry entirely.
  int max_retries = 0;
  int64_t initial_backoff_ms = 50;
  int64_t max_backoff_ms = 2000;
  /// Seed for backoff jitter; fixed default keeps test schedules
  /// reproducible.
  uint64_t jitter_seed = 0x7265747279ULL;  // "retry"
};

struct ClientOptions {
  /// Budget for establishing the TCP connection; <= 0 blocks forever.
  int64_t connect_timeout_ms = 5000;
  /// Per-operation socket timeout (send/recv); <= 0 blocks forever.
  int64_t io_timeout_ms = 0;
  /// End-to-end budget per logical call, spanning retries and backoff;
  /// 0 = none. Stamped (minus time already spent) into each request.
  int64_t deadline_ms = 0;
  RetryPolicy retry;
};

/// Counters over the client's lifetime, for tests and `--retries` UX.
struct RetryStats {
  int64_t attempts = 0;    // wire round-trips attempted
  int64_t retries = 0;     // attempts beyond the first per logical call
  int64_t reconnects = 0;  // connections re-established after a failure
  int64_t giveups = 0;     // logical calls that exhausted retry/deadline
  int64_t backoff_ms = 0;  // total milliseconds slept in backoff
};

class ServeClient {
 public:
  /// Connects to a running daemon ("127.0.0.1", daemon.port()).
  static StatusOr<ServeClient> Connect(const std::string& host, int port,
                                       ClientOptions options = {});

  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  /// Round-trips one raw request, no retry; transport errors only — a
  /// non-kOk response code is still an ok() Call.
  StatusOr<WireResponse> Call(const WireRequest& request);

  Status Ping();

  /// Validates CSV text (header + rows, tenant's schema) remotely.
  StatusOr<WireVerdict> Validate(const std::string& tenant,
                                 const std::string& csv_text);

  /// Validates + repairs; returns the repaired CSV and repair totals.
  /// Never retried (the repaired output is consumed by the caller; a
  /// duplicate attempt after an ambiguous failure is the caller's call).
  StatusOr<WireRepair> Repair(const std::string& tenant,
                              const std::string& csv_text);

  /// Deploys (or hot-swaps) `checkpoint_path` under `tenant`. Never
  /// retried.
  Status Deploy(const std::string& tenant,
                const std::string& checkpoint_path);

  /// Per-tenant serving stats; `tenant` empty = all tenants.
  StatusOr<std::vector<TenantStatsSnapshot>> Stats(
      const std::string& tenant = "");

  /// Asks the daemon to exit its serve loop. Never retried.
  Status Shutdown();

  const RetryStats& retry_stats() const { return stats_; }
  const ClientOptions& options() const { return options_; }

 private:
  ServeClient(int fd, std::string host, int port, ClientOptions options);
  void Close();

  /// Re-establishes the connection after a transport failure.
  Status Reconnect();

  /// Retry loop for idempotent verbs: transport errors reconnect, and
  /// retryable response codes (overloaded, load-failed) back off
  /// exponentially with jitter, all capped by deadline_ms.
  StatusOr<WireResponse> CallIdempotent(const WireRequest& request);

  int fd_ = -1;
  std::string host_;
  int port_ = 0;
  ClientOptions options_;
  uint64_t next_request_id_ = 1;
  Rng backoff_rng_;
  RetryStats stats_;
};

}  // namespace dquag

#endif  // DQUAG_SERVE_CLIENT_H_
