#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "util/stopwatch.h"

namespace dquag {

namespace {

/// Maps a daemon error response onto a Status whose code callers can
/// branch on (overload -> ResourceExhausted, unknown tenant -> NotFound,
/// unloadable checkpoint -> Unavailable).
Status StatusForResponse(const WireResponse& response) {
  const std::string message = std::string(WireCodeName(response.code)) +
                              ": " + response.message;
  switch (response.code) {
    case WireCode::kOk:
      return Status::Ok();
    case WireCode::kBadRequest:
      return Status::InvalidArgument(message);
    case WireCode::kUnknownTenant:
      return Status::NotFound(message);
    case WireCode::kOverloaded:
      return Status::ResourceExhausted(message);
    case WireCode::kLoadFailed:
      return Status::Unavailable(message);
    case WireCode::kShuttingDown:
      return Status::Unavailable(message);
    case WireCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case WireCode::kInternal:
      break;
  }
  return Status::Internal(message);
}

/// Response codes worth a retry: the failure is transient on the server
/// side. Deadline expiry is NOT here — the budget is end-to-end, so an
/// expired request stays expired.
bool RetryableCode(WireCode code) {
  return code == WireCode::kOverloaded || code == WireCode::kLoadFailed;
}

/// Transport statuses worth a retry on a fresh connection.
bool RetryableTransport(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:       // peer closed / connect refused
    case StatusCode::kIoError:           // torn frame, connection reset
    case StatusCode::kDeadlineExceeded:  // per-op socket timeout
      return true;
    default:
      return false;
  }
}

/// connect() with a poll()-bounded budget. A blocking connect to a
/// black-holed address sits in SYN retry for minutes; this caps it.
StatusOr<int> ConnectFd(const std::string& host, int port,
                        const ClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address '" + host + "'");
  }

  const std::string endpoint = host + ":" + std::to_string(port);
  const bool bounded = options.connect_timeout_ms > 0;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (bounded) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (!bounded || errno != EINPROGRESS) {
      const Status status = Status::Unavailable(
          "connect to " + endpoint + " failed: " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    pollfd pending{fd, POLLOUT, 0};
    const int ready = ::poll(&pending, 1,
                             static_cast<int>(options.connect_timeout_ms));
    if (ready == 0) {
      ::close(fd);
      return Status::DeadlineExceeded("connect to " + endpoint +
                                      " timed out after " +
                                      std::to_string(
                                          options.connect_timeout_ms) +
                                      " ms");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (ready < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      const Status status = Status::Unavailable(
          "connect to " + endpoint +
          " failed: " + std::strerror(so_error != 0 ? so_error : errno));
      ::close(fd);
      return status;
    }
  }
  if (bounded) ::fcntl(fd, F_SETFL, flags);  // back to blocking I/O

  const int enable = 1;  // request/response protocol: don't batch writes
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  if (options.io_timeout_ms > 0) {
    const Status status = SetSocketTimeouts(fd, options.io_timeout_ms);
    if (!status.ok()) {
      ::close(fd);
      return status;
    }
  }
  return fd;
}

}  // namespace

ServeClient::ServeClient(int fd, std::string host, int port,
                         ClientOptions options)
    : fd_(fd),
      host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      backoff_rng_(options_.retry.jitter_seed) {}

StatusOr<ServeClient> ServeClient::Connect(const std::string& host,
                                           int port, ClientOptions options) {
  DQUAG_ASSIGN_OR_RETURN(const int fd, ConnectFd(host, port, options));
  return ServeClient(fd, host, port, std::move(options));
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      options_(std::move(other.options_)),
      next_request_id_(other.next_request_id_),
      backoff_rng_(other.backoff_rng_),
      stats_(other.stats_) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = std::move(other.options_);
    next_request_id_ = other.next_request_id_;
    backoff_rng_ = other.backoff_rng_;
    stats_ = other.stats_;
    other.fd_ = -1;
  }
  return *this;
}

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ServeClient::Reconnect() {
  Close();
  auto fd = ConnectFd(host_, port_, options_);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  stats_.reconnects += 1;
  return Status::Ok();
}

StatusOr<WireResponse> ServeClient::Call(const WireRequest& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  stats_.attempts += 1;
  WireRequest stamped = request;
  if (stamped.request_id == 0) stamped.request_id = next_request_id_++;
  if (stamped.deadline_ms == 0 && options_.deadline_ms > 0) {
    stamped.deadline_ms = static_cast<uint64_t>(options_.deadline_ms);
  }
  DQUAG_RETURN_IF_ERROR(WriteFrame(fd_, EncodeRequest(stamped)));
  DQUAG_ASSIGN_OR_RETURN(std::string payload, ReadFrame(fd_));
  return DecodeResponse(payload);
}

StatusOr<WireResponse> ServeClient::CallIdempotent(
    const WireRequest& request) {
  const RetryPolicy& policy = options_.retry;
  Stopwatch overall;  // spans every attempt and backoff sleep
  Status last_failure = Status::Ok();

  for (int attempt = 0;; ++attempt) {
    // Remaining end-to-end budget; stamped into the request so the server
    // can drop the work once the client has moved on.
    WireRequest stamped = request;
    stamped.request_id = next_request_id_++;
    if (options_.deadline_ms > 0) {
      const double remaining =
          static_cast<double>(options_.deadline_ms) - overall.ElapsedMillis();
      if (remaining <= 0.0) {
        stats_.giveups += 1;
        return Status::DeadlineExceeded(
            "call deadline of " + std::to_string(options_.deadline_ms) +
            " ms exhausted after " + std::to_string(attempt) + " attempts" +
            (last_failure.ok() ? "" : "; last: " + last_failure.ToString()));
      }
      stamped.deadline_ms = static_cast<uint64_t>(remaining);
    }

    // A dead connection (previous transport error, moved-from client) is
    // re-established rather than failed: the retry loop owns transport.
    Status failure = fd_ < 0 ? Reconnect() : Status::Ok();
    if (failure.ok()) {
      auto response = Call(stamped);
      if (response.ok()) {
        if (!RetryableCode(response->code)) return response;
        failure = StatusForResponse(*response);
      } else {
        failure = response.status();
        // After a transport error mid-call the stream state is undefined
        // (a late response would desynchronize request ids): drop it.
        Close();
      }
    }

    last_failure = failure;
    if (!RetryableTransport(failure) || attempt >= policy.max_retries) {
      if (attempt > 0) stats_.giveups += 1;
      return failure;
    }

    // Exponential backoff with jitter in [0.5, 1.0) of the step, capped
    // by the remaining deadline.
    int64_t step = policy.initial_backoff_ms;
    for (int i = 0; i < attempt && step < policy.max_backoff_ms; ++i) {
      step *= 2;
    }
    step = std::min(step, policy.max_backoff_ms);
    int64_t sleep_ms = std::max<int64_t>(
        0, static_cast<int64_t>(static_cast<double>(step) *
                                (0.5 + 0.5 * backoff_rng_.Uniform())));
    if (options_.deadline_ms > 0) {
      const double remaining =
          static_cast<double>(options_.deadline_ms) - overall.ElapsedMillis();
      sleep_ms = std::min(sleep_ms, static_cast<int64_t>(
                                        std::max(0.0, remaining)));
    }
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      stats_.backoff_ms += sleep_ms;
    }
    stats_.retries += 1;
  }
}

Status ServeClient::Ping() {
  WireRequest request;
  request.verb = WireVerb::kPing;
  DQUAG_ASSIGN_OR_RETURN(WireResponse response, CallIdempotent(request));
  return StatusForResponse(response);
}

StatusOr<WireVerdict> ServeClient::Validate(const std::string& tenant,
                                            const std::string& csv_text) {
  WireRequest request;
  request.verb = WireVerb::kValidate;
  request.tenant = tenant;
  request.body = csv_text;
  DQUAG_ASSIGN_OR_RETURN(WireResponse response, CallIdempotent(request));
  DQUAG_RETURN_IF_ERROR(StatusForResponse(response));
  return DecodeVerdict(response.body);
}

StatusOr<WireRepair> ServeClient::Repair(const std::string& tenant,
                                         const std::string& csv_text) {
  WireRequest request;
  request.verb = WireVerb::kRepair;
  request.tenant = tenant;
  request.body = csv_text;
  DQUAG_ASSIGN_OR_RETURN(WireResponse response, Call(request));
  DQUAG_RETURN_IF_ERROR(StatusForResponse(response));
  return DecodeRepair(response.body);
}

Status ServeClient::Deploy(const std::string& tenant,
                           const std::string& checkpoint_path) {
  WireRequest request;
  request.verb = WireVerb::kDeploy;
  request.tenant = tenant;
  request.body = checkpoint_path;
  DQUAG_ASSIGN_OR_RETURN(WireResponse response, Call(request));
  return StatusForResponse(response);
}

StatusOr<std::vector<TenantStatsSnapshot>> ServeClient::Stats(
    const std::string& tenant) {
  WireRequest request;
  request.verb = WireVerb::kStats;
  request.tenant = tenant;
  DQUAG_ASSIGN_OR_RETURN(WireResponse response, CallIdempotent(request));
  DQUAG_RETURN_IF_ERROR(StatusForResponse(response));
  return DecodeStats(response.body);
}

Status ServeClient::Shutdown() {
  WireRequest request;
  request.verb = WireVerb::kShutdown;
  DQUAG_ASSIGN_OR_RETURN(WireResponse response, Call(request));
  return StatusForResponse(response);
}

}  // namespace dquag
