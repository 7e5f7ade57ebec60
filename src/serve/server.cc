#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "data/table.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dquag {

namespace {

/// Boundary translation: internal Status codes -> wire response codes.
WireCode CodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return WireCode::kBadRequest;
    case StatusCode::kNotFound:
      return WireCode::kUnknownTenant;
    case StatusCode::kResourceExhausted:
      return WireCode::kOverloaded;
    case StatusCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    case StatusCode::kUnavailable:
      return WireCode::kLoadFailed;
    default:
      return WireCode::kInternal;
  }
}

/// True once a deadline-carrying request has spent its budget.
bool DeadlineExpired(const WireRequest& request, const Stopwatch& arrival) {
  return request.deadline_ms > 0 &&
         arrival.ElapsedMillis() >= static_cast<double>(request.deadline_ms);
}

WireResponse ErrorResponse(uint64_t request_id, WireCode code,
                           std::string message) {
  WireResponse response;
  response.request_id = request_id;
  response.code = code;
  response.message = std::move(message);
  return response;
}

/// Converts a verdict for the wire: flagged instances travel in full
/// (index, exact error bits, suspect columns); unflagged rows only
/// contribute to the aggregate fields.
WireVerdict ToWireVerdict(const BatchVerdict& verdict, int64_t total_rows) {
  WireVerdict wire;
  wire.total_rows = total_rows;
  wire.flagged_fraction = verdict.flagged_fraction;
  wire.threshold = verdict.threshold;
  wire.is_dirty = verdict.is_dirty;
  wire.flagged.reserve(verdict.flagged_rows.size());
  for (size_t row : verdict.flagged_rows) {
    WireFlaggedRow flagged;
    flagged.row = static_cast<uint64_t>(row);
    flagged.error = verdict.instances[row].error;
    flagged.suspect_features = verdict.instances[row].suspect_features;
    wire.flagged.push_back(std::move(flagged));
  }
  return wire;
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options)
    : options_(std::move(options)), registry_(options_.registry) {}

ServeDaemon::~ServeDaemon() { Stop(); }

Status ServeDaemon::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("daemon already running");
  }
  // Bad retrain knobs must fail here, not abort the process when the first
  // request builds a tenant's controller.
  if (options_.auto_retrain) {
    DQUAG_RETURN_IF_ERROR(ValidateRetrainOptions(options_.retrain));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.listen_host.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address '" +
                                   options_.listen_host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::IoError(
        "bind to " + options_.listen_host + ":" +
        std::to_string(options_.port) + " failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status status =
        Status::IoError(std::string("listen failed: ") +
                        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  if (options_.auto_retrain) {
    retrain_stop_.store(false, std::memory_order_release);
    retrain_thread_ = std::thread([this] { RetrainWorker(); });
  }
  return Status::Ok();
}

void ServeDaemon::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(); the acceptor thread sees stopping_ and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    // Unblock every connection's recv(); in-flight requests still write
    // their responses before the handler loop observes the shutdown.
    for (auto& connection : connections_) {
      ::shutdown(connection->fd, SHUT_RD);
    }
    for (auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
      ::close(connection->fd);
    }
    connections_.clear();
  }
  if (retrain_thread_.joinable()) {
    // After the connection joins, so no request thread can enqueue again.
    // An in-flight retrain finishes (its swap is harmless post-shutdown);
    // queued tenants are simply dropped.
    {
      std::lock_guard<std::mutex> lock(retrain_mutex_);
      retrain_stop_.store(true, std::memory_order_release);
    }
    retrain_cv_.notify_all();
    retrain_thread_.join();
  }
  {
    // Set under the mutex so a concurrent WaitForShutdown cannot check the
    // flag, miss it, and then block past the notify.
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_.store(true, std::memory_order_release);
  }
  shutdown_cv_.notify_all();
}

void ServeDaemon::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_.load(std::memory_order_acquire);
  });
}

void ServeDaemon::ReapFinishedLocked() {
  for (size_t i = 0; i < connections_.size();) {
    if (connections_[i]->done.load(std::memory_order_acquire)) {
      if (connections_[i]->thread.joinable()) connections_[i]->thread.join();
      ::close(connections_[i]->fd);
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
    } else {
      ++i;
    }
  }
}

void ServeDaemon::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener broken; Stop() handles cleanup
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    ReapFinishedLocked();
    if (static_cast<int64_t>(connections_.size()) >=
        options_.max_connections) {
      // Graceful connection-level overload: one explicit frame, then close.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      (void)WriteFrame(fd, EncodeResponse(ErrorResponse(
                               0, WireCode::kOverloaded,
                               "connection limit reached; retry later")));
      ::close(fd);
      continue;
    }
    if (options_.io_timeout_ms > 0) {
      (void)SetSocketTimeouts(fd, options_.io_timeout_ms);
    }
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] { HandleConnection(raw); });
    connections_.push_back(std::move(connection));
  }
}

void ServeDaemon::HandleConnection(Connection* connection) {
  const int fd = connection->fd;
  for (;;) {
    auto payload = ReadFrame(fd);
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kInvalidArgument) {
        // Unframeable garbage: the byte stream cannot be resynced, so
        // answer once (best effort) and hang up — without aborting.
        (void)WriteFrame(fd, EncodeResponse(ErrorResponse(
                                 0, WireCode::kBadRequest,
                                 payload.status().message())));
      }
      break;  // clean EOF (Unavailable) or torn frame (IoError)
    }
    // The request's deadline budget starts when its frame finished
    // arriving; everything downstream (decode, dispatch delay, admission,
    // model work) spends it.
    Stopwatch arrival;
    WireResponse response;
    auto request = DecodeRequest(*payload);
    if (!request.ok()) {
      // Framing was intact, the payload was not: the connection survives.
      response = ErrorResponse(0, WireCode::kBadRequest,
                               request.status().message());
    } else if (stopping_.load(std::memory_order_acquire)) {
      response = ErrorResponse(request->request_id, WireCode::kShuttingDown,
                               "daemon is shutting down");
    } else {
      response = HandleRequest(*request, arrival);
    }
    if (!WriteFrame(fd, EncodeResponse(response)).ok()) break;
  }
  // The descriptor itself is closed by ReapFinishedLocked / Stop (after the
  // join, so the fd number cannot be reused under a live handler), but the
  // CONNECTION must die now: a peer that stalled past io_timeout_ms would
  // otherwise sit in recv() against a half-dead socket until the next
  // accept happens to reap it.
  ::shutdown(fd, SHUT_RDWR);
  connection->done.store(true, std::memory_order_release);
}

WireResponse ServeDaemon::HandleRequest(const WireRequest& request,
                                        const Stopwatch& arrival) {
  // Chaos hook: a delay here simulates dispatch queueing, which is what
  // makes the deadline check below testable without a slow model.
  DQUAG_FAILPOINT_HIT(failpoint::kServeDispatch);
  // An expired request is answered without spending an admission ticket
  // or any model work — the client has already given up on it.
  if (DeadlineExpired(request, arrival)) {
    return ErrorResponse(
        request.request_id, WireCode::kDeadlineExceeded,
        "deadline of " + std::to_string(request.deadline_ms) +
            " ms expired before dispatch");
  }
  switch (request.verb) {
    case WireVerb::kPing: {
      WireResponse response;
      response.request_id = request.request_id;
      response.message = "pong";
      return response;
    }
    case WireVerb::kValidate:
      return HandleValidate(request, /*repair=*/false);
    case WireVerb::kRepair:
      return HandleValidate(request, /*repair=*/true);
    case WireVerb::kDeploy:
      return HandleDeploy(request);
    case WireVerb::kStats:
      return HandleStats(request);
    case WireVerb::kShutdown: {
      {
        std::lock_guard<std::mutex> lock(shutdown_mutex_);
        shutdown_requested_.store(true, std::memory_order_release);
      }
      shutdown_cv_.notify_all();
      WireResponse response;
      response.request_id = request.request_id;
      response.message = "shutting down";
      return response;
    }
  }
  return ErrorResponse(request.request_id, WireCode::kBadRequest,
                       "unhandled verb");
}

WireResponse ServeDaemon::HandleValidate(const WireRequest& request,
                                         bool repair) {
  // Admission first: a tenant at its in-flight budget is rejected before
  // any parsing or model work is spent on the request.
  auto ticket = registry_.Admit(request.tenant);
  if (!ticket.ok()) {
    const WireCode code = CodeForStatus(ticket.status());
    if (code == WireCode::kOverloaded) {
      if (auto counters = registry_.counters(request.tenant);
          counters.ok()) {
        (*counters)->RecordRejected();
      }
    }
    return ErrorResponse(request.request_id, code,
                         ticket.status().message());
  }
  TenantCounters* counters = nullptr;
  if (auto counters_or = registry_.counters(request.tenant);
      counters_or.ok()) {
    counters = *counters_or;
  }

  Stopwatch timer;
  auto service = registry_.Acquire(request.tenant);
  if (!service.ok()) {
    if (counters != nullptr) counters->RecordFailed();
    const WireCode code =
        service.status().code() == StatusCode::kNotFound
            ? WireCode::kUnknownTenant
            : WireCode::kLoadFailed;
    return ErrorResponse(request.request_id, code,
                         service.status().message());
  }

  auto csv = ParseCsv(request.body);
  if (!csv.ok()) {
    if (counters != nullptr) counters->RecordFailed();
    return ErrorResponse(request.request_id, WireCode::kBadRequest,
                         csv.status().message());
  }
  auto table = Table::FromCsv((*service)->pipeline().preprocessor().schema(),
                              *csv);
  if (!table.ok()) {
    if (counters != nullptr) counters->RecordFailed();
    return ErrorResponse(request.request_id, WireCode::kBadRequest,
                         table.status().message());
  }

  WireResponse response;
  response.request_id = request.request_id;
  int64_t flagged_rows = 0;
  bool dirty = false;
  if (repair) {
    auto result = (*service)->TryValidateAndRepair(*table);
    if (!result.ok()) {
      if (counters != nullptr) counters->RecordFailed();
      return ErrorResponse(request.request_id,
                           CodeForStatus(result.status()),
                           result.status().message());
    }
    WireRepair wire;
    wire.repaired_csv = WriteCsvString(result->repaired.ToCsv());
    wire.cells_repaired = result->cells_repaired;
    wire.instances_repaired = result->instances_repaired;
    flagged_rows = result->instances_repaired;
    dirty = result->is_dirty;
    response.body = EncodeRepair(wire);
  } else {
    auto verdict = (*service)->TryValidate(*table);
    if (!verdict.ok()) {
      if (counters != nullptr) counters->RecordFailed();
      return ErrorResponse(request.request_id,
                           CodeForStatus(verdict.status()),
                           verdict.status().message());
    }
    flagged_rows = static_cast<int64_t>(verdict->flagged_rows.size());
    dirty = verdict->is_dirty;
    ObserveForRetrain(request.tenant, **service, *table, *verdict);
    response.body = EncodeVerdict(ToWireVerdict(*verdict,
                                                table->num_rows()));
  }
  if (counters != nullptr) {
    counters->RecordRequest(
        table->num_rows(), flagged_rows, dirty,
        static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6));
  }
  return response;
}

WireResponse ServeDaemon::HandleDeploy(const WireRequest& request) {
  // Body: the checkpoint path alone. Deploy takes no options, so a body
  // with a second line is refused rather than half-read.
  if (request.body.empty() ||
      request.body.find('\n') != std::string::npos) {
    return ErrorResponse(request.request_id, WireCode::kBadRequest,
                         "deploy body must be a checkpoint path alone");
  }
  const Status status = registry_.Deploy(request.tenant, request.body);
  if (!status.ok()) {
    const WireCode code = status.code() == StatusCode::kInvalidArgument
                              ? WireCode::kBadRequest
                              : WireCode::kLoadFailed;
    return ErrorResponse(request.request_id, code, status.message());
  }
  WireResponse response;
  response.request_id = request.request_id;
  response.message = "deployed " + request.tenant;
  return response;
}

WireResponse ServeDaemon::HandleStats(const WireRequest& request) {
  std::vector<TenantStatsSnapshot> stats = registry_.StatsSnapshot();
  if (!request.tenant.empty()) {
    std::vector<TenantStatsSnapshot> filtered;
    for (auto& snapshot : stats) {
      if (snapshot.tenant == request.tenant) {
        filtered.push_back(std::move(snapshot));
      }
    }
    if (filtered.empty()) {
      return ErrorResponse(request.request_id, WireCode::kUnknownTenant,
                           "no tenant '" + request.tenant + "'");
    }
    stats = std::move(filtered);
  }
  WireResponse response;
  response.request_id = request.request_id;
  response.body = EncodeStats(stats);
  return response;
}

void ServeDaemon::ObserveForRetrain(const std::string& tenant,
                                    const ValidationService& service,
                                    const Table& batch,
                                    const BatchVerdict& verdict) {
  if (!options_.auto_retrain) return;
  const MonitorObservation observation = service.ObserveVerdict(verdict);
  RetrainController* controller = ControllerFor(tenant);
  if (controller == nullptr) return;
  controller->ObserveBatch(batch, verdict, observation);
  if (!controller->ShouldRetrain()) return;
  std::lock_guard<std::mutex> lock(retrain_mutex_);
  for (const std::string& queued : retrain_queue_) {
    if (queued == tenant) return;  // one pending retrain per tenant
  }
  retrain_queue_.push_back(tenant);
  retrain_cv_.notify_one();
}

RetrainController* ServeDaemon::ControllerFor(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(retrain_mutex_);
  auto it = controllers_.find(tenant);
  if (it != controllers_.end()) return it->second.get();
  auto path = registry_.DeployedPath(tenant);
  if (!path.ok()) return nullptr;
  auto controller = std::make_unique<RetrainController>(
      *path, options_.retrain,
      // The zero-drop swap: re-deploy through the registry. A failed load
      // inside Deploy leaves the old model serving.
      [this, tenant](const std::string& new_path) {
        return registry_.Deploy(tenant, new_path);
      });
  RetrainController* raw = controller.get();
  controllers_[tenant] = std::move(controller);
  return raw;
}

void ServeDaemon::RetrainWorker() {
  for (;;) {
    RetrainController* controller = nullptr;
    std::string tenant;
    {
      std::unique_lock<std::mutex> lock(retrain_mutex_);
      retrain_cv_.wait(lock, [this] {
        return retrain_stop_.load(std::memory_order_acquire) ||
               !retrain_queue_.empty();
      });
      if (retrain_stop_.load(std::memory_order_acquire)) return;
      tenant = std::move(retrain_queue_.front());
      retrain_queue_.pop_front();
      auto it = controllers_.find(tenant);
      if (it == controllers_.end()) continue;
      controller = it->second.get();  // never erased; stays valid unlocked
    }
    // Re-check under current state: drift may have cleared (or a swap
    // landed) between enqueue and dequeue.
    if (!controller->ShouldRetrain()) continue;
    const auto result = controller->RetrainAndSwap();
    if (auto counters = registry_.counters(tenant); counters.ok()) {
      (*counters)->RecordRetrain(result.ok());
    }
  }
}

StatusOr<RetrainController::Snapshot> ServeDaemon::RetrainSnapshot(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(retrain_mutex_);
  auto it = controllers_.find(tenant);
  if (it == controllers_.end()) {
    return Status::NotFound("no retrain controller for tenant '" + tenant +
                            "'");
  }
  return it->second->snapshot();
}

}  // namespace dquag
