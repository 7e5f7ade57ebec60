#include "serve/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <cerrno>
#include <cstring>

#include "util/binary_io.h"
#include "util/failpoint.h"

namespace dquag {

namespace {

/// Every decoder ends with this: leftover bytes mean a framing bug or a
/// hostile payload, and silently ignoring them would mask both.
Status RequireAtEnd(const BinaryReader& reader, const char* what) {
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": trailing bytes after payload");
  }
  return Status::Ok();
}

Status CheckVersion(uint64_t version) {
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  return Status::Ok();
}

}  // namespace

const char* WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "ok";
    case WireCode::kBadRequest: return "bad-request";
    case WireCode::kUnknownTenant: return "unknown-tenant";
    case WireCode::kOverloaded: return "overloaded";
    case WireCode::kLoadFailed: return "load-failed";
    case WireCode::kInternal: return "internal";
    case WireCode::kShuttingDown: return "shutting-down";
    case WireCode::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "unknown";
}

std::string EncodeRequest(const WireRequest& request) {
  BinaryWriter w;
  w.WriteU64(kWireVersion);
  w.WriteU64(static_cast<uint64_t>(request.verb));
  w.WriteU64(request.request_id);
  w.WriteU64(request.deadline_ms);
  w.WriteString(request.tenant);
  w.WriteString(request.body);
  return w.buffer();
}

StatusOr<WireRequest> DecodeRequest(const std::string& payload) {
  BinaryReader r(payload);
  DQUAG_ASSIGN_OR_RETURN(uint64_t version, r.ReadU64());
  DQUAG_RETURN_IF_ERROR(CheckVersion(version));
  DQUAG_ASSIGN_OR_RETURN(uint64_t verb, r.ReadU64());
  if (verb > static_cast<uint64_t>(WireVerb::kShutdown)) {
    return Status::InvalidArgument("unknown verb " + std::to_string(verb));
  }
  WireRequest request;
  request.verb = static_cast<WireVerb>(verb);
  DQUAG_ASSIGN_OR_RETURN(request.request_id, r.ReadU64());
  DQUAG_ASSIGN_OR_RETURN(request.deadline_ms, r.ReadU64());
  DQUAG_ASSIGN_OR_RETURN(request.tenant, r.ReadString());
  DQUAG_ASSIGN_OR_RETURN(request.body, r.ReadString());
  DQUAG_RETURN_IF_ERROR(RequireAtEnd(r, "request"));
  return request;
}

std::string EncodeResponse(const WireResponse& response) {
  BinaryWriter w;
  w.WriteU64(kWireVersion);
  w.WriteU64(response.request_id);
  w.WriteU64(static_cast<uint64_t>(response.code));
  w.WriteString(response.message);
  w.WriteString(response.body);
  return w.buffer();
}

StatusOr<WireResponse> DecodeResponse(const std::string& payload) {
  BinaryReader r(payload);
  DQUAG_ASSIGN_OR_RETURN(uint64_t version, r.ReadU64());
  DQUAG_RETURN_IF_ERROR(CheckVersion(version));
  WireResponse response;
  DQUAG_ASSIGN_OR_RETURN(response.request_id, r.ReadU64());
  DQUAG_ASSIGN_OR_RETURN(uint64_t code, r.ReadU64());
  if (code > static_cast<uint64_t>(WireCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("unknown response code " +
                                   std::to_string(code));
  }
  response.code = static_cast<WireCode>(code);
  DQUAG_ASSIGN_OR_RETURN(response.message, r.ReadString());
  DQUAG_ASSIGN_OR_RETURN(response.body, r.ReadString());
  DQUAG_RETURN_IF_ERROR(RequireAtEnd(r, "response"));
  return response;
}

std::string EncodeVerdict(const WireVerdict& verdict) {
  BinaryWriter w;
  w.WriteI64(verdict.total_rows);
  w.WriteDouble(verdict.flagged_fraction);
  w.WriteDouble(verdict.threshold);
  w.WriteI64(verdict.is_dirty ? 1 : 0);
  w.WriteU64(verdict.flagged.size());
  for (const WireFlaggedRow& row : verdict.flagged) {
    w.WriteU64(row.row);
    w.WriteDouble(row.error);
    w.WriteU64(row.suspect_features.size());
    for (int64_t c : row.suspect_features) w.WriteI64(c);
  }
  return w.buffer();
}

StatusOr<WireVerdict> DecodeVerdict(const std::string& body) {
  BinaryReader r(body);
  WireVerdict verdict;
  DQUAG_ASSIGN_OR_RETURN(verdict.total_rows, r.ReadI64());
  DQUAG_ASSIGN_OR_RETURN(verdict.flagged_fraction, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(verdict.threshold, r.ReadDouble());
  DQUAG_ASSIGN_OR_RETURN(int64_t dirty, r.ReadI64());
  verdict.is_dirty = dirty != 0;
  DQUAG_ASSIGN_OR_RETURN(uint64_t n_flagged, r.ReadU64());
  // 17 bytes minimum per entry; bounds the reserve against hostile counts.
  if (n_flagged > r.remaining() / 17 + 1) {
    return Status::InvalidArgument("flagged count exceeds payload size");
  }
  verdict.flagged.reserve(n_flagged);
  for (uint64_t i = 0; i < n_flagged; ++i) {
    WireFlaggedRow row;
    DQUAG_ASSIGN_OR_RETURN(row.row, r.ReadU64());
    DQUAG_ASSIGN_OR_RETURN(row.error, r.ReadDouble());
    DQUAG_ASSIGN_OR_RETURN(uint64_t n_suspects, r.ReadU64());
    if (n_suspects > r.remaining() / 8) {
      return Status::InvalidArgument("suspect count exceeds payload size");
    }
    row.suspect_features.reserve(n_suspects);
    for (uint64_t s = 0; s < n_suspects; ++s) {
      DQUAG_ASSIGN_OR_RETURN(int64_t feature, r.ReadI64());
      row.suspect_features.push_back(feature);
    }
    verdict.flagged.push_back(std::move(row));
  }
  DQUAG_RETURN_IF_ERROR(RequireAtEnd(r, "verdict"));
  return verdict;
}

std::string EncodeRepair(const WireRepair& repair) {
  BinaryWriter w;
  w.WriteString(repair.repaired_csv);
  w.WriteI64(repair.cells_repaired);
  w.WriteI64(repair.instances_repaired);
  return w.buffer();
}

StatusOr<WireRepair> DecodeRepair(const std::string& body) {
  BinaryReader r(body);
  WireRepair repair;
  DQUAG_ASSIGN_OR_RETURN(repair.repaired_csv, r.ReadString());
  DQUAG_ASSIGN_OR_RETURN(repair.cells_repaired, r.ReadI64());
  DQUAG_ASSIGN_OR_RETURN(repair.instances_repaired, r.ReadI64());
  DQUAG_RETURN_IF_ERROR(RequireAtEnd(r, "repair"));
  return repair;
}

std::string EncodeStats(const std::vector<TenantStatsSnapshot>& stats) {
  BinaryWriter w;
  w.WriteU64(stats.size());
  for (const TenantStatsSnapshot& s : stats) {
    w.WriteString(s.tenant);
    w.WriteI64(s.resident ? 1 : 0);
    w.WriteI64(s.requests_ok);
    w.WriteI64(s.requests_rejected);
    w.WriteI64(s.requests_failed);
    w.WriteI64(s.rows_validated);
    w.WriteI64(s.rows_flagged);
    w.WriteI64(s.dirty_batches);
    w.WriteI64(s.loads);
    w.WriteI64(s.evictions);
    w.WriteI64(s.swaps);
    w.WriteI64(s.latency.count);
    w.WriteI64(s.latency.p50_us);
    w.WriteI64(s.latency.p99_us);
    w.WriteI64(s.latency.p999_us);
    w.WriteI64(s.latency.max_us);
  }
  // v3 trailer: the continuous-pipeline fields, one record per entry in
  // the same order, behind a tag so a stray payload never decodes as one.
  w.WriteU64(kStatsExtensionMagic);
  for (const TenantStatsSnapshot& s : stats) {
    w.WriteI64(s.retrains);
    w.WriteI64(s.retrain_failures);
    w.WriteI64(s.monitor_rows);
    w.WriteI64(s.drifting_columns);
    w.WriteI64(s.alarming ? 1 : 0);
  }
  return w.buffer();
}

StatusOr<std::vector<TenantStatsSnapshot>> DecodeStats(
    const std::string& body) {
  BinaryReader r(body);
  DQUAG_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
  if (count > r.remaining() / 128 + 1) {
    return Status::InvalidArgument("stats count exceeds payload size");
  }
  std::vector<TenantStatsSnapshot> stats;
  stats.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TenantStatsSnapshot s;
    DQUAG_ASSIGN_OR_RETURN(s.tenant, r.ReadString());
    DQUAG_ASSIGN_OR_RETURN(int64_t resident, r.ReadI64());
    s.resident = resident != 0;
    DQUAG_ASSIGN_OR_RETURN(s.requests_ok, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.requests_rejected, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.requests_failed, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.rows_validated, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.rows_flagged, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.dirty_batches, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.loads, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.evictions, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.swaps, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.latency.count, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.latency.p50_us, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.latency.p99_us, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.latency.p999_us, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.latency.max_us, r.ReadI64());
    stats.push_back(std::move(s));
  }
  DQUAG_ASSIGN_OR_RETURN(uint64_t magic, r.ReadU64());
  if (magic != kStatsExtensionMagic) {
    return Status::InvalidArgument("stats: bad extension tag");
  }
  for (TenantStatsSnapshot& s : stats) {
    DQUAG_ASSIGN_OR_RETURN(s.retrains, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.retrain_failures, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.monitor_rows, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(s.drifting_columns, r.ReadI64());
    DQUAG_ASSIGN_OR_RETURN(int64_t alarming, r.ReadI64());
    s.alarming = alarming != 0;
  }
  DQUAG_RETURN_IF_ERROR(RequireAtEnd(r, "stats"));
  return stats;
}

namespace {

/// send() with MSG_NOSIGNAL so a peer that vanished mid-write surfaces as
/// EPIPE (an IoError) instead of killing the process with SIGPIPE. With
/// SO_SNDTIMEO armed, a full send buffer times out as DeadlineExceeded.
Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("send timed out");
      }
      return Status::IoError(std::string("send failed: ") +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `size` bytes. `*eof_at_start` reports a clean EOF before
/// the first byte (a peer hanging up between frames, not an error). With
/// SO_RCVTIMEO armed, a stalled peer times out as DeadlineExceeded.
Status ReadExact(int fd, char* out, size_t size, bool* eof_at_start) {
  size_t received = 0;
  if (eof_at_start != nullptr) *eof_at_start = false;
  while (received < size) {
    const ssize_t n = ::recv(fd, out + received, size - received, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("recv timed out");
      }
      return Status::IoError(std::string("recv failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (received == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::Unavailable("connection closed");
      }
      return Status::IoError("connection closed mid-frame");
    }
    received += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status SetSocketTimeouts(int fd, int64_t timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  }
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IoError(std::string("setsockopt timeout failed: ") +
                           std::strerror(errno));
  }
  return Status::Ok();
}

Status WriteFrame(int fd, const std::string& payload) {
  DQUAG_FAILPOINT(failpoint::kWireSend);
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload exceeds 64 MiB cap");
  }
  char header[8];
  const uint32_t magic = kFrameMagic;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &length, 4);
  DQUAG_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  return WriteAll(fd, payload.data(), payload.size());
}

StatusOr<std::string> ReadFrame(int fd) {
  DQUAG_FAILPOINT(failpoint::kWireRecv);
  char header[8];
  bool eof_at_start = false;
  Status status = ReadExact(fd, header, sizeof(header), &eof_at_start);
  if (!status.ok()) return status;
  uint32_t magic = 0;
  uint32_t length = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&length, header + 4, 4);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument("frame length exceeds 64 MiB cap");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    DQUAG_RETURN_IF_ERROR(ReadExact(fd, payload.data(), length, nullptr));
  }
  return payload;
}

}  // namespace dquag
