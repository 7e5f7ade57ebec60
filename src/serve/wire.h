// Wire protocol for `dquag serve`: length-prefixed binary frames over TCP.
//
// Framing (everything little-endian):
//   u32 magic "DQWF" | u32 payload_bytes | payload
// The magic rejects cross-protocol garbage immediately; payload_bytes is
// capped (kMaxFramePayload) so a hostile length cannot make the daemon
// allocate unboundedly. Payloads are encoded with util/binary_io, whose
// readers fail cleanly on truncation, and every Decode* here additionally
// rejects trailing bytes — a malformed client can only ever produce an
// error Status, never an abort (see the server's bad-request path).
//
// One request/response pair per frame, on a persistent connection; each
// payload starts with a u64 version word, which encoders always stamp as
// kWireVersion:
//   request  { version, verb, request_id, deadline_ms, tenant, body }
//   response { version, request_id, code, message, body }
// Version history: v1 had no deadline_ms. v2 added deadline_ms. v3 added
// the continuous-pipeline stats extension (retrains, monitor state) as a
// magic-tagged trailer on the kStats response body. Client and daemon ship
// together, so decoders accept exactly kWireVersion: any other version
// word is InvalidArgument, and every stats body carries the v3 trailer.
// `body` is a verb-specific sub-encoding (validate verdicts, repair
// results, stats snapshots) with its own Encode/Decode pair below. The
// request_id is echoed verbatim so clients can pipeline.

#ifndef DQUAG_SERVE_WIRE_H_
#define DQUAG_SERVE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serving_stats.h"
#include "util/status.h"

namespace dquag {

inline constexpr uint32_t kFrameMagic = 0x46575144;  // "DQWF" (LE)
inline constexpr uint32_t kMaxFramePayload = 64u << 20;
inline constexpr uint64_t kWireVersion = 3;  // emitted and accepted

/// Tags the v3 stats-extension trailer ("DQS3" + pad), which DecodeStats
/// requires after the base entries.
inline constexpr uint64_t kStatsExtensionMagic = 0x3353514400000001ULL;

/// Request verbs understood by the daemon.
enum class WireVerb : uint64_t {
  kPing = 0,
  kValidate = 1,   // body: CSV text (header + rows) in the tenant's schema
  kRepair = 2,     // body: CSV text; response body: repaired CSV + totals
  kDeploy = 3,     // body: checkpoint path on the server's filesystem
  kStats = 4,      // body: empty (all tenants) or a tenant name filter
  kShutdown = 5,   // asks the daemon to exit its serve loop
};

/// Response status codes. Overload and bad input are ordinary responses —
/// the daemon never closes a connection as a way of saying "no".
enum class WireCode : uint64_t {
  kOk = 0,
  kBadRequest = 1,     // undecodable or semantically invalid request
  kUnknownTenant = 2,  // no model deployed under that tenant key
  kOverloaded = 3,     // per-tenant admission queue full; retry later
  kLoadFailed = 4,     // lazy checkpoint load failed
  kInternal = 5,
  kShuttingDown = 6,
  kDeadlineExceeded = 7,  // request deadline expired before model work
};

const char* WireCodeName(WireCode code);

struct WireRequest {
  WireVerb verb = WireVerb::kPing;
  uint64_t request_id = 0;
  /// End-to-end budget in milliseconds, counted by the server from frame
  /// arrival; 0 means no deadline. An expired request is answered
  /// kDeadlineExceeded before any admission ticket or model work is spent.
  uint64_t deadline_ms = 0;
  std::string tenant;
  std::string body;
};

struct WireResponse {
  uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  std::string message;
  std::string body;
};

/// One flagged instance of a remote verdict (global row index within the
/// request batch, exact per-instance error, suspect column indices).
struct WireFlaggedRow {
  uint64_t row = 0;
  double error = 0.0;
  std::vector<int64_t> suspect_features;
};

/// Verb kValidate response body: the batch verdict, bit-exact — doubles
/// cross the wire as raw IEEE bits, so remote and local verdicts compare
/// with operator== in the parity tests.
struct WireVerdict {
  int64_t total_rows = 0;
  double flagged_fraction = 0.0;
  double threshold = 0.0;
  bool is_dirty = false;
  std::vector<WireFlaggedRow> flagged;
};

/// Verb kRepair response body.
struct WireRepair {
  std::string repaired_csv;
  int64_t cells_repaired = 0;
  int64_t instances_repaired = 0;
};

// --- Payload codecs (pure, no I/O). Decoders return InvalidArgument on
// any malformed input, including trailing bytes. ---
std::string EncodeRequest(const WireRequest& request);
StatusOr<WireRequest> DecodeRequest(const std::string& payload);

std::string EncodeResponse(const WireResponse& response);
StatusOr<WireResponse> DecodeResponse(const std::string& payload);

std::string EncodeVerdict(const WireVerdict& verdict);
StatusOr<WireVerdict> DecodeVerdict(const std::string& body);

std::string EncodeRepair(const WireRepair& repair);
StatusOr<WireRepair> DecodeRepair(const std::string& body);

std::string EncodeStats(const std::vector<TenantStatsSnapshot>& stats);
StatusOr<std::vector<TenantStatsSnapshot>> DecodeStats(
    const std::string& body);

// --- Blocking framed I/O over a connected socket. ---

/// Applies SO_RCVTIMEO/SO_SNDTIMEO so a stalled peer surfaces as
/// DeadlineExceeded from Read/WriteFrame instead of blocking forever.
/// `timeout_ms <= 0` clears the timeouts.
Status SetSocketTimeouts(int fd, int64_t timeout_ms);

/// Writes one frame (header + payload); handles partial writes and EINTR.
/// A send timeout (SetSocketTimeouts) returns DeadlineExceeded.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one frame and returns its payload. A clean EOF before the first
/// header byte returns Unavailable ("connection closed"); torn headers,
/// bad magic, oversize lengths and mid-payload EOF return
/// InvalidArgument/IoError; a receive timeout returns DeadlineExceeded.
StatusOr<std::string> ReadFrame(int fd);

}  // namespace dquag

#endif  // DQUAG_SERVE_WIRE_H_
