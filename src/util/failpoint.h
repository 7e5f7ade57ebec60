// Deterministic fault injection for chaos and crash-recovery tests.
//
// A failpoint is a named site in production code where a test (or the
// DQUAG_FAILPOINTS environment variable) can inject an error Status, a
// fixed delay, or a hard process crash. Sites compile into release builds
// as a single relaxed atomic load — with no failpoint armed the cost is
// that load and a predicted-not-taken branch, cheap enough to leave in the
// serving hot path.
//
// Activation:
//   * Environment: DQUAG_FAILPOINTS="site=action[@p][;site=action[@p]...]"
//     where action is `error`, `delay:<ms>`, or `crash`, and the optional
//     `@p` (0 < p <= 1) fires the action with probability p per hit.
//     DQUAG_FAILPOINTS_SEED=<u64> seeds the probability stream so a chaos
//     run replays bit-identically.
//   * Programmatic: failpoint::Enable / EnableFromSpec / Disable /
//     DisableAll, used by the chaos and crash-during-save suites.
//
// Semantics per action:
//   * error — the site returns Status::IoError("failpoint <site>") through
//     the DQUAG_FAILPOINT macro (callers propagate it like any real error).
//   * delay:<ms> — the site sleeps, then proceeds normally. This is the
//     action CI uses on correctness suites: everything still passes, just
//     under adversarial timing.
//   * crash — std::_Exit: no atexit handlers, no buffer flushing. The
//     closest portable stand-in for SIGKILL, used to prove crash-atomicity
//     of AtomicFileWriter.
//
// Site names live here as constants (see the catalog below) so the chaos
// suite can enumerate every registered seam via AllSites().

#ifndef DQUAG_UTIL_FAILPOINT_H_
#define DQUAG_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dquag {
namespace failpoint {

// --- Site catalog. Every DQUAG_FAILPOINT in the tree uses one of these. ---
inline constexpr const char* kBinaryIoSave = "binary_io.save";
inline constexpr const char* kBinaryIoLoad = "binary_io.load";
inline constexpr const char* kColumnarWrite = "columnar.write";
inline constexpr const char* kMmapOpen = "mmap.open";
inline constexpr const char* kWireSend = "wire.send";
inline constexpr const char* kWireRecv = "wire.recv";
inline constexpr const char* kRegistryLoad = "registry.load";
inline constexpr const char* kThreadPoolDispatch = "threadpool.dispatch";
inline constexpr const char* kServeDispatch = "serve.dispatch";
// Steps of the AtomicFileWriter commit protocol, in order. The
// kill-at-every-failpoint test crashes a child at each one and asserts the
// destination file is never torn.
// Steps of the RetrainController's retrain -> swap protocol, in order. The
// chaos drift suite arms each one and asserts the old model keeps serving
// and the daemon survives any failure mid-protocol.
inline constexpr const char* kRetrainLoad = "retrain.load";
inline constexpr const char* kRetrainFineTune = "retrain.finetune";
inline constexpr const char* kRetrainSave = "retrain.save";
inline constexpr const char* kRetrainSwap = "retrain.swap";
inline constexpr const char* kAtomicOpen = "atomic_file.open";
inline constexpr const char* kAtomicWrite = "atomic_file.write";
inline constexpr const char* kAtomicFsync = "atomic_file.fsync";
inline constexpr const char* kAtomicRename = "atomic_file.rename";
inline constexpr const char* kAtomicDirsync = "atomic_file.dirsync";

/// Every site name above, for chaos enumeration.
const std::vector<std::string>& AllSites();

enum class Action {
  kError,  // return Status::IoError from the site
  kDelay,  // sleep delay_ms, then proceed
  kCrash,  // std::_Exit(kCrashExitCode)
};

/// Exit code used by the crash action, so tests can tell an injected crash
/// from a genuine abort.
inline constexpr int kCrashExitCode = 77;

// Internal fast-path flag: true iff at least one site is configured. Do
// not touch directly; the DQUAG_FAILPOINT macros read it inline.
namespace internal {
extern std::atomic<bool> g_armed;
inline bool Armed() { return g_armed.load(std::memory_order_relaxed); }
}  // namespace internal

/// Slow path behind the macros: fires `site`'s configured action, if any.
/// Returns the injected error for Action::kError, Ok otherwise.
Status Check(const char* site);

/// Delay/crash-only variant for void contexts (e.g. thread-pool dispatch);
/// an `error` action configured on such a site is counted but ignored.
void Hit(const char* site);

/// Arms `site` with `action`. `probability` in (0, 1] fires per-hit from
/// the seeded stream; `delay_ms` applies to Action::kDelay.
void Enable(const std::string& site, Action action, double probability = 1.0,
            int64_t delay_ms = 0);

/// Parses and arms a DQUAG_FAILPOINTS-style spec. InvalidArgument on
/// grammar errors or unknown site names; sites named before the bad clause
/// stay armed.
Status EnableFromSpec(const std::string& spec);

void Disable(const std::string& site);
void DisableAll();

/// Reseeds the probability stream (also resets it); chaos runs call this
/// to replay a schedule.
void SetSeed(uint64_t seed);

/// Times `site` fired its action since it was last enabled (error
/// returned, delay slept, or crash requested). For test assertions.
int64_t TriggerCount(const std::string& site);

}  // namespace failpoint
}  // namespace dquag

/// Injection site for Status-returning (or StatusOr-returning) contexts:
/// propagates the injected error out of the enclosing function.
#define DQUAG_FAILPOINT(site)                                    \
  do {                                                           \
    if (::dquag::failpoint::internal::Armed()) {                 \
      ::dquag::Status _fp_st = ::dquag::failpoint::Check(site);  \
      if (!_fp_st.ok()) return _fp_st;                           \
    }                                                            \
  } while (0)

/// Injection site for void contexts: delays and crashes fire, errors are
/// counted but cannot propagate.
#define DQUAG_FAILPOINT_HIT(site)              \
  do {                                         \
    if (::dquag::failpoint::internal::Armed()) \
      ::dquag::failpoint::Hit(site);           \
  } while (0)

#endif  // DQUAG_UTIL_FAILPOINT_H_
