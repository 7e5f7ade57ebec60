// Measurement helpers of the repository benchmark: sample statistics,
// in-memory spans with self-time accounting, open-loop due-time bookkeeping,
// and the JSON result line. Everything here is library-independent so
// tests/harness_test.cc can check it in isolation.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `start` to now.
double SecondsSince(Clock::time_point start);

// ---- Sample statistics ------------------------------------------------------

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample (q in [0, 1]).
/// Returns 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// Number of samples strictly above the nearest-rank q-quantile's rank,
/// n - ceil(q * n): the samples "beyond" that percentile.
int64_t SamplesBeyond(size_t n, double q);

/// The highest percentile of the ladder {99.9, 99, 98, 95, 90, 80, 50} that
/// has at least ten samples beyond it; 0.5 when even the median has fewer.
double TailQuantile(size_t n);

// ---- Open-loop due-time bookkeeping ----------------------------------------

/// One open-loop request. `due` is when the schedule says it is sent,
/// `free_at` when a connection became free to send it, `sent` when it was
/// actually written and `done` when its response arrived (all in seconds
/// on one clock).
struct DueTiming {
  double due = 0.0;
  double free_at = 0.0;
  double sent = 0.0;
  double done = 0.0;

  /// What the caller experiences: due -> response, so a stalled sender
  /// charges its wait to every request queued behind it.
  double Latency() const { return done - due; }
  /// Waiting because every connection was busy at the due time.
  double QueueWait() const { return free_at > due ? free_at - due : 0.0; }
  /// Lateness of the generator itself: time between the request being
  /// sendable (due and a connection free) and the send.
  double GeneratorLag() const {
    const double ready = free_at > due ? free_at : due;
    return sent > ready ? sent - ready : 0.0;
  }
};

// ---- Spans -----------------------------------------------------------------

/// One traced call: [start, end) seconds since the tracer started, the span
/// that caused it (-1 for a root), and the request or chunk it served.
struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t tag = -1;
  double start = 0.0;
  double end = 0.0;

  double duration() const { return end - start; }
};

/// Duration of [start, end) minus the part covered by `children`. Children
/// may overlap each other and stick out of the parent; covered time is the
/// union of the children's intervals clipped to the parent, so overlap is
/// never subtracted twice.
double SelfSeconds(double start, double end,
                   std::vector<std::pair<double, double>> children);

/// Keeps spans in memory (thread-safe) and writes them out at the end of
/// the run. A disabled tracer records nothing, so the same code path can be
/// timed with and without tracing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent = -1,
                int64_t tag = -1);
  void End(int64_t id);

  /// Spans recorded so far (copy).
  std::vector<Span> spans() const;

  /// Summed duration / number of all spans named `name`.
  double TotalSeconds(const std::string& name) const;
  int64_t Count(const std::string& name) const;

  /// Share of the wall time of root spans with children that no child span
  /// covers. Roots without children (a whole request seen from outside)
  /// are not instrumented paths and are left out.
  double UnattributedFraction() const;

  /// Writes all spans as a JSON array; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  /// Self time of every span, keyed by span id.
  std::map<int64_t, double> SelfTimes() const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_; index == id
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t parent = -1,
             int64_t tag = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, tag)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

// ---- Result line -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": v, "unit": u}, ...}} on one line, values printed with 17
/// significant digits.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

/// A JSON string literal (quotes and escapes).
std::string JsonString(const std::string& text);

/// A JSON number with all significant digits (NaN/inf print as 0).
std::string JsonNumber(double value);

// ---- Host contention -------------------------------------------------------

/// Cumulative CPU time of this machine from /proc/stat, in clock ticks
/// summed over its CPUs: all of it, and the part a hypervisor gave to other
/// guests while this one wanted to run ("steal"). Zeros where unavailable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks ReadCpuTicks();

/// Share of the CPU time between two readings that was stolen (0 when no
/// time passed or steal is not reported).
double StealShare(const CpuTicks& before, const CpuTicks& after);

/// Median of the samples taken while the host stole the least: those whose
/// steal share (`steal[i]` for `values[i]`) is at most the larger of the
/// median steal share and `quiet_share`. A sample taken while other guests
/// held this machine's CPUs measures them, not the program; on a quiet host
/// every sample counts. Plain Median when there are no steal shares.
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal, double quiet_share);

/// Peak resident set size of this process (VmHWM) in MiB; 0 if unknown.
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
