// The benchmark's workloads: offline_csv, serve_online and train_retrain.
// See perfbench/README.md for what each one stresses and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase, split among the user paths by the
  /// workload's shares.
  double seconds = 15.0;
  /// false: end-to-end metrics; true: per-layer metrics from a traced run.
  bool trace = false;
  /// Run envelope fields supplied by the launcher.
  std::string git_sha = "none";
  std::string source_digest = "none";
  /// Scratch directory for checkpoints, the CSV input and the span dump.
  std::string work_dir = ".bench_build/perfbench-run";
  /// An untraced run split into processes: this process is part `part` and
  /// writes its raw samples to `part_out` instead of printing metrics.
  int part = 0;
  std::string part_out;
  /// Comma-separated sample files of the parts: merge them into the
  /// metrics and print them; no workload runs.
  std::string merge;
};

/// Runs one workload (or one part of it, or merges the parts) and prints
/// the report, the envelope line and the result line. Returns the process
/// exit code: 0 when every correctness gate held, 1 when one failed or the
/// run was invalid, 2 on bad usage or I/O failure.
int RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
