// dquag_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--git-sha <sha>] [--source-digest <hex>] [--work-dir <dir>]
//                 [--part <i> --part-out <file> | --merge <file,file,...>]
//
// Normally started through perfbench/run.py, which builds it first and
// splits an untraced run into parts, one process each, then merges them.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--part") {
      options.part = std::atoi(value);
    } else if (flag == "--part-out") {
      options.part_out = value;
    } else if (flag == "--merge") {
      options.merge = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return perfbench::RunWorkload(options);
}
