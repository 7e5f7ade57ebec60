// Seed-corpus generator for dquag_fuzz_checkpoint_load.
//
// Writes real checkpoints — tiny fitted pipelines over the synthetic
// generator tables — into the directory given as argv[1]. Starting
// libFuzzer from structurally valid checkpoints lets its mutations reach
// the deep sections (parameter tensors, the drift profile) instead of dying
// at the magic check. CI adds tests/fixtures/checkpoint_dqq8.bin, a
// checkpoint from an older build with the DQQ8 section that Load skips, so
// the fuzzer reaches that code too.

#include <cstdio>
#include <string>

#include "core/pipeline.h"
#include "data/generators.h"
#include "util/rng.h"

namespace dquag {
namespace {

int WriteSeed(const std::string& dir, const std::string& name,
              uint64_t seed, int hidden_dim) {
  Rng rng(seed);
  Table clean = datasets::GenerateNyTaxi(64, rng, /*dims=*/5);
  DquagPipelineOptions options;
  options.config.encoder.hidden_dim = hidden_dim;
  options.config.encoder.num_layers = 2;
  options.config.epochs = 1;
  options.config.batch_size = 64;
  options.config.seed = seed;
  DquagPipeline pipeline(std::move(options));
  Status status = pipeline.Fit(clean);
  if (!status.ok()) {
    std::fprintf(stderr, "fit failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string path = dir + "/" + name;
  status = pipeline.Save(path);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace dquag

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 1;
  }
  const std::string dir = argv[1];
  int failures = 0;
  failures += dquag::WriteSeed(dir, "checkpoint_small.bin", 5, 8);
  failures += dquag::WriteSeed(dir, "checkpoint_wide.bin", 17, 16);
  return failures == 0 ? 0 : 1;
}
