// Seeded-corpus fuzz of the checkpoint reader (core/serialization.cc).
//
// The hardening contract: Load never trusts a length prefix (every count is
// bounded against the bytes remaining BEFORE any allocation sized by it)
// and range-checks every config field before constructing a model, so NO
// byte-level mutation of a valid checkpoint can produce a crash, a checked
// abort, or a hostile allocation — only a Status. The corpus is a real
// checkpoint from a tiny fitted pipeline, small enough to try truncation at
// EVERY prefix length and corruption at EVERY byte. A second corpus is a
// checkpoint written by an older build (tests/fixtures/checkpoint_dqq8.bin),
// whose DQQ8 section Load must skip just as carefully. Runs in the
// ASan CI job, where an out-of-bounds read or pathological allocation
// faults instead of passing silently.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/generators.h"

namespace dquag {
namespace {

class CheckpointFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(5);
    Table clean = datasets::GenerateNyTaxi(64, rng, /*dims=*/5);
    DquagPipelineOptions options;
    options.config.encoder.hidden_dim = 8;
    options.config.encoder.num_layers = 2;
    options.config.epochs = 1;
    options.config.batch_size = 64;
    DquagPipeline pipeline(std::move(options));
    ASSERT_TRUE(pipeline.Fit(clean).ok());

    const std::string path = "/tmp/dquag_fuzz_corpus.bin";
    ASSERT_TRUE(pipeline.Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus_ = new std::string(buf.str());
    std::remove(path.c_str());
    ASSERT_FALSE(corpus_->empty());

    std::ifstream old(std::string(DQUAG_FIXTURE_DIR) + "/checkpoint_dqq8.bin",
                      std::ios::binary);
    ASSERT_TRUE(old.good());
    std::ostringstream old_buf;
    old_buf << old.rdbuf();
    old_corpus_ = new std::string(old_buf.str());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
    delete old_corpus_;
    old_corpus_ = nullptr;
  }

  /// Writes `bytes` to a scratch file and returns Load's status.
  static Status TryLoad(const std::string& bytes) {
    const std::string path = "/tmp/dquag_fuzz_case.bin";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto loaded = DquagPipeline::Load(path);
    std::remove(path.c_str());
    return loaded.ok() ? Status::Ok() : loaded.status();
  }

  /// Tries every prefix of `corpus`. Only the prefixes in `loadable` (each
  /// ends where an optional trailing section starts, so it is a well-formed
  /// checkpoint without that section) may load.
  static void ExpectEveryPrefixFailsCleanly(
      const std::string& corpus, const std::vector<size_t>& loadable) {
    for (size_t len = 0; len < corpus.size(); ++len) {
      const Status status = TryLoad(corpus.substr(0, len));
      if (std::find(loadable.begin(), loadable.end(), len) != loadable.end()) {
        EXPECT_TRUE(status.ok()) << "prefix " << len << " must load";
      } else {
        EXPECT_FALSE(status.ok()) << "truncated to " << len << " of "
                                  << corpus.size() << " bytes loaded anyway";
      }
    }
  }

  /// Flips every byte of `corpus` in turn. Any Status is fine; surviving
  /// the call is the test.
  static void ExpectEveryByteFlipSurvives(std::string corpus) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      const char original = corpus[i];
      corpus[i] = static_cast<char>(corpus[i] ^ 0xFF);
      (void)TryLoad(corpus);
      corpus[i] = original;
    }
  }

  // The optional-section magics as little-endian file bytes: the section
  // older builds wrote ("DQQ8") and the drift profile ("DQDP").
  static inline const std::string kQuantMagic{
      "\x01\x00\x00\x00\x44\x51\x51\x38", 8};
  static inline const std::string kDriftMagic{
      "\x01\x00\x00\x00\x44\x51\x44\x50", 8};

  static std::string* corpus_;
  static std::string* old_corpus_;
};

std::string* CheckpointFuzzTest::corpus_ = nullptr;
std::string* CheckpointFuzzTest::old_corpus_ = nullptr;

TEST_F(CheckpointFuzzTest, IntactCorpusLoads) {
  EXPECT_TRUE(TryLoad(*corpus_).ok());
  EXPECT_TRUE(TryLoad(*old_corpus_).ok());
  EXPECT_EQ(corpus_->find(kQuantMagic), std::string::npos)
      << "Save writes no DQQ8 section";
}

// Every possible truncation point. Each must come back as a Status; a
// crash, abort, or ASan fault here means a reader consumed a length it
// never had. Cutting exactly at the start of an optional trailing section
// yields a well-formed checkpoint without it, which loads by design: the
// drift profile in a fresh checkpoint, and in the older build's file also
// its DQQ8 section.
TEST_F(CheckpointFuzzTest, TruncationAtEveryPrefixFailsCleanly) {
  const size_t drift_len = corpus_->rfind(kDriftMagic);
  ASSERT_NE(drift_len, std::string::npos);
  ExpectEveryPrefixFailsCleanly(*corpus_, {drift_len});

  const size_t old_quant_len = old_corpus_->rfind(kQuantMagic);
  const size_t old_drift_len = old_corpus_->rfind(kDriftMagic);
  ASSERT_NE(old_quant_len, std::string::npos);
  ASSERT_NE(old_drift_len, std::string::npos);
  ASSERT_LT(old_quant_len, old_drift_len);
  ExpectEveryPrefixFailsCleanly(*old_corpus_, {old_quant_len, old_drift_len});
}

// Every single-byte corruption. Most mutations must fail with a Status;
// some (e.g. a low mantissa bit of a weight) legitimately still load —
// the invariant under test is only "never crash, never hostile-allocate".
TEST_F(CheckpointFuzzTest, CorruptionAtEveryByteNeverCrashes) {
  ExpectEveryByteFlipSurvives(*corpus_);
  ExpectEveryByteFlipSurvives(*old_corpus_);
}

// A few targeted hostile payloads on top of the blind sweep: absurd counts
// spliced into the header region must be rejected before any allocation.
TEST_F(CheckpointFuzzTest, HostileLengthPrefixesRejected) {
  for (size_t offset : {size_t{8}, size_t{16}, size_t{24}, size_t{40}}) {
    ASSERT_LT(offset + 8, corpus_->size());
    std::string bytes = *corpus_;
    for (size_t b = 0; b < 8; ++b) bytes[offset + b] = '\xFF';
    const Status status = TryLoad(bytes);
    EXPECT_FALSE(status.ok()) << "offset " << offset;
  }
}

}  // namespace
}  // namespace dquag
