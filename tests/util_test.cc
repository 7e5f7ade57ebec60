// Unit tests for the util substrate: Status, RNG, strings, JSON, CSV,
// thread pool, stopwatch, logging.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace dquag {
namespace {

// ---- Status -----------------------------------------------------------------

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  Status err = Status::InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.message(), "bad");
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad");
}

TEST(StatusTest, StatusOrHoldsValueOrError) {
  StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(8);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(5));
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(11);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.Categorical({0.2, 0.3, 0.5})];
  }
  EXPECT_NEAR(counts[0] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.5, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(12);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 5u);
}

// ---- Strings ----------------------------------------------------------------

TEST(StringTest, Split) {
  const auto fields = Split("a,b,,c", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "c");
}

TEST(StringTest, TrimJoinLower) {
  EXPECT_EQ(Trim("  hi \t"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(StringTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
}

// ---- JSON -------------------------------------------------------------------

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-2.5e2")->AsNumber(), -250.0);
  EXPECT_EQ(JsonValue::Parse("\"a\\nb\"")->AsString(), "a\nb");
}

TEST(JsonTest, ParseNestedStructure) {
  auto doc = JsonValue::Parse(
      R"({"relationships": [{"feature1": "a", "feature2": "b"}], "n": 2})");
  ASSERT_TRUE(doc.ok());
  const JsonValue& root = doc.value();
  EXPECT_TRUE(root.Contains("relationships"));
  EXPECT_EQ(root.at("relationships").size(), 1u);
  EXPECT_EQ(root.at("relationships").at(0).at("feature1").AsString(), "a");
  EXPECT_DOUBLE_EQ(root.at("n").AsNumber(), 2.0);
}

TEST(JsonTest, RoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::String("x \"quoted\""));
  obj.Set("value", JsonValue::Number(3.5));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Bool(true));
  arr.Append(JsonValue::Null());
  obj.Set("list", std::move(arr));
  const std::string dumped = obj.Dump();
  auto reparsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->at("name").AsString(), "x \"quoted\"");
  EXPECT_TRUE(reparsed->at("list").at(0).AsBool());
  EXPECT_TRUE(reparsed->at("list").at(1).is_null());
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(JsonTest, PrettyPrintReparses) {
  JsonValue obj = JsonValue::Object();
  obj.Set("a", JsonValue::Number(1));
  EXPECT_TRUE(JsonValue::Parse(obj.Dump(2)).ok());
}

// ---- CSV --------------------------------------------------------------------

TEST(CsvTest, ParseSimple) {
  auto doc = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header.size(), 2u);
  EXPECT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1][1], "4");
}

TEST(CsvTest, QuotedFieldsWithCommasAndNewlines) {
  auto doc = ParseCsv("a,b\n\"x,y\",\"line1\nline2\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "x,y");
  EXPECT_EQ(doc->rows[0][1], "line1\nline2");
}

TEST(CsvTest, EscapedQuotes) {
  auto doc = ParseCsv("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "he said \"hi\"");
}

TEST(CsvTest, WidthMismatchIsError) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
}

TEST(CsvTest, RoundTrip) {
  CsvDocument doc;
  doc.header = {"name", "note"};
  doc.rows = {{"alice", "says \"hi\", bye"}, {"bob", "line\nbreak"}};
  auto reparsed = ParseCsv(WriteCsvString(doc));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->rows, doc.rows);
}

TEST(CsvTest, CrLfHandled) {
  auto doc = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "1");
}

TEST(CsvStreamParserTest, BlockBoundariesNeverChangeTheParse) {
  // Quotes, escaped quotes, embedded commas/newlines, CRLF, and a final
  // record without a trailing newline — parsed whole, then re-parsed with
  // every block size down to one byte. Identical records either way.
  const std::string text =
      "a,b,c\r\n\"x,y\",\"line1\nline2\",plain\n\"he said "
      "\"\"hi\"\"\",2,3\nlast,row,unterminated";
  std::vector<std::vector<std::string>> whole;
  {
    CsvStreamParser parser;
    ASSERT_TRUE(parser.Consume(text.data(), text.size(), &whole).ok());
    ASSERT_TRUE(parser.Finish(&whole).ok());
  }
  ASSERT_EQ(whole.size(), 4u);
  EXPECT_EQ(whole[1][1], "line1\nline2");
  EXPECT_EQ(whole[2][0], "he said \"hi\"");
  EXPECT_EQ(whole[3][2], "unterminated");

  for (size_t block : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    std::vector<std::vector<std::string>> streamed;
    CsvStreamParser parser;
    for (size_t i = 0; i < text.size(); i += block) {
      const size_t n = std::min(block, text.size() - i);
      ASSERT_TRUE(parser.Consume(text.data() + i, n, &streamed).ok());
    }
    ASSERT_TRUE(parser.Finish(&streamed).ok());
    EXPECT_EQ(streamed, whole) << "block=" << block;
  }
}

TEST(CsvStreamParserTest, UnterminatedQuoteNamesItsLine) {
  const std::string text = "a,b\n1,2\n\"open quote,3\n";
  std::vector<std::vector<std::string>> records;
  CsvStreamParser parser;
  ASSERT_TRUE(parser.Consume(text.data(), text.size(), &records).ok());
  const Status status = parser.Finish(&records);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.ToString();
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunTasksAndWaitRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  RunTasksAndWait(pool, 1000, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunTasksAndWaitZeroIsNoopAndOneRunsInline) {
  ThreadPool pool(4);
  bool touched = false;
  RunTasksAndWait(pool, 0, [&](int64_t) { touched = true; });
  EXPECT_FALSE(touched);

  std::thread::id ran_on;
  int64_t index = -1;
  RunTasksAndWait(pool, 1, [&](int64_t i) {
    ran_on = std::this_thread::get_id();
    index = i;
  });
  EXPECT_EQ(index, 0);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, NestedRunTasksAndWaitRunsInlineWithoutDeadlock) {
  // Every outer task occupies a worker; a nested fan-out that queued onto
  // the same pool and waited would deadlock once all workers are busy.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::atomic<int> ran_elsewhere{0};
  RunTasksAndWait(pool, 64, [&](int64_t) {
    EXPECT_TRUE(InsidePoolWorker());
    const std::thread::id outer = std::this_thread::get_id();
    RunTasksAndWait(pool, 4, [&](int64_t) {
      if (std::this_thread::get_id() != outer) ran_elsewhere.fetch_add(1);
      count.fetch_add(1);
    });
  });
  EXPECT_EQ(count.load(), 64 * 4);
  EXPECT_EQ(ran_elsewhere.load(), 0);
  EXPECT_FALSE(InsidePoolWorker());
}

// ---- Stopwatch ---------------------------------------------------------------

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000.0 * 0.99);
}

}  // namespace
}  // namespace dquag
