// Self-test of the benchmark's measurement helpers. Plain main() with a
// check macro, so the benchmark build needs no test framework:
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #condition);                                        \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void TestQuantileIsNearestRank() {
  EXPECT(Quantile({}, 0.5) == 0.0);
  EXPECT(Quantile({7.0}, 0.99) == 7.0);
  EXPECT(Median(OneTo(10)) == 5.0);
  EXPECT(Median(OneTo(11)) == 6.0);
  EXPECT(Quantile(OneTo(1000), 0.99) == 990.0);
  EXPECT(Quantile(OneTo(1000), 1.0) == 1000.0);
  EXPECT(Quantile(OneTo(1000), 0.0) == 1.0);
}

void TestTailQuantileKeepsTenSamplesBeyond() {
  // 1000 samples: p99 leaves exactly ten above it; p99.9 would leave one.
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(TailQuantile(1000) == 0.99);
  // One sample short of that, p99 leaves nine: fall back to p98.
  EXPECT(SamplesBeyond(999, 0.99) == 9);
  EXPECT(TailQuantile(999) == 0.98);
  EXPECT(TailQuantile(10000) == 0.999);
  EXPECT(TailQuantile(200) == 0.95);
  EXPECT(TailQuantile(100) == 0.9);
  EXPECT(TailQuantile(50) == 0.8);
  // Too few for any tail: the median is all the sample supports.
  EXPECT(TailQuantile(15) == 0.5);
  for (size_t n : {20u, 57u, 100u, 333u, 1000u, 4321u}) {
    EXPECT(SamplesBeyond(n, TailQuantile(n)) >= 10);
  }
}

void TestSelfTimeWithOverlappingChildren() {
  // No children: all self.
  EXPECT(Near(SelfSeconds(0.0, 10.0, {}), 10.0));
  // Disjoint children subtract fully.
  EXPECT(Near(SelfSeconds(0.0, 10.0, {{1.0, 2.0}, {5.0, 7.0}}), 7.0));
  // Overlapping children ([1,4) and [3,6) cover [1,6)) subtract once.
  EXPECT(Near(SelfSeconds(0.0, 10.0, {{3.0, 6.0}, {1.0, 4.0}}), 5.0));
  // A child nested in another adds nothing.
  EXPECT(Near(SelfSeconds(0.0, 10.0, {{1.0, 9.0}, {2.0, 3.0}}), 2.0));
  // Children sticking out of the parent are clipped to it.
  EXPECT(Near(SelfSeconds(2.0, 6.0, {{0.0, 3.0}, {5.0, 9.0}}), 2.0));
  // Fully covered parent has no self time, never a negative one.
  EXPECT(Near(SelfSeconds(0.0, 4.0, {{0.0, 3.0}, {1.0, 4.0}, {0.5, 2.0}}),
              0.0));
}

void TestTracerSelfTimeAndUnattributed() {
  Tracer tracer(/*enabled=*/true);
  const int64_t root = tracer.Begin("root");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    ScopedSpan child(tracer, "child", root);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  tracer.End(root);
  const double wall = tracer.TotalSeconds("root");
  const double self = wall - tracer.TotalSeconds("child");
  EXPECT(self > 0.0 && self < wall);
  EXPECT(Near(tracer.UnattributedFraction(), self / wall));
  EXPECT(tracer.Count("child") == 1);
  // A root without children is not an instrumented path: it changes
  // nothing.
  { ScopedSpan leaf(tracer, "request"); }
  EXPECT(Near(tracer.UnattributedFraction(), self / wall));

  Tracer disabled(/*enabled=*/false);
  { ScopedSpan span(disabled, "ignored"); }
  EXPECT(disabled.spans().empty());
}

void TestDueTimeLatencyWhenSenderStalls() {
  // On time: the connection was free before the due time and the send went
  // out at once. Latency is service time only.
  DueTiming on_time{/*due=*/1.0, /*free_at=*/0.5, /*sent=*/1.0,
                    /*done=*/1.04};
  EXPECT(Near(on_time.Latency(), 0.04));
  EXPECT(Near(on_time.QueueWait(), 0.0));
  EXPECT(Near(on_time.GeneratorLag(), 0.0));

  // The sender stalled: every connection stayed busy until 1.30, so the
  // request waited 0.30 s before it could go out. That wait belongs to the
  // system under test and is charged to the request.
  DueTiming stalled{/*due=*/1.0, /*free_at=*/1.3, /*sent=*/1.3,
                    /*done=*/1.34};
  EXPECT(Near(stalled.Latency(), 0.34));
  EXPECT(Near(stalled.QueueWait(), 0.3));
  EXPECT(Near(stalled.GeneratorLag(), 0.0));

  // The generator itself woke late (connection free, due passed): that is
  // lag of the load generator, reported apart from the queue wait, and the
  // latency still counts from the due time.
  DueTiming late_generator{/*due=*/1.0, /*free_at=*/0.9, /*sent=*/1.02,
                           /*done=*/1.06};
  EXPECT(Near(late_generator.Latency(), 0.06));
  EXPECT(Near(late_generator.QueueWait(), 0.0));
  EXPECT(Near(late_generator.GeneratorLag(), 0.02));
}

void TestQuietMedianDropsStolenSamples() {
  // Quiet host: every sample counts, as in a plain median.
  EXPECT(QuietMedian({1.0, 2.0, 3.0, 100.0}, {0.0, 0.01, 0.0, 0.02}, 0.02) ==
         2.0);
  // The slow samples were taken while the host stole CPU time: only those
  // at or below the median steal share count.
  EXPECT(QuietMedian({1.0, 2.0, 3.0, 100.0, 200.0},
                     {0.0, 0.01, 0.3, 0.5, 0.4}, 0.02) == 2.0);
  // Without steal shares to go by it is the plain median.
  EXPECT(QuietMedian({5.0, 1.0, 3.0}, {}, 0.02) == 3.0);
  EXPECT(Near(StealShare({10.0, 100.0}, {15.0, 150.0}), 0.1));
  EXPECT(StealShare({10.0, 100.0}, {10.0, 100.0}) == 0.0);
}

void TestResultJson() {
  const std::string line =
      ResultJson(true, 3, 0, {{"setup_s", 0.125, "s"}, {"x", 2.0, "ms"}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"x\": "
         "{\"value\": 2, \"unit\": \"ms\"}}}");
  EXPECT(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantileIsNearestRank();
  perfbench::TestTailQuantileKeepsTenSamplesBeyond();
  perfbench::TestSelfTimeWithOverlappingChildren();
  perfbench::TestTracerSelfTimeAndUnattributed();
  perfbench::TestDueTimeLatencyWhenSenderStalls();
  perfbench::TestQuietMedianDropsStolenSamples();
  perfbench::TestResultJson();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
