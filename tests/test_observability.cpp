// Tests for the observability subsystem: metrics registry and scoped-span
// tracing.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace tsyn::util {
namespace {

// The registry is process-wide, so each test works with uniquely named
// instruments (and the reset test snapshots around itself).

TEST(Metrics, CounterAddsAndReads) {
  Counter& c = metrics().counter("test.counter.basic");
  const long before = c.read();
  c.add();
  c.add(41);
  EXPECT_EQ(c.read(), before + 42);
}

TEST(Metrics, CounterNameLookupIsStable) {
  Counter& a = metrics().counter("test.counter.stable");
  Counter& b = metrics().counter("test.counter.stable");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, CounterMergesAcrossThreads) {
  Counter& c = metrics().counter("test.counter.threads");
  const long before = c.read();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  // Striped cells must merge exactly: no lost updates, no double counts.
  EXPECT_EQ(c.read(), before + static_cast<long>(kThreads) * kIncrements);
}

TEST(Metrics, CounterMergesUnderPoolWorkers) {
  Counter& c = metrics().counter("test.counter.pool");
  const long before = c.read();
  ThreadPool pool(4);
  pool.run(1000, 4, [&c](int, int) { c.add(); });
  EXPECT_EQ(c.read(), before + 1000);
}

TEST(Metrics, GaugeSetAndMax) {
  Gauge& g = metrics().gauge("test.gauge.basic");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.read(), 3.5);
  g.set_max(2.0);
  EXPECT_DOUBLE_EQ(g.read(), 3.5);  // lower candidate loses
  g.set_max(7.25);
  EXPECT_DOUBLE_EQ(g.read(), 7.25);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.read(), -1.0);  // plain set always overwrites
}

TEST(Metrics, HistogramCountsSumMinMax) {
  Histogram& h = metrics().histogram("test.hist.basic");
  h.observe(1);
  h.observe(5);
  h.observe(100);
  const HistogramSnapshot s = h.read();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.sum, 106);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
}

TEST(Metrics, HistogramLogBuckets) {
  Histogram& h = metrics().histogram("test.hist.buckets");
  h.observe(0);  // bucket 0: v <= 0
  h.observe(1);  // bucket 1: v == 1
  h.observe(2);  // bucket 2: 2..3
  h.observe(3);
  h.observe(64);  // bucket 7: 64..127
  const HistogramSnapshot s = h.read();
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 2);
  EXPECT_EQ(s.buckets[7], 1);
}

TEST(Metrics, HistogramMergesAcrossThreads) {
  Histogram& h = metrics().histogram("test.hist.threads");
  ThreadPool pool(4);
  pool.run(256, 4, [&h](int item, int) { h.observe(item); });
  const HistogramSnapshot s = h.read();
  EXPECT_EQ(s.count, 256);
  EXPECT_EQ(s.sum, 255 * 256 / 2);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 255);
}

TEST(Metrics, JsonIsWellFormedAndContainsInstruments) {
  metrics().counter("test.json.counter").add(7);
  metrics().gauge("test.json.gauge").set(1.5);
  metrics().histogram("test.json.hist").observe(9);
  const std::string j = metrics().to_json();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(j.find("\"test.json.hist\""), std::string::npos);
  // Brace balance as a cheap well-formedness proxy (names are dotted
  // identifiers, so braces only come from structure).
  long depth = 0;
  for (char ch : j) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Metrics, PercentilesInterpolateWithinBuckets) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.observe(v);
  const HistogramSnapshot s = h.read();
  // The estimate can only be off by the width of the log2 bucket the rank
  // lands in: rank 500 is in [256, 512), rank 900 in [512, 1024).
  EXPECT_GE(s.percentile(50), 256.0);
  EXPECT_LE(s.percentile(50), 512.0);
  EXPECT_GE(s.percentile(90), 512.0);
  EXPECT_LE(s.percentile(90), 1000.0);  // clamped to the true max
  // Monotone in p, and pinned to the exact extrema at the ends.
  EXPECT_LE(s.percentile(50), s.percentile(90));
  EXPECT_LE(s.percentile(90), s.percentile(99));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 1000.0);
}

TEST(Metrics, PercentilesClampToObservedRange) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(100);
  const HistogramSnapshot s = h.read();
  // One distinct value: every percentile is that value, not a bucket edge.
  EXPECT_DOUBLE_EQ(s.percentile(50), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 100.0);
}

TEST(Metrics, PercentileOfEmptyHistogramIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.read().percentile(50), 0.0);
}

TEST(Metrics, PercentilesHandleNonPositiveBucket) {
  Histogram h;
  h.observe(-4);
  h.observe(-4);
  h.observe(-4);
  h.observe(8);
  const HistogramSnapshot s = h.read();
  // Rank p50 lands in bucket 0 (v <= 0), whose range is [min, 0].
  EXPECT_GE(s.percentile(50), -4.0);
  EXPECT_LE(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 8.0);
}

TEST(Metrics, JsonExportsPercentiles) {
  metrics().histogram("test.json.pctl").observe(10);
  const std::string j = metrics().to_json();
  EXPECT_NE(j.find("\"p50\""), std::string::npos);
  EXPECT_NE(j.find("\"p90\""), std::string::npos);
  EXPECT_NE(j.find("\"p99\""), std::string::npos);
}

TEST(Metrics, ResetZeroesEverything) {
  Counter& c = metrics().counter("test.reset.counter");
  Histogram& h = metrics().histogram("test.reset.hist");
  c.add(5);
  h.observe(5);
  metrics().reset();
  EXPECT_EQ(c.read(), 0);
  EXPECT_EQ(h.read().count, 0);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace_disable();
    trace_reset();
  }
  void TearDown() override {
    trace_disable();
    trace_reset();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  { Span s("should.not.appear"); }
  EXPECT_EQ(trace_span_count(), 0u);
}

#ifndef TSYN_TRACE_NOOP

TEST_F(TraceTest, EnabledSpansAreCollected) {
  trace_enable();
  {
    TSYN_SPAN("outer");
    { TSYN_SPAN("inner"); }
  }
  EXPECT_EQ(trace_span_count(), 2u);
  const std::string j = trace_to_json();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"outer\""), std::string::npos);
  EXPECT_NE(j.find("\"inner\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceTest, SpansFromPoolWorkersSurvive) {
  trace_enable();
  ThreadPool pool(4);
  pool.run(32, 4, [](int, int) { TSYN_SPAN("worker.span"); });
  EXPECT_EQ(trace_span_count(), 32u);
}

TEST_F(TraceTest, NestedSpansContainedInParent) {
  trace_enable();
  {
    TSYN_SPAN("parent");
    { TSYN_SPAN("child"); }
  }
  const std::string j = trace_to_json();
  // Chrome nests same-tid "X" events by containment; we at least check both
  // events carry ts and dur fields.
  EXPECT_NE(j.find("\"ts\":"), std::string::npos);
  EXPECT_NE(j.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceTest, ResetDropsSpans) {
  trace_enable();
  { TSYN_SPAN("gone"); }
  EXPECT_EQ(trace_span_count(), 1u);
  trace_reset();
  EXPECT_EQ(trace_span_count(), 0u);
}

#endif  // TSYN_TRACE_NOOP

}  // namespace
}  // namespace tsyn::util
