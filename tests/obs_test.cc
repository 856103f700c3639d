// Tests for the observability layer (src/obs): registry semantics,
// span nesting on the virtual clock, the JSONL run journal, and the
// pipeline-level determinism contract — an instrumented repair run
// produces byte-identical journals/traces and identical stable metrics
// at every thread count, and never changes which tuples are accepted.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/export.h"
#include "src/obs/observability.h"
#include "src/obs/quantile_digest.h"

namespace chameleon::obs {
namespace {

// ---------------------------------------------------------------------------
// VirtualClock
// ---------------------------------------------------------------------------

TEST(VirtualClockTest, TicksAreMonotonicFromOne) {
  VirtualClock clock;
  EXPECT_EQ(clock.ticks(), 0u);
  EXPECT_EQ(clock.Tick(), 1u);
  EXPECT_EQ(clock.Tick(), 2u);
  EXPECT_EQ(clock.ticks(), 2u);
}

TEST(VirtualClockTest, MillisecondAxisAccumulates) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.NowMs(), 0.0);
  clock.AdvanceMs(12.5);
  clock.AdvanceMs(7.5);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 20.0);
}

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram
// ---------------------------------------------------------------------------

TEST(CounterTest, IsMonotonic) {
  Counter counter;
  counter.Increment();
  counter.Increment(5);
  counter.Increment(-3);  // ignored: counters only go up
  counter.Increment(0);
  EXPECT_EQ(counter.value(), 6);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(3.5);
  gauge.Add(1.5);
  gauge.Add(-2.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
}

TEST(HistogramTest, BucketBoundsAreInclusiveUpperBounds) {
  Histogram histogram({1.0, 2.0, 5.0});
  // One observation per interesting position: below, exactly on each
  // bound (inclusive), between bounds, and past the last bound.
  for (double v : {0.5, 1.0, 1.5, 2.0, 5.0, 7.0}) histogram.Observe(v);
  EXPECT_EQ(histogram.count(), 6);
  EXPECT_DOUBLE_EQ(histogram.sum(), 17.0);
  const std::vector<int64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // bounds + overflow
  EXPECT_EQ(buckets[0], 2);      // 0.5, 1.0  (v <= 1)
  EXPECT_EQ(buckets[1], 2);      // 1.5, 2.0  (1 < v <= 2)
  EXPECT_EQ(buckets[2], 1);      // 5.0       (2 < v <= 5)
  EXPECT_EQ(buckets[3], 1);      // 7.0       (v > 5)
}

TEST(HistogramTest, ConcurrentObservationsLoseNothing) {
  Histogram histogram({10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.Observe(1.0);
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  // Sums of 1.0 stay exact in a double well past 80k observations, so
  // the CAS-accumulated sum must equal the count exactly.
  EXPECT_DOUBLE_EQ(histogram.sum(), kThreads * kPerThread);
  EXPECT_EQ(histogram.BucketCounts()[0], kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, RegistrationIsIdempotentWithStablePointers) {
  Registry registry;
  obs::Counter* counter = registry.Counter("fm.queries");
  counter->Increment(3);
  EXPECT_EQ(registry.Counter("fm.queries"), counter);
  EXPECT_EQ(registry.Counter("fm.queries")->value(), 3);
  obs::Histogram* histogram = registry.Histogram("h", {1.0, 2.0});
  // A later registration with different bounds returns the original.
  EXPECT_EQ(registry.Histogram("h", {9.0}), histogram);
  EXPECT_EQ(histogram->bounds().size(), 2u);
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  Registry registry;
  registry.Gauge("zeta")->Set(1.0);
  registry.Counter("alpha")->Increment();
  registry.Histogram("mid", {1.0})->Observe(0.5);
  const std::vector<MetricSample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[0].type, "counter");
  EXPECT_EQ(samples[1].name, "mid");
  EXPECT_EQ(samples[1].type, "histogram");
  EXPECT_EQ(samples[2].name, "zeta");
  EXPECT_EQ(samples[2].type, "gauge");
}

TEST(RegistryTest, ToJsonEmitsOneObjectPerLine) {
  Registry registry;
  registry.Counter("fm.queries")->Increment(47);
  registry.Histogram("lat", {1.0, 2.0})->Observe(1.5);
  const std::string json = registry.ToJson();
  EXPECT_EQ(json,
            "{\"name\":\"fm.queries\",\"type\":\"counter\",\"value\":47}\n"
            "{\"name\":\"lat\",\"type\":\"histogram\",\"value\":1,"
            "\"sum\":1.5,\"bounds\":[1,2],\"buckets\":[0,1,0],"
            "\"p50\":1.5,\"p90\":1.5,\"p99\":1.5}\n");
}

TEST(RegistryTest, ToTableRendersEveryMetric) {
  Registry registry;
  registry.Counter("fm.queries")->Increment(47);
  registry.Gauge("run.estimated_p")->Set(0.82);
  const std::string table = registry.ToTable().ToString();
  EXPECT_NE(table.find("fm.queries"), std::string::npos);
  EXPECT_NE(table.find("47"), std::string::npos);
  EXPECT_NE(table.find("run.estimated_p"), std::string::npos);
  EXPECT_NE(table.find("0.82"), std::string::npos);
}

TEST(RegistryTest, WriteExportsJsonlToDisk) {
  Registry registry;
  registry.Counter("fm.queries")->Increment(2);
  const std::string path = ::testing::TempDir() + "obs_registry_test.jsonl";
  ASSERT_TRUE(registry.Write(path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), registry.ToJson());
  std::remove(path.c_str());
}

TEST(RegistryTest, WriteToUnwritablePathFails) {
  Registry registry;
  EXPECT_FALSE(registry.Write("/nonexistent-dir/metrics.jsonl").ok());
}

TEST(StableMetricTest, ExemptsScheduleDependentNames) {
  EXPECT_TRUE(IsStableMetric("fm.queries"));
  EXPECT_TRUE(IsStableMetric("rejection.accepted"));
  EXPECT_TRUE(IsStableMetric("mup.found"));
  EXPECT_FALSE(IsStableMetric("mup.count_queries"));
  EXPECT_FALSE(IsStableMetric("threadpool.tasks_submitted"));
  EXPECT_FALSE(IsStableMetric("threadpool.max_queue_depth"));
}

TEST(FormatMetricValueTest, RoundTrips) {
  for (double v : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-17, 123456789.125}) {
    EXPECT_EQ(std::strtod(FormatMetricValue(v).c_str(), nullptr), v);
  }
  EXPECT_EQ(FormatMetricValue(47.0), "47");
  EXPECT_EQ(FormatMetricValue(0.5), "0.5");
}

// ---------------------------------------------------------------------------
// Tracer / Span
// ---------------------------------------------------------------------------

TEST(TracerTest, NestingFollowsInnermostOpenSpan) {
  VirtualClock clock;
  Tracer tracer(&clock);
  {
    Span run = tracer.StartSpan("repair.run");
    {
      Span find = tracer.StartSpan("mup.find");
    }
    {
      Span entry = tracer.StartSpan("plan.entry");
      Span batch = tracer.StartSpan("rejection.batch");
    }
  }
  EXPECT_EQ(tracer.num_open(), 0u);
  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);

  EXPECT_EQ(spans[0].name, "repair.run");
  EXPECT_EQ(spans[0].parent_id, 0);
  EXPECT_EQ(spans[0].depth, 0);

  EXPECT_EQ(spans[1].name, "mup.find");
  EXPECT_EQ(spans[1].parent_id, spans[0].id);
  EXPECT_EQ(spans[1].depth, 1);

  EXPECT_EQ(spans[2].name, "plan.entry");
  EXPECT_EQ(spans[2].parent_id, spans[0].id);

  EXPECT_EQ(spans[3].name, "rejection.batch");
  EXPECT_EQ(spans[3].parent_id, spans[2].id);
  EXPECT_EQ(spans[3].depth, 2);

  // Tick stamps reflect the serial open/close order: a child opens after
  // its parent and (RAII) closes before it.
  for (const SpanRecord& span : spans) {
    EXPECT_GT(span.end_tick, span.start_tick);
  }
  EXPECT_GT(spans[3].start_tick, spans[2].start_tick);
  EXPECT_LT(spans[3].end_tick, spans[2].end_tick);
  EXPECT_EQ(spans[0].end_tick, clock.ticks());
}

TEST(TracerTest, EndIsIdempotentAndMoveSafe) {
  VirtualClock clock;
  Tracer tracer(&clock);
  Span span = tracer.StartSpan("a");
  span.End();
  const uint64_t end_tick = tracer.Spans()[0].end_tick;
  span.End();  // no-op
  EXPECT_EQ(tracer.Spans()[0].end_tick, end_tick);

  Span outer = tracer.StartSpan("b");
  Span moved = std::move(outer);
  outer.End();  // moved-from: no-op
  EXPECT_EQ(tracer.num_open(), 1u);
  moved.End();
  EXPECT_EQ(tracer.num_open(), 0u);
}

TEST(TracerTest, IdenticalEventSequencesProduceIdenticalJsonl) {
  auto run = [] {
    VirtualClock clock;
    Tracer tracer(&clock);
    Span run_span = tracer.StartSpan("repair.run");
    for (int i = 0; i < 3; ++i) {
      Span batch = tracer.StartSpan("rejection.batch");
      clock.AdvanceMs(10.0);
    }
    run_span.End();
    return tracer.ToJsonl();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

TEST(JournalTest, GoldenJsonl) {
  VirtualClock clock;
  Journal journal(&clock);
  journal.Record(JournalEvent("run.start").Set("tau", 30).Set("seed", 99));
  journal.Record(JournalEvent("mup.found")
                     .Set("pattern", "X3")
                     .Set("count", 19)
                     .Set("gap", 11));
  journal.Record(JournalEvent("tuple.rejected")
                     .Set("target", "0,3")
                     .Set("arm", 1)
                     .Set("reason", "distribution"));
  journal.Record(JournalEvent("run.end")
                     .Set("queries", 47)
                     .Set("accepted", 31)
                     .Set("fully_resolved", true)
                     .Set("cost", 0.75));
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.ToJsonl(),
            "{\"type\":\"run.start\",\"tick\":1,\"tau\":30,\"seed\":99}\n"
            "{\"type\":\"mup.found\",\"tick\":2,\"pattern\":\"X3\","
            "\"count\":19,\"gap\":11}\n"
            "{\"type\":\"tuple.rejected\",\"tick\":3,\"target\":\"0,3\","
            "\"arm\":1,\"reason\":\"distribution\"}\n"
            "{\"type\":\"run.end\",\"tick\":4,\"queries\":47,"
            "\"accepted\":31,\"fully_resolved\":true,\"cost\":0.75}\n");
}

TEST(JournalTest, SharesTickAxisWithTracer) {
  VirtualClock clock;
  Tracer tracer(&clock);
  Journal journal(&clock);
  Span span = tracer.StartSpan("repair.run");  // tick 1
  journal.Record(JournalEvent("run.start"));   // tick 2
  span.End();                                  // tick 3
  EXPECT_EQ(journal.Lines()[0], "{\"type\":\"run.start\",\"tick\":2}");
  EXPECT_EQ(tracer.Spans()[0].start_tick, 1u);
  EXPECT_EQ(tracer.Spans()[0].end_tick, 3u);
}

TEST(JournalTest, EscapesJsonStrings) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

// ---------------------------------------------------------------------------
// QuantileDigest
// ---------------------------------------------------------------------------

TEST(QuantileDigestTest, EmptyDigestReportsZero) {
  QuantileDigest digest;
  EXPECT_EQ(digest.count(), 0);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.5), 0.0);
}

TEST(QuantileDigestTest, ExactWhileUnderCentroidBudget) {
  // 50 values < the 64-centroid budget: quantiles are exact linear
  // interpolation over the sorted values.
  QuantileDigest digest;
  for (int i = 0; i < 50; ++i) digest.Add(((i * 37) % 50) + 1.0);  // 1..50
  EXPECT_EQ(digest.count(), 50);
  EXPECT_DOUBLE_EQ(digest.min(), 1.0);
  EXPECT_DOUBLE_EQ(digest.max(), 50.0);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.5), 25.5);
  EXPECT_DOUBLE_EQ(digest.Quantile(1.0), 50.0);
}

TEST(QuantileDigestTest, CompressionKeepsAnchorsAndMonotonicity) {
  QuantileDigest digest;
  for (int i = 0; i < 10000; ++i) {
    digest.Add(static_cast<double>((i * 7919) % 10000));  // permutation
  }
  EXPECT_EQ(digest.count(), 10000);
  EXPECT_LE(digest.num_centroids(), QuantileDigest::kDefaultMaxCentroids);
  EXPECT_DOUBLE_EQ(digest.min(), 0.0);
  EXPECT_DOUBLE_EQ(digest.max(), 9999.0);
  EXPECT_DOUBLE_EQ(digest.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(digest.Quantile(1.0), 9999.0);
  // Uniform data: each decile lands within 2% of the ideal, and the
  // quantile function is monotone in q.
  double previous = digest.Quantile(0.05);
  for (int decile = 1; decile <= 9; ++decile) {
    const double q = decile / 10.0;
    const double value = digest.Quantile(q);
    EXPECT_NEAR(value, q * 9999.0, 200.0) << "q=" << q;
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

TEST(QuantileDigestTest, IdenticalStreamsProduceIdenticalQuantiles) {
  auto build = [] {
    QuantileDigest digest;
    for (int i = 0; i < 5000; ++i) {
      digest.Add(static_cast<double>((i * 271) % 997));
    }
    return digest;
  };
  const QuantileDigest a = build();
  const QuantileDigest b = build();
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q)) << "q=" << q;
  }
}

TEST(QuantileDigestTest, MergeCoversBothStreams) {
  QuantileDigest evens;
  QuantileDigest odds;
  for (int i = 0; i < 5000; ++i) {
    evens.Add(static_cast<double>(2 * i));        // 0..9998
    odds.Add(static_cast<double>(2 * i + 1));     // 1..9999
  }
  evens.Merge(odds);
  EXPECT_EQ(evens.count(), 10000);
  EXPECT_DOUBLE_EQ(evens.min(), 0.0);
  EXPECT_DOUBLE_EQ(evens.max(), 9999.0);
  EXPECT_NEAR(evens.Quantile(0.5), 4999.5, 300.0);
  EXPECT_NEAR(evens.Quantile(0.9), 8999.0, 300.0);
}

TEST(QuantileDigestTest, MergingEmptyIntoEmptyStaysEmpty) {
  QuantileDigest a;
  const QuantileDigest b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.num_centroids(), 0u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 0.0);
}

TEST(QuantileDigestTest, MergingEmptyIntoPopulatedIsANoOp) {
  // A zero-observation digest carries no data — merging it in must not
  // disturb the min/max anchors, the count, or any centroid weight.
  QuantileDigest populated;
  for (int i = 1; i <= 200; ++i) populated.Add(static_cast<double>(i));
  const size_t centroids_before = populated.num_centroids();
  const std::vector<double> quantiles_before = {
      populated.Quantile(0.0), populated.Quantile(0.25),
      populated.Quantile(0.5), populated.Quantile(0.9),
      populated.Quantile(1.0)};

  const QuantileDigest empty;
  populated.Merge(empty);

  EXPECT_EQ(populated.count(), 200);
  EXPECT_DOUBLE_EQ(populated.min(), 1.0);
  EXPECT_DOUBLE_EQ(populated.max(), 200.0);
  EXPECT_EQ(populated.num_centroids(), centroids_before);
  const std::vector<double> quantiles_after = {
      populated.Quantile(0.0), populated.Quantile(0.25),
      populated.Quantile(0.5), populated.Quantile(0.9),
      populated.Quantile(1.0)};
  EXPECT_EQ(quantiles_after, quantiles_before);
}

TEST(QuantileDigestTest, MergingPopulatedIntoEmptyAdoptsIt) {
  QuantileDigest empty;
  QuantileDigest populated;
  for (int i = 1; i <= 200; ++i) populated.Add(static_cast<double>(i));
  empty.Merge(populated);
  EXPECT_EQ(empty.count(), 200);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.max(), 200.0);
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), populated.Quantile(0.5));
}

TEST(QuantileDigestTest, SelfMergeDoublesWithoutCorruption) {
  // d.Merge(d) used to insert the digest's own centroid vector into
  // itself — iterator invalidation once the vector reallocates. It must
  // behave like merging an identical snapshot: count doubles, anchors
  // and quantiles stay put.
  QuantileDigest digest;
  for (int i = 1; i <= 1000; ++i) {
    digest.Add(static_cast<double>((i * 37) % 1000));
  }
  const double p50_before = digest.Quantile(0.5);
  digest.Merge(digest);
  EXPECT_EQ(digest.count(), 2000);
  EXPECT_DOUBLE_EQ(digest.min(), 0.0);
  EXPECT_DOUBLE_EQ(digest.max(), 999.0);
  EXPECT_LE(digest.num_centroids(), QuantileDigest::kDefaultMaxCentroids);
  EXPECT_NEAR(digest.Quantile(0.5), p50_before, 50.0);
}

TEST(HistogramTest, QuantilesComeFromTheAttachedDigest) {
  Histogram histogram({10.0});
  for (int i = 1; i <= 50; ++i) histogram.Observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 25.5);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 50.0);
  // Digest() hands out a mergeable copy sharing the same observations.
  QuantileDigest copy = histogram.Digest();
  EXPECT_EQ(copy.count(), 50);
  copy.Add(1000.0);
  EXPECT_EQ(histogram.Digest().count(), 50);  // the copy is detached
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExportTest, OpenMetricsGolden) {
  Registry registry;
  registry.Counter("fm.queries")->Increment(47);
  registry.Gauge("run.estimated_p")->Set(0.82);
  registry.Histogram("lat", {1.0, 2.0})->Observe(1.5);
  EXPECT_EQ(ExportOpenMetrics(registry),
            "# TYPE fm_queries counter\n"
            "fm_queries_total 47\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"1\"} 0\n"
            "lat_bucket{le=\"2\"} 1\n"
            "lat_bucket{le=\"+Inf\"} 1\n"
            "lat_sum 1.5\n"
            "lat_count 1\n"
            "# TYPE lat_latency summary\n"
            "lat_latency{quantile=\"0.5\"} 1.5\n"
            "lat_latency{quantile=\"0.9\"} 1.5\n"
            "lat_latency{quantile=\"0.99\"} 1.5\n"
            "# TYPE run_estimated_p gauge\n"
            "run_estimated_p 0.82\n"
            "# EOF\n");
}

TEST(ExportTest, TraceEventsGolden) {
  VirtualClock clock;
  Tracer tracer(&clock);
  Span run_span = tracer.StartSpan("repair.run");  // tick 1, left open
  {
    Span batch = tracer.StartSpan("rejection.batch");  // tick 2
    clock.AdvanceMs(10.0);
  }  // ends at tick 3
  EXPECT_EQ(
      ExportTraceEvents(tracer),
      "{\"displayTimeUnit\":\"ms\",\"otherData\":"
      "{\"clock\":\"virtual ticks (1 tick = 1us)\"},\"traceEvents\":[\n"
      "{\"name\":\"repair.run\",\"cat\":\"chameleon\",\"ph\":\"B\","
      "\"pid\":1,\"tid\":1,\"ts\":1,\"args\":{\"id\":1,\"parent\":0,"
      "\"depth\":0,\"start_ms\":0,\"end_ms\":0}},\n"
      "{\"name\":\"rejection.batch\",\"cat\":\"chameleon\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":1,\"ts\":2,\"dur\":1,\"args\":{\"id\":2,"
      "\"parent\":1,\"depth\":1,\"start_ms\":0,\"end_ms\":10}}\n"
      "]}\n");
}

TEST(ExportTest, WritersPropagateIoFailures) {
  Registry registry;
  registry.Counter("fm.queries")->Increment();
  VirtualClock clock;
  Tracer tracer(&clock);
  EXPECT_FALSE(WriteOpenMetrics(registry, "/nonexistent-dir/m.om").ok());
  EXPECT_FALSE(WriteTraceEvents(tracer, "/nonexistent-dir/t.json").ok());
  const std::string path = ::testing::TempDir() + "obs_export_test.om";
  ASSERT_TRUE(WriteOpenMetrics(registry, path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), ExportOpenMetrics(registry));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Streaming sinks
// ---------------------------------------------------------------------------

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(JournalTest, StreamToAppendsAndFlushesPerLine) {
  VirtualClock clock;
  Journal journal(&clock);
  journal.Record(JournalEvent("run.start").Set("tau", 30));
  const std::string path = ::testing::TempDir() + "obs_stream_journal.jsonl";
  // StreamTo catches up lines recorded before the stream was attached.
  ASSERT_TRUE(journal.StreamTo(path).ok());
  EXPECT_TRUE(journal.streaming());
  EXPECT_EQ(ReadAll(path), journal.ToJsonl());
  // Each subsequent Record lands on disk immediately (no Close needed),
  // which is what makes journals from killed runs analyzable.
  journal.Record(JournalEvent("fm.query").Set("target", "0,3"));
  EXPECT_EQ(ReadAll(path), journal.ToJsonl());
  ASSERT_TRUE(journal.CloseStream().ok());
  EXPECT_FALSE(journal.streaming());
  EXPECT_EQ(ReadAll(path), journal.ToJsonl());
  std::remove(path.c_str());
}

TEST(JournalTest, StreamToWhileStreamingFails) {
  VirtualClock clock;
  Journal journal(&clock);
  const std::string path = ::testing::TempDir() + "obs_stream_twice.jsonl";
  ASSERT_TRUE(journal.StreamTo(path).ok());
  EXPECT_FALSE(journal.StreamTo(path).ok());
  ASSERT_TRUE(journal.CloseStream().ok());
  // After a clean close the journal can stream again.
  ASSERT_TRUE(journal.StreamTo(path).ok());
  ASSERT_TRUE(journal.CloseStream().ok());
  std::remove(path.c_str());
  EXPECT_FALSE(journal.StreamTo("/nonexistent-dir/journal.jsonl").ok());
}

TEST(TracerTest, StreamWritesSpansInCompletionOrder) {
  VirtualClock clock;
  Tracer tracer(&clock);
  const std::string path = ::testing::TempDir() + "obs_stream_trace.jsonl";
  ASSERT_TRUE(tracer.StreamTo(path).ok());
  Span outer = tracer.StartSpan("repair.run");
  {
    Span inner = tracer.StartSpan("rejection.batch");
    clock.AdvanceMs(5.0);
  }  // inner ends first: it streams before the still-open outer span
  const std::string after_inner = ReadAll(path);
  EXPECT_NE(after_inner.find("rejection.batch"), std::string::npos);
  EXPECT_EQ(after_inner.find("repair.run"), std::string::npos);
  outer.End();
  ASSERT_TRUE(tracer.CloseStream().ok());
  const std::string streamed = ReadAll(path);
  EXPECT_EQ(streamed, SpanToJson(tracer.Spans()[1]) + "\n" +
                          SpanToJson(tracer.Spans()[0]) + "\n");
  std::remove(path.c_str());
}

TEST(JournalTest, WriteExportsJsonlToDisk) {
  VirtualClock clock;
  Journal journal(&clock);
  journal.Record(JournalEvent("run.start").Set("tau", 30));
  const std::string path = ::testing::TempDir() + "obs_journal_test.jsonl";
  ASSERT_TRUE(journal.Write(path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), journal.ToJsonl());
  std::remove(path.c_str());
  EXPECT_FALSE(journal.Write("/nonexistent-dir/journal.jsonl").ok());
}

}  // namespace
}  // namespace chameleon::obs

// ---------------------------------------------------------------------------
// Pipeline determinism: the instrumented repair run
// ---------------------------------------------------------------------------

namespace chameleon::core {
namespace {

struct ObservedRun {
  RepairReport report;
  std::string journal;
  std::string trace;
  std::vector<obs::MetricSample> metrics;
  int64_t model_queries = 0;
};

/// One seeded FERET repair with an observability sink attached (or not).
ObservedRun RunObserved(int num_threads, bool observe,
                        int rejection_batch = 4) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus = *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel model(corpus.dataset.schema(),
                                     datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(),
                                     fm::SimulatedFoundationModel::Options());

  obs::Observability observability;
  ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.num_threads = num_threads;
  options.rejection_batch = rejection_batch;
  if (observe) options.observability = &observability;

  Chameleon system(&model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  EXPECT_TRUE(report.ok());

  ObservedRun run;
  run.report = *report;
  run.journal = observability.journal.ToJsonl();
  run.trace = observability.tracer.ToJsonl();
  run.metrics = observability.registry.Snapshot();
  run.model_queries = model.num_queries();
  return run;
}

/// The stable subset of a snapshot, flattened for exact comparison.
std::map<std::string, std::string> StableMetrics(
    const std::vector<obs::MetricSample>& samples) {
  std::map<std::string, std::string> out;
  for (const obs::MetricSample& sample : samples) {
    if (!obs::IsStableMetric(sample.name)) continue;
    std::string value = sample.type;
    value += ':';
    value += obs::FormatMetricValue(sample.value);
    if (sample.type == "histogram") {
      value += ":sum=";
      value += obs::FormatMetricValue(sample.sum);
      for (int64_t bucket : sample.buckets) {
        value += ',';
        value += std::to_string(bucket);
      }
    }
    out[sample.name] = value;
  }
  return out;
}

TEST(ObsPipelineTest, InstrumentedRunIsByteIdenticalAcrossThreadCounts) {
  const ObservedRun serial = RunObserved(/*num_threads=*/1, /*observe=*/true);
  ASSERT_GT(serial.report.accepted, 0);
  ASSERT_FALSE(serial.journal.empty());
  ASSERT_FALSE(serial.trace.empty());

  for (int threads : {2, 8}) {
    const ObservedRun parallel = RunObserved(threads, /*observe=*/true);
    EXPECT_EQ(parallel.journal, serial.journal) << threads << " threads";
    EXPECT_EQ(parallel.trace, serial.trace) << threads << " threads";
    EXPECT_EQ(StableMetrics(parallel.metrics), StableMetrics(serial.metrics))
        << threads << " threads";
  }
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
std::string Fnv1aHex(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

std::string StableMetricsDigest(const std::vector<obs::MetricSample>& samples) {
  std::string flat;
  for (const auto& [name, value] : StableMetrics(samples)) {
    flat += name + "=" + value + "\n";
  }
  return Fnv1aHex(flat);
}

// Golden artifacts of fixed observed repairs (FERET, tau 40, seed 11) at
// rejection_batch 1 and 8. The thread-count test above only compares runs
// of one build with each other; these digests pin the journal, trace and
// stable metrics themselves, so reordering fm.query / fm.batch events or
// moving work between the serial and parallel stages of a round fails
// here even when every thread count agrees. The rejection_batch 1 values
// were captured from the one-dispatch-per-query pipeline; the
// rejection_batch 8 values from the one-dispatch-per-round pipeline
// (13 `fm.batch` events of up to 8 queries each).
TEST(ObsPipelineTest, RejectionBatchRunMatchesGoldenDigests) {
  struct Golden {
    int rejection_batch;
    const char* journal;
    const char* trace;
    const char* stable_metrics;
  };
  const Golden goldens[] = {
      {1, "0899f8af0331bfb7", "692a083a55d21fe2", "748174441bb4e925"},
      {8, "147f58a17d55f0e6", "1532c8cb7f3d2c33", "593a3fdcc683d517"},
  };
  for (const Golden& golden : goldens) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("rejection_batch=" + std::to_string(golden.rejection_batch) +
                   " threads=" + std::to_string(threads));
      const ObservedRun run =
          RunObserved(threads, /*observe=*/true, golden.rejection_batch);
      EXPECT_EQ(run.report.queries, 72);
      EXPECT_EQ(run.report.accepted, 51);
      EXPECT_EQ(Fnv1aHex(run.journal), golden.journal);
      EXPECT_EQ(Fnv1aHex(run.trace), golden.trace);
      EXPECT_EQ(StableMetricsDigest(run.metrics), golden.stable_metrics);
    }
  }
}

TEST(ObsPipelineTest, JournalHasWellFormedEventStructure) {
  const ObservedRun run = RunObserved(/*num_threads=*/2, /*observe=*/true);
  std::vector<std::string> lines;
  std::stringstream stream(run.journal);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_GE(lines.size(), 4u);

  auto type_of = [](const std::string& line) {
    const std::string prefix = "{\"type\":\"";
    EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
    return line.substr(prefix.size(),
                       line.find('"', prefix.size()) - prefix.size());
  };
  EXPECT_EQ(type_of(lines.front()), "run.start");
  EXPECT_EQ(type_of(lines.back()), "run.end");

  const std::vector<std::string> known = {
      "run.start", "mup.found", "plan.entry",     "fm.query",
      "fm.retry",  "fm.parked", "fm.breaker",     "fm.batch",
      "run.end",   "tuple.accepted",              "tuple.rejected"};
  std::map<std::string, int> seen;
  for (const std::string& line : lines) {
    const std::string type = type_of(line);
    EXPECT_NE(std::find(known.begin(), known.end(), type), known.end())
        << "unknown journal event type: " << type;
    ++seen[type];
  }
  EXPECT_EQ(seen["run.start"], 1);
  EXPECT_EQ(seen["run.end"], 1);
  EXPECT_GT(seen["mup.found"], 0);
  EXPECT_GT(seen["plan.entry"], 0);
  // Every issued query journals one fm.query (parked ones included);
  // every evaluated candidate journals exactly one verdict.
  EXPECT_EQ(seen["fm.query"], run.report.queries + seen["fm.parked"]);
  EXPECT_EQ(seen["tuple.accepted"] + seen["tuple.rejected"],
            run.report.queries);
  EXPECT_EQ(seen["tuple.accepted"], run.report.accepted);
}

TEST(ObsPipelineTest, ObservabilityDoesNotPerturbAcceptedTuples) {
  const ObservedRun on = RunObserved(/*num_threads=*/2, /*observe=*/true);
  const ObservedRun off = RunObserved(/*num_threads=*/2, /*observe=*/false);
  EXPECT_EQ(on.report.queries, off.report.queries);
  EXPECT_EQ(on.report.accepted, off.report.accepted);
  EXPECT_EQ(on.report.distribution_passes, off.report.distribution_passes);
  EXPECT_EQ(on.report.quality_passes, off.report.quality_passes);
  EXPECT_EQ(on.report.fully_resolved, off.report.fully_resolved);
  EXPECT_EQ(on.model_queries, off.model_queries);
  ASSERT_EQ(on.report.records.size(), off.report.records.size());
  for (size_t i = 0; i < on.report.records.size(); ++i) {
    EXPECT_EQ(on.report.records[i].target_values,
              off.report.records[i].target_values);
    EXPECT_EQ(on.report.records[i].embedding, off.report.records[i].embedding);
    EXPECT_EQ(on.report.records[i].arm, off.report.records[i].arm);
    EXPECT_EQ(on.report.records[i].accepted, off.report.records[i].accepted);
  }
  // The off run recorded literally nothing.
  EXPECT_TRUE(off.journal.empty());
  EXPECT_TRUE(off.trace.empty());
  EXPECT_TRUE(off.metrics.empty());
}

}  // namespace
}  // namespace chameleon::core
