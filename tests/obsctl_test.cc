// Tests for the obsctl analysis passes (tools/obsctl): the minimal JSON
// parser, journal/trace/metrics aggregation, the rendered report and its
// registry-contract cross-checks, the artifact differ, and the bench
// JSON schema validator. The end-to-end test pins the acceptance
// criterion that `obsctl report` over a real instrumented repair run is
// byte-identical at every thread count.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/observability.h"
#include "tools/obsctl/analysis.h"
#include "tools/obsctl/json.h"

namespace chameleon::obsctl {
namespace {

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(JsonParserTest, ParsesScalarsAndStructure) {
  auto value = ParseJson(
      R"({"a": 1.5, "b": "x", "c": true, "d": null, "e": [1, -2, 3e2]})");
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->is_object());
  EXPECT_DOUBLE_EQ(value->NumberOr("a", 0.0), 1.5);
  EXPECT_EQ(value->StringOr("b", ""), "x");
  EXPECT_TRUE(value->BoolOr("c", false));
  ASSERT_NE(value->Find("d"), nullptr);
  EXPECT_EQ(value->Find("d")->kind, JsonValue::Kind::kNull);
  const JsonValue* array = value->Find("e");
  ASSERT_TRUE(array != nullptr && array->is_array());
  ASSERT_EQ(array->items.size(), 3u);
  EXPECT_DOUBLE_EQ(array->items[1].number_value, -2.0);
  EXPECT_DOUBLE_EQ(array->items[2].number_value, 300.0);
}

TEST(JsonParserTest, KeepsObjectFieldsInDocumentOrder) {
  auto value = ParseJson(R"({"zeta": 1, "alpha": 2, "mid": 3})");
  ASSERT_TRUE(value.ok());
  ASSERT_EQ(value->fields.size(), 3u);
  EXPECT_EQ(value->fields[0].first, "zeta");
  EXPECT_EQ(value->fields[1].first, "alpha");
  EXPECT_EQ(value->fields[2].first, "mid");
}

TEST(JsonParserTest, DecodesEscapes) {
  auto value = ParseJson(R"({"s": "a\"b\\c\nd	e"})");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->StringOr("s", ""), "a\"b\\c\nd\te");
}

TEST(JsonParserTest, IntOrFallsBackOutsideInt64) {
  auto value = ParseJson(
      R"({"big": 1e19, "small": -1e19, "inf": 1e400, "edge": -9223372036854775808,)"
      R"( "frac": -2.75})");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->IntOr("big", 7), 7);
  EXPECT_EQ(value->IntOr("small", 7), 7);
  EXPECT_EQ(value->IntOr("inf", 7), 7);
  EXPECT_EQ(value->IntOr("edge", 7), INT64_MIN);
  EXPECT_EQ(value->IntOr("frac", 7), -2);
  EXPECT_FALSE(FitsInt64(9223372036854775808.0));
  EXPECT_TRUE(FitsInt64(9223372036854774784.0));  // largest double < 2^63
}

TEST(JsonParserTest, RejectsTruncationAndTrailingContent) {
  EXPECT_FALSE(ParseJson(R"({"type":"run.e)").ok());
  EXPECT_FALSE(ParseJson(R"({"a":1)").ok());
  EXPECT_FALSE(ParseJson(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_TRUE(ParseJson("{\"a\":1}  \n").ok());
}

// ---------------------------------------------------------------------------
// JSONL parsing with killed-run tolerance
// ---------------------------------------------------------------------------

TEST(ParseJsonlTest, ToleratesTruncatedFinalLineOnly) {
  auto clean = ParseJsonl("{\"a\":1}\n{\"b\":2}\n");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->lines.size(), 2u);
  EXPECT_FALSE(clean->truncated_tail);

  // A ragged final line — the signature of a killed streaming run — is
  // dropped, and the intact prefix is kept.
  auto truncated = ParseJsonl("{\"a\":1}\n{\"b\":2}\n{\"type\":\"run.e");
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->lines.size(), 2u);
  EXPECT_TRUE(truncated->truncated_tail);

  // Corruption anywhere earlier is a hard error naming the line.
  auto corrupt = ParseJsonl("{\"a\":1}\nnot json\n{\"b\":2}\n");
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("line 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Journal analysis
// ---------------------------------------------------------------------------

constexpr char kJournal[] =
    "{\"type\":\"run.start\",\"tick\":1,\"tau\":40,\"seed\":11}\n"
    "{\"type\":\"plan.entry\",\"tick\":2,\"target\":\"0,3\",\"count\":2}\n"
    "{\"type\":\"fm.query\",\"tick\":3,\"target\":\"0,3\",\"arm\":0,"
    "\"guided\":true}\n"
    "{\"type\":\"fm.retry\",\"tick\":4,\"attempt\":1,\"backoff_ms\":8}\n"
    "{\"type\":\"tuple.accepted\",\"tick\":5,\"target\":\"0,3\",\"arm\":0}\n"
    "{\"type\":\"fm.query\",\"tick\":6,\"target\":\"0,3\",\"arm\":1,"
    "\"guided\":true}\n"
    "{\"type\":\"tuple.rejected\",\"tick\":7,\"target\":\"0,3\",\"arm\":1,"
    "\"reason\":\"quality\"}\n"
    "{\"type\":\"fm.query\",\"tick\":8,\"target\":\"0,3\",\"arm\":1,"
    "\"guided\":true}\n"
    "{\"type\":\"fm.parked\",\"tick\":9,\"target\":\"0,3\","
    "\"code\":\"unavailable\"}\n"
    "{\"type\":\"run.end\",\"tick\":10,\"queries\":2,\"accepted\":1,"
    "\"parked\":1,\"fully_resolved\":false}\n";

TEST(AnalyzeJournalTest, AggregatesPerTargetAndPerArm) {
  auto stats = AnalyzeJournal(kJournal);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total_events, 10);
  EXPECT_TRUE(stats->has_run_start);
  EXPECT_EQ(stats->tau, 40);
  EXPECT_EQ(stats->seed, 11);
  EXPECT_TRUE(stats->has_run_end);
  EXPECT_EQ(stats->end_queries, 2);
  EXPECT_FALSE(stats->fully_resolved);

  ASSERT_EQ(stats->targets.size(), 1u);
  const TargetStats& target = stats->targets[0].second;
  EXPECT_EQ(stats->targets[0].first, "0,3");
  EXPECT_EQ(target.planned, 2);
  EXPECT_EQ(target.queries, 3);
  EXPECT_EQ(target.accepted, 1);
  EXPECT_EQ(target.rejected_quality, 1);
  EXPECT_EQ(target.rejected(), 1);
  // The fm.retry event carries no target; it belongs to the most recent
  // fm.query's target.
  EXPECT_EQ(target.retries, 1);
  EXPECT_EQ(target.parked, 1);

  ASSERT_EQ(stats->arms.size(), 2u);
  EXPECT_EQ(stats->arms.at(0).pulls, 1);
  EXPECT_EQ(stats->arms.at(0).accepted, 1);
  EXPECT_EQ(stats->arms.at(1).pulls, 2);
  EXPECT_EQ(stats->arms.at(1).rejected, 1);

  // accepted(1) + rejected(1) == queries(3) - parked(1).
  EXPECT_TRUE(stats->ContractHolds());
}

TEST(AnalyzeJournalTest, DetectsContractViolations) {
  // A query with no verdict and no park: the registry contract breaks.
  auto stats = AnalyzeJournal(
      "{\"type\":\"fm.query\",\"tick\":1,\"target\":\"0,3\",\"arm\":0}\n");
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->ContractHolds());
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

TEST(AnalyzeTraceTest, RollsUpByNameAndCountsOpenSpans) {
  const std::string trace =
      "{\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"repair.run\","
      "\"start_tick\":1,\"end_tick\":0}\n"
      "{\"id\":2,\"parent\":1,\"depth\":1,\"name\":\"plan.entry\","
      "\"start_tick\":2,\"end_tick\":10}\n"
      "{\"id\":3,\"parent\":1,\"depth\":1,\"name\":\"plan.entry\","
      "\"start_tick\":11,\"end_tick\":15}\n";
  bool truncated = true;
  auto rollups = AnalyzeTrace(trace, &truncated);
  ASSERT_TRUE(rollups.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(rollups->size(), 2u);
  EXPECT_EQ((*rollups)[0].name, "repair.run");
  EXPECT_EQ((*rollups)[0].open, 1);
  EXPECT_EQ((*rollups)[0].count, 0);
  EXPECT_EQ((*rollups)[1].name, "plan.entry");
  EXPECT_EQ((*rollups)[1].count, 2);
  EXPECT_EQ((*rollups)[1].total_ticks, 12);
  EXPECT_DOUBLE_EQ((*rollups)[1].ticks.Quantile(1.0), 8.0);
}

// ---------------------------------------------------------------------------
// Metrics analysis
// ---------------------------------------------------------------------------

TEST(AnalyzeMetricsTest, MapsNameToTypedValue) {
  auto metrics = AnalyzeMetrics(
      "{\"name\":\"fm.queries\",\"type\":\"counter\",\"value\":112}\n"
      "{\"name\":\"run.estimated_p\",\"type\":\"gauge\",\"value\":0.84}\n");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->at("fm.queries").type, "counter");
  EXPECT_DOUBLE_EQ(metrics->at("fm.queries").value, 112.0);
  EXPECT_DOUBLE_EQ(metrics->at("run.estimated_p").value, 0.84);
}

// ---------------------------------------------------------------------------
// Report golden
// ---------------------------------------------------------------------------

TEST(ReportTest, GoldenReport) {
  ReportInput input;
  input.journal_text = kJournal;
  auto report = BuildReport(input);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->contract_ok);
  EXPECT_EQ(
      report->rendered,
      "== obsctl report ==\n"
      "journal events: 10\n"
      "run: tau=40 seed=11\n"
      "totals: queries=3 evaluated=2 accepted=1 rejected=1 parked=1 "
      "retries=1\n"
      "run.end: queries=2 accepted=1 parked_entries=1 fully_resolved=no\n"
      "\n"
      "contract checks:\n"
      "  accepted+rejected == queries-parked: OK (2 vs 2)\n"
      "  run.end.queries == queries-parked: OK (2 vs 2)\n"
      "  run.end.accepted == accepted: OK (1 vs 1)\n"
      "\n"
      "== per-MUP repair cost ==\n"
      "+--------+---------+---------+----------+----------+----------+"
      "----------+---------+--------+\n"
      "| target | planned | queries | accepted | rej.dist | rej.qual | "
      "rej.both | retries | parked |\n"
      "+--------+---------+---------+----------+----------+----------+"
      "----------+---------+--------+\n"
      "| 0,3    | 2       | 3       | 1        | 0        | 1        | "
      "0        | 1       | 1      |\n"
      "| TOTAL  | 2       | 3       | 1        | 0        | 1        | "
      "0        | 1       | 1      |\n"
      "+--------+---------+---------+----------+----------+----------+"
      "----------+---------+--------+\n"
      "\n"
      "== per-arm pulls/rewards ==\n"
      "+-----+-------+----------+----------+-------------+\n"
      "| arm | pulls | accepted | rejected | accept_rate |\n"
      "+-----+-------+----------+----------+-------------+\n"
      "| 0   | 1     | 1        | 0        | 100.0%      |\n"
      "| 1   | 2     | 0        | 1        | 0.0%        |\n"
      "+-----+-------+----------+----------+-------------+\n");
}

TEST(ReportTest, ContractViolationSetsFlagAndExitPath) {
  ReportInput input;
  input.journal_text =
      "{\"type\":\"fm.query\",\"tick\":1,\"target\":\"0,3\",\"arm\":0}\n";
  auto report = BuildReport(input);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->contract_ok);
  EXPECT_NE(report->rendered.find("VIOLATED"), std::string::npos);
}

TEST(ReportTest, MetricsCrossCheckCatchesRegistryDrift) {
  ReportInput input;
  input.journal_text = kJournal;
  // The journal saw 3 fm.query events; a counter claiming 4 is drift.
  input.metrics_text =
      "{\"name\":\"fm.queries\",\"type\":\"counter\",\"value\":4}\n"
      "{\"name\":\"rejection.accepted\",\"type\":\"counter\",\"value\":1}\n"
      "{\"name\":\"rejection.rejected\",\"type\":\"counter\",\"value\":1}\n";
  auto report = BuildReport(input);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->contract_ok);
  EXPECT_NE(report->rendered.find(
                "metrics fm.queries == journal fm.query: VIOLATED"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Artifact detection + diff
// ---------------------------------------------------------------------------

std::string BenchDoc(const std::string& cases) {
  return "{\"schema_version\": 1, \"name\": \"bench_x\", \"git_sha\": "
         "\"abc1234\", \"build_type\": \"release\", \"smoke\": true, "
         "\"config\": {}, \"cases\": [" +
         cases + "]}";
}

std::string BenchCaseJson(const std::string& name, double ns) {
  const std::string value = std::to_string(ns);
  return "{\"name\": \"" + name + "\", \"ns_per_op\": " + value +
         ", \"iterations\": 10, \"p50_ns\": " + value +
         ", \"p90_ns\": " + value + ", \"p99_ns\": " + value + "}";
}

TEST(DetectArtifactKindTest, SniffsAllThreeKinds) {
  auto bench = DetectArtifactKind(BenchDoc(BenchCaseJson("c", 10.0)));
  ASSERT_TRUE(bench.ok());
  EXPECT_EQ(*bench, ArtifactKind::kBenchJson);

  auto journal = DetectArtifactKind(kJournal);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(*journal, ArtifactKind::kJournalJsonl);

  auto metrics = DetectArtifactKind(
      "{\"name\":\"fm.queries\",\"type\":\"counter\",\"value\":112}\n");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(*metrics, ArtifactKind::kMetricsJsonl);

  EXPECT_FALSE(DetectArtifactKind("").ok());
  EXPECT_FALSE(DetectArtifactKind("not json\n").ok());
}

TEST(DiffTest, BenchRegressionsAreGatedByThreshold) {
  const std::string base = BenchDoc(BenchCaseJson("BM_Fast", 100.0) + ", " +
                                    BenchCaseJson("BM_Slow", 100.0));
  const std::string regressed = BenchDoc(
      BenchCaseJson("BM_Fast", 110.0) + ", " + BenchCaseJson("BM_Slow", 150.0));
  auto diff = DiffArtifacts(base, regressed, 0.25);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->compared, 2);
  EXPECT_EQ(diff->flagged, 1);    // +10% is under the 25% gate
  EXPECT_EQ(diff->regressions, 1);
  EXPECT_NE(diff->rendered.find("REGRESSION"), std::string::npos);
  EXPECT_NE(diff->rendered.find("+50.0%"), std::string::npos);
}

TEST(DiffTest, ImprovementsAreFlaggedButNotRegressions) {
  const std::string base = BenchDoc(BenchCaseJson("BM_X", 100.0));
  const std::string improved = BenchDoc(BenchCaseJson("BM_X", 50.0));
  auto diff = DiffArtifacts(base, improved, 0.25);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->flagged, 1);
  EXPECT_EQ(diff->regressions, 0);
  EXPECT_NE(diff->rendered.find("improved"), std::string::npos);
}

TEST(DiffTest, MetricsCountDeltasAreSymmetricRegressions) {
  const std::string base =
      "{\"name\":\"fm.queries\",\"type\":\"counter\",\"value\":100}\n";
  const std::string drifted =
      "{\"name\":\"fm.queries\",\"type\":\"counter\",\"value\":10}\n";
  auto identical = DiffArtifacts(base, base, 0.25);
  ASSERT_TRUE(identical.ok());
  EXPECT_EQ(identical->regressions, 0);
  // Identical runs were expected: a shrinking count regresses too.
  auto diff = DiffArtifacts(base, drifted, 0.25);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->regressions, 1);
}

TEST(DiffTest, KindMismatchFails) {
  auto diff = DiffArtifacts(BenchDoc(BenchCaseJson("c", 1.0)), kJournal, 0.25);
  EXPECT_FALSE(diff.ok());
}

// ---------------------------------------------------------------------------
// Bench JSON schema validation
// ---------------------------------------------------------------------------

TEST(ValidateBenchJsonTest, AcceptsWellFormedReport) {
  EXPECT_TRUE(ValidateBenchJson(BenchDoc(BenchCaseJson("c", 10.0))).ok());
}

TEST(ValidateBenchJsonTest, RejectsMalformedReports) {
  EXPECT_FALSE(ValidateBenchJson("not json").ok());
  EXPECT_FALSE(ValidateBenchJson("{\"schema_version\": 99}").ok());
  // Missing git_sha.
  EXPECT_FALSE(
      ValidateBenchJson(
          "{\"schema_version\": 1, \"name\": \"x\", \"build_type\": "
          "\"release\", \"cases\": [" +
          BenchCaseJson("c", 1.0) + "]}")
          .ok());
  // Empty cases.
  EXPECT_FALSE(ValidateBenchJson(BenchDoc("")).ok());
  // Unordered percentiles.
  EXPECT_FALSE(
      ValidateBenchJson(BenchDoc(
          "{\"name\": \"c\", \"ns_per_op\": 1, \"iterations\": 1, "
          "\"p50_ns\": 5, \"p90_ns\": 2, \"p99_ns\": 9}"))
          .ok());
  // Zero iterations.
  EXPECT_FALSE(
      ValidateBenchJson(BenchDoc(
          "{\"name\": \"c\", \"ns_per_op\": 1, \"iterations\": 0, "
          "\"p50_ns\": 1, \"p90_ns\": 1, \"p99_ns\": 1}"))
          .ok());
}

// ---------------------------------------------------------------------------
// End-to-end: report determinism over a real instrumented repair
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string journal;
  std::string trace;
  std::string metrics;
  int64_t queries = 0;
  int64_t accepted = 0;
};

RunArtifacts RunInstrumentedRepair(int num_threads) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus =
      *datasets::MakeFeret(&embedder, datasets::FeretOptions());
  fm::SimulatedFoundationModel model(corpus.dataset.schema(),
                                     datasets::FeretFaceStyleFn(),
                                     datasets::FeretScene(),
                                     fm::SimulatedFoundationModel::Options());
  obs::Observability observability;
  core::ChameleonOptions options;
  options.tau = 40;
  options.seed = 11;
  options.num_threads = num_threads;
  options.rejection_batch = 4;
  options.observability = &observability;
  core::Chameleon system(&model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&corpus);
  EXPECT_TRUE(report.ok());

  RunArtifacts artifacts;
  artifacts.journal = observability.journal.ToJsonl();
  artifacts.trace = observability.tracer.ToJsonl();
  artifacts.metrics = observability.registry.ToJson();
  artifacts.queries = report->queries;
  artifacts.accepted = report->accepted;
  return artifacts;
}

TEST(ObsctlPipelineTest, ReportIsByteIdenticalAcrossThreadCounts) {
  const RunArtifacts serial = RunInstrumentedRepair(1);
  ReportInput input;
  input.journal_text = serial.journal;
  input.trace_text = serial.trace;
  input.metrics_text = serial.metrics;
  auto serial_report = BuildReport(input);
  ASSERT_TRUE(serial_report.ok());
  EXPECT_TRUE(serial_report->contract_ok);

  // The report's totals match the pipeline's own RepairReport exactly:
  // evaluated queries and accepted tuples agree with the run.
  auto stats = AnalyzeJournal(serial.journal);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->TotalQueries() - stats->TotalParked(), serial.queries);
  EXPECT_EQ(stats->TotalAccepted(), serial.accepted);

  for (int threads : {2, 8}) {
    const RunArtifacts parallel = RunInstrumentedRepair(threads);
    ReportInput parallel_input;
    parallel_input.journal_text = parallel.journal;
    parallel_input.trace_text = parallel.trace;
    parallel_input.metrics_text = parallel.metrics;
    auto parallel_report = BuildReport(parallel_input);
    ASSERT_TRUE(parallel_report.ok());
    EXPECT_TRUE(parallel_report->contract_ok) << threads << " threads";
    EXPECT_EQ(parallel_report->rendered, serial_report->rendered)
        << threads << " threads";
  }
}

TEST(ObsctlPipelineTest, TruncatedJournalStillAnalyzes) {
  const RunArtifacts run = RunInstrumentedRepair(1);
  // Chop the journal mid-final-line, as a kill -9 during a streamed
  // write would.
  const std::string truncated =
      run.journal.substr(0, run.journal.size() - 25);
  ReportInput input;
  input.journal_text = truncated;
  auto report = BuildReport(input);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->rendered.find("truncated tail"), std::string::npos);
  EXPECT_NE(report->rendered.find("run.end: missing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Interleaved multi-request traces (the combined daemon trace case)
// ---------------------------------------------------------------------------

TEST(AnalyzeTraceTest, InterleavedRequestsKeyedByRidAndId) {
  // Two concurrent requests both number their spans from 1. Keyed by id
  // alone, request B's span 1 would collide with request A's and the
  // depth-1 child would attach to the wrong parent.
  const std::string trace =
      "{\"rid\":\"a\",\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"repair.run\","
      "\"start_tick\":1,\"end_tick\":20}\n"
      "{\"rid\":\"b\",\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"repair.run\","
      "\"start_tick\":1,\"end_tick\":30}\n"
      "{\"rid\":\"a\",\"id\":2,\"parent\":1,\"depth\":1,\"name\":\"plan.entry\","
      "\"start_tick\":2,\"end_tick\":10}\n"
      "{\"rid\":\"b\",\"id\":2,\"parent\":1,\"depth\":1,\"name\":\"plan.entry\","
      "\"start_tick\":3,\"end_tick\":13}\n";
  bool truncated = true;
  auto rollups = AnalyzeTrace(trace, &truncated);
  ASSERT_TRUE(rollups.ok()) << rollups.status().ToString();
  EXPECT_FALSE(truncated);
  ASSERT_EQ(rollups->size(), 2u);
  // Four distinct spans, not two: (a,1), (b,1), (a,2), (b,2).
  EXPECT_EQ((*rollups)[0].name, "repair.run");
  EXPECT_EQ((*rollups)[0].count, 2);
  EXPECT_EQ((*rollups)[0].depth, 0);
  EXPECT_EQ((*rollups)[0].total_ticks, 19 + 29);
  EXPECT_EQ((*rollups)[1].name, "plan.entry");
  EXPECT_EQ((*rollups)[1].count, 2);
  EXPECT_EQ((*rollups)[1].depth, 1);
  EXPECT_EQ((*rollups)[1].total_ticks, 8 + 10);
}

TEST(AnalyzeTraceTest, DuplicateRecordsPreferCompletedSpan) {
  // A streamed trace can carry a catch-up record (open) and the final
  // record (ended) for the same span; they must collapse to one span.
  const std::string trace =
      "{\"rid\":\"a\",\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"repair.run\","
      "\"start_tick\":1,\"end_tick\":0}\n"
      "{\"rid\":\"a\",\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"repair.run\","
      "\"start_tick\":1,\"end_tick\":9}\n";
  bool truncated = false;
  auto rollups = AnalyzeTrace(trace, &truncated);
  ASSERT_TRUE(rollups.ok());
  ASSERT_EQ(rollups->size(), 1u);
  EXPECT_EQ((*rollups)[0].count, 1);
  EXPECT_EQ((*rollups)[0].open, 0);
  EXPECT_EQ((*rollups)[0].total_ticks, 8);
}

TEST(AnalyzeTraceTest, BrokenParentChainFallsBackToRecordedDepth) {
  // Parent 7 never appears (streamed partial file): the recorded depth
  // is trusted instead of walking the chain.
  const std::string trace =
      "{\"id\":9,\"parent\":7,\"depth\":3,\"name\":\"orphan\","
      "\"start_tick\":5,\"end_tick\":6}\n";
  bool truncated = false;
  auto rollups = AnalyzeTrace(trace, &truncated);
  ASSERT_TRUE(rollups.ok());
  ASSERT_EQ(rollups->size(), 1u);
  EXPECT_EQ((*rollups)[0].depth, 3);
}

// ---------------------------------------------------------------------------
// OpenMetrics validation
// ---------------------------------------------------------------------------

TEST(ValidateOpenMetricsTest, AcceptsWellFormedExposition) {
  const std::string text =
      "# TYPE fm_queries counter\n"
      "fm_queries_total 320\n"
      "# TYPE run_estimated_p gauge\n"
      "run_estimated_p 0.834\n"
      "# TYPE fm_batch_size histogram\n"
      "fm_batch_size_bucket{le=\"1\"} 82\n"
      "fm_batch_size_bucket{le=\"+Inf\"} 144\n"
      "fm_batch_size_sum 320\n"
      "fm_batch_size_count 144\n"
      "# TYPE fm_batch_size_latency summary\n"
      "fm_batch_size_latency{quantile=\"0.5\"} 1\n"
      "# EOF\n";
  const util::Status status = ValidateOpenMetrics(text);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ValidateOpenMetricsTest, RejectsStructuralViolations) {
  // Missing # EOF terminator.
  EXPECT_FALSE(
      ValidateOpenMetrics("# TYPE c counter\nc_total 1\n").ok());
  // Sample without a TYPE declaration.
  EXPECT_FALSE(ValidateOpenMetrics("undeclared_total 1\n# EOF\n").ok());
  // Counter sample without the _total suffix.
  EXPECT_FALSE(
      ValidateOpenMetrics("# TYPE c counter\nc 1\n# EOF\n").ok());
  // Non-cumulative buckets.
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE h histogram\n"
                                   "h_bucket{le=\"1\"} 5\n"
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_sum 1\nh_count 5\n# EOF\n")
                   .ok());
  // Bucket after le="+Inf".
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE h histogram\n"
                                   "h_bucket{le=\"+Inf\"} 3\n"
                                   "h_bucket{le=\"9\"} 3\n"
                                   "h_sum 1\nh_count 3\n# EOF\n")
                   .ok());
  // Non-numeric sample value.
  EXPECT_FALSE(
      ValidateOpenMetrics("# TYPE c counter\nc_total x\n# EOF\n").ok());
  // Unknown metric kind.
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE c untyped\n# EOF\n").ok());
  // Duplicate declaration.
  EXPECT_FALSE(ValidateOpenMetrics("# TYPE c counter\n# TYPE c gauge\n"
                                   "c_total 1\n# EOF\n")
                   .ok());
}

// ---------------------------------------------------------------------------
// Daemon journal aggregation and tail rendering
// ---------------------------------------------------------------------------

namespace {

/// A minimal two-request daemon journal with interleaved wrapper events.
/// The inner lines are a self-consistent micro journal per request so
/// the per-request contract check has something real to verify.
std::string TwoRequestDaemonJournal() {
  return
      R"({"type":"daemon.start","tick":1,"max_queue":32})" "\n"
      R"({"type":"req.accepted","tick":2,"id":"a","client":"x","dataset":"micro","tau":4,"seed":11,"deadline_ms":0})" "\n"
      R"({"type":"req.accepted","tick":3,"id":"b","client":"y","dataset":"micro","tau":4,"seed":11,"deadline_ms":0})" "\n"
      R"({"type":"req.event","tick":4,"rid":"a","line":"{\"type\":\"run.start\",\"tick\":1,\"rid\":\"a\",\"tau\":4,\"seed\":11}"})" "\n"
      R"({"type":"req.event","tick":5,"rid":"b","line":"{\"type\":\"run.start\",\"tick\":1,\"rid\":\"b\",\"tau\":4,\"seed\":11}"})" "\n"
      R"({"type":"req.span","tick":6,"rid":"a","line":"{\"rid\":\"a\",\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"repair.run\",\"start_tick\":1,\"end_tick\":9,\"start_ms\":0,\"end_ms\":1}"})" "\n"
      R"({"type":"req.event","tick":7,"rid":"a","line":"{\"type\":\"run.end\",\"tick\":9,\"rid\":\"a\",\"queries\":0,\"accepted\":0,\"parked\":0,\"fully_resolved\":true}"})" "\n"
      R"({"type":"req.event","tick":8,"rid":"b","line":"{\"type\":\"run.end\",\"tick\":9,\"rid\":\"b\",\"queries\":0,\"accepted\":0,\"parked\":0,\"fully_resolved\":true}"})" "\n"
      R"({"type":"req.end","tick":9,"id":"a","status":"ok","accepted":0,"queries":0,"parked":0,"digest":"d1"})" "\n"
      R"({"type":"req.end","tick":10,"id":"b","status":"ok","accepted":0,"queries":0,"parked":0,"digest":"d2"})" "\n"
      R"({"type":"daemon.exit","tick":11,"forced":false,"drained":0})" "\n";
}

}  // namespace

TEST(AggregateDaemonJournalTest, SplitsInterleavedRequests) {
  auto aggregate = AggregateDaemonJournal(TwoRequestDaemonJournal());
  ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
  EXPECT_TRUE(aggregate->has_daemon_start);
  EXPECT_TRUE(aggregate->has_daemon_exit);
  EXPECT_FALSE(aggregate->truncated_tail);
  EXPECT_EQ(aggregate->total_lines, 11);
  EXPECT_EQ(aggregate->wrapper_events, 5);
  ASSERT_EQ(aggregate->requests.size(), 2u);

  const RequestRollup& a = aggregate->requests[0];
  EXPECT_EQ(a.id, "a");
  EXPECT_EQ(a.client, "x");
  EXPECT_EQ(a.status, "ok");
  EXPECT_EQ(a.digest, "d1");
  ASSERT_EQ(a.journal_lines.size(), 2u);
  // The unwrapped line is the original bytes, escapes undone.
  EXPECT_EQ(a.journal_lines[0],
            R"({"type":"run.start","tick":1,"rid":"a","tau":4,"seed":11})");
  ASSERT_EQ(a.span_lines.size(), 1u);
  EXPECT_TRUE(a.contract_ok);

  const RequestRollup& b = aggregate->requests[1];
  EXPECT_EQ(b.id, "b");
  EXPECT_EQ(b.client, "y");
  EXPECT_EQ(b.span_lines.size(), 0u);
  EXPECT_TRUE(b.contract_ok);
  EXPECT_TRUE(aggregate->AllContractsHold());

  const std::string rendered = RenderDaemonAggregate(*aggregate);
  EXPECT_NE(rendered.find("| a"), std::string::npos);
  EXPECT_NE(rendered.find("| b"), std::string::npos);
  EXPECT_NE(rendered.find("OK"), std::string::npos);
}

TEST(AggregateDaemonJournalTest, ContractViolationInOneRequestFlagged) {
  // Request "bad" journals an fm.query with no verdict and no park —
  // the registry contract cannot hold for its slice.
  const std::string journal =
      R"({"type":"req.accepted","tick":1,"id":"bad","client":"x","dataset":"micro","tau":4,"seed":11,"deadline_ms":0})" "\n"
      R"({"type":"req.event","tick":2,"rid":"bad","line":"{\"type\":\"fm.query\",\"tick\":1,\"rid\":\"bad\",\"target\":\"0,3\",\"arm\":0}"})" "\n";
  auto aggregate = AggregateDaemonJournal(journal);
  ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
  ASSERT_EQ(aggregate->requests.size(), 1u);
  EXPECT_FALSE(aggregate->requests[0].contract_ok);
  EXPECT_FALSE(aggregate->AllContractsHold());
  EXPECT_NE(RenderDaemonAggregate(*aggregate).find("VIOLATED"),
            std::string::npos);
}

TEST(AggregateDaemonJournalTest, ToleratesTruncatedTail) {
  std::string journal = TwoRequestDaemonJournal();
  journal.resize(journal.size() - 20);  // tear the final line
  auto aggregate = AggregateDaemonJournal(journal);
  ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
  EXPECT_TRUE(aggregate->truncated_tail);
  EXPECT_EQ(aggregate->requests.size(), 2u);
}

TEST(RenderTailLineTest, UnwrapsWrapperEventsAndPassesOthersThrough) {
  EXPECT_EQ(
      RenderTailLine(
          R"({"type":"req.event","tick":4,"rid":"a","line":"{\"type\":\"run.start\",\"tick\":1}"})"),
      R"([a] {"type":"run.start","tick":1})");
  EXPECT_EQ(
      RenderTailLine(
          R"({"type":"req.span","tick":5,"rid":"b","line":"{\"rid\":\"b\",\"id\":1}"})"),
      R"([b] {"rid":"b","id":1})");
  const std::string passthrough =
      R"({"type":"req.start","tick":3,"id":"a"})";
  EXPECT_EQ(RenderTailLine(passthrough), passthrough);
  // Unparseable lines must pass through verbatim, never be hidden.
  EXPECT_EQ(RenderTailLine("not json at all"), "not json at all");
}

}  // namespace
}  // namespace chameleon::obsctl
