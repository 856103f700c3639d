// Unit tests for the benchmark's own helpers. Run with
// `python3 perfbench/run.py --selftest`, which passes the path of
// BENCHMARK.json; exits nonzero on any failure.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/layers.h"
#include "src/manifest.h"
#include "src/schedule.h"
#include "src/stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #condition);                                        \
    }                                                                  \
  } while (0)

std::vector<double> Ramp(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

void TestTailSelection() {
  // 19 samples: even the median has only 9 beyond it.
  TailPick pick = SelectTail(Ramp(19));
  EXPECT(pick.percentile == 50.0 && !pick.qualified && pick.beyond == 9);
  // 20: the median has exactly 10 beyond; p75 has 5.
  pick = SelectTail(Ramp(20));
  EXPECT(pick.percentile == 50.0 && pick.qualified && pick.beyond == 10);
  EXPECT(pick.value == 10.0);
  // 39: p75 has 9 beyond (rank 30), so the median stays.
  EXPECT(SelectTail(Ramp(39)).percentile == 50.0);
  // 40: p75 has exactly 10 beyond (rank 30).
  pick = SelectTail(Ramp(40));
  EXPECT(pick.percentile == 75.0 && pick.beyond == 10 && pick.value == 30.0);
  // 100: p90 has 10 beyond; p95 only 5.
  pick = SelectTail(Ramp(100));
  EXPECT(pick.percentile == 90.0 && pick.value == 90.0);
  // 1000: p99 has 10 beyond; p99.9 only 1.
  pick = SelectTail(Ramp(1000));
  EXPECT(pick.percentile == 99.0 && pick.beyond == 10 && pick.value == 990.0);
  // 10000: p99.9 has 10 beyond.
  EXPECT(SelectTail(Ramp(10000)).percentile == 99.9);
  EXPECT(SelectTail({}).samples == 0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
}

void TestScheduleDeterminism() {
  const ServeSchedule a = MakeServeSchedule(17, 32.0);
  const ServeSchedule b = MakeServeSchedule(17, 32.0);
  const ServeSchedule c = MakeServeSchedule(18, 32.0);
  EXPECT(a.arrivals.size() == 120 && b.arrivals.size() == a.arrivals.size());
  bool same = a.specs.size() == b.specs.size();
  for (size_t i = 0; same && i < a.arrivals.size(); ++i) {
    same = a.arrivals[i].due_ms == b.arrivals[i].due_ms &&
           a.arrivals[i].spec == b.arrivals[i].spec &&
           a.arrivals[i].incremental == b.arrivals[i].incremental &&
           a.arrivals[i].client == b.arrivals[i].client;
  }
  for (size_t s = 0; same && s < a.specs.size(); ++s) {
    same = a.specs[s].seed == b.specs[s].seed;
  }
  EXPECT(same);
  bool differs = false;
  for (size_t i = 0; i < a.arrivals.size() && i < c.arrivals.size(); ++i) {
    differs = differs || a.arrivals[i].due_ms != c.arrivals[i].due_ms;
  }
  EXPECT(differs);
  // Sorted, inside a window of their rate, with the fixed per-rate mix.
  // 40 requests per rate: windows of 40 / rate / 3 s, in 31.33 s in all.
  EXPECT(a.windows == 9 && a.window_start_ms.size() == 10);
  EXPECT(std::abs(a.window_ms(0) - 40000.0 / 9) < 1e-6 &&
         std::abs(a.window_ms(8) - 40000.0 / 15) < 1e-6);
  EXPECT(std::abs(a.end_ms() - 94000.0 / 3) < 1e-6);
  EXPECT(a.WindowAt(-1.0) == -1 && a.WindowAt(0.0) == 0 &&
         a.WindowAt(a.window_start_ms[4]) == 4 && a.WindowAt(a.end_ms()) == -1);
  int micro_in_first_step = 0;
  std::vector<int> per_step(3, 0);
  for (size_t i = 0; i < a.arrivals.size(); ++i) {
    const Arrival& arrival = a.arrivals[i];
    EXPECT(i == 0 || a.arrivals[i - 1].due_ms <= arrival.due_ms);
    EXPECT(arrival.window % 3 == arrival.step);
    EXPECT(a.WindowAt(arrival.due_ms) == arrival.window);
    ++per_step[arrival.step];
    if (arrival.step == 0 &&
        a.specs[arrival.spec].dataset == chameleon::daemon::DatasetKind::kMicro) {
      ++micro_in_first_step;
    }
  }
  EXPECT(per_step == std::vector<int>({40, 40, 40}));
  // 72% of 40 is 28.8; the largest remainders round it up to 29.
  EXPECT(micro_in_first_step == 29);
}

void TestManifestCheck() {
  EXPECT(IsValidMetricName("rate_hi.latency_ms_tail"));
  EXPECT(IsValidMetricName("0k-ok"));
  EXPECT(!IsValidMetricName(""));
  EXPECT(!IsValidMetricName(".hidden"));
  EXPECT(!IsValidMetricName("has space"));
  EXPECT(!IsValidMetricName("slash/name"));
  EXPECT(!IsValidMetricName(std::string(65, 'a')));

  const std::string text =
      R"({"end_to_end": [{"name": "latency_ms_p50", "unit": "ms"},
                         {"name": "setup_s", "unit": "s"}],
          "per_layer": [{"name": "fm.queries", "unit": "count"}]})";
  auto manifest = ParseManifest(text);
  EXPECT(manifest.ok());
  if (!manifest.ok()) return;
  const std::vector<Metric> good = {{"latency_ms_p50", 1.5, "ms"},
                                    {"setup_s", 0.25, "s"}};
  EXPECT(CheckMetrics(*manifest, false, good).ok());
  EXPECT(CheckMetrics(*manifest, true, {{"fm.queries", 3, "count"}}).ok());
  // Undeclared, missing, wrong unit, wrong list, bad name, duplicate.
  std::vector<Metric> extra = good;
  extra.push_back({"undeclared", 1.0, "ms"});
  EXPECT(!CheckMetrics(*manifest, false, extra).ok());
  EXPECT(!CheckMetrics(*manifest, false, {{"setup_s", 0.25, "s"}}).ok());
  EXPECT(!CheckMetrics(*manifest, false,
                       {{"latency_ms_p50", 1.5, "s"}, {"setup_s", 0.25, "s"}})
              .ok());
  EXPECT(!CheckMetrics(*manifest, true, good).ok());
  EXPECT(!CheckMetrics(*manifest, true, {{"fm queries", 3, "count"}}).ok());
  EXPECT(!CheckMetrics(*manifest, true,
                       {{"fm.queries", 3, "count"}, {"fm.queries", 3, "count"}})
              .ok());
  EXPECT(!ParseManifest(R"({"end_to_end": [{"name": "bad name", "unit": "s"}],
                            "per_layer": []})")
              .ok());
  // The result line carries exactly the four keys.
  WorkloadResult result;
  result.attempted = 3;
  result.Add("setup_s", 0.5, "s");
  EXPECT(RenderResultLine(result) ==
         R"({"correct": true, "attempted": 3, "failed": 0, "metrics": )"
         R"({"setup_s": {"value": 0.5, "unit": "s"}}})");
}

/// The manifest the benchmark runs with parses, with valid, distinct
/// metric names in both lists.
void TestRepositoryManifest(const std::string& path) {
  auto manifest = LoadManifest(path);
  EXPECT(manifest.ok());
  if (!manifest.ok()) return;
  EXPECT(!manifest->end_to_end.empty() && !manifest->per_layer.empty());
  std::set<std::string> names;
  for (const auto* list : {&manifest->end_to_end, &manifest->per_layer}) {
    for (const DeclaredMetric& metric : *list) {
      EXPECT(names.insert(metric.name).second);
    }
  }
}

void TestUnion() {
  EXPECT(UnionMs({}) == 0.0);
  EXPECT(UnionMs({{0, 2}, {1, 3}, {5, 6}}) == 4.0);
  EXPECT(UnionMs({{5, 6}, {0, 10}}) == 10.0);
}

/// Counts which entry point the wrapper used.
class CountingModel : public chameleon::fm::FoundationModel {
 public:
  chameleon::util::Result<chameleon::fm::GenerationResult> Generate(
      const chameleon::fm::GenerationRequest&, chameleon::util::Rng*) override {
    ++generate_calls;
    return chameleon::fm::GenerationResult();
  }
  std::vector<chameleon::util::Result<chameleon::fm::GenerationResult>>
  GenerateBatch(std::span<const chameleon::fm::BatchItem> items) override {
    ++batch_calls;
    return std::vector<chameleon::util::Result<chameleon::fm::GenerationResult>>(
        items.size(), chameleon::fm::GenerationResult());
  }
  double query_cost() const override { return 2.0; }
  int generate_calls = 0;
  int batch_calls = 0;
};

void TestModelWrapperForwardsBatches() {
  CountingModel inner;
  TimedModel wrapped(&inner);
  chameleon::fm::GenerationRequest request;
  chameleon::util::Rng rng(1);
  std::vector<chameleon::fm::BatchItem> items(3, {&request, &rng});
  const auto results = wrapped.GenerateBatch(items);
  EXPECT(results.size() == 3);
  EXPECT(inner.batch_calls == 1 && inner.generate_calls == 0);
  EXPECT(wrapped.queries() == 3 && wrapped.dispatches() == 1);
  EXPECT(wrapped.num_queries() == 3 && wrapped.query_cost() == 2.0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::TestTailSelection();
  perfbench::TestScheduleDeterminism();
  perfbench::TestManifestCheck();
  if (argc > 1) perfbench::TestRepositoryManifest(argv[1]);
  perfbench::TestUnion();
  perfbench::TestModelWrapperForwardsBatches();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failures\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
