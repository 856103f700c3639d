// coverage-stream: closed loop, one thread, in-process. Set-up fills the
// skewed 5-attribute schema (2x5x4x3x3, tau=50) to kStreamTuples tuples
// and builds an IncrementalMupIndex over it. Operations interleave 4:1:
//   insert: InsertBatch of 100 seeded tuples, then Mups();
//   audit:  PatternCounter::FromDataset, FindMups and GreedySelect on the
//           materialized dataset, checked equal to the index frontier.
// Every kOpsPerEpoch operations the dataset and index return to a copy of
// the set-up state.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/common.h"
#include "src/core/combination_selection.h"
#include "src/coverage/incremental_mup.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/data/dataset.h"
#include "src/data/schema.h"
#include "src/stats.h"
#include "src/util/rng.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

namespace coverage = chameleon::coverage;
namespace data = chameleon::data;

constexpr int64_t kTau = 50;
constexpr int kBatch = 100;
/// Sized so one audit takes a few hundred ms on a 4-core x86 box. The
/// audit's cost is not monotone in the size: at 60000 tuples most of the
/// lattice is covered and an audit takes a few ms.
constexpr int64_t kStreamTuples = 30000;
constexpr int kSetupRepeats = 5;
/// The set-up stream is the same on every run, like the FERET corpus of
/// repair-feret; only the inserted batches come from the workload seed.
/// What an insert costs depends on how close the set-up state's MUPs sit
/// to tau, so a seed-drawn set-up state would make the workload seed
/// decide the insert path's cost.
constexpr uint64_t kStreamBaseSeed = 2024;
constexpr int kInsertsPerAudit = 4;
/// Operations per epoch (20 inserts, 5 audits); each epoch starts from a
/// copy of the set-up state, so the audited dataset grows from 30000 to at
/// most 32000 tuples however fast the operations run.
constexpr int kOpsPerEpoch = 25;
constexpr int kInsertsPerEpoch =
    kOpsPerEpoch / (kInsertsPerAudit + 1) * kInsertsPerAudit;

data::AttributeSchema StreamSchema() {
  data::AttributeSchema schema;
  const std::vector<int> cardinalities = {2, 5, 4, 3, 3};
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    // Built by append: GCC 12's -Wrestrict misfires on
    // `"literal" + std::to_string(...)`.
    std::vector<std::string> values;
    for (int v = 0; v < cardinalities[i]; ++v) {
      std::string value = "v";
      value += std::to_string(v);
      values.push_back(std::move(value));
    }
    std::string name = "a";
    name += std::to_string(i);
    (void)schema.AddAttribute({std::move(name), std::move(values), false});
  }
  return schema;
}

/// Value 0 dominates each attribute, so deep combinations stay rare and
/// the frontier never empties.
std::vector<int> NextTuple(const data::AttributeSchema& schema,
                           chameleon::util::Rng* rng) {
  std::vector<int> values(schema.num_attributes());
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const int cardinality = schema.attribute(i).cardinality();
    values[i] = rng->NextBernoulli(0.55)
                    ? 0
                    : static_cast<int>(rng->NextBounded(cardinality));
  }
  return values;
}

/// MUP lists compare as sets: the index and FindMups order them
/// differently.
std::vector<std::pair<std::vector<int>, int64_t>> Normalized(
    const std::vector<coverage::Mup>& mups) {
  std::vector<std::pair<std::vector<int>, int64_t>> out;
  for (const coverage::Mup& mup : mups) {
    out.push_back({mup.pattern.cells(), mup.count});
  }
  std::sort(out.begin(), out.end());
  return out;
}

[[nodiscard]] chameleon::util::Status AddTuples(
    const std::vector<std::vector<int>>& batch, data::Dataset* dataset) {
  for (const std::vector<int>& values : batch) {
    data::Tuple tuple;
    tuple.values = values;
    CHAMELEON_RETURN_NOT_OK(dataset->Add(std::move(tuple)));
  }
  return chameleon::util::Status::Ok();
}

}  // namespace

WorkloadResult RunCoverageStream(const RunArgs& args) {
  WorkloadResult result;
  const data::AttributeSchema schema = StreamSchema();
  coverage::IncrementalMupOptions index_options;
  index_options.tau = kTau;
  index_options.num_threads = 1;
  coverage::MupFinderOptions find_options;
  find_options.tau = kTau;
  find_options.num_threads = 1;

  // Set-up: fill the stream and build the index. The operations start
  // from the first; the others are only timed, spread through the window.
  SetupRepeats setups(kSetupRepeats, args.seconds * 1000.0);
  std::vector<double> build_ms;
  std::optional<data::Dataset> dataset;
  std::optional<coverage::IncrementalMupIndex> index;
  const auto set_up = [&](bool in_window) {
    const Clock::time_point start = Clock::now();
    chameleon::util::Rng rng(kStreamBaseSeed);
    data::Dataset filled(schema);
    std::vector<std::vector<int>> batch;
    for (int64_t t = 0; t < kStreamTuples; ++t) batch.push_back(NextTuple(schema, &rng));
    if (!AddTuples(batch, &filled).ok()) {
      result.Fail("stream fill rejected a tuple");
      return false;
    }
    build_ms.push_back(MsSince(start));
    auto built = coverage::IncrementalMupIndex::FromDataset(filled, index_options);
    setups.Add(MsSince(start), in_window);
    if (!built.ok()) {
      result.Fail("index build: " + built.status().ToString());
      return false;
    }
    if (!index.has_value()) {
      dataset = std::move(filled);
      index = *std::move(built);
    }
    return true;
  };
  if (!set_up(false)) return result;

  // Every epoch starts from a copy of the set-up state, so an operation's
  // work never depends on how many operations ran before it. Its insert
  // batches continue one seeded stream: an insert's cost depends on the
  // batch (a batch that retires a MUP pays for discovering its children),
  // and fresh batches in every epoch keep the median from resting on the
  // few batches of one epoch.
  chameleon::util::Rng stream(DeriveSeed(args.seed, 2));
  std::vector<std::vector<std::vector<int>>> batches(kInsertsPerEpoch);

  std::vector<double> latencies;
  std::vector<double> insert_us, mups_read_us, counter_ms, find_ms, plan_us;
  std::vector<double> count_queries;
  int64_t inserted = 0;
  int64_t inserts = 0;
  int64_t spans = 0;
  int64_t patched = 0, retired = 0, discovered = 0;
  std::optional<data::Dataset> live_dataset;
  std::optional<coverage::IncrementalMupIndex> live_index;
  int next_batch = 0;
  double reset_ms = 0.0;
  const Clock::time_point window_start = Clock::now();
  // Resetting to the set-up state is not an operation: it leaves the
  // window that ops_per_s and accepted_per_s divide by, as set-ups do.
  const auto measured_ms = [&] {
    return MsSince(window_start) - reset_ms - setups.in_window_ms();
  };
  for (int64_t op = 0; measured_ms() < args.seconds * 1000.0; ++op) {
    if (setups.Due(measured_ms()) && !set_up(true)) return result;
    const int position = static_cast<int>(op % kOpsPerEpoch);
    if (position == 0) {
      const Clock::time_point reset_start = Clock::now();
      live_dataset = *dataset;
      live_index = *index;
      for (auto& batch : batches) {
        batch.clear();
        for (int b = 0; b < kBatch; ++b) batch.push_back(NextTuple(schema, &stream));
      }
      next_batch = 0;
      reset_ms += MsSince(reset_start);
    }
    ++result.attempted;
    const bool audit = position % (kInsertsPerAudit + 1) == kInsertsPerAudit;
    if (!audit) {
      const std::vector<std::vector<int>>& batch = batches[next_batch++];
      const int64_t patched0 = live_index->patched();
      const int64_t retired0 = live_index->retired();
      const int64_t discovered0 = live_index->discovered();
      const Clock::time_point start = Clock::now();
      chameleon::util::Status status = live_index->InsertBatch(batch);
      const Clock::time_point inserted_at = Clock::now();
      const std::vector<coverage::Mup> frontier = live_index->Mups();
      const Clock::time_point end = Clock::now();
      latencies.push_back(MsBetween(start, end));
      if (!status.ok() || frontier.empty() || !AddTuples(batch, &*live_dataset).ok()) {
        ++result.failed;
        result.Fail("insert: " + status.ToString());
        continue;
      }
      insert_us.push_back(MsBetween(start, inserted_at) * 1000.0);
      mups_read_us.push_back(MsBetween(inserted_at, end) * 1000.0);
      patched += live_index->patched() - patched0;
      retired += live_index->retired() - retired0;
      discovered += live_index->discovered() - discovered0;
      spans += 2;
      inserted += kBatch;
      ++inserts;
      continue;
    }

    const Clock::time_point start = Clock::now();
    auto counter = coverage::PatternCounter::FromDataset(*live_dataset);
    const Clock::time_point counted = Clock::now();
    if (!counter.ok()) {
      ++result.failed;
      result.Fail("audit counter: " + counter.status().ToString());
      continue;
    }
    coverage::MupFinder finder(schema, *counter);
    const std::vector<coverage::Mup> mups = finder.FindMups(find_options);
    const Clock::time_point found = Clock::now();
    const chameleon::core::CombinationPlan plan = chameleon::core::GreedySelect(
        schema, coverage::MupFinder::MinLevel(mups));
    const Clock::time_point end = Clock::now();
    latencies.push_back(MsBetween(start, end));
    counter_ms.push_back(MsBetween(start, counted));
    find_ms.push_back(MsBetween(counted, found));
    plan_us.push_back(MsBetween(found, end) * 1000.0);
    count_queries.push_back(static_cast<double>(finder.last_count_queries()));
    spans += 3;
    auto expected = Normalized(live_index->Mups());
    if (args.corrupt_reference && !expected.empty()) ++expected.front().second;
    if (Normalized(mups) != expected || plan.empty()) {
      ++result.failed;
      result.Fail("audit frontier differs from the index frontier at op " +
                  std::to_string(op));
    }
  }
  const double window_ms = measured_ms();
  const double window_s = window_ms / 1000.0;
  while (!setups.complete()) {
    if (!set_up(false)) return result;
  }

  if (!args.trace) {
    const TailPick tail = SelectTail(latencies);
    const double ops_per_s = static_cast<double>(latencies.size()) / window_s;
    result.Add("setup_s", Median(setups.ms()) / 1000.0, "s");
    result.Add("latency_ms_p50", Median(latencies), "ms");
    result.Add("latency_ms_tail", tail.value, "ms");
    result.Add("ops_per_s", ops_per_s, "1/s");
    result.Add("accepted_per_s", static_cast<double>(inserted) / window_s, "1/s");
    // No foundation model and no repair run here: both cost metrics are
    // placeholders at the neutral 1 (see README.md).
    result.Add("fm_queries_per_accepted", 1.0, "count",
               "placeholder: no FM on this workload");
    result.Add("resolved_share", 1.0, "share",
               "placeholder: no repair on this workload");
    result.Add("peak_rss_mb", SelfPeakRssMb(), "MB");
    AddClosedLoopRateMetrics(ops_per_s, tail.value, &result);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "tail = p%g of %lld operations (%lld beyond); %d-operation "
                  "epochs grow the stream from %lld to %lld tuples",
                  tail.percentile, static_cast<long long>(tail.samples),
                  static_cast<long long>(tail.beyond), kOpsPerEpoch,
                  static_cast<long long>(kStreamTuples),
                  static_cast<long long>(kStreamTuples +
                                         kInsertsPerEpoch * kBatch));
    result.Note(line);
    return result;
  }

  const double per_insert = inserts > 0 ? 1.0 / static_cast<double>(inserts) : 0.0;
  result.Add("datasets.stream_build_ms", Median(build_ms), "ms");
  result.Add("coverage.counter_build_ms", Median(counter_ms), "ms");
  result.Add("coverage.find_mups_ms", Median(find_ms), "ms");
  result.Add("coverage.count_queries", Median(count_queries), "count");
  result.Add("core.plan_us", Median(plan_us), "us");
  result.Add("coverage.insert_batch_us", Median(insert_us), "us");
  result.Add("coverage.mups_read_us", Median(mups_read_us), "us");
  result.Add("coverage.patched", static_cast<double>(patched) * per_insert,
             "count");
  result.Add("coverage.retired", static_cast<double>(retired) * per_insert,
             "count");
  result.Add("coverage.discovered", static_cast<double>(discovered) * per_insert,
             "count");
  // The spans here are clock reads between calls the untraced run makes
  // anyway; their cost is the whole tracing overhead.
  result.Add("trace.overhead_share",
             static_cast<double>(spans) * SpanFloorUs() / 1000.0 / window_ms,
             "share");
  return result;
}

}  // namespace perfbench
