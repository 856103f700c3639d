// Streaming-coverage cost: amortized maintenance of the MUP frontier via
// coverage::IncrementalMupIndex versus re-running the full lattice
// traversal (MupFinder::FindMups) at every refresh point (DESIGN.md §14).
//
// The workload models the serving layer: tuples arrive in batches of 100
// (a repair round's merged accepted tuples) and the frontier must be
// current after every batch. The incremental strategy patches the index
// per batch; the recompute strategy would re-run FindMups per batch, so
// its cost is sampled at evenly spaced checkpoints along the same stream
// and averaged (running it at every one of the 10^4 refresh points would
// dominate the bench without changing the estimate). The incremental
// side is charged its full cost — counter growth AND frontier patch —
// while the recompute side is charged only the FindMups traversal,
// which biases the comparison against the incremental index.
//
// The binary self-checks the acceptance criterion: at the run's largest
// scale (10^6 tuples full, 2*10^4 smoke) the mean per-refresh patch must
// be at least 10x cheaper than the mean full recompute. The schema's
// rarest value combinations sit near tau at 10^6 tuples, so the frontier
// stays populated at depth and the patch path is exercised for real.
//
// Flags: --json=<path> (schema-v1 report), --smoke (one small scale).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_common.h"
#include "src/coverage/incremental_mup.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/data/schema.h"
#include "src/obs/quantile_digest.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace {

using chameleon::coverage::IncrementalMupIndex;
using chameleon::coverage::IncrementalMupOptions;
using chameleon::coverage::MupFinder;
using chameleon::coverage::MupFinderOptions;
using chameleon::coverage::PatternCounter;

constexpr int64_t kTau = 50;
constexpr int kBatch = 100;       // accepted tuples per refresh
constexpr int kRecomputeSamples = 20;

chameleon::data::AttributeSchema StreamSchema() {
  chameleon::data::AttributeSchema schema;
  const std::vector<int> cardinalities = {2, 5, 4, 3, 3};
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    std::string name = "a";
    name += std::to_string(i);
    std::vector<std::string> values;
    for (int v = 0; v < cardinalities[i]; ++v) {
      std::string value = "v";
      value += std::to_string(v);
      values.push_back(std::move(value));
    }
    (void)schema.AddAttribute({std::move(name), std::move(values), false});
  }
  return schema;
}

/// Skewed stream: value 0 dominates each attribute, so deep combinations
/// stay rare and the frontier never collapses to empty.
std::vector<int> NextTuple(const chameleon::data::AttributeSchema& schema,
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

struct ScaleResult {
  int64_t n = 0;
  double insert_ns = 0.0;           // amortized per tuple, full incremental cost
  double patch_refresh_ns = 0.0;    // mean incremental cost per refresh
  double recompute_refresh_ns = 0.0;  // mean FindMups cost per refresh
  double speedup = 0.0;
  int64_t final_mups = 0;
  chameleon::obs::QuantileDigest patch_digest;      // per-refresh ns
  chameleon::obs::QuantileDigest recompute_digest;  // per-sample ns
};

ScaleResult RunScale(const chameleon::data::AttributeSchema& schema,
                     int64_t n) {
  IncrementalMupOptions options;
  options.tau = kTau;
  IncrementalMupIndex index(schema, options);
  PatternCounter reference(schema);
  MupFinderOptions find_options;
  find_options.tau = kTau;

  chameleon::util::Rng rng(2024);
  ScaleResult out;
  out.n = n;
  const int64_t refreshes = n / kBatch;
  const int64_t sample_every =
      refreshes / kRecomputeSamples > 0 ? refreshes / kRecomputeSamples : 1;

  double incremental_s = 0.0;
  double recompute_s = 0.0;
  int64_t samples = 0;
  chameleon::util::Stopwatch timer;
  for (int64_t r = 0; r < refreshes; ++r) {
    std::vector<std::vector<int>> batch;
    batch.reserve(kBatch);
    for (int b = 0; b < kBatch; ++b) batch.push_back(NextTuple(schema, &rng));

    timer.Restart();
    if (!index.InsertBatch(batch).ok()) {
      std::fprintf(stderr, "InsertBatch failed at refresh %lld\n",
                   static_cast<long long>(r));
      std::exit(1);
    }
    const double patch_s = timer.ElapsedSeconds();
    incremental_s += patch_s;
    out.patch_digest.Add(patch_s * 1e9);

    // The recompute strategy pays this same counter growth before its
    // FindMups; it is deliberately left untimed (see header comment).
    for (const std::vector<int>& values : batch) {
      if (!reference.AddTuple(values).ok()) {
        std::fprintf(stderr, "AddTuple failed\n");
        std::exit(1);
      }
    }
    if (r % sample_every == sample_every - 1) {
      MupFinder finder(schema, reference);
      timer.Restart();
      const auto mups = finder.FindMups(find_options);
      const double find_s = timer.ElapsedSeconds();
      recompute_s += find_s;
      out.recompute_digest.Add(find_s * 1e9);
      ++samples;
      if (mups.size() != index.Mups().size()) {
        std::fprintf(stderr,
                     "FAIL: frontier diverged at refresh %lld (%zu vs %zu "
                     "MUPs)\n",
                     static_cast<long long>(r), index.Mups().size(),
                     mups.size());
        std::exit(1);
      }
    }
  }

  out.insert_ns = incremental_s * 1e9 / static_cast<double>(refreshes * kBatch);
  out.patch_refresh_ns = incremental_s * 1e9 / static_cast<double>(refreshes);
  out.recompute_refresh_ns = recompute_s * 1e9 / static_cast<double>(samples);
  out.speedup = out.recompute_refresh_ns / out.patch_refresh_ns;
  out.final_mups = static_cast<int64_t>(index.Mups().size());
  std::printf("  n=%-8lld insert %8.0f ns/tuple | refresh: patch %10.0f ns "
              "vs recompute %12.0f ns -> %7.1fx | %lld live MUPs\n",
              static_cast<long long>(n), out.insert_ns, out.patch_refresh_ns,
              out.recompute_refresh_ns, out.speedup,
              static_cast<long long>(out.final_mups));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::vector<int64_t> scales =
      smoke ? std::vector<int64_t>{20000}
            : std::vector<int64_t>{100000, 1000000};

  const chameleon::data::AttributeSchema schema = StreamSchema();
  std::printf("bench_incremental_coverage: tau=%lld, refresh batch=%d, "
              "schema cards 2x5x4x3x3\n",
              static_cast<long long>(kTau), kBatch);
  std::vector<ScaleResult> results;
  for (const int64_t n : scales) results.push_back(RunScale(schema, n));

  int exit_code = 0;
  const ScaleResult& largest = results.back();
  std::printf("speedup at n=%lld: %.1fx (gate: >= 10x)\n",
              static_cast<long long>(largest.n), largest.speedup);
  if (largest.speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: incremental maintenance only %.1fx cheaper than "
                 "full recompute (gate: 10x)\n",
                 largest.speedup);
    exit_code = 1;
  }

  const std::string json_path = chameleon::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    chameleon::bench::BenchJsonReport report("bench_incremental_coverage");
    report.set_smoke(smoke);
    report.AddConfig("tau", std::to_string(kTau));
    report.AddConfig("refresh_batch", std::to_string(kBatch));
    report.AddConfig("schema", "2x5x4x3x3");
    for (const ScaleResult& r : results) {
      const std::string suffix = "_n" + std::to_string(r.n);
      chameleon::obs::QuantileDigest insert_digest;
      insert_digest.Add(r.insert_ns);
      report.AddCase("incremental_insert" + suffix, r.insert_ns, r.n,
                     insert_digest);
      report.AddCase("incremental_refresh" + suffix, r.patch_refresh_ns,
                     r.n / kBatch, r.patch_digest);
      report.AddCase("full_recompute" + suffix, r.recompute_refresh_ns,
                     kRecomputeSamples, r.recompute_digest);
    }
    const chameleon::util::Status status = report.WriteJson(json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench json: %s\n", status.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  return exit_code;
}
