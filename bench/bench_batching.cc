// Throughput of the batched FM transport against the simulated backend
// pool. Queries go to BackendPool::GenerateBatch in chunks of 1/8/32 (a
// chunk is what one rejection round dispatches) and are timed on the
// pool's *virtual* latency axis (a batch of k dispatched to one backend
// costs base + k * per, not k * (base + per)), so the reported numbers
// are machine-independent and the committed baseline diffs at exactly
// 0% on any host.
//
// The binary self-checks the acceptance criterion — batch 32 must
// deliver at least 3x the queries/sec of batch 1 — and that the
// generated results are bit-identical across batch sizes (the
// determinism contract of DESIGN.md §11), so a batching regression
// fails CI even before the obsctl diff runs.
//
// Flags: --json=<path> (schema-v1 report), --smoke (fewer queries; the
// per-query virtual numbers are identical because every count used is a
// multiple of every batch size).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/experiment_common.h"
#include "src/datasets/feret.h"
#include "src/fm/backend_pool.h"
#include "src/fm/foundation_model.h"
#include "src/obs/quantile_digest.h"
#include "src/util/rng.h"

namespace {

using chameleon::fm::BatchItem;
using chameleon::fm::GenerationRequest;
using chameleon::fm::GenerationResult;

struct CaseResult {
  int batch = 0;
  double virtual_ms = 0.0;
  double ns_per_query = 0.0;   // virtual ns
  double queries_per_sec = 0.0;  // virtual qps
  std::vector<GenerationResult> results;
};

/// Dispatches `num_queries` requests to the pool in chunks of `batch`.
/// A fresh pool and a fresh rng parent per case: bit-identity across
/// cases is part of what this bench asserts.
CaseResult RunCase(int batch, int num_queries) {
  chameleon::fm::SimulatedBackendPool pool =
      chameleon::fm::MakeSimulatedBackendPool(
          chameleon::datasets::FeretSchema(),
          chameleon::datasets::FeretFaceStyleFn(),
          chameleon::datasets::FeretScene(),
          chameleon::fm::SimulatedPoolOptions());

  std::vector<GenerationRequest> requests(num_queries);
  std::vector<chameleon::util::Rng> rngs;
  rngs.reserve(requests.size());
  chameleon::util::Rng parent(7);
  for (int i = 0; i < num_queries; ++i) {
    requests[i].target_values = {i % 2, i % 5};
    rngs.push_back(parent.Fork());
  }
  std::vector<chameleon::util::Result<GenerationResult>> answers;
  answers.reserve(requests.size());
  for (int begin = 0; begin < num_queries; begin += batch) {
    const int end = std::min(num_queries, begin + batch);
    std::vector<BatchItem> items;
    for (int i = begin; i < end; ++i) {
      items.push_back(BatchItem{&requests[i], &rngs[i]});
    }
    std::vector<chameleon::util::Result<GenerationResult>> results =
        pool.pool->GenerateBatch(items);
    if (results.size() != items.size()) {
      std::fprintf(stderr, "chunk at query %d: %zu results for %zu items\n",
                   begin, results.size(), items.size());
      std::exit(1);
    }
    for (auto& result : results) answers.push_back(std::move(result));
  }

  CaseResult out;
  out.batch = batch;
  out.virtual_ms = pool.pool->virtual_ms();
  out.ns_per_query = out.virtual_ms * 1e6 / num_queries;
  out.queries_per_sec = num_queries / (out.virtual_ms / 1000.0);
  out.results.reserve(answers.size());
  for (int i = 0; i < num_queries; ++i) {
    if (!answers[i].ok()) {
      std::fprintf(stderr, "query %d failed: %s\n", i,
                   answers[i].status().ToString().c_str());
      std::exit(1);
    }
    out.results.push_back(std::move(*answers[i]));
  }
  std::printf("  batch %2d: %8.1f virtual ms for %d queries"
              " (%7.0f q/s, routed: ",
              batch, out.virtual_ms, num_queries, out.queries_per_sec);
  for (int b = 0; b < pool.pool->num_backends(); ++b) {
    std::printf("%s%s=%lld", b > 0 ? " " : "",
                pool.pool->profile(b).name.c_str(),
                static_cast<long long>(pool.pool->routed_queries(b)));
  }
  std::printf(")\n");
  return out;
}

bool SameResults(const std::vector<GenerationResult>& a,
                 const std::vector<GenerationResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].image != b[i].image || a[i].values != b[i].values ||
        a[i].latent_realism != b[i].latent_realism ||
        a[i].backend != b[i].backend) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  // Both counts are multiples of 32, so every case dispatches full chunks
  // and the virtual per-query numbers are identical in smoke mode.
  const int num_queries = smoke ? 96 : 960;

  std::printf("bench_batching: %d queries through the 3-backend simulated "
              "pool\n", num_queries);
  const std::vector<int> batches = {1, 8, 32};
  std::vector<CaseResult> cases;
  for (const int batch : batches) cases.push_back(RunCase(batch, num_queries));

  int exit_code = 0;
  const double speedup =
      cases.back().queries_per_sec / cases.front().queries_per_sec;
  std::printf("speedup batch32 vs batch1: %.2fx (gate: >= 3x)\n", speedup);
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: batching speedup %.2fx below the 3x gate\n",
                 speedup);
    exit_code = 1;
  }
  for (size_t i = 1; i < cases.size(); ++i) {
    if (!SameResults(cases[0].results, cases[i].results)) {
      std::fprintf(stderr,
                   "FAIL: batch %d results differ from batch 1 "
                   "(determinism contract broken)\n",
                   cases[i].batch);
      exit_code = 1;
    }
  }
  if (exit_code == 0) {
    std::printf("results bit-identical across batch sizes: yes\n");
  }

  const std::string json_path = chameleon::bench::JsonPathFromArgs(argc, argv);
  if (!json_path.empty()) {
    chameleon::bench::BenchJsonReport report("bench_batching");
    report.set_smoke(smoke);
    report.AddConfig("backends", "3");
    report.AddConfig("router", "greedy");
    report.AddConfig("time_axis", "virtual");
    for (const CaseResult& c : cases) {
      // Virtual time is exact, so the digest is a single point and the
      // percentiles collapse onto ns_per_op.
      chameleon::obs::QuantileDigest digest;
      digest.Add(c.ns_per_query);
      report.AddCase("pool_batch" + std::to_string(c.batch), c.ns_per_query,
                     num_queries, digest);
    }
    const chameleon::util::Status status = report.WriteJson(json_path);
    if (!status.ok()) {
      std::fprintf(stderr, "bench json: %s\n", status.ToString().c_str());
      if (exit_code == 0) exit_code = 1;
    }
  }
  return exit_code;
}
