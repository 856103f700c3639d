// Micro-benchmarks for MUP discovery: lattice BFS vs the naive
// full-materialization baseline (the DESIGN.md ablation), swept over the
// number of binary attributes d.

#include <benchmark/benchmark.h>

#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/data/dataset.h"
#include "src/util/rng.h"

namespace {

using namespace chameleon;

data::Dataset MakeBinaryDataset(int d, int n, uint64_t seed) {
  data::AttributeSchema schema;
  for (int i = 0; i < d; ++i) {
    // += instead of operator+ dodges GCC 12's -Wrestrict false positive
    // on char*/std::string concatenation (GCC PR105651).
    std::string name = "x";
    name += std::to_string(i);
    // Benchmark fixture; the schema is valid by construction.
    (void)schema.AddAttribute({std::move(name), {"0", "1"}, false});
  }
  data::Dataset dataset(schema);
  util::Rng rng(seed);
  for (int t = 0; t < n; ++t) {
    data::Tuple tuple;
    tuple.values.resize(d);
    for (int i = 0; i < d; ++i) {
      // Skewed marginals create interesting uncovered regions.
      tuple.values[i] = rng.NextBernoulli(0.25 + 0.5 * (i % 2));
    }
    (void)dataset.Add(std::move(tuple));
  }
  return dataset;
}

void BM_FindMupsLattice(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const data::Dataset dataset = MakeBinaryDataset(d, 20000, 42);
  const auto counter = *coverage::PatternCounter::FromDataset(dataset);
  coverage::MupFinder finder(dataset.schema(), counter);
  coverage::MupFinderOptions options;
  options.tau = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.FindMups(options));
  }
}
BENCHMARK(BM_FindMupsLattice)->DenseRange(3, 9, 2);

void BM_FindMupsNaive(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const data::Dataset dataset = MakeBinaryDataset(d, 20000, 42);
  const auto counter = *coverage::PatternCounter::FromDataset(dataset);
  coverage::MupFinder finder(dataset.schema(), counter);
  coverage::MupFinderOptions options;
  options.tau = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.FindMupsNaive(options));
  }
}
BENCHMARK(BM_FindMupsNaive)->DenseRange(3, 9, 2);

void BM_PatternCount(benchmark::State& state) {
  const int d = 6;
  const data::Dataset dataset =
      MakeBinaryDataset(d, static_cast<int>(state.range(0)), 42);
  const auto counter = *coverage::PatternCounter::FromDataset(dataset);
  data::Pattern pattern(d);
  pattern = pattern.WithCell(0, 1).WithCell(3, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.Count(pattern));
  }
}
BENCHMARK(BM_PatternCount)->Range(1000, 100000);

}  // namespace
