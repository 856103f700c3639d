// Differential oracle for coverage::IncrementalMupIndex (DESIGN.md §14):
// a seeded random stream interleaves inserts and MUP queries, and after
// every query step the maintained frontier must equal order-normalized
// MupFinder::FindMups AND MupFinder::FindMupsNaive on the materialized
// dataset — exactly, including counts, gaps, and output order. Failures
// dump a minimal reproducer (seed + step index + config). The lattice
// invariants themselves (antichain, covered ancestors, MUP-ancestor
// completeness) are property-tested against all three finders, so the
// oracle also catches bugs in the old paths.

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/coverage/incremental_mup.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/data/dataset.h"
#include "src/util/rng.h"

namespace chameleon::coverage {
namespace {

data::AttributeSchema MixedSchema(const std::vector<int>& cardinalities) {
  data::AttributeSchema schema;
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    // Built with += rather than operator+ to dodge GCC 12's -Wrestrict
    // false positive on char*/std::string concatenation (GCC PR105651).
    std::string name = "x";
    name += std::to_string(i);
    std::vector<std::string> values;
    for (int v = 0; v < cardinalities[i]; ++v) {
      std::string value = "v";
      value += std::to_string(v);
      values.push_back(std::move(value));
    }
    EXPECT_TRUE(
        schema.AddAttribute({std::move(name), std::move(values), false}).ok());
  }
  return schema;
}

/// Skewed draw: value 0 dominates, so rare combinations (and therefore
/// long-lived MUPs) exist at every stream length.
std::vector<int> RandomTuple(const data::AttributeSchema& schema,
                             util::Rng* rng) {
  std::vector<int> values(schema.num_attributes());
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const int cardinality = schema.attribute(i).cardinality();
    values[i] = rng->NextBernoulli(0.55)
                    ? 0
                    : static_cast<int>(rng->NextBounded(cardinality));
  }
  return values;
}

std::string FormatMups(const std::vector<Mup>& mups) {
  std::ostringstream out;
  for (const Mup& mup : mups) {
    out << mup.pattern.ToString() << "(count=" << mup.count
        << ",gap=" << mup.gap << ") ";
  }
  return out.str();
}

/// Exact equality, order included: both sides are order-normalized
/// (level, then lexicographic pattern) by contract.
testing::AssertionResult SameMups(const std::vector<Mup>& actual,
                                  const std::vector<Mup>& expected) {
  if (actual.size() != expected.size()) {
    return testing::AssertionFailure()
           << "MUP set size mismatch: got " << actual.size() << " ["
           << FormatMups(actual) << "] want " << expected.size() << " ["
           << FormatMups(expected) << "]";
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].pattern != expected[i].pattern ||
        actual[i].count != expected[i].count ||
        actual[i].gap != expected[i].gap) {
      return testing::AssertionFailure()
             << "MUP #" << i << " mismatch: got "
             << actual[i].pattern.ToString() << "(count=" << actual[i].count
             << ",gap=" << actual[i].gap << ") want "
             << expected[i].pattern.ToString()
             << "(count=" << expected[i].count << ",gap=" << expected[i].gap
             << ")\n  full got:  " << FormatMups(actual)
             << "\n  full want: " << FormatMups(expected);
    }
  }
  return testing::AssertionSuccess();
}

struct OracleConfig {
  uint64_t seed = 1;
  int64_t tau = 3;
  int num_threads = 1;
  std::vector<int> cardinalities = {2, 3, 2};
  int steps = 10000;
};

std::string Reproducer(const OracleConfig& config, int step) {
  std::ostringstream out;
  out << "minimal reproducer: RunStreamOracle(seed=" << config.seed
      << ", tau=" << config.tau << ", num_threads=" << config.num_threads
      << ", cards={";
  for (size_t i = 0; i < config.cardinalities.size(); ++i) {
    if (i > 0) out << ",";
    out << config.cardinalities[i];
  }
  out << "}, steps=" << step + 1 << ") — failure at step " << step;
  return out.str();
}

/// The oracle driver: 10k interleaved insert/query steps. Insert steps
/// stream one tuple (occasionally a batch) into the index, the dataset,
/// and a lockstep reference counter; query steps run the full
/// differential against order-normalized FindMups. The first 64 steps
/// always run it (maximum frontier churn near the empty dataset), as
/// does the final step. FindMupsNaive enumerates the whole lattice with
/// no pruning, so the three-way form runs on every fourth query step —
/// frequent enough to catch a shared FindMups/index bug, cheap enough
/// to keep the suite sanitizer-friendly.
void RunStreamOracle(const OracleConfig& config) {
  const data::AttributeSchema schema = MixedSchema(config.cardinalities);
  IncrementalMupOptions index_options;
  index_options.tau = config.tau;
  index_options.num_threads = config.num_threads;
  IncrementalMupIndex index(schema, index_options);

  data::Dataset dataset(schema);
  PatternCounter reference(schema);
  MupFinderOptions find_options;
  find_options.tau = config.tau;
  find_options.num_threads = config.num_threads;

  util::Rng rng(config.seed);
  int full_checks = 0;
  for (int step = 0; step < config.steps; ++step) {
    const bool query_step = step >= 64 && rng.NextBernoulli(0.05);
    const bool full_check =
        step < 64 || query_step || step + 1 == config.steps;

    if (!query_step) {
      const int batch_size =
          rng.NextBernoulli(0.1) ? 1 + static_cast<int>(rng.NextBounded(4))
                                 : 1;
      std::vector<std::vector<int>> batch;
      for (int b = 0; b < batch_size; ++b) {
        batch.push_back(RandomTuple(schema, &rng));
      }
      if (batch_size == 1 && rng.NextBernoulli(0.5)) {
        ASSERT_TRUE(index.Insert(batch[0]).ok()) << Reproducer(config, step);
      } else {
        ASSERT_TRUE(index.InsertBatch(batch).ok())
            << Reproducer(config, step);
      }
      for (const std::vector<int>& values : batch) {
        data::Tuple tuple;
        tuple.values = values;
        ASSERT_TRUE(dataset.Add(std::move(tuple)).ok());
        ASSERT_TRUE(reference.AddTuple(values).ok());
      }
      ASSERT_EQ(index.num_tuples(),
                static_cast<int64_t>(dataset.size()))
          << Reproducer(config, step);
    }

    if (full_check) {
      MupFinder finder(schema, reference);
      const std::vector<Mup> expected = finder.FindMups(find_options);
      const std::vector<Mup> actual = index.Mups();
      ASSERT_TRUE(SameMups(actual, expected))
          << "incremental vs FindMups — " << Reproducer(config, step);
      if (full_checks % 4 == 0 || step + 1 == config.steps) {
        const std::vector<Mup> naive = finder.FindMupsNaive(find_options);
        ASSERT_TRUE(SameMups(expected, naive))
            << "FindMups vs FindMupsNaive — " << Reproducer(config, step);
      }
      ++full_checks;
    } else if (!query_step) {
      // Cheap insert-step invariant: stored counts are exact.
      for (const Mup& mup : index.Mups()) {
        ASSERT_EQ(mup.count, reference.Count(mup.pattern))
            << "stale stored count for " << mup.pattern.ToString() << " — "
            << Reproducer(config, step);
      }
    }
  }
}

// --- the oracle matrix: 5 seeds × {tau 1,3,10} × {1,2,8 threads} ----------

TEST(IncrementalMupOracleTest, Seed101Tau1Serial) {
  OracleConfig config;
  config.seed = 101;
  config.tau = 1;
  config.num_threads = 1;
  RunStreamOracle(config);
}

TEST(IncrementalMupOracleTest, Seed202Tau3TwoThreads) {
  OracleConfig config;
  config.seed = 202;
  config.tau = 3;
  config.num_threads = 2;
  RunStreamOracle(config);
}

TEST(IncrementalMupOracleTest, Seed303Tau10EightThreadsWideSchema) {
  OracleConfig config;
  config.seed = 303;
  config.tau = 10;
  config.num_threads = 8;
  config.cardinalities = {2, 2, 2, 3};
  RunStreamOracle(config);
}

TEST(IncrementalMupOracleTest, Seed404Tau10SerialSkewedSchema) {
  OracleConfig config;
  config.seed = 404;
  config.tau = 10;
  config.num_threads = 1;
  config.cardinalities = {4, 2};
  RunStreamOracle(config);
}

TEST(IncrementalMupOracleTest, Seed505Tau3EightThreads) {
  OracleConfig config;
  config.seed = 505;
  config.tau = 3;
  config.num_threads = 8;
  RunStreamOracle(config);
}

// --- degenerate schemas ----------------------------------------------------

TEST(IncrementalMupOracleTest, SingleAttributeSchema) {
  OracleConfig config;
  config.seed = 606;
  config.tau = 3;
  config.cardinalities = {3};
  config.steps = 500;
  RunStreamOracle(config);
}

TEST(IncrementalMupIndexTest, EmptyDatasetRootIsTheSingleMup) {
  const data::AttributeSchema schema = MixedSchema({2, 3});
  IncrementalMupOptions options;
  options.tau = 5;
  const IncrementalMupIndex index(schema, options);

  const PatternCounter counter(schema);
  MupFinder finder(schema, counter);
  MupFinderOptions find_options;
  find_options.tau = 5;
  EXPECT_TRUE(SameMups(index.Mups(), finder.FindMups(find_options)));
  EXPECT_TRUE(SameMups(index.Mups(), finder.FindMupsNaive(find_options)));
  ASSERT_EQ(index.Mups().size(), 1u);
  EXPECT_EQ(index.Mups()[0].pattern, data::Pattern(2));
  EXPECT_EQ(index.Mups()[0].count, 0);
  EXPECT_EQ(index.Mups()[0].gap, 5);
}

TEST(IncrementalMupIndexTest, FullyCoveredStreamEmptiesTheFrontier) {
  const data::AttributeSchema schema = MixedSchema({2, 2});
  IncrementalMupOptions options;
  options.tau = 1;
  IncrementalMupIndex index(schema, options);
  PatternCounter reference(schema);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      ASSERT_TRUE(index.Insert({a, b}).ok());
      ASSERT_TRUE(reference.AddTuple({a, b}).ok());
    }
  }
  EXPECT_TRUE(index.Mups().empty());
  MupFinder finder(schema, reference);
  MupFinderOptions find_options;
  find_options.tau = 1;
  EXPECT_TRUE(finder.FindMups(find_options).empty());
  EXPECT_TRUE(finder.FindMupsNaive(find_options).empty());
  // Nothing can un-cover: further inserts keep it empty.
  ASSERT_TRUE(index.Insert({0, 0}).ok());
  EXPECT_TRUE(index.Mups().empty());
}

// --- lattice invariant properties, against all three finders ---------------

std::vector<data::Pattern> FullLattice(const data::AttributeSchema& schema) {
  std::vector<data::Pattern> all;
  std::unordered_set<data::Pattern, data::PatternHash> visited;
  std::deque<data::Pattern> frontier;
  const data::Pattern root(schema.num_attributes());
  frontier.push_back(root);
  visited.insert(root);
  while (!frontier.empty()) {
    data::Pattern pattern = frontier.front();
    frontier.pop_front();
    for (auto& child : pattern.Children(schema)) {
      if (visited.insert(child).second) frontier.push_back(std::move(child));
    }
    all.push_back(std::move(pattern));
  }
  return all;
}

/// All strict generalizations of `pattern` (transitive parents).
std::vector<data::Pattern> Ancestors(const data::Pattern& pattern) {
  std::vector<data::Pattern> all;
  std::unordered_set<data::Pattern, data::PatternHash> visited;
  std::deque<data::Pattern> frontier;
  frontier.push_back(pattern);
  while (!frontier.empty()) {
    const data::Pattern current = frontier.front();
    frontier.pop_front();
    for (auto& parent : current.Parents()) {
      if (visited.insert(parent).second) {
        all.push_back(parent);
        frontier.push_back(parent);
      }
    }
  }
  return all;
}

void CheckLatticeInvariants(const data::AttributeSchema& schema,
                            const PatternCounter& counter,
                            const std::vector<Mup>& mups, int64_t tau,
                            const char* finder_name) {
  // 1. Every returned MUP is genuinely uncovered with exact counts.
  for (const Mup& mup : mups) {
    EXPECT_EQ(mup.count, counter.Count(mup.pattern)) << finder_name;
    EXPECT_LT(mup.count, tau) << finder_name;
    EXPECT_EQ(mup.gap, tau - mup.count) << finder_name;
  }
  // 2. No returned MUP has an uncovered ancestor (maximality).
  for (const Mup& mup : mups) {
    for (const data::Pattern& ancestor : Ancestors(mup.pattern)) {
      EXPECT_GE(counter.Count(ancestor), tau)
          << finder_name << ": MUP " << mup.pattern.ToString()
          << " has uncovered ancestor " << ancestor.ToString();
    }
  }
  // 3. Antichain: no MUP contains another.
  for (size_t i = 0; i < mups.size(); ++i) {
    for (size_t j = 0; j < mups.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(mups[i].pattern.Contains(mups[j].pattern))
          << finder_name << ": " << mups[i].pattern.ToString()
          << " contains " << mups[j].pattern.ToString();
    }
  }
  // 4. Completeness: every uncovered pattern has a MUP ancestor-or-self.
  for (const data::Pattern& pattern : FullLattice(schema)) {
    if (counter.Count(pattern) >= tau) continue;
    bool dominated = false;
    for (const Mup& mup : mups) {
      if (mup.pattern.Contains(pattern)) {
        dominated = true;
        break;
      }
    }
    EXPECT_TRUE(dominated)
        << finder_name << ": uncovered " << pattern.ToString()
        << " has no MUP ancestor";
  }
}

TEST(MupLatticeInvariantsTest, HoldForAllThreeFinders) {
  const data::AttributeSchema schema = MixedSchema({2, 3, 2});
  for (const uint64_t seed : {7u, 21u}) {
    for (const int64_t tau : {1, 4, 25}) {
      data::Dataset dataset(schema);
      util::Rng rng(seed);
      for (int t = 0; t < 300; ++t) {
        data::Tuple tuple;
        tuple.values = RandomTuple(schema, &rng);
        ASSERT_TRUE(dataset.Add(std::move(tuple)).ok());
      }
      const PatternCounter counter = *PatternCounter::FromDataset(dataset);
      MupFinder finder(schema, counter);
      MupFinderOptions find_options;
      find_options.tau = tau;
      CheckLatticeInvariants(schema, counter, finder.FindMups(find_options),
                             tau, "FindMups");
      CheckLatticeInvariants(schema, counter,
                             finder.FindMupsNaive(find_options), tau,
                             "FindMupsNaive");
      IncrementalMupOptions index_options;
      index_options.tau = tau;
      const auto index =
          IncrementalMupIndex::FromDataset(dataset, index_options);
      ASSERT_TRUE(index.ok());
      CheckLatticeInvariants(schema, counter, index->Mups(), tau,
                             "IncrementalMupIndex");
    }
  }
}

// --- API contracts ---------------------------------------------------------

TEST(IncrementalMupIndexTest, BatchedInsertEqualsSequentialInserts) {
  const data::AttributeSchema schema = MixedSchema({2, 3, 2});
  IncrementalMupOptions options;
  options.tau = 4;
  IncrementalMupIndex batched(schema, options);
  IncrementalMupIndex sequential(schema, options);
  util::Rng rng(77);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::vector<int>> batch;
    const int batch_size = 1 + static_cast<int>(rng.NextBounded(6));
    for (int b = 0; b < batch_size; ++b) {
      batch.push_back(RandomTuple(schema, &rng));
    }
    ASSERT_TRUE(batched.InsertBatch(batch).ok());
    for (const std::vector<int>& values : batch) {
      ASSERT_TRUE(sequential.Insert(values).ok());
    }
    ASSERT_TRUE(SameMups(batched.Mups(), sequential.Mups()))
        << "round " << round;
  }
  EXPECT_EQ(batched.num_tuples(), sequential.num_tuples());
}

TEST(IncrementalMupIndexTest, InvalidTuplesAreRejectedAtomically) {
  const data::AttributeSchema schema = MixedSchema({2, 3});
  IncrementalMupOptions options;
  options.tau = 2;
  IncrementalMupIndex index(schema, options);
  ASSERT_TRUE(index.Insert({1, 2}).ok());
  const std::vector<Mup> before = index.Mups();

  EXPECT_EQ(index.Insert({1}).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Insert({1, 3}).code(), util::StatusCode::kInvalidArgument);
  // A batch with one bad tuple must change nothing — not even the good
  // tuples before it.
  EXPECT_EQ(index.InsertBatch({{0, 0}, {0, 99}}).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(index.num_tuples(), 1);
  EXPECT_TRUE(SameMups(index.Mups(), before));
}

TEST(IncrementalMupIndexTest, MupsAreBitIdenticalAtEveryThreadCount) {
  const data::AttributeSchema schema = MixedSchema({2, 3, 2});
  std::vector<IncrementalMupIndex> indexes;
  for (const int threads : {1, 2, 8}) {
    IncrementalMupOptions options;
    options.tau = 5;
    options.num_threads = threads;
    indexes.emplace_back(schema, options);
  }
  util::Rng rng(1234);
  for (int step = 0; step < 400; ++step) {
    const std::vector<int> values = RandomTuple(schema, &rng);
    for (IncrementalMupIndex& index : indexes) {
      ASSERT_TRUE(index.Insert(values).ok());
    }
    if (step % 50 == 0 || step == 399) {
      ASSERT_TRUE(SameMups(indexes[1].Mups(), indexes[0].Mups()))
          << "threads=2 diverged at step " << step;
      ASSERT_TRUE(SameMups(indexes[2].Mups(), indexes[0].Mups()))
          << "threads=8 diverged at step " << step;
    }
  }
  // The patch/retire/discover accounting is deterministic too.
  EXPECT_EQ(indexes[0].patched(), indexes[1].patched());
  EXPECT_EQ(indexes[0].retired(), indexes[1].retired());
  EXPECT_EQ(indexes[0].discovered(), indexes[1].discovered());
  EXPECT_EQ(indexes[0].patched(), indexes[2].patched());
  EXPECT_EQ(indexes[0].retired(), indexes[2].retired());
  EXPECT_EQ(indexes[0].discovered(), indexes[2].discovered());
}

TEST(IncrementalMupIndexTest, CopiesAreIndependentWarmClones) {
  const data::AttributeSchema schema = MixedSchema({2, 3});
  IncrementalMupOptions options;
  options.tau = 3;
  IncrementalMupIndex base(schema, options);
  ASSERT_TRUE(base.Insert({0, 0}).ok());
  ASSERT_TRUE(base.Insert({1, 1}).ok());

  IncrementalMupIndex clone = base;  // the daemon's warm-cache clone path
  ASSERT_TRUE(clone.Insert({0, 1}).ok());
  ASSERT_TRUE(clone.Insert({0, 1}).ok());
  ASSERT_TRUE(base.Insert({1, 2}).ok());

  // Each copy must match a fresh finder over its own materialized stream
  // (deep counter copy, no shared postings, live schema).
  const auto check = [&schema](const IncrementalMupIndex& index,
                               const std::vector<std::vector<int>>& stream) {
    PatternCounter counter(schema);
    for (const auto& values : stream) {
      ASSERT_TRUE(counter.AddTuple(values).ok());
    }
    MupFinder finder(schema, counter);
    MupFinderOptions find_options;
    find_options.tau = 3;
    EXPECT_TRUE(SameMups(index.Mups(), finder.FindMups(find_options)));
  };
  check(base, {{0, 0}, {1, 1}, {1, 2}});
  check(clone, {{0, 0}, {1, 1}, {0, 1}, {0, 1}});
}

TEST(IncrementalMupIndexTest, MaxLevelMatchesBoundedFinder) {
  const data::AttributeSchema schema = MixedSchema({2, 3, 2});
  IncrementalMupOptions index_options;
  index_options.tau = 6;
  index_options.max_level = 2;
  IncrementalMupIndex index(schema, index_options);
  PatternCounter reference(schema);
  util::Rng rng(55);
  for (int step = 0; step < 300; ++step) {
    const std::vector<int> values = RandomTuple(schema, &rng);
    ASSERT_TRUE(index.Insert(values).ok());
    ASSERT_TRUE(reference.AddTuple(values).ok());
    if (step % 25 == 0 || step == 299) {
      MupFinder finder(schema, reference);
      MupFinderOptions find_options;
      find_options.tau = 6;
      find_options.max_level = 2;
      ASSERT_TRUE(SameMups(index.Mups(), finder.FindMups(find_options)))
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace chameleon::coverage
