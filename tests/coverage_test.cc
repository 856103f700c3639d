#include "gtest/gtest.h"
#include "src/coverage/incremental_mup.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/data/dataset.h"
#include "src/util/rng.h"

namespace chameleon::coverage {
namespace {

data::AttributeSchema BinarySchema(int d) {
  data::AttributeSchema schema;
  for (int i = 0; i < d; ++i) {
    // Built with += rather than operator+ to dodge GCC 12's -Wrestrict
    // false positive on char*/std::string concatenation (GCC PR105651).
    std::string name = "x";
    name += std::to_string(i);
    EXPECT_TRUE(
        schema.AddAttribute({std::move(name), {"0", "1"}, false}).ok());
  }
  return schema;
}

data::Dataset RandomDataset(const data::AttributeSchema& schema, int n,
                            uint64_t seed) {
  data::Dataset dataset(schema);
  util::Rng rng(seed);
  for (int t = 0; t < n; ++t) {
    data::Tuple tuple;
    tuple.values.resize(schema.num_attributes());
    for (int i = 0; i < schema.num_attributes(); ++i) {
      tuple.values[i] = rng.NextBernoulli(0.2 + 0.15 * i);
    }
    EXPECT_TRUE(dataset.Add(std::move(tuple)).ok());
  }
  return dataset;
}

TEST(PatternCounterTest, OutOfSchemaTupleIsAStatusNotACrash) {
  // Dataset::Add validates on ingest, but tuples are mutable in place
  // (corpus post-processing edits them), so FromDataset can legitimately
  // meet values outside the schema. That used to abort the process; it
  // must surface as a Status instead.
  const auto schema = BinarySchema(2);
  data::Dataset dataset(schema);
  data::Tuple tuple;
  tuple.values = {0, 1};
  ASSERT_TRUE(dataset.Add(std::move(tuple)).ok());
  dataset.mutable_tuple(0).values[1] = 999;  // corrupt after ingest

  const auto counter = PatternCounter::FromDataset(dataset);
  ASSERT_FALSE(counter.ok());
  EXPECT_EQ(counter.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(PatternCounterTest, MatchesLinearScan) {
  const auto schema = BinarySchema(4);
  const auto dataset = RandomDataset(schema, 500, 3);
  const auto counter = *PatternCounter::FromDataset(dataset);
  EXPECT_EQ(counter.num_tuples(), 500);

  util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    data::Pattern pattern(4);
    for (int i = 0; i < 4; ++i) {
      const int choice = static_cast<int>(rng.NextBounded(3));
      if (choice < 2) pattern = pattern.WithCell(i, choice);
    }
    EXPECT_EQ(counter.Count(pattern), dataset.CountMatching(pattern))
        << pattern.ToString();
  }
}

TEST(PatternCounterTest, IncrementalAddKeepsCountsInSync) {
  const auto schema = BinarySchema(2);
  PatternCounter counter(schema);
  EXPECT_EQ(counter.Count(data::Pattern(2)), 0);
  EXPECT_TRUE(counter.AddTuple({0, 1}).ok());
  EXPECT_TRUE(counter.AddTuple({0, 1}).ok());
  EXPECT_TRUE(counter.AddTuple({1, 0}).ok());
  EXPECT_EQ(counter.Count(data::Pattern({0, 1})), 2);
  EXPECT_EQ(counter.Count(data::Pattern({0, data::Pattern::kUnspecified})),
            2);
  EXPECT_EQ(counter.Count(data::Pattern(2)), 3);
}

data::AttributeSchema SchemaOf(const std::vector<int>& cardinalities) {
  data::AttributeSchema schema;
  for (size_t i = 0; i < cardinalities.size(); ++i) {
    std::string name = "a";
    name += std::to_string(i);
    std::vector<std::string> values;
    for (int v = 0; v < cardinalities[i]; ++v) {
      values.push_back(std::to_string(v));
    }
    EXPECT_TRUE(schema.AddAttribute({std::move(name), std::move(values), false})
                    .ok());
  }
  return schema;
}

/// Value 0 dominates, so deep patterns stay rare but not all empty.
std::vector<int> SkewedTuple(const data::AttributeSchema& schema,
                             util::Rng* rng) {
  std::vector<int> values(schema.num_attributes());
  for (int i = 0; i < schema.num_attributes(); ++i) {
    values[i] = rng->NextBernoulli(0.6)
                    ? 0
                    : static_cast<int>(rng->NextBounded(
                          schema.attribute(i).cardinality()));
  }
  return values;
}

/// Checks `counter` against Dataset::CountMatching on random patterns,
/// half of them generalisations of a stored tuple so counts are not all 0.
void ExpectCountsMatchLinearScan(const PatternCounter& counter,
                                 const data::Dataset& dataset, uint64_t seed) {
  const data::AttributeSchema& schema = dataset.schema();
  const int d = schema.num_attributes();
  util::Rng rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    data::Pattern pattern(d);
    const std::vector<int>* source =
        trial % 2 == 0 && dataset.size() > 0
            ? &dataset.tuple(rng.NextBounded(dataset.size())).values
            : nullptr;
    for (int a = 0; a < d; ++a) {
      if (!rng.NextBernoulli(0.3)) continue;
      pattern = pattern.WithCell(
          a, source != nullptr ? (*source)[a]
                               : static_cast<int>(rng.NextBounded(
                                     schema.attribute(a).cardinality())));
    }
    ASSERT_EQ(counter.Count(pattern), dataset.CountMatching(pattern))
        << pattern.ToString();
  }
  EXPECT_EQ(counter.Count(data::Pattern(d)),
            static_cast<int64_t>(dataset.size()));
}

struct CubeCase {
  const char* name;
  int d;
  int cardinality;
  bool dense;
};

class PatternCounterCubeTest : public ::testing::TestWithParam<CubeCase> {};

TEST_P(PatternCounterCubeTest, CountsMatchLinearScanBeforeAndAfterAddTuple) {
  const CubeCase& c = GetParam();
  const auto schema = SchemaOf(std::vector<int>(c.d, c.cardinality));
  data::Dataset dataset(schema);
  util::Rng rng(17);
  for (int t = 0; t < 400; ++t) {
    data::Tuple tuple;
    tuple.values = SkewedTuple(schema, &rng);
    ASSERT_TRUE(dataset.Add(std::move(tuple)).ok());
  }
  auto counter = *PatternCounter::FromDataset(dataset);
  EXPECT_EQ(counter.dense(), c.dense);
  EXPECT_EQ(counter.num_tuples(), 400);
  ExpectCountsMatchLinearScan(counter, dataset, 1);

  // Growth after the bulk build keeps every count exact.
  for (int t = 0; t < 100; ++t) {
    data::Tuple tuple;
    tuple.values = SkewedTuple(schema, &rng);
    ASSERT_TRUE(counter.AddTuple(tuple.values).ok());
    ASSERT_TRUE(dataset.Add(std::move(tuple)).ok());
  }
  ExpectCountsMatchLinearScan(counter, dataset, 2);

  // An out-of-domain tuple is refused and changes no count.
  std::vector<int> bad(c.d, 0);
  bad[c.d - 1] = c.cardinality;
  EXPECT_EQ(counter.AddTuple(bad).code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(counter.num_tuples(), 500);
  ExpectCountsMatchLinearScan(counter, dataset, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Schemas, PatternCounterCubeTest,
    ::testing::Values(
        // 6^5 = 7776 cells: the cube.
        CubeCase{"BelowCap", 5, 5, true},
        // 8^7 = 2097152 > kMaxCubeCells: posting lists.
        CubeCase{"JustAboveCap", 7, 7, false},
        // 1001^30 overflows int64: must not wrap into a small cube.
        CubeCase{"ProductOverflowsInt64", 30, 1000, false}),
    [](const ::testing::TestParamInfo<CubeCase>& info) {
      return std::string(info.param.name);
    });

TEST(PatternCounterTest, CapIsInclusive) {
  // 4^10 = 2^20 cells exactly is still a cube; 4^9 * 5 is not.
  EXPECT_TRUE(PatternCounter(SchemaOf(std::vector<int>(10, 3))).dense());
  std::vector<int> over(10, 3);
  over[9] = 4;
  EXPECT_FALSE(PatternCounter(SchemaOf(over)).dense());
}

TEST(PatternCounterTest, IncrementalIndexMatchesFindMupsAboveTheCap) {
  // The streaming index over posting lists: a short differential stream
  // against a fresh FindMups at checkpoints.
  const auto schema = SchemaOf(std::vector<int>(7, 7));
  IncrementalMupOptions index_options;
  index_options.tau = 3;
  IncrementalMupIndex index(schema, index_options);
  PatternCounter reference(schema);
  ASSERT_FALSE(reference.dense());
  MupFinderOptions find_options;
  find_options.tau = 3;
  util::Rng rng(29);
  for (int step = 1; step <= 240; ++step) {
    const std::vector<int> values = SkewedTuple(schema, &rng);
    ASSERT_TRUE(index.Insert(values).ok());
    ASSERT_TRUE(reference.AddTuple(values).ok());
    if (step % 40 != 0) continue;
    const auto expected = MupFinder(schema, reference).FindMups(find_options);
    const auto actual = index.Mups();
    ASSERT_EQ(actual.size(), expected.size()) << "step " << step;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i].pattern, expected[i].pattern) << "step " << step;
      ASSERT_EQ(actual[i].count, expected[i].count) << "step " << step;
    }
  }
  EXPECT_GT(index.retired(), 0);
  EXPECT_GT(index.discovered(), 0);
}

TEST(MupFinderTest, EmptyWhenFullyCovered) {
  const auto schema = BinarySchema(2);
  data::Dataset dataset(schema);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      for (int i = 0; i < 5; ++i) {
        data::Tuple t;
        t.values = {a, b};
        ASSERT_TRUE(dataset.Add(t).ok());
      }
    }
  }
  const auto counter = *PatternCounter::FromDataset(dataset);
  MupFinder finder(schema, counter);
  MupFinderOptions options;
  options.tau = 5;
  EXPECT_TRUE(finder.FindMups(options).empty());
}

TEST(MupFinderTest, RootIsMupWhenDatasetTooSmall) {
  const auto schema = BinarySchema(2);
  data::Dataset dataset(schema);
  data::Tuple t;
  t.values = {0, 0};
  ASSERT_TRUE(dataset.Add(t).ok());
  const auto counter = *PatternCounter::FromDataset(dataset);
  MupFinder finder(schema, counter);
  MupFinderOptions options;
  options.tau = 10;
  const auto mups = finder.FindMups(options);
  ASSERT_EQ(mups.size(), 1u);
  EXPECT_EQ(mups[0].Level(), 0);
  EXPECT_EQ(mups[0].gap, 9);
}

TEST(MupFinderTest, FindsDesignedMup) {
  // x0=1 & x1=1 is rare; every other combination is plentiful.
  const auto schema = BinarySchema(2);
  data::Dataset dataset(schema);
  auto add = [&](int a, int b, int times) {
    for (int i = 0; i < times; ++i) {
      data::Tuple t;
      t.values = {a, b};
      ASSERT_TRUE(dataset.Add(t).ok());
    }
  };
  add(0, 0, 20);
  add(0, 1, 20);
  add(1, 0, 20);
  add(1, 1, 2);
  const auto counter = *PatternCounter::FromDataset(dataset);
  MupFinder finder(schema, counter);
  MupFinderOptions options;
  options.tau = 10;
  const auto mups = finder.FindMups(options);
  ASSERT_EQ(mups.size(), 1u);
  EXPECT_EQ(mups[0].pattern, data::Pattern({1, 1}));
  EXPECT_EQ(mups[0].count, 2);
  EXPECT_EQ(mups[0].gap, 8);
}

TEST(MupFinderTest, MupPropertiesHold) {
  // Every reported MUP must be uncovered with all parents covered.
  const auto schema = BinarySchema(5);
  const auto dataset = RandomDataset(schema, 2000, 21);
  const auto counter = *PatternCounter::FromDataset(dataset);
  MupFinder finder(schema, counter);
  MupFinderOptions options;
  options.tau = 60;
  const auto mups = finder.FindMups(options);
  EXPECT_FALSE(mups.empty());
  for (const auto& m : mups) {
    EXPECT_LT(m.count, options.tau);
    EXPECT_EQ(m.gap, options.tau - m.count);
    for (const auto& parent : m.pattern.Parents()) {
      EXPECT_GE(counter.Count(parent), options.tau)
          << "uncovered parent of " << m.pattern.ToString();
    }
  }
}

TEST(MupFinderTest, MaxLevelRestrictsOutput) {
  const auto schema = BinarySchema(5);
  const auto dataset = RandomDataset(schema, 2000, 21);
  const auto counter = *PatternCounter::FromDataset(dataset);
  MupFinder finder(schema, counter);
  MupFinderOptions options;
  options.tau = 60;
  options.max_level = 2;
  for (const auto& m : finder.FindMups(options)) {
    EXPECT_LE(m.Level(), 2);
  }
}

TEST(MupFinderTest, MinLevelFilter) {
  std::vector<Mup> mups;
  mups.push_back({data::Pattern({0, data::Pattern::kUnspecified}), 1, 2});
  mups.push_back({data::Pattern({0, 1}), 1, 2});
  const auto filtered = MupFinder::MinLevel(mups);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].Level(), 1);
  EXPECT_TRUE(MupFinder::MinLevel({}).empty());
}

// Property check: lattice BFS agrees with the naive oracle across random
// data sets and thresholds.
class MupAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MupAgreementTest, LatticeMatchesNaive) {
  const uint64_t seed = GetParam();
  const int d = 3 + static_cast<int>(seed % 3);
  const auto schema = BinarySchema(d);
  const auto dataset = RandomDataset(schema, 800, seed);
  const auto counter = *PatternCounter::FromDataset(dataset);
  MupFinder finder(schema, counter);
  MupFinderOptions options;
  options.tau = 20 + static_cast<int64_t>(seed % 5) * 40;

  const auto fast = finder.FindMups(options);
  const auto naive = finder.FindMupsNaive(options);
  ASSERT_EQ(fast.size(), naive.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].pattern, naive[i].pattern);
    EXPECT_EQ(fast[i].count, naive[i].count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MupAgreementTest,
                         ::testing::Range(1, 13));


TEST(PatternCounterTest, AddTupleRejectsOutOfDomainValues) {
  // Regression: these writes used to be unchecked out-of-bounds indexing
  // into the posting lists.
  const auto schema = BinarySchema(2);
  PatternCounter counter(schema);
  EXPECT_FALSE(counter.AddTuple({0, 2}).ok());   // value beyond cardinality
  EXPECT_FALSE(counter.AddTuple({-1, 0}).ok());  // negative value
  EXPECT_FALSE(counter.AddTuple({0}).ok());      // too few values
  EXPECT_FALSE(counter.AddTuple({0, 1, 1}).ok());  // too many values
  EXPECT_FALSE(counter.AddTuple({}).ok());
  // Nothing was indexed by the rejected tuples.
  EXPECT_EQ(counter.num_tuples(), 0);
  EXPECT_EQ(counter.Count(data::Pattern(2)), 0);
  // A valid tuple still goes through afterwards.
  EXPECT_TRUE(counter.AddTuple({0, 1}).ok());
  EXPECT_EQ(counter.num_tuples(), 1);
  EXPECT_EQ(counter.Count(data::Pattern({0, 1})), 1);
}

TEST(MupFinderTest, LatticeIssuesFewerCountsThanFullMaterialization) {
  // The efficiency claim behind the BFS: covered-node expansion prunes
  // whole sublattices the naive algorithm would count.
  const auto schema = BinarySchema(7);
  const auto dataset = RandomDataset(schema, 4000, 5);
  const auto counter = *PatternCounter::FromDataset(dataset);
  MupFinder finder(schema, counter);
  MupFinderOptions options;
  options.tau = 2000;  // high threshold -> shallow uncovered frontier
  (void)finder.FindMups(options);
  const int64_t lattice_queries = finder.last_count_queries();
  // Full lattice size for 7 binary attributes: 3^7 = 2187 patterns.
  EXPECT_LT(lattice_queries, 2187);
  EXPECT_GT(lattice_queries, 0);
}

}  // namespace
}  // namespace chameleon::coverage
