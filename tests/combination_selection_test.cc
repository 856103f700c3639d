#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>

#include "gtest/gtest.h"
#include "src/core/combination_selection.h"
#include "src/util/rng.h"

namespace chameleon::core {
namespace {

data::AttributeSchema MakeSchema() {
  data::AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute({"g", {"0", "1"}, false}).ok());
  EXPECT_TRUE(schema.AddAttribute({"r", {"0", "1", "2"}, false}).ok());
  EXPECT_TRUE(
      schema.AddAttribute({"a", {"0", "1", "2", "3"}, true}).ok());
  return schema;
}

coverage::Mup MakeMup(std::vector<int> cells, int64_t gap) {
  return coverage::Mup{data::Pattern(std::move(cells)), 0, gap};
}

constexpr int kX = data::Pattern::kUnspecified;

// Simulates fulfilling a plan and checks that every target-level MUP's
// gap is satisfied.
bool PlanSatisfies(const CombinationPlan& plan,
                   std::vector<coverage::Mup> mups) {
  for (const auto& entry : plan) {
    for (auto& m : mups) {
      if (m.pattern.Matches(entry.values)) m.gap -= entry.count;
    }
  }
  for (const auto& m : mups) {
    if (m.gap > 0) return false;
  }
  return true;
}

TEST(PlanTest, TotalSums) {
  CombinationPlan plan;
  plan.push_back({{0, 0, 0}, 3});
  plan.push_back({{1, 2, 3}, 4});
  EXPECT_EQ(PlanTotal(plan), 7);
  EXPECT_EQ(PlanTotal({}), 0);
}

TEST(GreedyTest, SingleMupCostsExactlyItsGap) {
  const auto schema = MakeSchema();
  const auto plan =
      GreedySelect(schema, {MakeMup({kX, 1, kX}, 5)});
  EXPECT_EQ(PlanTotal(plan), 5);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].values[1], 1);
}

TEST(GreedyTest, MergesCompatibleMups) {
  // Two MUPs on disjoint attributes: one combination covers both, so the
  // cost is max(gap) + residue, not the sum.
  const auto schema = MakeSchema();
  const std::vector<coverage::Mup> mups = {MakeMup({kX, 1, kX}, 10),
                                           MakeMup({kX, kX, 2}, 4)};
  const auto plan = GreedySelect(schema, mups);
  EXPECT_EQ(PlanTotal(plan), 10);  // 4 shared + 6 extra for the first
  EXPECT_TRUE(PlanSatisfies(plan, mups));
}

TEST(GreedyTest, ConflictingMupsCostSum) {
  // Same attribute, different values: no combination matches both.
  const auto schema = MakeSchema();
  const std::vector<coverage::Mup> mups = {MakeMup({kX, 0, kX}, 3),
                                           MakeMup({kX, 1, kX}, 4)};
  const auto plan = GreedySelect(schema, mups);
  EXPECT_EQ(PlanTotal(plan), 7);
  EXPECT_TRUE(PlanSatisfies(plan, mups));
}

TEST(GreedyTest, IgnoresNonPositiveGaps) {
  const auto schema = MakeSchema();
  const auto plan = GreedySelect(
      schema, {MakeMup({kX, 0, kX}, 0), MakeMup({0, kX, kX}, -2)});
  EXPECT_TRUE(plan.empty());
}

TEST(GreedyTest, PlanCombinationsMatchSomeMup) {
  const auto schema = MakeSchema();
  const std::vector<coverage::Mup> mups = {
      MakeMup({0, 1, kX}, 7), MakeMup({kX, 1, 3}, 2), MakeMup({1, kX, 0}, 5)};
  const auto plan = GreedySelect(schema, mups);
  EXPECT_TRUE(PlanSatisfies(plan, mups));
  for (const auto& entry : plan) {
    EXPECT_TRUE(schema.IsValidCombination(entry.values));
    bool matches_any = false;
    for (const auto& m : mups) matches_any |= m.pattern.Matches(entry.values);
    EXPECT_TRUE(matches_any);
  }
}

TEST(RandomTest, ResolvesTargetsAndCountsEachDraw) {
  const auto schema = MakeSchema();
  const std::vector<coverage::Mup> mups = {MakeMup({kX, 1, kX}, 3)};
  util::Rng rng(5);
  const auto plan = RandomSelect(schema, mups, 1, &rng);
  EXPECT_TRUE(PlanSatisfies(plan, mups));
  // Random draws waste queries on non-matching combinations: with the
  // target present in 1/3 of combinations, cost must be >= gap.
  EXPECT_GE(PlanTotal(plan), 3);
}

TEST(RandomTest, IgnoresOffLevelMups) {
  const auto schema = MakeSchema();
  // Only the level-2 MUP matters when target_level is 2.
  const std::vector<coverage::Mup> mups = {MakeMup({kX, 1, kX}, 1000),
                                           MakeMup({0, 2, kX}, 1)};
  util::Rng rng(6);
  const auto plan = RandomSelect(schema, mups, 2, &rng);
  // Resolving the single level-2 MUP should cost far less than 1000.
  EXPECT_LT(PlanTotal(plan), 500);
}

// `attributes` attributes of 1000 values each.
data::AttributeSchema ThousandValueSchema(int attributes) {
  data::AttributeSchema schema;
  std::vector<std::string> domain;
  for (int v = 0; v < 1000; ++v) domain.push_back(std::to_string(v));
  for (int a = 0; a < attributes; ++a) {
    std::string name = "a";
    name += std::to_string(a);
    EXPECT_TRUE(schema.AddAttribute({name, domain, false}).ok());
  }
  return schema;
}

// 30 attributes of 1000 values: the combination count saturates, so
// Greedy grows MUP merges instead of enumerating and Random draws one
// value per attribute.
TEST(WideSchemaTest, ThirtyByThousandPlansWithoutEnumerating) {
  const auto schema = ThousandValueSchema(30);
  ASSERT_EQ(schema.NumCombinations(), std::numeric_limits<int64_t>::max());
  std::vector<int> first(30, kX);
  first[0] = 3;
  std::vector<int> second(30, kX);
  second[1] = 7;
  const std::vector<coverage::Mup> mups = {MakeMup(first, 2),
                                           MakeMup(second, 2)};

  const auto greedy = GreedySelect(schema, mups);
  EXPECT_TRUE(PlanSatisfies(greedy, mups));
  // One merged combination serves both MUPs.
  ASSERT_EQ(greedy.size(), 1u);
  EXPECT_EQ(greedy[0].values[0], 3);
  EXPECT_EQ(greedy[0].values[1], 7);

  util::Rng rng(30);
  const auto random = RandomSelect(schema, {MakeMup(first, 1)}, 1, &rng);
  EXPECT_TRUE(PlanSatisfies(random, {MakeMup(first, 1)}));
  for (const auto& entry : random) {
    EXPECT_TRUE(schema.IsValidCombination(entry.values));
  }
}

TEST(MinGapTest, SatisfiesTargetsEventually) {
  const auto schema = MakeSchema();
  const std::vector<coverage::Mup> mups = {MakeMup({kX, 1, kX}, 6),
                                           MakeMup({kX, kX, 2}, 3)};
  const auto plan = MinGapSelect(schema, mups, 1);
  std::vector<coverage::Mup> targets;
  for (const auto& m : mups) {
    if (m.Level() == 1) targets.push_back(m);
  }
  EXPECT_TRUE(PlanSatisfies(plan, targets));
}

TEST(MinGapTest, WastesQueriesOnSmallGapIrrelevantMups) {
  // The Figure 6 pathology: many small-gap level-2 MUPs are satisfied
  // before the level-1 target, so Min-Gap pays for all of them.
  const auto schema = MakeSchema();
  std::vector<coverage::Mup> mups;
  mups.push_back(MakeMup({kX, 1, kX}, 100));  // the level-1 target
  // Small-gap level-2 MUPs on other values.
  for (int a = 0; a < 4; ++a) {
    mups.push_back(MakeMup({0, 2, a}, 2));
    mups.push_back(MakeMup({1, 0, a}, 2));
  }
  const auto min_gap_plan = MinGapSelect(schema, mups, 1);
  std::vector<coverage::Mup> targets = {mups[0]};
  const auto greedy_plan = GreedySelect(schema, targets);
  EXPECT_TRUE(PlanSatisfies(min_gap_plan, targets));
  // Greedy pays exactly 100; Min-Gap pays for the irrelevant MUPs too.
  EXPECT_EQ(PlanTotal(greedy_plan), 100);
  EXPECT_GT(PlanTotal(min_gap_plan), PlanTotal(greedy_plan));
}

TEST(AlgorithmNamesTest, AreStable) {
  EXPECT_STREQ(SelectionAlgorithmName(SelectionAlgorithm::kGreedy), "Greedy");
  EXPECT_STREQ(SelectionAlgorithmName(SelectionAlgorithm::kRandom), "Random");
  EXPECT_STREQ(SelectionAlgorithmName(SelectionAlgorithm::kMinGap),
               "Min-Gap");
}

// Property sweep: on random MUP sets, every algorithm satisfies the
// target gaps, and Greedy never costs more than Min-Gap or Random.
class SelectionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectionPropertyTest, AllSatisfyAndGreedyIsCheapest) {
  const uint64_t seed = GetParam();
  const auto schema = MakeSchema();
  util::Rng rng(seed);

  // Random level-2 MUPs (distinct patterns).
  std::map<std::vector<int>, int64_t> unique;
  const int num_mups = 2 + static_cast<int>(rng.NextBounded(6));
  while (static_cast<int>(unique.size()) < num_mups) {
    std::vector<int> cells(3, kX);
    const int first = static_cast<int>(rng.NextBounded(3));
    const int second = (first + 1) % 3;
    cells[first] = static_cast<int>(
        rng.NextBounded(schema.attribute(first).cardinality()));
    cells[second] = static_cast<int>(
        rng.NextBounded(schema.attribute(second).cardinality()));
    unique.emplace(cells, rng.NextInt(1, 40));
  }
  std::vector<coverage::Mup> mups;
  for (const auto& [cells, gap] : unique) {
    mups.push_back(MakeMup(cells, gap));
  }

  const auto greedy = GreedySelect(schema, mups);
  const auto min_gap = MinGapSelect(schema, mups, 2);
  const auto random = RandomSelect(schema, mups, 2, &rng);
  EXPECT_TRUE(PlanSatisfies(greedy, mups));
  EXPECT_TRUE(PlanSatisfies(min_gap, mups));
  EXPECT_TRUE(PlanSatisfies(random, mups));
  EXPECT_LE(PlanTotal(greedy), PlanTotal(min_gap));
  EXPECT_LE(PlanTotal(greedy), PlanTotal(random));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionPropertyTest,
                         ::testing::Range(1, 16));


// Theorem 1 check: on small instances, Greedy's total is within
// H(eta) = ln(eta)+1 of the brute-force optimum (it is usually equal).
namespace {

// Brute force: minimize total sigma over all assignments, searching over
// per-combination counts bounded by the max gap. Exponential — only for
// tiny instances.
int64_t BruteForceOptimal(const data::AttributeSchema& schema,
                          const std::vector<coverage::Mup>& mups) {
  // Candidate combinations: all of them (tiny schema).
  std::vector<std::vector<int>> combos;
  for (int64_t c = 0; c < schema.NumCombinations(); ++c) {
    combos.push_back(schema.CombinationFromIndex(c));
  }
  // Depth-first over combos, assigning each a count 0..max_gap, pruning
  // on the running best.
  int64_t best = 0;
  for (const auto& m : mups) best += m.gap;  // satisfy each individually

  std::vector<int64_t> gaps;
  for (const auto& m : mups) gaps.push_back(m.gap);

  std::function<void(size_t, int64_t, std::vector<int64_t>)> dfs =
      [&](size_t index, int64_t spent, std::vector<int64_t> remaining) {
        if (spent >= best) return;  // prune
        bool done = true;
        int64_t max_remaining = 0;
        for (int64_t g : remaining) {
          if (g > 0) done = false;
          max_remaining = std::max(max_remaining, g);
        }
        if (done) {
          best = spent;
          return;
        }
        if (index >= combos.size()) return;
        for (int64_t count = max_remaining; count >= 0; --count) {
          std::vector<int64_t> next = remaining;
          for (size_t m = 0; m < mups.size(); ++m) {
            if (mups[m].pattern.Matches(combos[index])) next[m] -= count;
          }
          dfs(index + 1, spent + count, std::move(next));
        }
      };
  dfs(0, 0, gaps);
  return best;
}

}  // namespace

class GreedyOptimalityTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyOptimalityTest, WithinLogFactorOfOptimal) {
  // Tiny schema so brute force is feasible: 2 x 2 x 2.
  data::AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute({"a", {"0", "1"}, false}).ok());
  ASSERT_TRUE(schema.AddAttribute({"b", {"0", "1"}, false}).ok());
  ASSERT_TRUE(schema.AddAttribute({"c", {"0", "1"}, false}).ok());

  util::Rng rng(GetParam());
  std::map<std::vector<int>, int64_t> unique;
  const int num_mups = 2 + static_cast<int>(rng.NextBounded(3));
  while (static_cast<int>(unique.size()) < num_mups) {
    std::vector<int> cells(3, kX);
    const int attr = static_cast<int>(rng.NextBounded(3));
    cells[attr] = static_cast<int>(rng.NextBounded(2));
    if (rng.NextBernoulli(0.6)) {
      const int attr2 = (attr + 1) % 3;
      cells[attr2] = static_cast<int>(rng.NextBounded(2));
    }
    unique.emplace(cells, rng.NextInt(1, 6));
  }
  std::vector<coverage::Mup> mups;
  double eta = 0.0;
  for (const auto& [cells, gap] : unique) {
    mups.push_back(MakeMup(cells, gap));
    eta += static_cast<double>(gap);
  }

  const int64_t greedy = PlanTotal(GreedySelect(schema, mups));
  const int64_t optimal = BruteForceOptimal(schema, mups);
  EXPECT_GE(greedy, optimal);
  const double bound = (std::log(eta) + 1.0) * static_cast<double>(optimal);
  EXPECT_LE(static_cast<double>(greedy), bound + 1e-9)
      << "greedy " << greedy << " vs optimal " << optimal;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyOptimalityTest,
                         ::testing::Range(100, 120));

}  // namespace
}  // namespace chameleon::core
