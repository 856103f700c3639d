#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/guide_selection.h"
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

data::Dataset MakeDataset(const data::AttributeSchema& schema) {
  data::Dataset dataset(schema);
  auto add = [&](std::vector<int> values, int count) {
    for (int i = 0; i < count; ++i) {
      data::Tuple t;
      t.values = values;
      EXPECT_TRUE(dataset.Add(std::move(t)).ok());
    }
  };
  add({0, 0, 0}, 10);
  add({0, 1, 0}, 6);
  add({1, 0, 0}, 4);
  add({0, 0, 1}, 8);
  add({0, 0, 3}, 5);
  return dataset;
}

TEST(NoGuideTest, ReturnsNoGuide) {
  const auto schema = MakeSchema();
  const auto dataset = MakeDataset(schema);
  NoGuideSelector selector;
  util::Rng rng(1);
  auto choice = selector.Select(dataset, {0, 0, 0}, &rng);
  ASSERT_TRUE(choice.ok());
  EXPECT_FALSE(choice->has_guide);
}

TEST(RandomGuideTest, PicksExistingTupleIgnoringTarget) {
  const auto schema = MakeSchema();
  const auto dataset = MakeDataset(schema);
  RandomGuideSelector selector;
  util::Rng rng(2);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    auto choice = selector.Select(dataset, {1, 2, 3}, &rng);
    ASSERT_TRUE(choice.ok());
    ASSERT_TRUE(choice->has_guide);
    ASSERT_LT(choice->tuple_index, dataset.size());
    EXPECT_EQ(choice->guide_values, dataset.tuple(choice->tuple_index).values);
    seen.insert(choice->tuple_index);
  }
  EXPECT_GT(seen.size(), 20u);  // spreads over the data set
}

TEST(RandomGuideTest, FailsOnEmptyDataset) {
  const auto schema = MakeSchema();
  data::Dataset empty(schema);
  RandomGuideSelector selector;
  util::Rng rng(3);
  EXPECT_FALSE(selector.Select(empty, {0, 0, 0}, &rng).ok());
}

TEST(SimilarTupleTest, PoolContainsOnlySimilarSiblings) {
  const auto schema = MakeSchema();
  SimilarTupleSelector selector(schema);
  const auto pool = selector.SimilarPool({0, 1, 2});
  // g: 1 sibling; r: 2 siblings; a (ordinal, value 2): values 1 and 3.
  EXPECT_EQ(pool.size(), 1u + 2u + 2u);
  for (const auto& sibling : pool) {
    int diffs = 0;
    for (int i = 0; i < 3; ++i) diffs += sibling[i] != std::vector<int>{0, 1, 2}[i];
    EXPECT_EQ(diffs, 1);
  }
}

TEST(SimilarTupleTest, OrdinalEndpointsClampThePool) {
  const auto schema = MakeSchema();
  SimilarTupleSelector selector(schema);
  const auto pool = selector.SimilarPool({0, 0, 0});
  // a = 0 has a single ordinal neighbour (1); a distance-2 sibling like
  // a=2 is excluded by the similarity rule.
  int ordinal_neighbors = 0;
  for (const auto& sibling : pool) {
    if (sibling[2] != 0) {
      EXPECT_EQ(sibling[2], 1);
      ++ordinal_neighbors;
    }
  }
  EXPECT_EQ(ordinal_neighbors, 1);
}

TEST(SimilarTupleTest, SelectsFromPopulatedSiblings) {
  const auto schema = MakeSchema();
  const auto dataset = MakeDataset(schema);
  SimilarTupleSelector selector(schema);
  util::Rng rng(4);
  // Target {0,0,0}: populated similar siblings are {0,1,0}, {1,0,0},
  // {0,0,1} (a=1 at ordinal distance 1). {0,0,3} is NOT similar.
  for (int i = 0; i < 100; ++i) {
    auto choice = selector.Select(dataset, {0, 0, 0}, &rng);
    ASSERT_TRUE(choice.ok());
    ASSERT_TRUE(choice->has_guide);
    const auto& v = choice->guide_values;
    int diffs = 0;
    for (int k = 0; k < 3; ++k) diffs += v[k] != 0;
    EXPECT_EQ(diffs, 1) << "guide must be a sibling";
    EXPECT_NE(v, (std::vector<int>{0, 0, 3}));
  }
}

TEST(SimilarTupleTest, WeightsBySiblingPopulation) {
  const auto schema = MakeSchema();
  const auto dataset = MakeDataset(schema);
  SimilarTupleSelector selector(schema);
  util::Rng rng(5);
  int from_biggest = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    auto choice = selector.Select(dataset, {0, 0, 0}, &rng);
    ASSERT_TRUE(choice.ok());
    // {0,0,1} has 8 of the 18 populated similar tuples.
    if (choice->guide_values == std::vector<int>{0, 0, 1}) ++from_biggest;
  }
  EXPECT_NEAR(static_cast<double>(from_biggest) / trials, 8.0 / 18.0, 0.05);
}

TEST(SimilarTupleTest, FallsBackToRandomWhenPoolEmpty) {
  const auto schema = MakeSchema();
  data::Dataset dataset(schema);
  data::Tuple t;
  t.values = {1, 2, 3};  // far from the target's sibling set
  ASSERT_TRUE(dataset.Add(t).ok());
  SimilarTupleSelector selector(schema);
  util::Rng rng(6);
  auto choice = selector.Select(dataset, {0, 0, 0}, &rng);
  ASSERT_TRUE(choice.ok());
  EXPECT_TRUE(choice->has_guide);
  EXPECT_EQ(choice->guide_values, (std::vector<int>{1, 2, 3}));
}

TEST(LinUcbSelectorTest, GuideDiffersInExactlyThePulledArm) {
  const auto schema = MakeSchema();
  const auto dataset = MakeDataset(schema);
  LinUcbSelector selector(schema, 0.5);
  util::Rng rng(7);
  const std::vector<int> target = {0, 0, 0};
  for (int i = 0; i < 50; ++i) {
    auto choice = selector.Select(dataset, target, &rng);
    ASSERT_TRUE(choice.ok());
    ASSERT_TRUE(choice->has_guide);
    if (choice->arm < 0) continue;  // random fallback
    for (int k = 0; k < 3; ++k) {
      if (k == choice->arm) {
        EXPECT_NE(choice->guide_values[k], target[k]);
        if (schema.attribute(k).ordinal) {
          EXPECT_LE(std::abs(choice->guide_values[k] - target[k]), 1);
        }
      } else {
        EXPECT_EQ(choice->guide_values[k], target[k]);
      }
    }
    selector.ReportReward(target, *choice, i % 2 == 0);
  }
}

TEST(LinUcbSelectorTest, LearnsTheRewardingArm) {
  const auto schema = MakeSchema();
  const auto dataset = MakeDataset(schema);
  LinUcbSelector selector(schema, 0.3);
  util::Rng rng(8);
  // Target {1,1,0}: arm 0 has populated sibling {0,1,0}, arm 1 has
  // {1,0,0}; arm 2 has none. Only arm 0 is rewarded.
  const std::vector<int> target = {1, 1, 0};
  // Reward only pulls of arm 0 (the gender attribute).
  for (int i = 0; i < 120; ++i) {
    auto choice = selector.Select(dataset, target, &rng);
    ASSERT_TRUE(choice.ok());
    if (choice->arm < 0) continue;
    selector.ReportReward(target, *choice, choice->arm == 0);
  }
  EXPECT_GT(selector.bandit().pull_count(0), 40);
}

TEST(LinUcbSelectorTest, RejectsASchemaTooWideForItsContext) {
  // 30 attributes of 1000 values: far more combinations than the one-hot
  // context (an int-sized vector) can index.
  data::AttributeSchema schema;
  std::vector<std::string> domain;
  for (int v = 0; v < 1000; ++v) domain.push_back(std::to_string(v));
  for (int a = 0; a < 30; ++a) {
    std::string name = "a";
    name += std::to_string(a);
    ASSERT_TRUE(schema.AddAttribute({name, domain, false}).ok());
  }
  data::Dataset dataset(schema);
  data::Tuple tuple;
  tuple.values.assign(30, 0);
  ASSERT_TRUE(dataset.Add(tuple).ok());
  LinUcbSelector selector(schema, 0.5);
  util::Rng rng(9);
  auto choice = selector.Select(dataset, std::vector<int>(30, 1), &rng);
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(FactoryTest, BuildsEveryStrategy) {
  const auto schema = MakeSchema();
  for (GuideStrategy strategy :
       {GuideStrategy::kNoGuide, GuideStrategy::kRandomGuide,
        GuideStrategy::kSimilarTuple, GuideStrategy::kLinUcb}) {
    auto selector = MakeGuideSelector(strategy, schema, 0.5);
    ASSERT_NE(selector, nullptr);
    EXPECT_STREQ(selector->name(), GuideStrategyName(strategy));
  }
}

}  // namespace
}  // namespace chameleon::core
