#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>

#include "gtest/gtest.h"
#include "src/data/dataset.h"
#include "src/data/pattern.h"
#include "src/data/schema.h"

namespace chameleon::data {
namespace {

AttributeSchema MakeSchema() {
  AttributeSchema schema;
  EXPECT_TRUE(schema.AddAttribute({"gender", {"M", "F"}, false}).ok());
  EXPECT_TRUE(
      schema.AddAttribute({"race", {"A", "B", "C"}, false}).ok());
  EXPECT_TRUE(
      schema.AddAttribute({"age", {"0", "1", "2", "3"}, true}).ok());
  return schema;
}

TEST(SchemaTest, RejectsDegenerateDomains) {
  AttributeSchema schema;
  EXPECT_FALSE(schema.AddAttribute({"x", {"only"}, false}).ok());
  EXPECT_FALSE(schema.AddAttribute({"x", {}, false}).ok());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  AttributeSchema schema;
  ASSERT_TRUE(schema.AddAttribute({"x", {"0", "1"}, false}).ok());
  EXPECT_FALSE(schema.AddAttribute({"x", {"a", "b"}, false}).ok());
}

TEST(SchemaTest, FindAttribute) {
  const AttributeSchema schema = MakeSchema();
  EXPECT_EQ(schema.FindAttribute("race"), 1);
  EXPECT_EQ(schema.FindAttribute("nope"), -1);
}

TEST(SchemaTest, NumCombinationsIsDomainProduct) {
  EXPECT_EQ(MakeSchema().NumCombinations(), 2 * 3 * 4);
}

TEST(SchemaTest, NumCombinationsSaturatesInsteadOfWrapping) {
  auto wide = [](int attributes) {
    AttributeSchema schema;
    for (int a = 0; a < attributes; ++a) {
      std::vector<std::string> domain;
      for (int v = 0; v < 1000; ++v) domain.push_back(std::to_string(v));
      std::string name = "a";
      name += std::to_string(a);
      EXPECT_TRUE(schema.AddAttribute({name, domain, false}).ok());
    }
    return schema;
  };
  EXPECT_EQ(wide(6).NumCombinations(), 1000000000000000000LL);
  EXPECT_EQ(wide(7).NumCombinations(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(wide(30).NumCombinations(), std::numeric_limits<int64_t>::max());
}

TEST(SchemaTest, CombinationIndexRoundTrips) {
  const AttributeSchema schema = MakeSchema();
  std::unordered_set<int64_t> seen;
  for (int g = 0; g < 2; ++g) {
    for (int r = 0; r < 3; ++r) {
      for (int a = 0; a < 4; ++a) {
        const std::vector<int> values = {g, r, a};
        const int64_t index = schema.CombinationIndex(values);
        EXPECT_GE(index, 0);
        EXPECT_LT(index, schema.NumCombinations());
        EXPECT_TRUE(seen.insert(index).second) << "index collision";
        EXPECT_EQ(schema.CombinationFromIndex(index), values);
      }
    }
  }
  EXPECT_EQ(seen.size(), 24u);
}

TEST(SchemaTest, IsValidCombination) {
  const AttributeSchema schema = MakeSchema();
  EXPECT_TRUE(schema.IsValidCombination({0, 2, 3}));
  EXPECT_FALSE(schema.IsValidCombination({0, 3, 3}));  // race out of range
  EXPECT_FALSE(schema.IsValidCombination({0, 2}));     // wrong arity
  EXPECT_FALSE(schema.IsValidCombination({-1, 0, 0}));
}

TEST(SchemaTest, CombinationToString) {
  const AttributeSchema schema = MakeSchema();
  EXPECT_EQ(schema.CombinationToString({1, 0, 2}),
            "gender=F, race=A, age=2");
}

TEST(PatternTest, LevelCountsSpecifiedCells) {
  EXPECT_EQ(Pattern(3).Level(), 0);
  EXPECT_EQ(Pattern({0, Pattern::kUnspecified, 2}).Level(), 2);
  EXPECT_EQ(Pattern({0, 1, 2}).Level(), 3);
}

TEST(PatternTest, MatchesChecksOnlySpecifiedCells) {
  const Pattern p({Pattern::kUnspecified, 1, Pattern::kUnspecified});
  EXPECT_TRUE(p.Matches({0, 1, 3}));
  EXPECT_TRUE(p.Matches({1, 1, 0}));
  EXPECT_FALSE(p.Matches({0, 2, 3}));
}

TEST(PatternTest, RootMatchesEverything) {
  const Pattern root(3);
  EXPECT_TRUE(root.Matches({0, 0, 0}));
  EXPECT_TRUE(root.Matches({1, 2, 3}));
}

TEST(PatternTest, ContainsIsSubgroupContainment) {
  const Pattern general({Pattern::kUnspecified, 1, Pattern::kUnspecified});
  const Pattern specific({0, 1, 2});
  EXPECT_TRUE(general.Contains(specific));
  EXPECT_FALSE(specific.Contains(general));
  EXPECT_TRUE(general.Contains(general));
  const Pattern other({0, 2, 2});
  EXPECT_FALSE(general.Contains(other));
}

TEST(PatternTest, ParentsRelaxOneCell) {
  const Pattern p({0, 1, Pattern::kUnspecified});
  const auto parents = p.Parents();
  ASSERT_EQ(parents.size(), 2u);
  for (const auto& parent : parents) {
    EXPECT_EQ(parent.Level(), 1);
    EXPECT_TRUE(parent.Contains(p));
  }
}

TEST(PatternTest, ChildrenBindEachUnspecifiedCell) {
  const AttributeSchema schema = MakeSchema();
  const Pattern p({0, Pattern::kUnspecified, Pattern::kUnspecified});
  const auto children = p.Children(schema);
  EXPECT_EQ(children.size(), 3u + 4u);  // race values + age values
  for (const auto& child : children) {
    EXPECT_EQ(child.Level(), 2);
    EXPECT_TRUE(p.Contains(child));
  }
}

TEST(PatternTest, ToStringUsesXAndBrackets) {
  EXPECT_EQ(Pattern({Pattern::kUnspecified, 0, 1}).ToString(), "X01");
  EXPECT_EQ(Pattern({12, Pattern::kUnspecified}).ToString(), "[12]X");
}

TEST(PatternTest, ToStringWithSchemaNamesValues) {
  const AttributeSchema schema = MakeSchema();
  const Pattern p({Pattern::kUnspecified, 1, Pattern::kUnspecified});
  EXPECT_EQ(p.ToString(schema), "race=B");
  EXPECT_EQ(Pattern(3).ToString(schema), "<all>");
}

TEST(PatternTest, HashDistinguishesUnspecifiedFromZero) {
  PatternHash hash;
  const Pattern a({0, 0});
  const Pattern b({0, Pattern::kUnspecified});
  EXPECT_NE(a, b);
  // Not a strict requirement, but collisions here would be suspicious.
  EXPECT_NE(hash(a), hash(b));
}

TEST(DatasetTest, AddValidatesSchema) {
  Dataset dataset(MakeSchema());
  Tuple good;
  good.values = {0, 1, 2};
  EXPECT_TRUE(dataset.Add(good).ok());
  Tuple bad;
  bad.values = {0, 9, 2};
  EXPECT_FALSE(dataset.Add(bad).ok());
  EXPECT_EQ(dataset.size(), 1u);
}

TEST(DatasetTest, CountMatchingAndIndices) {
  Dataset dataset(MakeSchema());
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i <= r; ++i) {
      Tuple t;
      t.values = {0, r, 0};
      ASSERT_TRUE(dataset.Add(t).ok());
    }
  }
  const Pattern race_b({Pattern::kUnspecified, 1, Pattern::kUnspecified});
  EXPECT_EQ(dataset.CountMatching(race_b), 2);
  EXPECT_EQ(dataset.IndicesMatching(race_b).size(), 2u);
  EXPECT_EQ(dataset.CountMatching(Pattern(3)),
            static_cast<int64_t>(dataset.size()));
}

TEST(DatasetTest, CombinationHistogram) {
  Dataset dataset(MakeSchema());
  Tuple t;
  t.values = {1, 2, 3};
  ASSERT_TRUE(dataset.Add(t).ok());
  ASSERT_TRUE(dataset.Add(t).ok());
  t.values = {0, 0, 0};
  ASSERT_TRUE(dataset.Add(t).ok());
  const auto histogram = dataset.CombinationHistogram();
  EXPECT_EQ(histogram.size(), 2u);
  EXPECT_EQ(histogram.at(dataset.schema().CombinationIndex({1, 2, 3})), 2);
}

TEST(DatasetTest, NumSyntheticCountsFlagged) {
  Dataset dataset(MakeSchema());
  Tuple t;
  t.values = {0, 0, 0};
  ASSERT_TRUE(dataset.Add(t).ok());
  t.synthetic = true;
  ASSERT_TRUE(dataset.Add(t).ok());
  EXPECT_EQ(dataset.NumSynthetic(), 1);
}

TEST(DatasetTest, EmbeddingMeanSkipsMissing) {
  Dataset dataset(MakeSchema());
  Tuple t;
  t.values = {0, 0, 0};
  t.embedding = {1.0, 3.0};
  ASSERT_TRUE(dataset.Add(t).ok());
  t.embedding = {3.0, 5.0};
  ASSERT_TRUE(dataset.Add(t).ok());
  t.embedding.clear();
  ASSERT_TRUE(dataset.Add(t).ok());
  const auto mean = dataset.EmbeddingMean();
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 4.0);
}

}  // namespace
}  // namespace chameleon::data
