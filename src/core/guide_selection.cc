#include "src/core/guide_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace chameleon::core {
namespace {

// The LinUCB context dimension for `schema`: one slot per combination, or
// 0 when the count does not fit an int.
int LinUcbContextDim(const data::AttributeSchema& schema) {
  const int64_t combinations = schema.NumCombinations();
  return combinations <= std::numeric_limits<int>::max()
             ? static_cast<int>(combinations)
             : 0;
}

// Tuple indices in `dataset` matching a full combination.
std::vector<size_t> TuplesMatching(const data::Dataset& dataset,
                                   const std::vector<int>& values) {
  return dataset.IndicesMatching(data::Pattern(values));
}

util::Result<GuideChoice> PickUniformTuple(const data::Dataset& dataset,
                                           util::Rng* rng) {
  if (dataset.empty()) {
    return util::Status::FailedPrecondition(
        "cannot select a guide from an empty data set");
  }
  GuideChoice choice;
  choice.has_guide = true;
  choice.tuple_index = rng->NextBounded(dataset.size());
  choice.guide_values = dataset.tuple(choice.tuple_index).values;
  return choice;
}

}  // namespace

const char* GuideStrategyName(GuideStrategy strategy) {
  switch (strategy) {
    case GuideStrategy::kNoGuide:
      return "No Guide";
    case GuideStrategy::kRandomGuide:
      return "Random-Guide";
    case GuideStrategy::kSimilarTuple:
      return "Similar-Tuple";
    case GuideStrategy::kLinUcb:
      return "LinUCB";
  }
  return "Unknown";
}

util::Result<GuideChoice> NoGuideSelector::Select(
    const data::Dataset& dataset, const std::vector<int>& target,
    util::Rng* rng) {
  (void)dataset;
  (void)target;
  (void)rng;
  return GuideChoice{};  // has_guide = false
}

util::Result<GuideChoice> RandomGuideSelector::Select(
    const data::Dataset& dataset, const std::vector<int>& target,
    util::Rng* rng) {
  (void)target;
  return PickUniformTuple(dataset, rng);
}

SimilarTupleSelector::SimilarTupleSelector(const data::AttributeSchema& schema)
    : schema_(schema) {}

std::vector<std::vector<int>> SimilarTupleSelector::SimilarPool(
    const std::vector<int>& target) const {
  std::vector<std::vector<int>> pool;
  for (int a = 0; a < schema_.num_attributes(); ++a) {
    const auto& attribute = schema_.attribute(a);
    for (int v = 0; v < attribute.cardinality(); ++v) {
      if (v == target[a]) continue;
      // Siblings differ in exactly one attribute; ordinal siblings must
      // additionally be at distance 1 to be "similar" (§5.2).
      if (attribute.ordinal && std::abs(v - target[a]) > 1) continue;
      std::vector<int> sibling = target;
      sibling[a] = v;
      pool.push_back(std::move(sibling));
    }
  }
  return pool;
}

util::Result<GuideChoice> SimilarTupleSelector::Select(
    const data::Dataset& dataset, const std::vector<int>& target,
    util::Rng* rng) {
  const std::vector<std::vector<int>> pool = SimilarPool(target);
  std::vector<double> weights(pool.size(), 0.0);
  std::vector<std::vector<size_t>> members(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    members[i] = TuplesMatching(dataset, pool[i]);
    weights[i] = static_cast<double>(members[i].size());
  }
  const size_t picked = rng->NextWeighted(weights);
  if (picked >= pool.size()) {
    // Empty pool (no tuple in any similar combination): degrade to the
    // random-guide behaviour rather than failing the repair.
    return PickUniformTuple(dataset, rng);
  }
  GuideChoice choice;
  choice.has_guide = true;
  choice.tuple_index = members[picked][rng->NextBounded(members[picked].size())];
  choice.guide_values = dataset.tuple(choice.tuple_index).values;
  return choice;
}

LinUcbSelector::LinUcbSelector(const data::AttributeSchema& schema,
                               double alpha)
    : schema_(schema),
      bandit_(schema.num_attributes(), LinUcbContextDim(schema), alpha) {}

util::Result<GuideChoice> LinUcbSelector::Select(
    const data::Dataset& dataset, const std::vector<int>& target,
    util::Rng* rng) {
  if (bandit_.context_dim() == 0) {
    return util::Status::InvalidArgument(
        "LinUCB needs one context slot per combination, and this schema "
        "has more than INT_MAX combinations");
  }
  const std::vector<double> context = bandit::LinUcb::OneHotContext(
      bandit_.context_dim(), schema_.CombinationIndex(target));

  // Rank arms by UCB, then take the best arm for which a guide tuple
  // actually exists in the data set.
  std::vector<int> arm_order(bandit_.num_arms());
  std::iota(arm_order.begin(), arm_order.end(), 0);
  std::vector<double> ucb(bandit_.num_arms());
  for (int a = 0; a < bandit_.num_arms(); ++a) {
    ucb[a] = bandit_.UpperConfidenceBound(a, context);
  }
  std::stable_sort(arm_order.begin(), arm_order.end(),
                   [&](int a, int b) { return ucb[a] > ucb[b]; });

  for (int arm : arm_order) {
    const auto& attribute = schema_.attribute(arm);
    // Candidate replacement values on the pulled arm: ordinal arms move
    // one step, unordered arms may jump to any other value.
    std::vector<int> candidate_values;
    if (attribute.ordinal) {
      if (target[arm] - 1 >= 0) candidate_values.push_back(target[arm] - 1);
      if (target[arm] + 1 < attribute.cardinality()) {
        candidate_values.push_back(target[arm] + 1);
      }
    } else {
      for (int v = 0; v < attribute.cardinality(); ++v) {
        if (v != target[arm]) candidate_values.push_back(v);
      }
    }
    // Weight candidate combinations by population for even tuple odds.
    std::vector<double> weights(candidate_values.size(), 0.0);
    std::vector<std::vector<size_t>> members(candidate_values.size());
    for (size_t i = 0; i < candidate_values.size(); ++i) {
      std::vector<int> modified = target;
      modified[arm] = candidate_values[i];
      members[i] = TuplesMatching(dataset, modified);
      weights[i] = static_cast<double>(members[i].size());
    }
    const size_t picked = rng->NextWeighted(weights);
    if (picked >= candidate_values.size()) continue;  // no tuples; next arm

    GuideChoice choice;
    choice.has_guide = true;
    choice.arm = arm;
    choice.tuple_index =
        members[picked][rng->NextBounded(members[picked].size())];
    choice.guide_values = dataset.tuple(choice.tuple_index).values;
    return choice;
  }
  // No arm yields a populated sibling: degrade to a random guide.
  return PickUniformTuple(dataset, rng);
}

void LinUcbSelector::ReportReward(const std::vector<int>& target,
                                  const GuideChoice& choice, bool passed) {
  if (choice.arm < 0) return;
  const std::vector<double> context = bandit::LinUcb::OneHotContext(
      bandit_.context_dim(), schema_.CombinationIndex(target));
  // The context dimension is fixed at construction; Update cannot fail.
  (void)bandit_.Update(choice.arm, context, passed ? 1.0 : 0.0);
}

std::unique_ptr<GuideSelector> MakeGuideSelector(
    GuideStrategy strategy, const data::AttributeSchema& schema,
    double linucb_alpha) {
  switch (strategy) {
    case GuideStrategy::kNoGuide:
      return std::make_unique<NoGuideSelector>();
    case GuideStrategy::kRandomGuide:
      return std::make_unique<RandomGuideSelector>();
    case GuideStrategy::kSimilarTuple:
      return std::make_unique<SimilarTupleSelector>(schema);
    case GuideStrategy::kLinUcb:
      return std::make_unique<LinUcbSelector>(schema, linucb_alpha);
  }
  return nullptr;
}

}  // namespace chameleon::core
