#include "src/core/combination_selection.h"

#include <algorithm>
#include <limits>
#include <map>

namespace chameleon::core {
namespace {

// Full enumeration is used when the combination space is this small;
// beyond it, candidates are derived from MUP-pattern merges.
constexpr int64_t kEnumerationLimit = 100000;

// A full-level completion of a pattern (unspecified cells -> value 0).
std::vector<int> CompletePattern(const data::Pattern& pattern) {
  std::vector<int> values(pattern.num_attributes());
  for (int i = 0; i < pattern.num_attributes(); ++i) {
    values[i] = pattern.IsSpecified(i) ? pattern.cell(i) : 0;
  }
  return values;
}

// Tries to merge two patterns: succeeds when they agree on every
// attribute both specify. The merge specifies the union.
bool MergePatterns(const data::Pattern& a, const data::Pattern& b,
                   data::Pattern* merged) {
  std::vector<int> cells(a.num_attributes());
  for (int i = 0; i < a.num_attributes(); ++i) {
    const int ca = a.cell(i);
    const int cb = b.cell(i);
    if (ca != data::Pattern::kUnspecified &&
        cb != data::Pattern::kUnspecified && ca != cb) {
      return false;
    }
    cells[i] = ca != data::Pattern::kUnspecified ? ca : cb;
  }
  *merged = data::Pattern(std::move(cells));
  return true;
}

// Number of remaining MUPs a combination matches.
int CountMatches(const std::vector<int>& values,
                 const std::vector<coverage::Mup>& mups) {
  int matches = 0;
  for (const auto& m : mups) matches += m.pattern.Matches(values);
  return matches;
}

// The greedy step: the combination matching the most remaining MUPs.
std::vector<int> FindBestCombination(const data::AttributeSchema& schema,
                                     const std::vector<coverage::Mup>& mups) {
  const int64_t combinations = schema.NumCombinations();
  if (combinations <= kEnumerationLimit) {
    std::vector<int> best;
    int best_matches = -1;
    for (int64_t c = 0; c < combinations; ++c) {
      std::vector<int> values = schema.CombinationFromIndex(c);
      const int matches = CountMatches(values, mups);
      if (matches > best_matches) {
        best_matches = matches;
        best = std::move(values);
      }
    }
    return best;
  }

  // Large spaces: grow a merged pattern greedily from each MUP seed and
  // keep the completion matching the most MUPs.
  std::vector<int> best;
  int best_matches = -1;
  for (size_t seed = 0; seed < mups.size(); ++seed) {
    data::Pattern merged = mups[seed].pattern;
    for (size_t other = 0; other < mups.size(); ++other) {
      if (other == seed) continue;
      data::Pattern candidate;
      if (MergePatterns(merged, mups[other].pattern, &candidate)) {
        merged = candidate;
      }
    }
    std::vector<int> values = CompletePattern(merged);
    const int matches = CountMatches(values, mups);
    if (matches > best_matches) {
      best_matches = matches;
      best = std::move(values);
    }
  }
  return best;
}

// Accumulates counts into a plan keyed by combination values.
class PlanBuilder {
 public:
  void AddCount(const std::vector<int>& values, int64_t count) {
    counts_[values] += count;
  }

  CombinationPlan Build() const {
    CombinationPlan plan;
    plan.reserve(counts_.size());
    for (const auto& [values, count] : counts_) {
      plan.push_back(PlanEntry{values, count});
    }
    return plan;
  }

 private:
  std::map<std::vector<int>, int64_t> counts_;
};

}  // namespace

int64_t PlanTotal(const CombinationPlan& plan) {
  int64_t total = 0;
  for (const auto& entry : plan) total += entry.count;
  return total;
}

const char* SelectionAlgorithmName(SelectionAlgorithm algorithm) {
  switch (algorithm) {
    case SelectionAlgorithm::kGreedy:
      return "Greedy";
    case SelectionAlgorithm::kRandom:
      return "Random";
    case SelectionAlgorithm::kMinGap:
      return "Min-Gap";
  }
  return "Unknown";
}

CombinationPlan GreedySelect(const data::AttributeSchema& schema,
                             std::vector<coverage::Mup> mups) {
  PlanBuilder plan;
  // Drop already-satisfied MUPs defensively.
  std::erase_if(mups, [](const coverage::Mup& m) { return m.gap <= 0; });

  while (!mups.empty()) {
    const std::vector<int> combination = FindBestCombination(schema, mups);
    // gamma = the smallest gap among matched MUPs (Algorithm 1, line 7).
    int64_t gamma = std::numeric_limits<int64_t>::max();
    bool any = false;
    for (const auto& m : mups) {
      if (m.pattern.Matches(combination)) {
        gamma = std::min(gamma, m.gap);
        any = true;
      }
    }
    if (!any) break;  // Unreachable for consistent inputs.
    plan.AddCount(combination, gamma);
    for (auto& m : mups) {
      if (m.pattern.Matches(combination)) m.gap -= gamma;
    }
    std::erase_if(mups, [](const coverage::Mup& m) { return m.gap <= 0; });
  }
  return plan.Build();
}

CombinationPlan RandomSelect(const data::AttributeSchema& schema,
                             std::vector<coverage::Mup> all_mups,
                             int target_level, util::Rng* rng) {
  PlanBuilder plan;
  std::vector<coverage::Mup> targets;
  for (const auto& m : all_mups) {
    if (m.Level() == target_level && m.gap > 0) targets.push_back(m);
  }
  // A saturated count indexes no combination; draw one value per
  // attribute instead.
  const int64_t combinations = schema.NumCombinations();
  const bool saturated =
      combinations == std::numeric_limits<int64_t>::max();
  while (!targets.empty()) {
    std::vector<int> values(schema.num_attributes());
    if (saturated) {
      for (int i = 0; i < schema.num_attributes(); ++i) {
        values[i] = static_cast<int>(
            rng->NextBounded(schema.attribute(i).cardinality()));
      }
    } else {
      values = schema.CombinationFromIndex(rng->NextBounded(combinations));
    }
    plan.AddCount(values, 1);
    for (auto& m : targets) {
      if (m.pattern.Matches(values)) --m.gap;
    }
    std::erase_if(targets, [](const coverage::Mup& m) { return m.gap <= 0; });
  }
  return plan.Build();
}

CombinationPlan MinGapSelect(const data::AttributeSchema& schema,
                             std::vector<coverage::Mup> all_mups,
                             int target_level) {
  (void)schema;
  PlanBuilder plan;
  std::erase_if(all_mups, [](const coverage::Mup& m) { return m.gap <= 0; });

  auto targets_remaining = [&]() {
    for (const auto& m : all_mups) {
      if (m.Level() == target_level && m.gap > 0) return true;
    }
    return false;
  };

  while (targets_remaining()) {
    // The unresolved MUP with the smallest gap, at ANY level.
    size_t best = 0;
    for (size_t i = 1; i < all_mups.size(); ++i) {
      if (all_mups[i].gap < all_mups[best].gap) best = i;
    }
    const int64_t delta = all_mups[best].gap;
    const std::vector<int> values = CompletePattern(all_mups[best].pattern);
    plan.AddCount(values, delta);
    for (auto& m : all_mups) {
      if (m.pattern.Matches(values)) m.gap -= delta;
    }
    std::erase_if(all_mups, [](const coverage::Mup& m) { return m.gap <= 0; });
  }
  return plan.Build();
}

}  // namespace chameleon::core
