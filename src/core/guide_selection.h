#ifndef CHAMELEON_CORE_GUIDE_SELECTION_H_
#define CHAMELEON_CORE_GUIDE_SELECTION_H_

#include <memory>
#include <vector>

#include "src/bandit/linucb.h"
#include "src/data/dataset.h"
#include "src/data/schema.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::core {

/// Guide-tuple selection strategies (§5).
enum class GuideStrategy {
  kNoGuide,
  kRandomGuide,
  kSimilarTuple,
  kLinUcb,
};

const char* GuideStrategyName(GuideStrategy strategy);

/// A selected guide: a tuple index in the data set plus bookkeeping for
/// bandit feedback.
struct GuideChoice {
  bool has_guide = false;
  size_t tuple_index = 0;
  std::vector<int> guide_values;
  /// The bandit arm (attribute) pulled, for LinUCB; -1 otherwise.
  int arm = -1;
};

/// Strategy interface: stateless strategies ignore ReportReward; LinUCB
/// learns from it.
class GuideSelector {
 public:
  virtual ~GuideSelector() = default;

  /// Picks a guide from `dataset` for the target combination.
  [[nodiscard]] virtual util::Result<GuideChoice> Select(const data::Dataset& dataset,
                                           const std::vector<int>& target,
                                           util::Rng* rng) = 0;

  /// Feedback: whether the generated tuple passed both rejection tests.
  virtual void ReportReward(const std::vector<int>& target,
                            const GuideChoice& choice, bool passed) {
    (void)target;
    (void)choice;
    (void)passed;
  }

  virtual const char* name() const = 0;
};

/// §5 baseline: no guide, the model generates from the prompt alone.
class NoGuideSelector : public GuideSelector {
 public:
  [[nodiscard]] util::Result<GuideChoice> Select(const data::Dataset& dataset,
                                   const std::vector<int>& target,
                                   util::Rng* rng) override;
  const char* name() const override { return "No Guide"; }
};

/// §5.1: a uniformly random tuple, ignoring the target combination.
class RandomGuideSelector : public GuideSelector {
 public:
  [[nodiscard]] util::Result<GuideChoice> Select(const data::Dataset& dataset,
                                   const std::vector<int>& target,
                                   util::Rng* rng) override;
  const char* name() const override { return "Random-Guide"; }
};

/// §5.2: a tuple from a sibling combination that is "similar" (ordinal
/// attributes may differ by at most one step), weighted by the sibling
/// combination's population so every pool tuple is equally likely.
class SimilarTupleSelector : public GuideSelector {
 public:
  explicit SimilarTupleSelector(const data::AttributeSchema& schema);

  [[nodiscard]] util::Result<GuideChoice> Select(const data::Dataset& dataset,
                                   const std::vector<int>& target,
                                   util::Rng* rng) override;
  const char* name() const override { return "Similar-Tuple"; }

  /// The similar-sibling pool of a combination (§5.2's S) — exposed for
  /// tests.
  std::vector<std::vector<int>> SimilarPool(
      const std::vector<int>& target) const;

 private:
  data::AttributeSchema schema_;
};

/// §5.3: contextual multi-armed bandit over attributes (Algorithm 2).
/// Arm a = "modify attribute a of the target"; the guide is a tuple
/// matching the modified combination; reward 1 when the generation
/// passes both rejection tests.
///
/// The context is a one-hot vector with one slot per full combination, so
/// a schema whose NumCombinations() exceeds INT_MAX does not fit: such a
/// selector is built without a context and every Select returns
/// InvalidArgument.
class LinUcbSelector : public GuideSelector {
 public:
  LinUcbSelector(const data::AttributeSchema& schema, double alpha);

  [[nodiscard]] util::Result<GuideChoice> Select(const data::Dataset& dataset,
                                   const std::vector<int>& target,
                                   util::Rng* rng) override;
  void ReportReward(const std::vector<int>& target, const GuideChoice& choice,
                    bool passed) override;
  const char* name() const override { return "LinUCB"; }

  const bandit::LinUcb& bandit() const { return bandit_; }

 private:
  data::AttributeSchema schema_;
  bandit::LinUcb bandit_;
};

/// Factory over the strategy enum.
std::unique_ptr<GuideSelector> MakeGuideSelector(
    GuideStrategy strategy, const data::AttributeSchema& schema,
    double linucb_alpha);

}  // namespace chameleon::core

#endif  // CHAMELEON_CORE_GUIDE_SELECTION_H_
