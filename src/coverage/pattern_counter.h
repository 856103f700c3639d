#ifndef CHAMELEON_COVERAGE_PATTERN_COUNTER_H_
#define CHAMELEON_COVERAGE_PATTERN_COUNTER_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/data/pattern.h"
#include "src/data/schema.h"
#include "src/util/status.h"

namespace chameleon::coverage {

/// Counts |D ∩ P| for many patterns efficiently using the inverted-index
/// idea of Asudeh et al. (ICDE'19): one sorted posting list of tuple ids
/// per (attribute, value); a pattern count is the size of the intersection
/// of the posting lists of its specified cells, intersected smallest-first.
///
/// Supports incremental growth (AddTuple) so the repair loop can keep the
/// index in sync as synthetic tuples are accepted.
class PatternCounter {
 public:
  explicit PatternCounter(const data::AttributeSchema& schema);

  /// Builds the index over all tuples currently in `dataset`. Returns
  /// InvalidArgument when a tuple does not fit the dataset's schema
  /// (reachable via Dataset::mutable_tuple; Dataset::Add validates on
  /// insert). Like the rest of the library, this never aborts.
  static util::Result<PatternCounter> FromDataset(
      const data::Dataset& dataset);

  /// Registers one tuple's attribute values. Ids are assigned in call
  /// order and must be appended in increasing order (as Dataset does).
  /// Returns InvalidArgument — indexing nothing — when the tuple's arity
  /// or any value falls outside the schema (an unchecked write here would
  /// be out-of-bounds UB).
  [[nodiscard]] util::Status AddTuple(const std::vector<int>& values);

  /// Number of indexed tuples.
  int64_t num_tuples() const { return num_tuples_; }

  /// |D ∩ P|.
  int64_t Count(const data::Pattern& pattern) const;

 private:
  const std::vector<int64_t>& Postings(int attribute, int value) const;

  const data::AttributeSchema* schema_;
  // postings_[attribute][value] = sorted tuple ids with that value.
  std::vector<std::vector<std::vector<int64_t>>> postings_;
  int64_t num_tuples_ = 0;
};

}  // namespace chameleon::coverage

#endif  // CHAMELEON_COVERAGE_PATTERN_COUNTER_H_
