#ifndef CHAMELEON_COVERAGE_PATTERN_COUNTER_H_
#define CHAMELEON_COVERAGE_PATTERN_COUNTER_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"
#include "src/data/pattern.h"
#include "src/data/schema.h"
#include "src/util/status.h"

namespace chameleon::coverage {

/// Counts |D ∩ P| for the patterns of one schema.
///
/// Every schema in the repository has a small pattern lattice: a pattern
/// is one of c_i + 1 choices per attribute (a value or X), so the lattice
/// has ∏(c_i + 1) cells — 18 for FERET, 1440 for the streaming schema.
/// While that product is at most kMaxCubeCells, the counter keeps a dense
/// cube with one count per pattern (slot 0 of an attribute means X), and
/// Count is one array read at a mixed-radix index. That is what makes the
/// top-down MUP search cheap: it issues one Count per visited lattice node.
///
/// Above the cap the cube would not fit in memory, so the counter falls
/// back to the inverted index of Asudeh et al. (ICDE'19): one sorted
/// posting list of tuple ids per (attribute, value), a count being the
/// size of the smallest-first intersection of the pattern's lists. The
/// representation is fixed at construction; counts are exact either way.
///
/// Supports incremental growth (AddTuple) so streaming callers can keep
/// the counts in sync as tuples arrive.
class PatternCounter {
 public:
  /// Largest lattice (∏(c_i + 1) cells) held as a dense cube: 8 MiB of
  /// counts. Larger schemas use posting lists.
  static constexpr int64_t kMaxCubeCells = int64_t{1} << 20;

  /// An empty counter over `schema`, which must outlive it.
  explicit PatternCounter(const data::AttributeSchema& schema);

  /// Builds the index over all tuples currently in `dataset`. Returns
  /// InvalidArgument when a tuple does not fit the dataset's schema
  /// (reachable via Dataset::mutable_tuple; Dataset::Add validates on
  /// insert). Like the rest of the library, this never aborts.
  static util::Result<PatternCounter> FromDataset(
      const data::Dataset& dataset);

  /// FromDataset over `tuples` under `schema`, which must outlive the
  /// counter. The cube is filled with one increment per tuple plus one
  /// roll-up pass per attribute, not 2^d increments per tuple.
  static util::Result<PatternCounter> FromTuples(
      const data::AttributeSchema& schema,
      const std::vector<data::Tuple>& tuples);

  /// Registers one tuple's attribute values: in the cube, the 2^d
  /// patterns that match it each gain one. Returns InvalidArgument —
  /// indexing nothing — when the tuple's arity or any value falls
  /// outside the schema (an unchecked write here would be out-of-bounds
  /// UB).
  [[nodiscard]] util::Status AddTuple(const std::vector<int>& values);

  /// The checks AddTuple runs, without indexing: lets a caller refuse a
  /// whole batch before any of it is indexed.
  [[nodiscard]] util::Status Validate(const std::vector<int>& values) const;

  /// Number of indexed tuples.
  int64_t num_tuples() const { return num_tuples_; }

  /// True when counts come from the dense cube rather than posting lists.
  bool dense() const { return !cube_.empty(); }

  /// |D ∩ P|.
  int64_t Count(const data::Pattern& pattern) const;

 private:
  /// The cube index of the fully specified pattern equal to `values`.
  int64_t BaseCell(const std::vector<int>& values) const;

  const data::AttributeSchema* schema_;
  int64_t num_tuples_ = 0;

  // Dense mode: cube_[Σ (cell_a + 1) * strides_[a]] = |D ∩ P|, with
  // cell_a + 1 == 0 for X. Both empty above the cap.
  std::vector<int64_t> strides_;
  std::vector<int64_t> cube_;

  // Fallback mode: postings_[attribute][value] = sorted tuple ids with
  // that value. Empty in dense mode.
  std::vector<std::vector<std::vector<int64_t>>> postings_;
};

}  // namespace chameleon::coverage

#endif  // CHAMELEON_COVERAGE_PATTERN_COUNTER_H_
