#ifndef CHAMELEON_COVERAGE_INCREMENTAL_MUP_H_
#define CHAMELEON_COVERAGE_INCREMENTAL_MUP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/data/dataset.h"
#include "src/data/pattern.h"
#include "src/data/schema.h"
#include "src/util/status.h"

namespace chameleon::coverage {

/// Configuration for an IncrementalMupIndex.
struct IncrementalMupOptions {
  /// Coverage threshold tau: a subgroup g is uncovered when |g ∩ D| < tau.
  int64_t tau = 50;
  /// Only maintain MUPs at level <= max_level (d by default, i.e. all) —
  /// the same semantics as MupFinderOptions::max_level.
  int max_level = -1;
  /// Has no effect, like MupFinderOptions::num_threads: the initial
  /// traversal and every patch run serially. Kept only for source
  /// compatibility with callers that still set it.
  int num_threads = 0;
};

/// Maintains the exact MUP set of a growing dataset under single-tuple
/// and batched inserts (DESIGN.md §14). Instead of re-running the full
/// top-down lattice BFS after every arrival, an insert
///
///   1. re-reads the counts of the live MUPs from its PatternCounter
///      (one cube read each for every in-repo schema),
///   2. retires every MUP whose count crossed tau (it became covered, so
///      it is no longer maximal-uncovered), and
///   3. expands only the sublattice below the retired MUPs — the one
///      region the original BFS pruned away — discovering the new MUPs
///      that the retirement exposed.
///
/// Correctness rests on count monotonicity (a parent is more general than
/// its child, so count(parent) >= count(child)): inserts only increase
/// counts, a pattern that flips uncovered→covered must previously have
/// been uncovered, every previously-uncovered pattern lies at or below a
/// current MUP, and therefore every flipped pattern is reachable from a
/// retired MUP. The local expansion applies the exact FindMups predicate
/// (uncovered with every parent covered), so after every insert `Mups()`
/// equals order-normalized `MupFinder::FindMups` on the materialized
/// dataset — the contract the differential oracle in
/// tests/incremental_mup_test.cc checks step by step.
///
/// A library API for streaming callers (DESIGN.md §14); the repair
/// pipeline detects its MUPs with one FindMups per repair instead. The
/// index owns its schema (shared, immutable) and its PatternCounter, so
/// it is copyable. Const access, copying included, may run concurrently;
/// confine mutation of an instance to one thread.
class IncrementalMupIndex {
 public:
  /// An index over the empty dataset (the root pattern is the single MUP
  /// whenever tau > 0).
  IncrementalMupIndex(const data::AttributeSchema& schema,
                      const IncrementalMupOptions& options);

  /// Builds an index over all tuples currently in `dataset` (one full
  /// FindMups traversal). Returns InvalidArgument when a tuple does not
  /// fit the dataset's schema.
  static util::Result<IncrementalMupIndex> FromDataset(
      const data::Dataset& dataset, const IncrementalMupOptions& options);

  /// Inserts one tuple and patches the MUP frontier. Returns
  /// InvalidArgument — changing nothing — when the tuple's arity or any
  /// value falls outside the schema.
  [[nodiscard]] util::Status Insert(const std::vector<int>& values);

  /// Inserts a batch of tuples, then patches the frontier once against
  /// the fully-updated counts. Equivalent to (but cheaper than) inserting
  /// the tuples one at a time: the MUP set is a pure function of the
  /// materialized dataset. Validates the whole batch up front, so a
  /// failed call changes nothing.
  [[nodiscard]] util::Status InsertBatch(
      const std::vector<std::vector<int>>& batch);

  /// The current MUP set, order-normalized exactly like FindMups:
  /// ascending level, then lexicographic pattern. Counts and gaps are
  /// exact for the materialized dataset.
  [[nodiscard]] std::vector<Mup> Mups() const;

  /// Number of inserted tuples (the size of the materialized dataset).
  int64_t num_tuples() const { return counter_.num_tuples(); }

  int64_t tau() const { return options_.tau; }

  const data::AttributeSchema& schema() const { return *schema_; }

  /// Lifetime diagnostics: cumulative live-MUP count patches applied,
  /// MUPs retired (crossed tau), and new MUPs discovered by expansion.
  int64_t patched() const { return patched_total_; }
  int64_t retired() const { return retired_total_; }
  int64_t discovered() const { return discovered_total_; }

 private:
  /// Full FindMups traversal over the current counter; seeds the live
  /// frontier (construction and FromDataset only — never on insert).
  void RebuildFrontier();

  /// The patch algorithm described above, run once the inserted tuples
  /// are indexed into counter_.
  void PatchFrontier();

  /// Shared so the default copy keeps counter_'s schema pointer alive and
  /// correct: copies alias one immutable schema instead of dangling into
  /// a dead sibling.
  std::shared_ptr<const data::AttributeSchema> schema_;
  IncrementalMupOptions options_;
  PatternCounter counter_;
  /// Live frontier: MUP pattern -> exact |D ∩ P|.
  std::unordered_map<data::Pattern, int64_t, data::PatternHash> live_;

  int64_t patched_total_ = 0;
  int64_t retired_total_ = 0;
  int64_t discovered_total_ = 0;
};

}  // namespace chameleon::coverage

#endif  // CHAMELEON_COVERAGE_INCREMENTAL_MUP_H_
