#ifndef CHAMELEON_COVERAGE_MUP_FINDER_H_
#define CHAMELEON_COVERAGE_MUP_FINDER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/coverage/pattern_counter.h"
#include "src/data/pattern.h"
#include "src/data/schema.h"

namespace chameleon::obs {
struct Observability;
}  // namespace chameleon::obs

namespace chameleon::coverage {

/// Configuration for MUP discovery.
struct MupFinderOptions {
  /// Coverage threshold tau: a subgroup g is uncovered when |g ∩ D| < tau.
  int64_t tau = 50;
  /// Only report MUPs at level <= max_level (d by default, i.e. all).
  int max_level = -1;
  /// Has no effect: the traversal is serial, because with counts read
  /// from PatternCounter's cube a worker pool costs more than it saves.
  /// Kept only for source compatibility with callers that still set it.
  int num_threads = 0;
  /// Optional observability sink (not owned; null = no instrumentation).
  /// FindMups records a `mup.find` span, the `mup.found` /
  /// `mup.count_queries` counters, and one `mup.found` journal event per
  /// discovered MUP.
  obs::Observability* observability = nullptr;
};

/// One discovered Maximal Uncovered Pattern with its coverage count and
/// gap delta(M) = tau - |D ∩ M|.
struct Mup {
  data::Pattern pattern;
  int64_t count = 0;
  int64_t gap = 0;

  int Level() const { return pattern.Level(); }
};

/// Discovers all Maximal Uncovered Patterns (§2.3): patterns P with
/// |D ∩ P| < tau whose parents are all covered. Two algorithms:
///
///  * FindMups       — top-down lattice BFS expanding only covered nodes
///                     (the practical algorithm).
///  * FindMupsNaive  — full lattice materialization with the same MUP
///                     predicate, used as a correctness oracle in tests
///                     and as the ablation baseline in benchmarks.
class MupFinder {
 public:
  MupFinder(const data::AttributeSchema& schema, const PatternCounter& counter);

  std::vector<Mup> FindMups(const MupFinderOptions& options) const;

  /// The BFS of FindMups started from `seeds` (distinct patterns) instead
  /// of the root, without FindMups' instrumentation: the MUPs reachable
  /// from the seeds through covered patterns, in FindMups' order.
  /// IncrementalMupIndex runs it below the MUPs an insert retired.
  std::vector<Mup> FindMupsBelow(const std::vector<data::Pattern>& seeds,
                                 const MupFinderOptions& options) const;

  std::vector<Mup> FindMupsNaive(const MupFinderOptions& options) const;

  /// Restricts a MUP list to its minimum level: the set M* of §4.
  static std::vector<Mup> MinLevel(const std::vector<Mup>& mups);

  /// Number of Count() calls issued by the last FindMups invocation
  /// (diagnostic; atomic so concurrent FindMups calls on one finder do
  /// not race).
  int64_t last_count_queries() const {
    return last_count_queries_.load(std::memory_order_relaxed);
  }

 private:
  const data::AttributeSchema* schema_;
  const PatternCounter* counter_;
  mutable std::atomic<int64_t> last_count_queries_{0};
};

}  // namespace chameleon::coverage

#endif  // CHAMELEON_COVERAGE_MUP_FINDER_H_
