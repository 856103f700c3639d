#include "src/coverage/incremental_mup.h"

#include <algorithm>
#include <utility>

namespace chameleon::coverage {
namespace {

/// FindMups' canonical output order: ascending level, then lexicographic
/// pattern (mup_finder.cc keeps its own copy; the two must stay in sync
/// for the differential oracle's exact-equality check).
void SortMups(std::vector<Mup>* mups) {
  std::sort(mups->begin(), mups->end(), [](const Mup& a, const Mup& b) {
    if (a.Level() != b.Level()) return a.Level() < b.Level();
    return a.pattern < b.pattern;
  });
}

}  // namespace

IncrementalMupIndex::IncrementalMupIndex(const data::AttributeSchema& schema,
                                         const IncrementalMupOptions& options)
    : schema_(std::make_shared<data::AttributeSchema>(schema)),
      options_(options),
      counter_(*schema_) {
  RebuildFrontier();
}

util::Result<IncrementalMupIndex> IncrementalMupIndex::FromDataset(
    const data::Dataset& dataset, const IncrementalMupOptions& options) {
  IncrementalMupIndex index(dataset.schema(), options);
  auto counter = PatternCounter::FromTuples(*index.schema_, dataset.tuples());
  if (!counter.ok()) return counter.status();
  index.counter_ = std::move(*counter);
  // One full traversal over the loaded counter beats patching the empty
  // index tuple by tuple.
  index.RebuildFrontier();
  return index;
}

void IncrementalMupIndex::RebuildFrontier() {
  MupFinder finder(*schema_, counter_);
  MupFinderOptions find_options;
  find_options.tau = options_.tau;
  find_options.max_level = options_.max_level;
  const std::vector<Mup> mups = finder.FindMups(find_options);
  live_.clear();
  for (const Mup& mup : mups) {
    live_.emplace(mup.pattern, mup.count);
  }
}

util::Status IncrementalMupIndex::Insert(const std::vector<int>& values) {
  const std::vector<std::vector<int>> batch = {values};
  return InsertBatch(batch);
}

util::Status IncrementalMupIndex::InsertBatch(
    const std::vector<std::vector<int>>& batch) {
  if (batch.empty()) return util::Status::Ok();
  // Validate everything up front: a failed batch must change nothing, and
  // AddTuple only validates its own tuple.
  for (const std::vector<int>& values : batch) {
    CHAMELEON_RETURN_NOT_OK(counter_.Validate(values));
  }

  for (const std::vector<int>& values : batch) {
    // Cannot fail: the batch passed AddTuple's own checks above.
    CHAMELEON_RETURN_NOT_OK(counter_.AddTuple(values));
  }
  PatchFrontier();
  return util::Status::Ok();
}

void IncrementalMupIndex::PatchFrontier() {
  // 1. Patch: refresh each live MUP's count from the counter, which
  // already holds the batch, so the stored counts stay exact and Mups()
  // never has to re-query.
  std::vector<data::Pattern> crossed;
  for (auto& entry : live_) {
    const int64_t count = counter_.Count(entry.first);
    if (count == entry.second) continue;
    entry.second = count;
    ++patched_total_;
    if (count >= options_.tau) crossed.push_back(entry.first);
  }
  if (crossed.empty()) return;

  // 2. Retire every MUP that crossed tau.
  for (const data::Pattern& pattern : crossed) live_.erase(pattern);
  retired_total_ += static_cast<int64_t>(crossed.size());

  // 3. Expand only below the retired MUPs. Everything down there was
  // uncovered before this batch (count monotonicity), i.e. it is exactly
  // the region the original BFS pruned; re-running FindMups' search on it
  // with fresh counts surfaces every newly-exposed MUP. Patterns whose
  // uncovered→covered flip happened under a *different* ancestor are
  // still reached: any flipped chain tops out at a retired MUP. Parents
  // outside the region kept their old coverage status, so the search's
  // parent checks against the counter stay exact.
  MupFinderOptions find_options;
  find_options.tau = options_.tau;
  find_options.max_level = options_.max_level;
  for (const Mup& mup :
       MupFinder(*schema_, counter_).FindMupsBelow(crossed, find_options)) {
    live_.emplace(mup.pattern, mup.count);
    ++discovered_total_;
  }
}

std::vector<Mup> IncrementalMupIndex::Mups() const {
  std::vector<Mup> mups;
  mups.reserve(live_.size());
  for (const auto& entry : live_) {
    mups.push_back(
        Mup{entry.first, entry.second, options_.tau - entry.second});
  }
  SortMups(&mups);
  return mups;
}

}  // namespace chameleon::coverage
