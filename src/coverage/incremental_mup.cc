#include "src/coverage/incremental_mup.h"

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_set>
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
  for (const data::Tuple& tuple : dataset.tuples()) {
    CHAMELEON_RETURN_NOT_OK(index.counter_.AddTuple(tuple.values));
  }
  // One full traversal over the loaded counter beats patching the empty
  // index tuple by tuple, and gets the parallel FindMups for free.
  index.RebuildFrontier();
  return index;
}

void IncrementalMupIndex::RebuildFrontier() {
  MupFinder finder(*schema_, counter_);
  MupFinderOptions find_options;
  find_options.tau = options_.tau;
  find_options.max_level = options_.max_level;
  find_options.num_threads = options_.num_threads;
  const std::vector<Mup> mups = finder.FindMups(find_options);
  live_.clear();
  for (const Mup& mup : mups) {
    live_.emplace(mup.pattern, mup.count);
  }
}

util::Status IncrementalMupIndex::ValidateTuple(
    const std::vector<int>& values) const {
  if (static_cast<int>(values.size()) != schema_->num_attributes()) {
    return util::Status::InvalidArgument(
        "tuple arity " + std::to_string(values.size()) +
        " does not match schema arity " +
        std::to_string(schema_->num_attributes()));
  }
  for (int i = 0; i < schema_->num_attributes(); ++i) {
    if (values[i] < 0 || values[i] >= schema_->attribute(i).cardinality()) {
      return util::Status::InvalidArgument(
          "value " + std::to_string(values[i]) + " out of domain for '" +
          schema_->attribute(i).name + "'");
    }
  }
  return util::Status::Ok();
}

util::Status IncrementalMupIndex::Insert(const std::vector<int>& values) {
  const std::vector<std::vector<int>> batch = {values};
  return InsertBatch(batch);
}

util::Status IncrementalMupIndex::InsertBatch(
    const std::vector<std::vector<int>>& batch) {
  if (batch.empty()) return util::Status::Ok();
  // Validate everything up front: a failed batch must change nothing, and
  // PatternCounter only validates per tuple.
  for (const std::vector<int>& values : batch) {
    CHAMELEON_RETURN_NOT_OK(ValidateTuple(values));
  }

  for (const std::vector<int>& values : batch) {
    // Cannot fail: ValidateTuple mirrors AddTuple's checks.
    CHAMELEON_RETURN_NOT_OK(counter_.AddTuple(values));
  }
  PatchFrontier(batch);
  return util::Status::Ok();
}

void IncrementalMupIndex::PatchFrontier(
    const std::vector<std::vector<int>>& batch) {
  const int d = schema_->num_attributes();
  const int max_level = options_.max_level < 0 ? d : options_.max_level;

  // 1. Patch: bump each live MUP by its number of matches. Counts stay
  // exact (the stored count was |D ∩ P| and the batch is now part of D),
  // so Mups() never has to re-query the counter.
  std::vector<data::Pattern> crossed;
  for (auto& entry : live_) {
    int64_t delta = 0;
    for (const std::vector<int>& values : batch) {
      if (entry.first.Matches(values)) ++delta;
    }
    if (delta == 0) continue;
    entry.second += delta;
    ++patched_total_;
    if (entry.second >= options_.tau) crossed.push_back(entry.first);
  }
  if (crossed.empty()) return;

  // 2. Retire every MUP that crossed tau. Sorting first keeps the
  // expansion order (and therefore any future journaling) independent of
  // hash-map iteration order.
  std::sort(crossed.begin(), crossed.end(),
            [](const data::Pattern& a, const data::Pattern& b) {
              if (a.Level() != b.Level()) return a.Level() < b.Level();
              return a < b;
            });
  std::unordered_map<data::Pattern, int64_t, data::PatternHash> counts;
  for (const data::Pattern& pattern : crossed) {
    counts.emplace(pattern, live_.at(pattern));
    live_.erase(pattern);
  }
  retired_total_ += static_cast<int64_t>(crossed.size());

  auto count_of = [&](const data::Pattern& pattern) {
    auto it = counts.find(pattern);
    if (it != counts.end()) return it->second;
    const int64_t count = counter_.Count(pattern);
    counts.emplace(pattern, count);
    return count;
  };

  // 3. Expand only below the retired MUPs. Everything down there was
  // uncovered before this batch (count monotonicity), i.e. it is exactly
  // the region the original BFS pruned; re-running FindMups' loop on it
  // with fresh counts surfaces every newly-exposed MUP. Patterns whose
  // uncovered→covered flip happened under a *different* ancestor are
  // still reached: any flipped chain tops out at a retired MUP.
  std::unordered_set<data::Pattern, data::PatternHash> visited(
      crossed.begin(), crossed.end());
  std::deque<data::Pattern> frontier(crossed.begin(), crossed.end());
  while (!frontier.empty()) {
    const data::Pattern pattern = frontier.front();
    frontier.pop_front();

    const int64_t count = count_of(pattern);
    if (count >= options_.tau) {
      // Covered: descend, exactly like FindMups (including the max_level
      // cutoff, so a bounded index matches a bounded finder).
      if (pattern.Level() >= max_level) continue;
      for (auto& child : pattern.Children(*schema_)) {
        if (visited.insert(child).second) {
          frontier.push_back(std::move(child));
        }
      }
      continue;
    }

    // Uncovered: a MUP iff every parent is covered. Parents outside the
    // expansion region kept their old coverage status, so querying the
    // counter directly is exact.
    bool all_parents_covered = true;
    for (const auto& parent : pattern.Parents()) {
      if (count_of(parent) < options_.tau) {
        all_parents_covered = false;
        break;
      }
    }
    if (all_parents_covered) {
      live_.emplace(pattern, count);
      ++discovered_total_;
    }
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
