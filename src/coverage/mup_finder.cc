#include "src/coverage/mup_finder.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/obs/observability.h"

namespace chameleon::coverage {
namespace {

void SortMups(std::vector<Mup>* mups) {
  std::sort(mups->begin(), mups->end(), [](const Mup& a, const Mup& b) {
    if (a.Level() != b.Level()) return a.Level() < b.Level();
    return a.pattern < b.pattern;
  });
}

}  // namespace

MupFinder::MupFinder(const data::AttributeSchema& schema,
                     const PatternCounter& counter)
    : schema_(&schema), counter_(&counter) {}

std::vector<Mup> MupFinder::FindMups(const MupFinderOptions& options) const {
  obs::Observability* const obs = options.observability;
  std::optional<obs::Span> span;
  if (obs != nullptr) span.emplace(obs->tracer.StartSpan("mup.find"));

  std::vector<Mup> mups =
      FindMupsBelow({data::Pattern(schema_->num_attributes())}, options);

  if (obs != nullptr) {
    obs->registry.Counter("mup.found")->Increment(
        static_cast<int64_t>(mups.size()));
    // Exempt from the determinism contract by obs::IsStableMetric: it
    // measures the traversal, not its result.
    obs->registry.Counter("mup.count_queries")->Increment(
        last_count_queries());
    for (const Mup& mup : mups) {
      obs->journal.Record(obs::JournalEvent("mup.found")
                              .Set("pattern", mup.pattern.ToString())
                              .Set("count", mup.count)
                              .Set("gap", mup.gap));
    }
  }
  return mups;
}

std::vector<Mup> MupFinder::FindMupsBelow(
    const std::vector<data::Pattern>& seeds,
    const MupFinderOptions& options) const {
  const int d = schema_->num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  // No memo: a count is one cube read for every in-repo schema, cheaper
  // than hashing the pattern to look it up.
  int64_t queries = 0;
  auto count_of = [&](const data::Pattern& p) {
    ++queries;
    return counter_->Count(p);
  };

  std::vector<Mup> mups;
  std::unordered_set<data::Pattern, data::PatternHash> visited(seeds.begin(),
                                                               seeds.end());
  std::deque<data::Pattern> frontier(seeds.begin(), seeds.end());

  while (!frontier.empty()) {
    const data::Pattern pattern = frontier.front();
    frontier.pop_front();

    const int64_t count = count_of(pattern);
    if (count >= options.tau) {
      // Covered: descend. Children of covered nodes are the only
      // candidates that can have all parents covered.
      if (pattern.Level() >= max_level) continue;
      for (auto& child : pattern.Children(*schema_)) {
        if (visited.insert(child).second) {
          frontier.push_back(std::move(child));
        }
      }
      continue;
    }

    // Uncovered: a MUP iff every parent is covered. (The root has no
    // parents and is a MUP when itself uncovered.)
    bool all_parents_covered = true;
    for (const auto& parent : pattern.Parents()) {
      if (count_of(parent) < options.tau) {
        all_parents_covered = false;
        break;
      }
    }
    if (all_parents_covered) {
      mups.push_back(Mup{pattern, count, options.tau - count});
    }
  }

  last_count_queries_.store(queries, std::memory_order_relaxed);
  SortMups(&mups);
  return mups;
}

std::vector<Mup> MupFinder::FindMupsNaive(const MupFinderOptions& options) const {
  const int d = schema_->num_attributes();
  const int max_level = options.max_level < 0 ? d : options.max_level;

  // Materialize every pattern level by level.
  std::vector<data::Pattern> current = {data::Pattern(d)};
  std::unordered_map<data::Pattern, int64_t, data::PatternHash> counts;
  counts.emplace(current[0], counter_->Count(current[0]));

  std::vector<Mup> mups;
  auto consider = [&](const data::Pattern& p) {
    const int64_t count = counts.at(p);
    if (count >= options.tau) return;
    for (const auto& parent : p.Parents()) {
      if (counts.at(parent) < options.tau) return;
    }
    mups.push_back(Mup{p, count, options.tau - count});
  };
  consider(current[0]);

  for (int level = 1; level <= max_level; ++level) {
    std::unordered_set<data::Pattern, data::PatternHash> next_set;
    for (const auto& p : current) {
      for (auto& child : p.Children(*schema_)) next_set.insert(std::move(child));
    }
    current.assign(next_set.begin(), next_set.end());
    for (const auto& p : current) {
      counts.emplace(p, counter_->Count(p));
    }
    for (const auto& p : current) consider(p);
  }

  SortMups(&mups);
  return mups;
}

std::vector<Mup> MupFinder::MinLevel(const std::vector<Mup>& mups) {
  if (mups.empty()) return {};
  int min_level = mups[0].Level();
  for (const auto& m : mups) min_level = std::min(min_level, m.Level());
  std::vector<Mup> out;
  for (const auto& m : mups) {
    if (m.Level() == min_level) out.push_back(m);
  }
  return out;
}

}  // namespace chameleon::coverage
