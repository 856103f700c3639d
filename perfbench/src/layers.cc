#include "src/layers.h"

#include <algorithm>

namespace perfbench {

using chameleon::fm::BatchItem;
using chameleon::fm::GenerationRequest;
using chameleon::fm::GenerationResult;
using chameleon::util::Result;

double UnionMs(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double open_start = 0.0;
  double open_end = -1.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= open_end) {
      open_end = std::max(open_end, end);
      continue;
    }
    if (open) total += open_end - open_start;
    open_start = start;
    open_end = end;
    open = true;
  }
  if (open) total += open_end - open_start;
  return total;
}

Result<GenerationResult> TimedModel::Generate(const GenerationRequest& request,
                                              chameleon::util::Rng* rng) {
  const Clock::time_point start = Clock::now();
  auto result = inner_->Generate(request, rng);
  busy_ms_ += MsSince(start);
  ++queries_;
  ++dispatches_;
  RecordQuery();
  return result;
}

std::vector<Result<GenerationResult>> TimedModel::GenerateBatch(
    std::span<const BatchItem> items) {
  const Clock::time_point start = Clock::now();
  auto results = inner_->GenerateBatch(items);
  busy_ms_ += MsSince(start);
  queries_ += static_cast<int64_t>(items.size());
  ++dispatches_;
  for (size_t i = 0; i < items.size(); ++i) RecordQuery();
  return results;
}

std::vector<double> TimedEmbedder::Embed(
    const chameleon::image::Image& image) const {
  if (setup_.load()) {
    setup_calls_.fetch_add(1);
    return inner_->Embed(image);
  }
  const Clock::time_point start = Clock::now();
  std::vector<double> embedding = inner_->Embed(image);
  const Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  intervals_.push_back({MsBetween(epoch_, start), MsBetween(epoch_, end)});
  return embedding;
}

void TimedEmbedder::ResetMeasured() {
  std::lock_guard<std::mutex> lock(mutex_);
  intervals_.clear();
}

int64_t TimedEmbedder::calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(intervals_.size());
}

double TimedEmbedder::busy_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& [start, end] : intervals_) total += end - start;
  return total;
}

double TimedEmbedder::union_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return UnionMs(intervals_);
}

Result<chameleon::core::GuideChoice> TimedSelector::Select(
    const chameleon::data::Dataset& dataset, const std::vector<int>& target,
    chameleon::util::Rng* rng) {
  const Clock::time_point start = Clock::now();
  auto choice = inner_->Select(dataset, target, rng);
  select_ms_ += MsSince(start);
  ++select_calls_;
  if (choice.ok() && choice->has_guide) {
    guide_tuples_.push_back(choice->tuple_index);
  }
  return choice;
}

void TimedSelector::ReportReward(const std::vector<int>& target,
                                 const chameleon::core::GuideChoice& choice,
                                 bool passed) {
  const Clock::time_point start = Clock::now();
  inner_->ReportReward(target, choice, passed);
  reward_ms_ += MsSince(start);
}

}  // namespace perfbench
