#include "src/coverage/pattern_counter.h"

#include <algorithm>

namespace chameleon::coverage {

PatternCounter::PatternCounter(const data::AttributeSchema& schema)
    : schema_(&schema) {
  postings_.resize(schema.num_attributes());
  for (int a = 0; a < schema.num_attributes(); ++a) {
    postings_[a].resize(schema.attribute(a).cardinality());
  }
}

util::Result<PatternCounter> PatternCounter::FromDataset(
    const data::Dataset& dataset) {
  PatternCounter counter(dataset.schema());
  for (const auto& t : dataset.tuples()) {
    // Dataset::Add validates on insert, but tuples are mutable in place
    // (Dataset::mutable_tuple), so a mismatch is recoverable input here,
    // not a reason to abort the process.
    CHAMELEON_RETURN_NOT_OK(counter.AddTuple(t.values));
  }
  return counter;
}

util::Status PatternCounter::AddTuple(const std::vector<int>& values) {
  if (static_cast<int>(values.size()) != schema_->num_attributes()) {
    return util::Status::InvalidArgument(
        "tuple arity does not match the schema");
  }
  for (int a = 0; a < schema_->num_attributes(); ++a) {
    if (values[a] < 0 || values[a] >= schema_->attribute(a).cardinality()) {
      return util::Status::InvalidArgument(
          "value out of domain for attribute " + schema_->attribute(a).name);
    }
  }
  for (int a = 0; a < schema_->num_attributes(); ++a) {
    postings_[a][values[a]].push_back(num_tuples_);
  }
  ++num_tuples_;
  return util::Status::Ok();
}

const std::vector<int64_t>& PatternCounter::Postings(int attribute,
                                                     int value) const {
  return postings_[attribute][value];
}

int64_t PatternCounter::Count(const data::Pattern& pattern) const {
  // Collect the posting lists of specified cells, smallest first.
  std::vector<const std::vector<int64_t>*> lists;
  for (int a = 0; a < pattern.num_attributes(); ++a) {
    if (pattern.IsSpecified(a)) {
      lists.push_back(&Postings(a, pattern.cell(a)));
    }
  }
  if (lists.empty()) return num_tuples_;
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });

  if (lists.size() == 1) return static_cast<int64_t>(lists[0]->size());

  // Galloping intersection seeded by the smallest list.
  int64_t count = 0;
  for (int64_t id : *lists[0]) {
    bool in_all = true;
    for (size_t l = 1; l < lists.size(); ++l) {
      if (!std::binary_search(lists[l]->begin(), lists[l]->end(), id)) {
        in_all = false;
        break;
      }
    }
    count += in_all;
  }
  return count;
}

}  // namespace chameleon::coverage
