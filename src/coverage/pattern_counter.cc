#include "src/coverage/pattern_counter.h"

#include <algorithm>
#include <bit>
#include <string>

namespace chameleon::coverage {

PatternCounter::PatternCounter(const data::AttributeSchema& schema)
    : schema_(&schema) {
  const int d = schema.num_attributes();
  // ∏(c_a + 1), checked against the cap before each multiplication so a
  // wide schema can never wrap around into a small cube.
  int64_t cells = 1;
  bool fits = true;
  for (int a = 0; a < d; ++a) {
    const int64_t slots = schema.attribute(a).cardinality() + 1;
    if (cells > kMaxCubeCells / slots) {
      fits = false;
      break;
    }
    cells *= slots;
  }
  if (fits) {
    strides_.resize(d);
    int64_t stride = 1;
    for (int a = d - 1; a >= 0; --a) {
      strides_[a] = stride;
      stride *= schema.attribute(a).cardinality() + 1;
    }
    cube_.assign(cells, 0);
    return;
  }
  postings_.resize(d);
  for (int a = 0; a < d; ++a) {
    postings_[a].resize(schema.attribute(a).cardinality());
  }
}

util::Result<PatternCounter> PatternCounter::FromDataset(
    const data::Dataset& dataset) {
  return FromTuples(dataset.schema(), dataset.tuples());
}

util::Result<PatternCounter> PatternCounter::FromTuples(
    const data::AttributeSchema& schema,
    const std::vector<data::Tuple>& tuples) {
  PatternCounter counter(schema);
  if (!counter.dense()) {
    for (const auto& t : tuples) {
      CHAMELEON_RETURN_NOT_OK(counter.AddTuple(t.values));
    }
    return counter;
  }
  // Dataset::Add validates on insert, but tuples are mutable in place
  // (Dataset::mutable_tuple), so a mismatch is recoverable input here,
  // not a reason to abort the process.
  std::vector<int64_t>& cube = counter.cube_;
  for (const auto& t : tuples) {
    CHAMELEON_RETURN_NOT_OK(counter.Validate(t.values));
    ++cube[counter.BaseCell(t.values)];
  }
  counter.num_tuples_ = static_cast<int64_t>(tuples.size());
  // Roll up one attribute at a time: pass a adds every value slot of
  // attribute a into its X slot, so afterwards every cell whose X slots
  // all lie in attributes 0..a holds its pattern's count. After the last
  // pass every cell does.
  const int64_t cells = static_cast<int64_t>(cube.size());
  for (int a = 0; a < schema.num_attributes(); ++a) {
    const int64_t stride = counter.strides_[a];
    const int64_t slots = schema.attribute(a).cardinality() + 1;
    for (int64_t block = 0; block < cells; block += slots * stride) {
      for (int64_t v = 1; v < slots; ++v) {
        for (int64_t k = 0; k < stride; ++k) {
          cube[block + k] += cube[block + v * stride + k];
        }
      }
    }
  }
  return counter;
}

util::Status PatternCounter::Validate(const std::vector<int>& values) const {
  if (static_cast<int>(values.size()) != schema_->num_attributes()) {
    return util::Status::InvalidArgument(
        "tuple arity " + std::to_string(values.size()) +
        " does not match schema arity " +
        std::to_string(schema_->num_attributes()));
  }
  for (int a = 0; a < schema_->num_attributes(); ++a) {
    if (values[a] < 0 || values[a] >= schema_->attribute(a).cardinality()) {
      return util::Status::InvalidArgument(
          "value " + std::to_string(values[a]) + " out of domain for '" +
          schema_->attribute(a).name + "'");
    }
  }
  return util::Status::Ok();
}

int64_t PatternCounter::BaseCell(const std::vector<int>& values) const {
  int64_t cell = 0;
  for (size_t a = 0; a < values.size(); ++a) {
    cell += (values[a] + 1) * strides_[a];
  }
  return cell;
}

util::Status PatternCounter::AddTuple(const std::vector<int>& values) {
  CHAMELEON_RETURN_NOT_OK(Validate(values));
  ++num_tuples_;
  if (!dense()) {
    for (size_t a = 0; a < values.size(); ++a) {
      postings_[a][values[a]].push_back(num_tuples_ - 1);
    }
    return util::Status::Ok();
  }
  // Visit the tuple's 2^d generalisations in Gray-code order: each step
  // specifies or relaxes exactly one attribute, so the cell index moves by
  // ±(value + 1) * stride. 2^d stays below the cube's size: a schema
  // attribute has at least two values, so at least three slots.
  const uint64_t subsets = uint64_t{1} << values.size();
  uint64_t specified = 0;
  int64_t cell = 0;
  ++cube_[0];
  for (uint64_t step = 1; step < subsets; ++step) {
    const int a = std::countr_zero(step);
    specified ^= uint64_t{1} << a;
    const int64_t delta = (values[a] + 1) * strides_[a];
    cell += (specified >> a & 1) != 0 ? delta : -delta;
    ++cube_[cell];
  }
  return util::Status::Ok();
}

int64_t PatternCounter::Count(const data::Pattern& pattern) const {
  if (dense()) {
    int64_t cell = 0;
    for (int a = 0; a < pattern.num_attributes(); ++a) {
      cell += (pattern.cell(a) + 1) * strides_[a];
    }
    return cube_[cell];
  }
  // Collect the posting lists of specified cells, smallest first.
  std::vector<const std::vector<int64_t>*> lists;
  for (int a = 0; a < pattern.num_attributes(); ++a) {
    if (pattern.IsSpecified(a)) {
      lists.push_back(&postings_[a][pattern.cell(a)]);
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
