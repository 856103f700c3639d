#include "src/data/schema.h"

#include <limits>

namespace chameleon::data {

AttributeSchema::AttributeSchema(std::vector<Attribute> attributes)
    : attributes_(std::move(attributes)) {}

util::Status AttributeSchema::AddAttribute(Attribute attribute) {
  if (attribute.cardinality() < 2) {
    return util::Status::InvalidArgument("attribute '" + attribute.name +
                                         "' needs a domain of size >= 2");
  }
  if (FindAttribute(attribute.name) >= 0) {
    return util::Status::InvalidArgument("duplicate attribute '" +
                                         attribute.name + "'");
  }
  attributes_.push_back(std::move(attribute));
  return util::Status::Ok();
}

int AttributeSchema::FindAttribute(const std::string& name) const {
  for (int i = 0; i < num_attributes(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return -1;
}

int64_t AttributeSchema::NumCombinations() const {
  int64_t total = 1;
  for (const auto& attr : attributes_) {
    if (__builtin_mul_overflow(total, attr.cardinality(), &total)) {
      return std::numeric_limits<int64_t>::max();
    }
  }
  return total;
}

int64_t AttributeSchema::CombinationIndex(const std::vector<int>& values) const {
  int64_t index = 0;
  for (int i = 0; i < num_attributes(); ++i) {
    index = index * attributes_[i].cardinality() + values[i];
  }
  return index;
}

std::vector<int> AttributeSchema::CombinationFromIndex(int64_t index) const {
  std::vector<int> values(num_attributes());
  for (int i = num_attributes() - 1; i >= 0; --i) {
    const int card = attributes_[i].cardinality();
    values[i] = static_cast<int>(index % card);
    index /= card;
  }
  return values;
}

bool AttributeSchema::IsValidCombination(const std::vector<int>& values) const {
  if (static_cast<int>(values.size()) != num_attributes()) return false;
  for (int i = 0; i < num_attributes(); ++i) {
    if (values[i] < 0 || values[i] >= attributes_[i].cardinality()) {
      return false;
    }
  }
  return true;
}

std::string AttributeSchema::CombinationToString(
    const std::vector<int>& values) const {
  std::string out;
  for (int i = 0; i < num_attributes(); ++i) {
    if (i) out += ", ";
    out += attributes_[i].name;
    out += '=';
    if (i < static_cast<int>(values.size()) && values[i] >= 0 &&
        values[i] < attributes_[i].cardinality()) {
      out += attributes_[i].values[values[i]];
    } else {
      out += '?';
    }
  }
  return out;
}

}  // namespace chameleon::data
