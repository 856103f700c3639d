#ifndef CHAMELEON_DATA_SCHEMA_H_
#define CHAMELEON_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace chameleon::data {

/// One categorical attribute of interest (§2.1): a name, a value domain,
/// and whether the domain is ordinal (e.g. age-group) or unordered
/// (e.g. race). Ordinality matters to the Similar-Tuple guide strategy.
struct Attribute {
  std::string name;
  std::vector<std::string> values;
  bool ordinal = false;

  int cardinality() const { return static_cast<int>(values.size()); }
};

/// The attributes of interest x = {x_1, ..., x_d} over which demographic
/// subgroups, patterns, and combinations are defined.
class AttributeSchema {
 public:
  AttributeSchema() = default;
  explicit AttributeSchema(std::vector<Attribute> attributes);

  /// Adds an attribute; returns InvalidArgument on duplicate names or
  /// domains with fewer than two values.
  [[nodiscard]] util::Status AddAttribute(Attribute attribute);

  int num_attributes() const { return static_cast<int>(attributes_.size()); }
  const Attribute& attribute(int i) const { return attributes_[i]; }
  const std::vector<Attribute>& attributes() const { return attributes_; }

  /// Index of the attribute with the given name, or -1.
  int FindAttribute(const std::string& name) const;

  /// |x_1| * |x_2| * ... * |x_d| — the number of full-level combinations,
  /// saturated at INT64_MAX when the product does not fit.
  int64_t NumCombinations() const;

  /// Bijection between a full assignment and its dense index in
  /// [0, NumCombinations()), row-major over attribute order. Only defined
  /// below saturation.
  int64_t CombinationIndex(const std::vector<int>& values) const;
  std::vector<int> CombinationFromIndex(int64_t index) const;

  /// True if `values` has one in-domain value per attribute.
  bool IsValidCombination(const std::vector<int>& values) const;

  /// Human-readable rendering, e.g. "gender=female, race=Black".
  std::string CombinationToString(const std::vector<int>& values) const;

 private:
  std::vector<Attribute> attributes_;
};

}  // namespace chameleon::data

#endif  // CHAMELEON_DATA_SCHEMA_H_
