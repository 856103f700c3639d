#include "src/fm/foundation_model.h"

namespace chameleon::fm {

std::vector<util::Result<GenerationResult>> FoundationModel::GenerateBatch(
    std::span<const BatchItem> items) {
  std::vector<util::Result<GenerationResult>> results;
  results.reserve(items.size());
  for (const BatchItem& item : items) {
    results.push_back(Generate(*item.request, item.rng));
  }
  return results;
}

std::string BuildPrompt(const data::AttributeSchema& schema,
                        const std::vector<int>& values) {
  std::string prompt = "A realistic portrait photo of a person with ";
  prompt += schema.CombinationToString(values);
  return prompt;
}

}  // namespace chameleon::fm
