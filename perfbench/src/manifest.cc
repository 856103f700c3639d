#include "src/manifest.h"

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/obs/journal.h"
#include "tools/obsctl/json.h"

namespace perfbench {

using chameleon::util::Result;
using chameleon::util::Status;

namespace {

Result<std::vector<DeclaredMetric>> ParseMetricList(
    const chameleon::obsctl::JsonValue& root, const std::string& key) {
  const chameleon::obsctl::JsonValue* list = root.Find(key);
  if (list == nullptr || !list->is_array()) {
    return Status::InvalidArgument("manifest has no '" + key + "' list");
  }
  std::vector<DeclaredMetric> out;
  for (const auto& item : list->items) {
    DeclaredMetric metric;
    metric.name = item.StringOr("name", "");
    metric.unit = item.StringOr("unit", "");
    if (!IsValidMetricName(metric.name)) {
      return Status::InvalidArgument("bad metric name '" + metric.name +
                                     "' in '" + key + "'");
    }
    out.push_back(std::move(metric));
  }
  return out;
}

}  // namespace

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

Result<Manifest> ParseManifest(const std::string& text) {
  auto root = chameleon::obsctl::ParseJson(text);
  if (!root.ok()) return root.status();
  if (!root->is_object()) {
    return Status::InvalidArgument("manifest is not a JSON object");
  }
  Manifest manifest;
  auto end_to_end = ParseMetricList(*root, "end_to_end");
  if (!end_to_end.ok()) return end_to_end.status();
  auto per_layer = ParseMetricList(*root, "per_layer");
  if (!per_layer.ok()) return per_layer.status();
  manifest.end_to_end = *std::move(end_to_end);
  manifest.per_layer = *std::move(per_layer);
  return manifest;
}

Result<Manifest> LoadManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return ParseManifest(text.str());
}

Status CheckMetrics(const Manifest& manifest, bool trace,
                    const std::vector<Metric>& metrics) {
  const std::vector<DeclaredMetric>& declared =
      trace ? manifest.per_layer : manifest.end_to_end;
  const char* list = trace ? "per_layer" : "end_to_end";
  std::map<std::string, std::string> units;
  for (const DeclaredMetric& metric : declared) units[metric.name] = metric.unit;

  std::set<std::string> printed;
  for (const Metric& metric : metrics) {
    if (!IsValidMetricName(metric.name)) {
      return Status::InvalidArgument("metric name '" + metric.name +
                                     "' is not [A-Za-z0-9_.-]+");
    }
    if (!printed.insert(metric.name).second) {
      return Status::InvalidArgument("metric '" + metric.name +
                                     "' printed twice");
    }
    auto it = units.find(metric.name);
    if (it == units.end()) {
      return Status::InvalidArgument("metric '" + metric.name +
                                     "' is not declared in " + list);
    }
    if (it->second != metric.unit) {
      return Status::InvalidArgument("metric '" + metric.name + "' has unit '" +
                                     metric.unit + "', declared '" +
                                     it->second + "'");
    }
    if (!std::isfinite(metric.value)) {
      return Status::InvalidArgument("metric '" + metric.name +
                                     "' is not a finite number");
    }
  }
  for (const DeclaredMetric& metric : declared) {
    if (printed.count(metric.name) == 0) {
      return Status::InvalidArgument("declared metric '" + metric.name +
                                     "' was not printed");
    }
  }
  return Status::Ok();
}

std::string RenderResultLine(const WorkloadResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) out += ", ";
    // Appended piece by piece: GCC 12's -Wrestrict misfires on
    // `"literal" + std::string`.
    out += '"';
    out += chameleon::obs::JsonEscape(metric.name);
    out += "\": {\"value\": ";
    out += FormatNumber(metric.value);
    out += ", \"unit\": \"";
    out += chameleon::obs::JsonEscape(metric.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
