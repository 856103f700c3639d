// BENCHMARK.json, the benchmark's manifest: which metrics a run prints,
// and the final result line that carries them.
#ifndef PERFBENCH_SRC_MANIFEST_H_
#define PERFBENCH_SRC_MANIFEST_H_

#include <string>
#include <vector>

#include "src/common.h"
#include "src/util/status.h"

namespace perfbench {

struct DeclaredMetric {
  std::string name;
  std::string unit;
};

struct Manifest {
  std::vector<DeclaredMetric> end_to_end;
  std::vector<DeclaredMetric> per_layer;
};

[[nodiscard]] chameleon::util::Result<Manifest> ParseManifest(
    const std::string& text);
[[nodiscard]] chameleon::util::Result<Manifest> LoadManifest(
    const std::string& path);

/// A metric name: 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool IsValidMetricName(const std::string& name);

/// Checks a run's metrics against the manifest: every name is valid and
/// printed once, is declared in the list the run mode prints (per_layer
/// when traced, end_to_end otherwise) with the same unit, every value is
/// finite, and no declared metric is missing.
[[nodiscard]] chameleon::util::Status CheckMetrics(
    const Manifest& manifest, bool trace, const std::vector<Metric>& metrics);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string RenderResultLine(const WorkloadResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MANIFEST_H_
