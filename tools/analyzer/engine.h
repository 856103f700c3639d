#ifndef CHAMELEON_TOOLS_ANALYZER_ENGINE_H_
#define CHAMELEON_TOOLS_ANALYZER_ENGINE_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "tools/analyzer/rules.h"

namespace chameleon_lint {

/// One input file: repo-relative '/'-separated path plus its contents.
struct SourceFile {
  std::string path;
  std::string source;
};

struct EngineOptions {
  LintOptions lint;
  /// Parallel per-file analysis width. Any value produces byte-identical
  /// output: per-file work lands in per-file slots, the cross-TU index
  /// is merged serially in path order, and the final finding list is
  /// sorted. Values < 1 are treated as 1.
  int jobs = 1;
  /// Baseline keys (see BaselineKey) to drop from the result. Dropped
  /// findings are counted, not reported.
  std::set<std::string> baseline;
};

struct EngineResult {
  std::vector<Finding> findings;  // sorted, baseline already applied
  size_t baseline_suppressed = 0;
  size_t files_analyzed = 0;
};

/// The three-pass engine: (1) lex + per-file index, in parallel when
/// options.jobs > 1; (2) serial cross-TU merge and the tree rules;
/// (3) per-file rules, again in parallel, then a deterministic merge.
/// Input order does not matter — files are analyzed in sorted-path order.
EngineResult AnalyzeSources(std::vector<SourceFile> files,
                            const EngineOptions& options);

/// Stable identity of a finding for baselines: `file|rule|message`.
/// Line/column are deliberately excluded so a baseline survives
/// unrelated edits above the finding.
std::string BaselineKey(const Finding& finding);

/// Serializes findings to baseline-file text (comments + one key per
/// line, deduplicated, sorted).
std::string FormatBaseline(const std::vector<Finding>& findings);

/// Parses baseline-file text ('#' comments and blank lines ignored).
std::set<std::string> ParseBaseline(const std::string& text);

/// Applies the mechanical fixes among `findings` (those carrying a
/// FixKind other than kNone whose file matches `path`) to `source` and
/// returns the rewritten text. `*applied` receives the number of edits.
/// Fixes are idempotent: a rewritten guard matches the convention, so a
/// second --fix pass finds nothing to do.
std::string ApplyFixes(const std::string& path, const std::string& source,
                       const std::vector<Finding>& findings, size_t* applied);

}  // namespace chameleon_lint

#endif  // CHAMELEON_TOOLS_ANALYZER_ENGINE_H_
