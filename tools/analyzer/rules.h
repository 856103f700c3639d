#ifndef CHAMELEON_TOOLS_ANALYZER_RULES_H_
#define CHAMELEON_TOOLS_ANALYZER_RULES_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/analyzer/index.h"
#include "tools/analyzer/token.h"

namespace chameleon_lint {

/// Mechanical remediation attached to a finding (--fix mode). Only one
/// finding shape is safely auto-fixable; everything else needs a human.
enum class FixKind {
  kNone,
  /// Header guard exists but names the wrong symbol: rewrite the
  /// #ifndef/#define pair (and the trailing #endif comment) to
  /// `fix_data`.
  kRewriteGuard,
};

/// One diagnostic. `rule` is the bare rule name (no "chameleon-" prefix);
/// FormatFinding prints the canonical `file:line:col: [chameleon-rule] msg`.
struct Finding {
  Finding() = default;
  Finding(std::string file_in, int line_in, int col_in, std::string rule_in,
          std::string message_in, FixKind fix_in = FixKind::kNone,
          std::string fix_data_in = "")
      : file(std::move(file_in)),
        line(line_in),
        col(col_in),
        rule(std::move(rule_in)),
        message(std::move(message_in)),
        fix(fix_in),
        fix_data(std::move(fix_data_in)) {}

  std::string file;
  int line = 0;
  int col = 0;
  std::string rule;
  std::string message;
  FixKind fix = FixKind::kNone;
  std::string fix_data;  // kRewriteGuard: the expected guard symbol

  bool operator<(const Finding& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (col != other.col) return col < other.col;
    return rule < other.rule;
  }
};

std::string FormatFinding(const Finding& finding);

struct RuleInfo {
  const char* name;  // bare name, e.g. "determinism"
  const char* description;
};

/// All rules, in reporting order. Used by --list-rules, --disable
/// validation, and the SARIF rules table.
const std::vector<RuleInfo>& Rules();

struct LintOptions {
  /// Bare rule names to skip (accepts the "chameleon-" prefix too).
  std::set<std::string> disabled;
  /// Files whose (normalized, relative) path contains one of these
  /// substrings are exempt from the determinism rules: wall-clock reads
  /// are the whole point of a stopwatch, and bench harnesses time things.
  /// Functions defined in these files are also "sanctioned" for the
  /// taint rule — calls to them do not propagate nondeterminism.
  std::vector<std::string> determinism_allowlist = {"util/stopwatch",
                                                    "bench/"};

  bool IsDisabled(const std::string& rule) const {
    return disabled.count(rule) > 0;
  }
};

/// Pass 2 (per-file, lexical): runs the three file-local rules over one
/// file. `path` must be the repo-relative, '/'-separated path —
/// header-guard expectations and the determinism allowlist key off it.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& source, const LexResult& lex,
                              const LintOptions& options);

/// Pass 2 (per-file, cross-TU): chameleon-lock-discipline. Flags
/// accesses to CHAMELEON_GUARDED_BY members (annotations may live in a
/// different TU than the method bodies) without the named mutex
/// lexically held. Constructors, destructors and const member functions
/// are exempt (see DESIGN.md §12 for the false-negative contract).
void CheckLockDiscipline(const std::string& path, const LexResult& lex,
                         const FileIndex& file_index, const TreeIndex& tree,
                         std::vector<Finding>* out);

/// Pass 2 (tree-level): chameleon-lock-order. Detects cycles in the
/// tree-wide lock-acquisition-order graph (direct nesting plus
/// acquisitions reached through the name-based call graph).
/// `lex_by_file` provides NOLINT suppression context for witness sites.
void CheckLockOrder(const TreeIndex& tree,
                    const std::map<std::string, const LexResult*>& lex_by_file,
                    std::vector<Finding>* out);

/// Pass 2 (tree-level): chameleon-determinism-taint. Propagates
/// nondeterminism sources up the call graph: a function that
/// *transitively* reaches rand()/wall-clock outside the allowlist is
/// flagged with the offending call chain, not just the leaf.
void CheckDeterminismTaint(
    const TreeIndex& tree,
    const std::map<std::string, const LexResult*>& lex_by_file,
    std::vector<Finding>* out);

/// The include-guard symbol the project convention demands for a header
/// at `path` (repo-relative): CHAMELEON_<DIR>_<FILE>_H_ with a leading
/// "src/" dropped. Exposed for tests.
std::string ExpectedGuard(const std::string& path);

}  // namespace chameleon_lint

#endif  // CHAMELEON_TOOLS_ANALYZER_RULES_H_
