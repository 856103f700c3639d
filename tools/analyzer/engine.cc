#include "tools/analyzer/engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "tools/analyzer/index.h"
#include "tools/analyzer/token.h"

namespace chameleon_lint {
namespace {

/// Runs `work(i)` for i in [0, count). With jobs > 1, worker threads
/// pull indices from an atomic counter; each index writes only to its
/// own pre-sized slot, so no locking is needed anywhere in the engine —
/// determinism comes from merging the slots serially afterwards.
void RunIndexed(int jobs, size_t count,
                const std::function<void(size_t)>& work) {
  if (jobs <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) work(i);
    return;
  }
  const size_t workers =
      std::min<size_t>(static_cast<size_t>(jobs), count);
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (true) {
        const size_t i = cursor.fetch_add(1);
        if (i >= count) return;
        work(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

EngineResult AnalyzeSources(std::vector<SourceFile> files,
                            const EngineOptions& options) {
  // Canonical order up front: every later stage walks files by index, so
  // the result is independent of both input order and --jobs.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  const size_t n = files.size();
  IndexOptions index_options;
  index_options.determinism_allowlist = options.lint.determinism_allowlist;

  // Pass 1 (parallel): lex and per-file index.
  std::vector<LexResult> lexes(n);
  std::vector<FileIndex> indices(n);
  RunIndexed(options.jobs, n, [&](size_t i) {
    lexes[i] = Lex(files[i].source);
    indices[i] = BuildFileIndex(files[i].path, lexes[i], index_options);
  });

  // Serial merge: the tree index.
  std::vector<const FileIndex*> index_ptrs;
  index_ptrs.reserve(n);
  for (const FileIndex& index : indices) index_ptrs.push_back(&index);
  const TreeIndex tree = BuildTreeIndex(index_ptrs);

  // Pass 2 (parallel): per-file rules into per-file slots.
  std::vector<std::vector<Finding>> slots(n);
  RunIndexed(options.jobs, n, [&](size_t i) {
    slots[i] = LintFile(files[i].path, files[i].source, lexes[i], options.lint);
    if (!options.lint.IsDisabled("lock-discipline")) {
      CheckLockDiscipline(files[i].path, lexes[i], indices[i], tree,
                          &slots[i]);
    }
  });

  // Pass 2 (serial): tree-level rules.
  std::map<std::string, const LexResult*> lex_by_file;
  for (size_t i = 0; i < n; ++i) lex_by_file[files[i].path] = &lexes[i];
  std::vector<Finding> tree_findings;
  if (!options.lint.IsDisabled("lock-order")) {
    CheckLockOrder(tree, lex_by_file, &tree_findings);
  }
  if (!options.lint.IsDisabled("determinism-taint")) {
    CheckDeterminismTaint(tree, lex_by_file, &tree_findings);
  }

  // Pass 3: deterministic merge, then the baseline filter.
  EngineResult result;
  result.files_analyzed = n;
  for (std::vector<Finding>& slot : slots) {
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(slot.begin()),
                           std::make_move_iterator(slot.end()));
  }
  result.findings.insert(result.findings.end(),
                         std::make_move_iterator(tree_findings.begin()),
                         std::make_move_iterator(tree_findings.end()));
  std::sort(result.findings.begin(), result.findings.end());
  if (!options.baseline.empty()) {
    std::vector<Finding> kept;
    kept.reserve(result.findings.size());
    for (Finding& finding : result.findings) {
      if (options.baseline.count(BaselineKey(finding)) > 0) {
        ++result.baseline_suppressed;
      } else {
        kept.push_back(std::move(finding));
      }
    }
    result.findings = std::move(kept);
  }
  return result;
}

std::string BaselineKey(const Finding& finding) {
  return finding.file + "|" + finding.rule + "|" + finding.message;
}

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& finding : findings) keys.insert(BaselineKey(finding));
  std::string out =
      "# chameleon-lint baseline: known findings tolerated by CI.\n"
      "# One `file|rule|message` key per line (line/column-free so the\n"
      "# baseline survives unrelated edits). Regenerate with\n"
      "#   chameleon-lint --write-baseline=<this file>\n"
      "# and shrink it whenever you fix an entry.\n";
  for (const std::string& key : keys) {
    out += key;
    out += '\n';
  }
  return out;
}

std::set<std::string> ParseBaseline(const std::string& text) {
  std::set<std::string> keys;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    keys.insert(line.substr(start));
  }
  return keys;
}

namespace {

std::vector<std::string> SplitLines(const std::string& source) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : source) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

}  // namespace

std::string ApplyFixes(const std::string& path, const std::string& source,
                       const std::vector<Finding>& findings, size_t* applied) {
  *applied = 0;
  const auto guard_fix =
      std::find_if(findings.begin(), findings.end(), [&](const Finding& f) {
        return f.file == path && f.fix == FixKind::kRewriteGuard;
      });
  if (guard_fix == findings.end()) return source;
  // The finding only carries a fix when an #ifndef/#define pair exists;
  // locate it (and the final #endif) from a fresh lex of this source.
  const LexResult lex = Lex(source);
  if (lex.directives.size() < 2) return source;
  std::vector<std::string> lines = SplitLines(source);
  const int ifndef_line = lex.directives[0].line;
  const int define_line = lex.directives[1].line;
  if (ifndef_line < 1 || static_cast<size_t>(ifndef_line) > lines.size() ||
      define_line < 1 || static_cast<size_t>(define_line) > lines.size()) {
    return source;
  }
  const std::string& guard = guard_fix->fix_data;
  lines[ifndef_line - 1] = "#ifndef " + guard;
  lines[define_line - 1] = "#define " + guard;
  for (size_t i = lines.size(); i > 0; --i) {
    const std::string& line = lines[i - 1];
    const size_t start = line.find_first_not_of(" \t");
    if (start != std::string::npos && line.compare(start, 6, "#endif") == 0) {
      lines[i - 1] = "#endif  // " + guard;
      break;
    }
  }
  *applied = 1;

  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  if (source.back() != '\n') out.pop_back();
  return out;
}

}  // namespace chameleon_lint
