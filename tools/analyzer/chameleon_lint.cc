// chameleon-lint: project-invariant static analyzer for the Chameleon
// tree. Enforces, as named and suppressible rules, the invariants the
// compiler cannot see: determinism (leaf uses and call-graph taint),
// concurrency hygiene, lock discipline, lock-order acyclicity, and
// header hygiene. Status discipline is the compiler's job: Status,
// Result, Span and the handle-returning APIs are [[nodiscard]] and CI
// builds with -Werror. See DESIGN.md "Static analysis & invariants" and
// "Cross-TU analysis".
//
// Usage:
//   chameleon-lint [--root=DIR] [--disable=rule,...] [--list-rules]
//                  [--jobs=N] [--sarif=FILE] [--baseline=FILE]
//                  [--write-baseline=FILE] [--fix] [paths]
//
// With no paths, lints the project's linted set (kDefaultPaths below)
// under --root (default: cwd); the ctests and `tools/ci.sh lint` all
// use it, so the set is defined once, here.
// Output is machine-friendly: `file:line:col: [chameleon-rule] message`,
// byte-identical at every --jobs value. Exit codes: 0 clean, 1 findings,
// 2 usage/IO error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyzer/engine.h"
#include "tools/analyzer/rules.h"
#include "tools/analyzer/sarif.h"

namespace {

namespace fs = std::filesystem;
using chameleon_lint::EngineOptions;
using chameleon_lint::EngineResult;
using chameleon_lint::Finding;
using chameleon_lint::SourceFile;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

/// Path relative to root with '/' separators — the form rules key off.
std::string Relativize(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  return (ec || rel.empty() ? p : rel).generic_string();
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// The tree chameleon-lint keeps at zero findings.
const char* const kDefaultPaths[] = {
    "src",          "tests",           "tools/analyzer",
    "tools/obsctl", "tools/chameleond", "tools/chameleon_cli.cc",
    "bench",        "examples"};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root=DIR] [--disable=rule,...] [--list-rules] "
               "[--jobs=N] [--sarif=FILE] [--baseline=FILE] "
               "[--write-baseline=FILE] [--fix] [paths...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  EngineOptions options;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  bool fix = false;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& rule : chameleon_lint::Rules()) {
        std::printf("chameleon-%s: %s\n", rule.name, rule.description);
      }
      return 0;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = fs::path(arg.substr(7));
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = std::atoi(arg.c_str() + 7);
      if (options.jobs < 1) {
        std::fprintf(stderr, "--jobs must be >= 1\n");
        return 2;
      }
      continue;
    }
    if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
      continue;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
      continue;
    }
    if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = arg.substr(17);
      continue;
    }
    if (arg == "--fix") {
      fix = true;
      continue;
    }
    if (arg.rfind("--disable=", 0) == 0) {
      std::stringstream list(arg.substr(10));
      std::string name;
      while (std::getline(list, name, ',')) {
        if (name.rfind("chameleon-", 0) == 0) name = name.substr(10);
        if (name.empty()) continue;
        const auto& rules = chameleon_lint::Rules();
        const bool known =
            std::any_of(rules.begin(), rules.end(),
                        [&](const auto& r) { return name == r.name; });
        if (!known) {
          std::fprintf(stderr, "unknown rule '%s' (try --list-rules)\n",
                       name.c_str());
          return 2;
        }
        options.lint.disabled.insert(name);
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) return Usage(argv[0]);
    inputs.push_back(arg);
  }
  if (inputs.empty()) {
    inputs.assign(std::begin(kDefaultPaths), std::end(kDefaultPaths));
  }

  if (!baseline_path.empty()) {
    std::string text;
    if (!ReadFile(fs::path(baseline_path), &text)) {
      std::fprintf(stderr, "cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    options.baseline = chameleon_lint::ParseBaseline(text);
  }

  // Resolve inputs (relative to --root) into the file set.
  std::vector<fs::path> paths;
  for (const std::string& input : inputs) {
    fs::path p(input);
    if (p.is_relative()) p = root / p;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && IsSourceFile(it->path())) {
          paths.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      paths.push_back(p);
    } else {
      std::fprintf(stderr, "cannot read '%s'\n", input.c_str());
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files;
  std::vector<fs::path> abs_paths;  // aligned with `files` after sorting
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    SourceFile file;
    file.path = Relativize(path, root);
    if (!ReadFile(path, &file.source)) {
      std::fprintf(stderr, "cannot read '%s'\n", path.string().c_str());
      return 2;
    }
    files.push_back(std::move(file));
    abs_paths.push_back(path);
  }

  EngineResult result = chameleon_lint::AnalyzeSources(files, options);

  if (fix) {
    // Apply the mechanical fixes, then re-analyze so the report (and the
    // exit code) reflect the tree as fixed. Fixes are idempotent, so one
    // re-analysis suffices.
    size_t total_applied = 0;
    for (size_t i = 0; i < files.size(); ++i) {
      size_t applied = 0;
      const std::string fixed = chameleon_lint::ApplyFixes(
          files[i].path, files[i].source, result.findings, &applied);
      if (applied == 0) continue;
      if (!WriteFile(abs_paths[i], fixed)) {
        std::fprintf(stderr, "cannot write '%s'\n",
                     abs_paths[i].string().c_str());
        return 2;
      }
      files[i].source = fixed;
      total_applied += applied;
    }
    std::fprintf(stderr, "chameleon-lint: applied %zu fix(es)\n",
                 total_applied);
    if (total_applied > 0) {
      result = chameleon_lint::AnalyzeSources(files, options);
    }
  }

  if (!write_baseline_path.empty()) {
    if (!WriteFile(fs::path(write_baseline_path),
                   chameleon_lint::FormatBaseline(result.findings))) {
      std::fprintf(stderr, "cannot write baseline '%s'\n",
                   write_baseline_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "chameleon-lint: wrote %zu baseline entr(ies) to %s\n",
                 result.findings.size(), write_baseline_path.c_str());
    return 0;
  }

  if (!sarif_path.empty()) {
    if (!WriteFile(fs::path(sarif_path),
                   chameleon_lint::ToSarif(result.findings))) {
      std::fprintf(stderr, "cannot write sarif '%s'\n", sarif_path.c_str());
      return 2;
    }
  }

  for (const Finding& finding : result.findings) {
    std::printf("%s\n", chameleon_lint::FormatFinding(finding).c_str());
  }
  if (!result.findings.empty()) {
    std::fprintf(stderr, "chameleon-lint: %zu finding(s) in %zu file(s)",
                 result.findings.size(), result.files_analyzed);
    if (result.baseline_suppressed > 0) {
      std::fprintf(stderr, " (%zu baselined)", result.baseline_suppressed);
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  return 0;
}
