#include "tools/analyzer/rules.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <string>

namespace chameleon_lint {
namespace {

// Scope classification and brace/paren matching live in index.h — one
// implementation shared with the cross-TU pass so the two can never
// disagree about scoping.

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool Contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string Lowercase(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool IsTestPath(const std::string& path) {
  return Contains(path, "tests/") || Contains(path, "_test.cc");
}

bool IsHeaderPath(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

/// Emits `finding` unless suppressed via NOLINT on its line.
void Emit(const LexResult& lex, std::vector<Finding>* out, Finding finding) {
  if (IsSuppressed(lex, finding.line, "chameleon-" + finding.rule) ||
      IsSuppressed(lex, finding.line, finding.rule)) {
    return;
  }
  out->push_back(std::move(finding));
}

// ---------------------------------------------------------------------------
// Pass 2: rules
// ---------------------------------------------------------------------------

void CheckDeterminism(const std::string& path, const LexResult& lex,
                      const LintOptions& options, std::vector<Finding>* out) {
  for (const std::string& allowed : options.determinism_allowlist) {
    if (Contains(path, allowed.c_str())) return;
  }
  const std::vector<Token>& toks = lex.tokens;
  const char* why =
      "; hidden nondeterminism breaks the pipeline's bit-identical-at-any-"
      "thread-count guarantee (use util::Rng with an explicit seed)";
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool member_access =
        i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
    const bool called = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    if (t.text == "rand" && called && !member_access) {
      Emit(lex, out,
           {path, t.line, t.col, "determinism",
            std::string("call to rand()") + why});
    } else if (t.text == "srand" && called && !member_access) {
      Emit(lex, out,
           {path, t.line, t.col, "determinism",
            std::string("call to srand()") + why});
    } else if (t.text == "random_device" && !member_access) {
      Emit(lex, out,
           {path, t.line, t.col, "determinism",
            std::string("use of std::random_device") + why});
    } else if (t.text == "time" && called && !member_access &&
               i + 3 < toks.size() &&
               (IsIdent(toks[i + 2], "nullptr") ||
                IsIdent(toks[i + 2], "NULL") || toks[i + 2].text == "0") &&
               IsPunct(toks[i + 3], ")")) {
      Emit(lex, out,
           {path, t.line, t.col, "determinism",
            std::string("time(nullptr)-style wall-clock seed") + why});
    } else if (t.text == "now" && called && i > 0 &&
               IsPunct(toks[i - 1], "::") && i + 2 < toks.size() &&
               IsPunct(toks[i + 2], ")")) {
      Emit(lex, out,
           {path, t.line, t.col, "determinism",
            "argless clock ::now() outside util/stopwatch and bench code" +
                std::string(why)});
    }
  }
}

void CheckConcurrencyHygiene(const std::string& path, const std::string& source,
                             const LexResult& lex, const ScopeMap& scopes,
                             std::vector<Finding>* out) {
  const std::vector<Token>& toks = lex.tokens;
  const std::string lower = Lowercase(source);
  const bool mentions_thread_safety = Contains(lower, "thread-safe") ||
                                      Contains(lower, "thread safe") ||
                                      Contains(lower, "thread-safety") ||
                                      Contains(lower, "thread safety");
  const bool is_test = IsTestPath(path);

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    // Function-local mutable static state: shared across calls and, under
    // the thread pool, across threads.
    if (t.text == "static" && !is_test && scopes.info[i].in_function &&
        scopes.info[i].innermost == ScopeKind::kFunction) {
      bool is_const = i > 0 && (IsIdent(toks[i - 1], "const") ||
                                IsIdent(toks[i - 1], "constexpr"));
      for (size_t j = i + 1; !is_const && j < toks.size() && j < i + 6; ++j) {
        if (IsPunct(toks[j], ";") || IsPunct(toks[j], "(") ||
            IsPunct(toks[j], "=")) {
          break;
        }
        if (IsIdent(toks[j], "const") || IsIdent(toks[j], "constexpr")) {
          is_const = true;
        }
      }
      if (!is_const) {
        Emit(lex, out,
             {path, t.line, t.col, "concurrency-hygiene",
              "function-local static mutable state; worker threads share it "
              "non-deterministically (hoist it, make it const, or inject it "
              "explicitly)"});
      }
    }
    // `mutable` members in files that document thread-safety must be
    // synchronized types.
    if (t.text == "mutable" && mentions_thread_safety &&
        !scopes.info[i].in_function &&
        scopes.info[i].innermost == ScopeKind::kType) {
      bool synchronized = false;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (IsPunct(toks[j], ";")) break;
        if (toks[j].kind == TokenKind::kIdentifier &&
            (toks[j].text == "atomic" || toks[j].text == "mutex" ||
             toks[j].text == "shared_mutex" || toks[j].text == "once_flag" ||
             toks[j].text == "condition_variable")) {
          synchronized = true;
          break;
        }
      }
      if (!synchronized) {
        Emit(lex, out,
             {path, t.line, t.col, "concurrency-hygiene",
              "mutable member in a file documenting thread-safety without "
              "std::atomic/std::mutex protection"});
      }
    }
  }
}

/// Direct-include requirements for common std vocabulary types: a header
/// that names std::X must include <header-for-X> itself rather than rely
/// on a transitive include.
const std::map<std::string, std::string>& StdSymbolHeaders() {
  static const std::map<std::string, std::string> kMap = {
      {"string", "string"},
      {"vector", "vector"},
      {"map", "map"},
      {"set", "set"},
      {"unordered_map", "unordered_map"},
      {"unordered_set", "unordered_set"},
      {"deque", "deque"},
      {"array", "array"},
      {"atomic", "atomic"},
      {"mutex", "mutex"},
      {"shared_mutex", "shared_mutex"},
      {"condition_variable", "condition_variable"},
      {"thread", "thread"},
      {"unique_ptr", "memory"},
      {"shared_ptr", "memory"},
      {"weak_ptr", "memory"},
      {"function", "functional"},
      {"optional", "optional"},
      {"variant", "variant"},
      {"pair", "utility"},
      {"move", "utility"},
      {"string_view", "string_view"},
  };
  return kMap;
}

void CheckHeaderHygiene(const std::string& path, const LexResult& lex,
                        const ScopeMap& scopes, std::vector<Finding>* out) {
  if (!IsHeaderPath(path)) return;
  const std::string expected = ExpectedGuard(path);

  // Include guard: the first two directives must be `#ifndef GUARD` /
  // `#define GUARD` with the path-derived symbol.
  auto directive_word = [](const std::string& text, size_t* rest) {
    size_t sp = text.find_first_of(" \t");
    if (sp == std::string::npos) sp = text.size();
    *rest = text.find_first_not_of(" \t", sp);
    return text.substr(0, sp);
  };
  bool guard_ok = false;
  bool has_pair = false;  // an ifndef/define pair exists (fixable in place)
  if (lex.directives.size() >= 2) {
    size_t rest1 = 0, rest2 = 0;
    const std::string w1 = directive_word(lex.directives[0].text, &rest1);
    const std::string w2 = directive_word(lex.directives[1].text, &rest2);
    const std::string sym1 = rest1 == std::string::npos
                                 ? ""
                                 : lex.directives[0].text.substr(rest1);
    const std::string sym2 = rest2 == std::string::npos
                                 ? ""
                                 : lex.directives[1].text.substr(rest2);
    has_pair = w1 == "ifndef" && w2 == "define";
    guard_ok = has_pair && sym1 == expected && sym2 == expected;
  }
  if (!guard_ok) {
    Finding finding{path, lex.directives.empty() ? 1 : lex.directives[0].line,
                    1, "header-hygiene",
                    "missing or non-conforming include guard; expected "
                    "'#ifndef " +
                        expected + "' / '#define " + expected +
                        "' as the first two preprocessor lines"};
    if (has_pair) {  // --fix can rewrite an existing pair, not invent one
      finding.fix = FixKind::kRewriteGuard;
      finding.fix_data = expected;
    }
    Emit(lex, out, std::move(finding));
  }

  const std::vector<Token>& toks = lex.tokens;
  // `using namespace` at namespace scope leaks into every includer.
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (IsIdent(toks[i], "using") && IsIdent(toks[i + 1], "namespace") &&
        !scopes.info[i].in_function) {
      Emit(lex, out,
           {path, toks[i].line, toks[i].col, "header-hygiene",
            "'using namespace' at namespace scope in a header leaks the "
            "namespace into every includer"});
    }
  }

  // Self-containedness (include-what-you-use lite): std:: vocabulary
  // types must be backed by a direct include.
  std::set<std::string> included;
  for (const PpDirective& d : lex.directives) {
    size_t rest = 0;
    if (directive_word(d.text, &rest) != "include") continue;
    if (rest == std::string::npos) continue;
    std::string spec = d.text.substr(rest);
    if (spec.size() >= 2 && (spec.front() == '<' || spec.front() == '"')) {
      const char close = spec.front() == '<' ? '>' : '"';
      const size_t end = spec.find(close, 1);
      if (end != std::string::npos) included.insert(spec.substr(1, end - 1));
    }
  }
  std::set<std::string> reported;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "std") || !IsPunct(toks[i + 1], "::")) continue;
    const auto it = StdSymbolHeaders().find(toks[i + 2].text);
    if (it == StdSymbolHeaders().end()) continue;
    if (included.count(it->second) > 0 || reported.count(it->second) > 0)
      continue;
    reported.insert(it->second);
    Emit(lex, out,
         {path, toks[i].line, toks[i].col, "header-hygiene",
          "header uses std::" + it->first + " but does not include <" +
              it->second + "> directly (headers must be self-contained)"});
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"determinism",
       "bans rand()/srand/std::random_device/time(nullptr) seeds and argless "
       "clock ::now() outside util/stopwatch and bench code"},
      {"concurrency-hygiene",
       "no mutable function-local statics in non-test code; mutable members "
       "need atomic/mutex where thread-safety is documented"},
      {"header-hygiene",
       "include guards must match CHAMELEON_<DIR>_<FILE>_H_; no 'using "
       "namespace' at namespace scope in headers; headers must directly "
       "include the std headers they use"},
      {"lock-discipline",
       "members declared CHAMELEON_GUARDED_BY(mu) may only be accessed with "
       "'mu' lexically held (const member functions, constructors and "
       "destructors are exempt)"},
      {"lock-order",
       "the tree-wide lock-acquisition-order graph (direct nesting plus "
       "acquisitions reached through calls) must be acyclic; a cycle is a "
       "potential deadlock"},
      {"determinism-taint",
       "functions that transitively reach rand()/wall-clock sources outside "
       "the allowlist through the call graph are flagged, not just the "
       "leaf"},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Pass 2 cross-TU rules (built on the pass-1 index)
// ---------------------------------------------------------------------------

void CheckLockDiscipline(const std::string& path, const LexResult& lex,
                         const FileIndex& file_index, const TreeIndex& tree,
                         std::vector<Finding>* out) {
  const std::vector<Token>& toks = lex.tokens;
  for (const FunctionInfo& fn : file_index.functions) {
    // Const member functions are read-only by contract and audited
    // manually; constructors/destructors run before/after any sharing.
    if (fn.class_name.empty() || fn.is_const || fn.is_ctor_dtor) continue;
    const auto guarded_it = tree.guarded.find(fn.class_name);
    if (guarded_it == tree.guarded.end()) continue;
    const std::map<std::string, std::string>& members = guarded_it->second;
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      const auto member_it = members.find(t.text);
      if (member_it == members.end()) continue;
      // `other.member_` is someone else's instance (out of scope for a
      // lexical analysis); `this->member_` is ours.
      if (i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
        if (!(i >= 2 && IsIdent(toks[i - 2], "this"))) continue;
      }
      if (i > 0 && IsPunct(toks[i - 1], "::")) continue;
      const std::string needed =
          fn.class_name + "::" + member_it->second;
      bool held = false;
      std::string held_instead;
      for (const LockAcquisition& lock : fn.locks) {
        if (lock.token < i && i < lock.scope_end) {
          if (lock.mutex == needed) {
            held = true;
            break;
          }
          if (!held_instead.empty()) held_instead += ", ";
          held_instead += "'" + lock.mutex + "'";
        }
      }
      if (held) continue;
      std::string message =
          "member '" + t.text + "' of '" + fn.class_name +
          "' is declared CHAMELEON_GUARDED_BY(" + member_it->second +
          ") but is accessed without '" + member_it->second + "' held";
      if (!held_instead.empty()) {
        message += " (held instead: " + held_instead + ")";
      }
      message +=
          "; take a std::lock_guard/unique_lock/scoped_lock on '" +
          member_it->second + "' in an enclosing scope";
      Emit(lex, out, {path, t.line, t.col, "lock-discipline", message});
    }
  }
}

namespace {

/// Emits through the per-file suppression context when available (tree
/// rules place findings in arbitrary files).
void EmitTree(const std::map<std::string, const LexResult*>& lex_by_file,
              std::vector<Finding>* out, Finding finding) {
  const auto it = lex_by_file.find(finding.file);
  if (it != lex_by_file.end()) {
    Emit(*it->second, out, std::move(finding));
  } else {
    out->push_back(std::move(finding));
  }
}

}  // namespace

void CheckLockOrder(const TreeIndex& tree,
                    const std::map<std::string, const LexResult*>& lex_by_file,
                    std::vector<Finding>* out) {
  // Adjacency over canonical mutex names; node and edge iteration both
  // follow map order, so the SCC decomposition is deterministic.
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const auto& [key, edge] : tree.edges) {
    adjacency[key.first].push_back(key.second);
    adjacency[key.second];
  }

  std::map<std::string, int> visit_index, low_link;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  int next_index = 0;
  std::vector<std::vector<std::string>> components;
  std::function<void(const std::string&)> strong_connect =
      [&](const std::string& v) {
        visit_index[v] = low_link[v] = next_index++;
        stack.push_back(v);
        on_stack.insert(v);
        for (const std::string& w : adjacency[v]) {
          if (visit_index.count(w) == 0) {
            strong_connect(w);
            low_link[v] = std::min(low_link[v], low_link[w]);
          } else if (on_stack.count(w) > 0) {
            low_link[v] = std::min(low_link[v], visit_index[w]);
          }
        }
        if (low_link[v] == visit_index[v]) {
          std::vector<std::string> component;
          while (true) {
            std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            component.push_back(std::move(w));
            if (component.back() == v) break;
          }
          std::sort(component.begin(), component.end());
          components.push_back(std::move(component));
        }
      };
  for (const auto& [node, targets] : adjacency) {
    (void)targets;
    if (visit_index.count(node) == 0) strong_connect(node);
  }
  std::sort(components.begin(), components.end());

  for (const std::vector<std::string>& component : components) {
    bool cyclic = component.size() > 1;
    if (!cyclic) {  // single node: cyclic iff it has a self-edge
      cyclic = tree.edges.count({component[0], component[0]}) > 0;
    }
    if (!cyclic) continue;
    const std::set<std::string> members(component.begin(), component.end());
    const LockOrderEdge* anchor = nullptr;
    std::string detail;
    for (const auto& [key, edge] : tree.edges) {
      if (members.count(key.first) == 0 || members.count(key.second) == 0) {
        continue;
      }
      if (anchor == nullptr) anchor = &edge;
      if (!detail.empty()) detail += "; ";
      detail += "'" + key.first + "' then '" + key.second + "' at " +
                edge.site;
    }
    if (anchor == nullptr) continue;
    std::string names;
    for (const std::string& name : component) {
      if (!names.empty()) names += ", ";
      names += "'" + name + "'";
    }
    EmitTree(lex_by_file, out,
             {anchor->file, anchor->line, anchor->col, "lock-order",
              "lock-order cycle (potential deadlock) among " + names + ": " +
                  detail +
                  "; acquire these mutexes in one global order everywhere, "
                  "or collapse them into one"});
  }
}

void CheckDeterminismTaint(
    const TreeIndex& tree,
    const std::map<std::string, const LexResult*>& lex_by_file,
    std::vector<Finding>* out) {
  const size_t n = tree.functions.size();
  // Reverse name-based call graph (callee index -> caller indices).
  std::vector<std::vector<size_t>> callers(n);
  for (size_t caller = 0; caller < n; ++caller) {
    std::set<size_t> seen;
    for (const CallSite& call : tree.functions[caller].calls) {
      if (StdVocabularyNames().count(call.callee) > 0) continue;
      const auto it = tree.by_name.find(call.callee);
      if (it == tree.by_name.end()) continue;
      for (size_t callee : it->second) {
        // Same exclusion the index applies to lock-order resolution: an
        // explicit-receiver call is on another object, so it does not
        // resolve back into the caller's own class.
        if (call.via_object &&
            tree.functions[callee].class_name ==
                tree.functions[caller].class_name) {
          continue;
        }
        if (callee != caller && seen.insert(callee).second) {
          callers[callee].push_back(caller);
        }
      }
    }
  }

  // BFS from taint origins up the caller graph; `next` records the step
  // toward the origin, so each flagged function carries its (shortest)
  // offending call chain. Sanctioned functions neither originate nor
  // propagate taint: calling a stopwatch is how timing is *supposed* to
  // happen.
  std::vector<int> next(n, -1);
  std::vector<char> tainted(n, 0);
  std::vector<size_t> queue;
  for (size_t i = 0; i < n; ++i) {
    if (!tree.functions[i].sanctioned && !tree.functions[i].nondet.empty()) {
      tainted[i] = 1;
      queue.push_back(i);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const size_t u = queue[head];
    for (size_t caller : callers[u]) {
      if (tainted[caller] != 0 || tree.functions[caller].sanctioned) continue;
      tainted[caller] = 1;
      next[caller] = static_cast<int>(u);
      queue.push_back(caller);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    // Origins themselves are the leaf chameleon-determinism rule's job.
    if (tainted[i] == 0 || next[i] < 0) continue;
    const FunctionInfo& fn = tree.functions[i];
    std::string chain = "'" + fn.qualified + "'";
    size_t cursor = i;
    while (next[cursor] >= 0) {
      cursor = static_cast<size_t>(next[cursor]);
      chain += " -> '" + tree.functions[cursor].qualified + "'";
    }
    const FunctionInfo& origin = tree.functions[cursor];
    const NondetUse& source = origin.nondet.front();
    EmitTree(lex_by_file, out,
             {fn.file, fn.line, fn.col, "determinism-taint",
              "'" + fn.qualified + "' transitively reaches nondeterminism "
              "source " + source.what + " (" + origin.file + ":" +
                  std::to_string(source.line) + ") via " + chain +
                  "; thread a seeded util::Rng through the call instead, or "
                  "allowlist the helper if timing is its purpose"});
  }
}

std::string ExpectedGuard(const std::string& path) {
  std::string rel = path;
  if (rel.rfind("./", 0) == 0) rel = rel.substr(2);
  if (rel.rfind("src/", 0) == 0) rel = rel.substr(4);
  std::string guard = "CHAMELEON_";
  for (char c : rel) {
    if (c == '.') break;  // drop the extension
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += "_H_";
  return guard;
}

std::string FormatFinding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ":" +
         std::to_string(finding.col) + ": [chameleon-" + finding.rule + "] " +
         finding.message;
}

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& source, const LexResult& lex,
                              const LintOptions& options) {
  std::vector<Finding> out;
  const ScopeMap scopes = ComputeScopeMap(lex.tokens);
  if (!options.IsDisabled("determinism")) {
    CheckDeterminism(path, lex, options, &out);
  }
  if (!options.IsDisabled("concurrency-hygiene")) {
    CheckConcurrencyHygiene(path, source, lex, scopes, &out);
  }
  if (!options.IsDisabled("header-hygiene")) {
    CheckHeaderHygiene(path, lex, scopes, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace chameleon_lint
