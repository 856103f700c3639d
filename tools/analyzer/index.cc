#include "tools/analyzer/index.h"

#include <algorithm>

namespace chameleon_lint {
namespace {

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Classifies the brace at `open` given the statement window that leads
/// up to it (tokens since the previous ; { or } at the same nesting).
/// When the brace opens a type, `*type_name` receives the type's name
/// ("" for anonymous types).
ScopeKind ClassifyBrace(const std::vector<Token>& tokens, size_t open,
                        const ScopeInfo& parent, std::string* type_name) {
  type_name->clear();
  size_t begin = open;
  while (begin > 0) {
    const Token& t = tokens[begin - 1];
    if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) break;
    --begin;
  }
  if (begin == open) {  // empty window: bare block or element brace
    return parent.in_function ? ScopeKind::kFunction : ScopeKind::kInitializer;
  }
  bool has_class_key = false, has_paren_open = false, has_paren_close = false,
       has_assign = false;
  size_t class_key = 0;
  for (size_t i = begin; i < open; ++i) {
    const Token& t = tokens[i];
    if (IsIdent(t, "namespace")) return ScopeKind::kNamespace;
    if (IsIdent(t, "class") || IsIdent(t, "struct") || IsIdent(t, "union") ||
        IsIdent(t, "enum")) {
      if (!has_class_key) class_key = i;
      has_class_key = true;
    } else if (IsPunct(t, "(")) {
      has_paren_open = true;
    } else if (IsPunct(t, ")")) {
      has_paren_close = true;
    } else if (IsPunct(t, "=")) {
      has_assign = true;
    }
  }
  if (has_class_key && !has_paren_open) {
    // The type's name: first identifier after the class-key, skipping
    // attribute brackets and the `class` of `enum class`.
    int bracket_depth = 0;
    for (size_t i = class_key + 1; i < open; ++i) {
      const Token& t = tokens[i];
      if (IsPunct(t, "[")) ++bracket_depth;
      if (IsPunct(t, "]")) --bracket_depth;
      if (bracket_depth > 0 || t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "class" || t.text == "struct" || t.text == "final") {
        continue;
      }
      *type_name = t.text;
      break;
    }
    return ScopeKind::kType;
  }
  const Token& last = tokens[open - 1];
  if (IsPunct(last, ")") || IsPunct(last, "]") || IsIdent(last, "const") ||
      IsIdent(last, "noexcept") || IsIdent(last, "mutable") ||
      IsIdent(last, "override") || IsIdent(last, "final") ||
      IsIdent(last, "try") || IsIdent(last, "do") || IsIdent(last, "else")) {
    return ScopeKind::kFunction;
  }
  if (has_assign) return ScopeKind::kInitializer;
  if (has_paren_close) return ScopeKind::kFunction;
  if (parent.in_function) return ScopeKind::kFunction;
  return ScopeKind::kInitializer;
}

/// Matches the "<...>" starting at `open` (a "<" token); returns the
/// index of the closing ">" or npos. Tolerates ">>"-style nesting since
/// the lexer emits single-character angle tokens.
size_t MatchAngle(const std::vector<Token>& tokens, size_t open) {
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (IsPunct(tokens[i], "<")) ++depth;
    if (IsPunct(tokens[i], ">")) {
      if (--depth == 0) return i;
    }
    // A template argument list never crosses these.
    if (IsPunct(tokens[i], ";") || IsPunct(tokens[i], "{")) return std::string::npos;
  }
  return std::string::npos;
}

constexpr const char* kLockClasses[] = {"lock_guard", "unique_lock",
                                        "scoped_lock", "shared_lock"};

bool IsLockClass(const std::string& name) {
  for (const char* lock_class : kLockClasses) {
    if (name == lock_class) return true;
  }
  return false;
}

/// Extracts the mutex names from the argument list of a lock
/// declaration ("(" at `open`, matching ")" at `close`). Returns empty
/// when the declaration does not acquire (std::defer_lock).
std::vector<std::string> LockArgMutexes(const std::vector<Token>& tokens,
                                        size_t open, size_t close) {
  std::vector<std::string> mutexes;
  std::string last_ident;
  int depth = 0;
  bool deferred = false;
  auto flush_arg = [&] {
    if (!last_ident.empty()) mutexes.push_back(last_ident);
    last_ident.clear();
  };
  for (size_t i = open + 1; i < close; ++i) {
    const Token& t = tokens[i];
    if (IsPunct(t, "(") || IsPunct(t, "[") || IsPunct(t, "{")) ++depth;
    if (IsPunct(t, ")") || IsPunct(t, "]") || IsPunct(t, "}")) --depth;
    if (depth > 0) continue;
    if (IsPunct(t, ",")) {
      flush_arg();
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "defer_lock") deferred = true;
    if (t.text == "std" || t.text == "this" || t.text == "defer_lock" ||
        t.text == "adopt_lock" || t.text == "try_to_lock") {
      continue;
    }
    last_ident = t.text;  // keep the last identifier of the argument
  }
  flush_arg();
  if (deferred) mutexes.clear();
  return mutexes;
}

/// Statement-ish keywords that look like calls lexically.
bool IsCallKeyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",      "while",    "switch", "return", "sizeof",
      "catch",  "new",      "delete",   "throw",  "co_return",
      "co_yield", "co_await", "alignof", "decltype", "static_cast",
      "static_assert", "const_cast", "reinterpret_cast", "dynamic_cast",
      "typeid", "noexcept", "assert",
  };
  return kKeywords.count(name) > 0;
}

}  // namespace

const std::set<std::string>& StdVocabularyNames() {
  static const std::set<std::string> kNames = {
      "size",    "empty",   "front",   "back",   "begin",   "end",
      "clear",   "push_back", "pop_back", "pop_front", "push_front",
      "push",    "pop",     "top",     "append", "length",  "compare",
      "emplace_back", "emplace", "insert", "erase",  "find",    "count",
      "load",    "store",   "exchange", "fetch_add", "reset",  "release",
      "get",     "at",      "data",    "str",    "c_str",   "substr",
      "max",     "min",     "swap",    "wait",   "notify_one",
      "notify_all", "flush", "close",  "open",   "good",    "fail",
      "lock",    "unlock",  "try_lock", "value", "has_value", "resize",
      "reserve", "first",   "second",  "move",   "forward",
  };
  return kNames;
}

const std::string& ScopeMap::TypeName(size_t token) const {
  static const std::string kEmpty;
  if (token >= info.size()) return kEmpty;
  const int id = info[token].type_id;
  if (id < 0 || static_cast<size_t>(id) >= type_names.size()) return kEmpty;
  return type_names[id];
}

ScopeMap ComputeScopeMap(const std::vector<Token>& tokens) {
  ScopeMap out;
  out.info.resize(tokens.size());
  std::vector<ScopeInfo> stack;
  ScopeInfo current;  // top level behaves like namespace scope
  std::string type_name;
  for (size_t i = 0; i < tokens.size(); ++i) {
    out.info[i] = current;
    const Token& t = tokens[i];
    if (IsPunct(t, "{")) {
      const ScopeKind kind = ClassifyBrace(tokens, i, current, &type_name);
      stack.push_back(current);
      current.innermost = kind;
      current.in_function = current.in_function || kind == ScopeKind::kFunction;
      if (kind == ScopeKind::kType) {
        current.type_id = static_cast<int>(out.type_names.size());
        out.type_names.push_back(type_name);
      }
    } else if (IsPunct(t, "}")) {
      if (!stack.empty()) {
        current = stack.back();
        stack.pop_back();
      }
    }
  }
  return out;
}

size_t MatchParen(const std::vector<Token>& tokens, size_t open) {
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (IsPunct(tokens[i], "(")) ++depth;
    if (IsPunct(tokens[i], ")")) {
      if (--depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::vector<size_t> ComputeBraceMatch(const std::vector<Token>& tokens) {
  std::vector<size_t> match(tokens.size(), std::string::npos);
  std::vector<size_t> stack;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (IsPunct(tokens[i], "{")) {
      stack.push_back(i);
    } else if (IsPunct(tokens[i], "}") && !stack.empty()) {
      match[stack.back()] = i;
      match[i] = stack.back();
      stack.pop_back();
    }
  }
  return match;
}

namespace {

/// Lines suppressed for these rules drop the nondet source (a vetted
/// NOLINT on the leaf also clears transitive taint).
constexpr const char* kNondetSuppressionRules[] = {
    "chameleon-determinism", "chameleon-determinism-taint"};

/// Scans one function body for lock acquisitions, call sites (with the
/// lexically held mutex set), and direct nondeterminism sources.
void ScanBody(const std::vector<Token>& toks,
              const std::vector<size_t>& brace_match, const LexResult& lex,
              FunctionInfo* fn) {
  const size_t begin = fn->body_begin;
  const size_t end = fn->body_end;
  std::vector<size_t> open_braces = {begin};

  auto held_at = [&](size_t token) {
    std::vector<std::string> held;
    for (const LockAcquisition& lock : fn->locks) {
      if (lock.token < token && token < lock.scope_end) {
        held.push_back(lock.mutex);
      }
    }
    return held;
  };
  auto nondet_suppressed = [&](int line) {
    for (const char* rule : kNondetSuppressionRules) {
      if (IsSuppressed(lex, line, rule)) return true;
    }
    return false;
  };

  for (size_t i = begin + 1; i < end; ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "{")) {
      open_braces.push_back(i);
      continue;
    }
    if (IsPunct(t, "}")) {
      if (open_braces.size() > 1) open_braces.pop_back();
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool member_access =
        i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));

    // Lock declaration: [std::]lock_guard[<...>] name(mu[, mu2...]);
    if (IsLockClass(t.text) && !member_access) {
      size_t k = i + 1;
      if (k < end && IsPunct(toks[k], "<")) {
        const size_t close_angle = MatchAngle(toks, k);
        if (close_angle == std::string::npos) continue;
        k = close_angle + 1;
      }
      if (k >= end || toks[k].kind != TokenKind::kIdentifier) continue;
      ++k;  // the lock variable's name
      if (k >= end || !(IsPunct(toks[k], "(") || IsPunct(toks[k], "{"))) {
        continue;
      }
      const size_t close = IsPunct(toks[k], "(")
                               ? MatchParen(toks, k)
                               : brace_match[k];
      if (close == std::string::npos || close > end) continue;
      const size_t scope_end = brace_match[open_braces.back()];
      for (std::string mutex : LockArgMutexes(toks, k, close)) {
        // Bare identifiers in member functions mean a member (or a
        // local shadowing one — a documented imprecision).
        if (!fn->class_name.empty()) mutex = fn->class_name + "::" + mutex;
        fn->locks.push_back({std::move(mutex), i,
                             scope_end == std::string::npos ? end : scope_end,
                             t.line, t.col});
      }
      i = close;  // the variable name and args are not call sites
      continue;
    }

    const bool called = i + 1 < end && IsPunct(toks[i + 1], "(");

    // Direct nondeterminism sources — the same shapes the leaf
    // chameleon-determinism rule flags.
    if (!member_access && !nondet_suppressed(t.line)) {
      if ((t.text == "rand" || t.text == "srand") && called) {
        fn->nondet.push_back({t.text + "()", t.line, t.col});
      } else if (t.text == "random_device") {
        fn->nondet.push_back({"std::random_device", t.line, t.col});
      } else if (t.text == "time" && called && i + 3 < end &&
                 (IsIdent(toks[i + 2], "nullptr") ||
                  IsIdent(toks[i + 2], "NULL") || toks[i + 2].text == "0") &&
                 IsPunct(toks[i + 3], ")")) {
        fn->nondet.push_back({"time(nullptr)", t.line, t.col});
      }
    }
    if (t.text == "now" && called && i > 0 && IsPunct(toks[i - 1], "::") &&
        i + 2 < end && IsPunct(toks[i + 2], ")") &&
        !nondet_suppressed(t.line)) {
      fn->nondet.push_back({"wall-clock ::now()", t.line, t.col});
    }

    // Call site.
    if (called && !IsCallKeyword(t.text) && t.text != kGuardedByMacro) {
      const bool via_object =
          member_access && !(i >= 2 && IsIdent(toks[i - 2], "this"));
      fn->calls.push_back({t.text, t.line, t.col, via_object, held_at(i)});
    }
  }
}

}  // namespace

FileIndex BuildFileIndex(const std::string& path, const LexResult& lex,
                         const IndexOptions& options) {
  FileIndex out;
  const std::vector<Token>& toks = lex.tokens;
  const ScopeMap scopes = ComputeScopeMap(toks);
  const std::vector<size_t> brace_match = ComputeBraceMatch(toks);

  bool sanctioned = false;
  for (const std::string& allowed : options.determinism_allowlist) {
    if (Contains(path, allowed)) sanctioned = true;
  }

  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier) continue;

    // Guarded-member annotation: `T member_ CHAMELEON_GUARDED_BY(mu);`
    if (toks[i].text == kGuardedByMacro) {
      if (i >= 1 && i + 3 < toks.size() && IsPunct(toks[i + 1], "(") &&
          toks[i + 2].kind == TokenKind::kIdentifier &&
          IsPunct(toks[i + 3], ")") &&
          toks[i - 1].kind == TokenKind::kIdentifier &&
          scopes.info[i].innermost == ScopeKind::kType &&
          !scopes.info[i].in_function) {
        const std::string& class_name = scopes.TypeName(i);
        if (!class_name.empty()) {
          out.guarded.push_back({class_name, toks[i - 1].text,
                                 toks[i + 2].text, path, toks[i].line});
        }
      }
      continue;
    }

    // Function definition: ident "(" at namespace/type scope with a
    // body. Declarations (";", "= default", ...) are skipped.
    if (!IsPunct(toks[i + 1], "(")) continue;
    const ScopeInfo& scope = scopes.info[i];
    if (scope.in_function || scope.innermost == ScopeKind::kInitializer) {
      continue;
    }
    const std::string& name = toks[i].text;
    if (name == "operator" || (i > 0 && IsIdent(toks[i - 1], "operator"))) {
      continue;
    }
    const size_t close = MatchParen(toks, i + 1);
    if (close == std::string::npos) continue;

    // Scan from the parameter list's ")" to the body "{" (definition)
    // or a declaration terminator.
    bool is_const = false;
    bool in_init_list = false;
    size_t body = std::string::npos;
    for (size_t j = close + 1; j < toks.size();) {
      const Token& t = toks[j];
      if (IsPunct(t, ";") || IsPunct(t, "=") || IsPunct(t, ",")) break;
      if (IsPunct(t, "(")) {  // noexcept(...), initializer args
        const size_t inner = MatchParen(toks, j);
        if (inner == std::string::npos) break;
        j = inner + 1;
        continue;
      }
      if (IsPunct(t, ":") && !IsPunct(toks[j - 1], ":") &&
          (j + 1 >= toks.size() || !IsPunct(toks[j + 1], ":"))) {
        in_init_list = true;
        ++j;
        continue;
      }
      if (IsPunct(t, "{")) {
        // In a ctor init list, `member{...}` braces follow an identifier
        // or a closing template ">"; the body brace does not.
        if (in_init_list && j > 0 &&
            (toks[j - 1].kind == TokenKind::kIdentifier ||
             IsPunct(toks[j - 1], ">"))) {
          const size_t inner = brace_match[j];
          if (inner == std::string::npos) break;
          j = inner + 1;
          continue;
        }
        body = j;
        break;
      }
      if (IsIdent(t, "const")) is_const = true;
      ++j;
    }
    if (body == std::string::npos || brace_match[body] == std::string::npos) {
      continue;
    }

    // Qualified-name prefix (Class::Name) and the enclosing class.
    size_t head = i;
    std::string class_name;
    if (head >= 2 && IsPunct(toks[head - 1], "::") &&
        toks[head - 2].kind == TokenKind::kIdentifier) {
      class_name = toks[head - 2].text;
    } else {
      class_name = scopes.TypeName(i);
    }
    const bool is_dtor = i > 0 && IsPunct(toks[i - 1], "~");
    const bool is_ctor = !class_name.empty() && name == class_name;

    FunctionInfo fn;
    fn.name = name;
    fn.class_name = class_name;
    fn.qualified = class_name.empty() ? name : class_name + "::" + name;
    if (is_dtor) fn.qualified = class_name + "::~" + name;
    fn.file = path;
    fn.line = toks[i].line;
    fn.col = toks[i].col;
    fn.is_const = is_const;
    fn.is_ctor_dtor = is_ctor || is_dtor;
    fn.is_dtor = is_dtor;
    fn.sanctioned = sanctioned;
    fn.body_begin = body;
    fn.body_end = brace_match[body];
    ScanBody(toks, brace_match, lex, &fn);
    out.functions.push_back(std::move(fn));
    i = body;  // resume after the signature; nested defs cannot start here
  }
  return out;
}

TreeIndex BuildTreeIndex(const std::vector<const FileIndex*>& files) {
  TreeIndex tree;
  for (const FileIndex* file : files) {
    for (const GuardedMember& g : file->guarded) {
      auto& members = tree.guarded[g.class_name];
      if (members.emplace(g.member, g.mutex).second) {
        tree.guarded_decls.push_back(g);
      }
    }
    for (const FunctionInfo& fn : file->functions) {
      const std::string key = fn.is_dtor ? "~" + fn.name : fn.name;
      tree.by_name[key].push_back(tree.functions.size());
      tree.functions.push_back(fn);
    }
  }

  // May-acquire fixpoint over the name-based call graph. Calls through
  // std-vocabulary names are excluded (see StdVocabularyNames).
  const size_t n = tree.functions.size();
  tree.may_acquire.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (const LockAcquisition& lock : tree.functions[i].locks) {
      tree.may_acquire[i].insert(lock.mutex);
    }
  }
  const auto resolves_to = [&tree](const CallSite& call,
                                   const FunctionInfo& caller,
                                   size_t callee) {
    // An explicit-receiver call is visibly on another object; name-based
    // resolution back into the caller's own class would manufacture
    // self-deadlocks out of delegation (digest_.Quantile inside
    // Histogram::Quantile).
    return !(call.via_object &&
             tree.functions[callee].class_name == caller.class_name);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      for (const CallSite& call : tree.functions[i].calls) {
        if (StdVocabularyNames().count(call.callee) > 0) continue;
        const auto it = tree.by_name.find(call.callee);
        if (it == tree.by_name.end()) continue;
        for (size_t callee : it->second) {
          if (!resolves_to(call, tree.functions[i], callee)) continue;
          for (const std::string& mutex : tree.may_acquire[callee]) {
            if (tree.may_acquire[i].insert(mutex).second) changed = true;
          }
        }
      }
    }
  }

  // Lock-order edges: direct (B acquired while A held) and via calls
  // into functions that may acquire. First witness wins; functions are
  // visited in file order, so the edge set is deterministic.
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const FunctionInfo& fn, int line, int col) {
    const auto key = std::make_pair(from, to);
    if (tree.edges.count(key) > 0) return;
    LockOrderEdge edge;
    edge.site = fn.file + ":" + std::to_string(line) + ", in '" +
                fn.qualified + "'";
    edge.file = fn.file;
    edge.line = line;
    edge.col = col;
    tree.edges.emplace(key, std::move(edge));
  };
  for (const FunctionInfo& fn : tree.functions) {
    for (const LockAcquisition& lock : fn.locks) {
      for (const LockAcquisition& held : fn.locks) {
        // Same-mutex re-acquisition yields a self-edge: an immediate
        // deadlock with std::mutex, reported as a one-node cycle.
        if (held.token < lock.token && lock.token < held.scope_end) {
          add_edge(held.mutex, lock.mutex, fn, lock.line, lock.col);
        }
      }
    }
    for (const CallSite& call : fn.calls) {
      if (call.held.empty()) continue;
      if (StdVocabularyNames().count(call.callee) > 0) continue;
      const auto it = tree.by_name.find(call.callee);
      if (it == tree.by_name.end()) continue;
      std::set<std::string> targets;
      for (size_t callee : it->second) {
        if (!resolves_to(call, fn, callee)) continue;
        targets.insert(tree.may_acquire[callee].begin(),
                       tree.may_acquire[callee].end());
      }
      for (const std::string& held : call.held) {
        for (const std::string& target : targets) {
          add_edge(held, target, fn, call.line, call.col);
        }
      }
    }
  }
  return tree;
}

}  // namespace chameleon_lint
