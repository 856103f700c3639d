#ifndef CHAMELEON_TOOLS_ANALYZER_INDEX_H_
#define CHAMELEON_TOOLS_ANALYZER_INDEX_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/analyzer/token.h"

namespace chameleon_lint {

// ---------------------------------------------------------------------------
// Shared lexical-scope machinery (used by the per-file rules and the
// cross-TU index so the two passes can never disagree about scoping).
// ---------------------------------------------------------------------------

/// What kind of construct a brace pair belongs to. Heuristic, not a
/// parse: the authoritative check is the fixture suite plus the
/// zero-findings run over the live tree.
enum class ScopeKind {
  kNamespace,    // namespace body (and file top level)
  kType,         // class/struct/union/enum body
  kFunction,     // function/lambda body or nested block
  kInitializer,  // braced initializer list
};

/// Per-token scope information, aligned with LexResult::tokens.
struct ScopeInfo {
  ScopeKind innermost = ScopeKind::kNamespace;
  bool in_function = false;  // true if any enclosing scope is a function
  int type_id = -1;          // innermost enclosing type, -1 = none
};

/// ComputeScopeMap output: per-token scope plus the interned names of
/// the types those scopes belong to.
struct ScopeMap {
  std::vector<ScopeInfo> info;          // aligned with tokens
  std::vector<std::string> type_names;  // indexed by ScopeInfo::type_id

  /// Name of the innermost type enclosing `token` ("" when none).
  const std::string& TypeName(size_t token) const;
};

ScopeMap ComputeScopeMap(const std::vector<Token>& tokens);

/// Index of the matching ")" for the "(" at `open`, or npos.
size_t MatchParen(const std::vector<Token>& tokens, size_t open);

/// match[i] = index of the brace matching the "{"/"}" at i (npos for
/// non-brace tokens and unbalanced braces).
std::vector<size_t> ComputeBraceMatch(const std::vector<Token>& tokens);

/// The annotation macro the lock-discipline rule keys off. Declared in
/// src/util/thread_annotations.h as a compiler no-op; to the analyzer a
/// member declared `T member_ CHAMELEON_GUARDED_BY(mu_);` may only be
/// touched while `mu_` is (lexically) held.
inline constexpr char kGuardedByMacro[] = "CHAMELEON_GUARDED_BY";

/// One lexical lock acquisition inside a function body:
/// `std::lock_guard<std::mutex> l(mu_);` and friends. The mutex is held
/// from `token` to the end of the enclosing brace scope (`scope_end`,
/// exclusive) — lock.unlock()/release() are invisible to the analyzer
/// and documented as a false-positive class.
struct LockAcquisition {
  std::string mutex;  // canonical id: "Class::mu_" in members, "mu" free
  size_t token = 0;   // index of the lock-class identifier token
  size_t scope_end = 0;  // one past the last token the lock covers
  int line = 0;
  int col = 0;
};

/// One `name(` call site inside a function body, with the mutexes
/// lexically held at that point (for interprocedural lock-order edges).
struct CallSite {
  std::string callee;  // simple name; resolution is name-based
  int line = 0;
  int col = 0;
  /// Called through `obj.` / `ptr->` on an explicit non-this receiver.
  /// Such calls never resolve to the caller's own class: the receiver is
  /// visibly a different object (`digest_.Quantile(q)` inside
  /// Histogram::Quantile must not resolve back to Histogram::Quantile).
  bool via_object = false;
  std::vector<std::string> held;  // canonical mutex ids, acquisition order
};

/// One direct nondeterminism source inside a function body (the same
/// patterns the leaf chameleon-determinism rule flags).
struct NondetUse {
  std::string what;  // e.g. "rand()", "std::random_device"
  int line = 0;
  int col = 0;
};

/// One function definition (a body was seen). Declarations without
/// bodies contribute nothing to the cross-TU graph.
struct FunctionInfo {
  std::string name;        // simple name
  std::string qualified;   // "Class::name" or "name"
  std::string class_name;  // enclosing/qualifying class; "" for free
  std::string file;        // repo-relative path
  int line = 0;
  int col = 0;
  bool is_const = false;     // const member function
  bool is_ctor_dtor = false; // constructor or destructor
  bool is_dtor = false;      // destructor (indexed under "~Name")
  bool sanctioned = false;   // defined in a determinism-allowlisted file
  size_t body_begin = 0;     // token index of the body '{'
  size_t body_end = 0;       // token index of the matching '}'
  std::vector<CallSite> calls;
  std::vector<NondetUse> nondet;
  std::vector<LockAcquisition> locks;
};

/// A member annotated CHAMELEON_GUARDED_BY in a class body.
struct GuardedMember {
  std::string class_name;
  std::string member;
  std::string mutex;  // simple name as written in the annotation
  std::string file;
  int line = 0;
};

/// Everything pass 1 extracts from one file beyond the raw lex.
struct FileIndex {
  std::vector<FunctionInfo> functions;  // in token order
  std::vector<GuardedMember> guarded;
};

/// Substring allowlist applied to nondeterminism *sources*: functions
/// defined in matching files are sanctioned — they are never taint
/// origins and calls to them do not propagate taint.
struct IndexOptions {
  std::vector<std::string> determinism_allowlist;
};

FileIndex BuildFileIndex(const std::string& path, const LexResult& lex,
                         const IndexOptions& options);

/// One lock-order edge: `from` was held when `to` was acquired (directly
/// or via a call into a function that may acquire `to`).
struct LockOrderEdge {
  std::string site;  // "file:line, in 'Qualified'" of the witness
  std::string file;  // witness file (for finding placement)
  int line = 0;
  int col = 0;
};

/// The merged cross-TU picture. Built serially from per-file indices in
/// file order, so its contents — and every finding derived from it —
/// are deterministic regardless of --jobs.
struct TreeIndex {
  /// class -> member -> mutex simple name.
  std::map<std::string, std::map<std::string, std::string>> guarded;
  /// class -> annotation site (for messages).
  std::vector<GuardedMember> guarded_decls;
  /// All function definitions, file order then token order.
  std::vector<FunctionInfo> functions;
  /// simple name -> indices into `functions`. Destructors are keyed
  /// "~Name" so a lexical call `Name(...)` resolves to constructors
  /// only (a dtor's lock acquisitions must not be imputed to
  /// construction sites).
  std::map<std::string, std::vector<size_t>> by_name;
  /// function index -> canonical mutexes it may acquire, transitively.
  std::vector<std::set<std::string>> may_acquire;
  /// (held, acquired) -> first witness site, in deterministic order.
  std::map<std::pair<std::string, std::string>, LockOrderEdge> edges;
};

/// Merges per-file indices (caller supplies them in file order), then
/// computes the name-based call graph, the may-acquire fixpoint, and the
/// lock-order edge set.
TreeIndex BuildTreeIndex(const std::vector<const FileIndex*>& files);

/// Names excluded from cross-TU call resolution because they collide
/// with std container/stream vocabulary the index cannot see (a
/// name-based graph would wire e.g. `queue_.size()` to every project
/// class that happens to define a `size()`). A documented
/// false-negative class (DESIGN.md §12).
const std::set<std::string>& StdVocabularyNames();

}  // namespace chameleon_lint

#endif  // CHAMELEON_TOOLS_ANALYZER_INDEX_H_
