// Fixture tests for the chameleon-lint rule engine. Each rule gets a
// positive case, a NOLINT-suppressed case, and a clean case; violations
// live inside raw strings so the linter's own pass over this file (the
// chameleon_lint_test ctest) sees nothing.

#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tools/analyzer/engine.h"
#include "tools/analyzer/rules.h"
#include "tools/analyzer/sarif.h"
#include "tools/analyzer/token.h"

namespace chameleon_lint {
namespace {

std::vector<Finding> LintSource(const std::string& path,
                                const std::string& source,
                                const LintOptions& options = {}) {
  return LintFile(path, source, Lex(source), options);
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  int count = 0;
  for (const Finding& f : findings) count += f.rule == rule;
  return count;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, SkipsCommentsStringsAndCharLiterals) {
  const LexResult lex = Lex(R"fixture(
// rand() in a comment
/* srand(1) in a block comment */
const char* s = "rand()";
char c = 'r';
int separated = 1'000'000;
)fixture");
  for (const Token& t : lex.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "srand");
  }
  // The digit-separated number is one token.
  bool found = false;
  for (const Token& t : lex.tokens) found |= t.text == "1'000'000";
  EXPECT_TRUE(found);
}

TEST(LexerTest, RawStringsAreOpaque) {
  const LexResult lex = Lex("auto s = R\"(std::random_device rd;)\";");
  for (const Token& t : lex.tokens) EXPECT_NE(t.text, "random_device");
}

TEST(LexerTest, FoldsPreprocessorContinuations) {
  const LexResult lex = Lex("#define MACRO(x) \\\n  do_thing(x)\nint y;");
  ASSERT_EQ(lex.directives.size(), 1u);
  EXPECT_EQ(lex.directives[0].line, 1);
  // The macro body never reaches the token stream.
  for (const Token& t : lex.tokens) EXPECT_NE(t.text, "do_thing");
}

TEST(LexerTest, NolintParsing) {
  const LexResult lex = Lex(
      "int a;  // NOLINT\n"
      "int b;  // NOLINT(chameleon-determinism, chameleon-lock-order)\n"
      "// NOLINTNEXTLINE(chameleon-determinism)\n"
      "int c;\n");
  EXPECT_TRUE(IsSuppressed(lex, 1, "chameleon-anything"));
  EXPECT_TRUE(IsSuppressed(lex, 2, "chameleon-determinism"));
  EXPECT_TRUE(IsSuppressed(lex, 2, "chameleon-lock-order"));
  EXPECT_FALSE(IsSuppressed(lex, 2, "chameleon-header-hygiene"));
  EXPECT_TRUE(IsSuppressed(lex, 4, "chameleon-determinism"));
  EXPECT_FALSE(IsSuppressed(lex, 3, "chameleon-determinism"));
}

// ---------------------------------------------------------------------------
// chameleon-determinism
// ---------------------------------------------------------------------------

TEST(DeterminismTest, FlagsHiddenEntropySources) {
  const auto findings = LintSource("src/a.cc", R"(
void Seeds() {
  int r = rand();
  srand(42);
  std::random_device rd;
  std::mt19937 gen(time(nullptr));
  auto t = std::chrono::steady_clock::now();
}
)");
  EXPECT_EQ(CountRule(findings, "determinism"), 5);
}

TEST(DeterminismTest, AllowlistedPathsAreExempt) {
  const std::string source = R"(
void Tick() { auto t = std::chrono::steady_clock::now(); }
)";
  EXPECT_EQ(CountRule(LintSource("src/util/stopwatch.cc", source), "determinism"), 0);
  EXPECT_EQ(CountRule(LintSource("bench/bench_micro_x.cc", source), "determinism"),
            0);
  EXPECT_EQ(CountRule(LintSource("src/core/chameleon.cc", source), "determinism"), 1);
}

TEST(DeterminismTest, MemberFunctionsNamedLikeBannedOnesAreClean) {
  const auto findings = LintSource("src/a.cc", R"(
void Caller(Clock* clock, Rng* gen) {
  auto t = clock->now();
  int r = gen->rand();
  auto d = obj.time(0);
}
)");
  EXPECT_EQ(CountRule(findings, "determinism"), 0);
}

TEST(DeterminismTest, NolintSuppresses) {
  const auto findings = LintSource("src/a.cc", R"(
void Seeds() {
  srand(42);  // NOLINT(chameleon-determinism)
}
)");
  EXPECT_EQ(CountRule(findings, "determinism"), 0);
}

// ---------------------------------------------------------------------------
// chameleon-concurrency-hygiene
// ---------------------------------------------------------------------------

TEST(ConcurrencyHygieneTest, FlagsMutableFunctionLocalStatics) {
  const auto findings = LintSource("src/a.cc", R"(
int Counter() {
  static int calls = 0;
  return ++calls;
}
)");
  EXPECT_EQ(CountRule(findings, "concurrency-hygiene"), 1);
}

TEST(ConcurrencyHygieneTest, ConstStaticsAndTestFilesAreClean) {
  const std::string source = R"(
double Lookup(int i) {
  static const double kTable[] = {1.0, 2.0};
  static constexpr int kSize = 2;
  return kTable[i % kSize];
}
)";
  EXPECT_EQ(CountRule(LintSource("src/a.cc", source), "concurrency-hygiene"), 0);
  const std::string mutable_static = R"(
int Counter() {
  static int calls = 0;
  return ++calls;
}
)";
  EXPECT_EQ(CountRule(LintSource("tests/a_test.cc", mutable_static),
                      "concurrency-hygiene"),
            0);
}

TEST(ConcurrencyHygieneTest, MutableMembersNeedSynchronizationWhenDocumented) {
  const std::string unsynchronized = R"(
/// This cache is thread-safe.
class Cache {
 private:
  mutable int hits_ = 0;
};
)";
  EXPECT_EQ(CountRule(LintSource("src/cache.h", unsynchronized),
                      "concurrency-hygiene"),
            1);
  const std::string synchronized = R"(
/// This cache is thread-safe.
class Cache {
 private:
  mutable std::atomic<int> hits_{0};
  mutable std::mutex mu_;
};
)";
  EXPECT_EQ(
      CountRule(LintSource("src/cache.h", synchronized), "concurrency-hygiene"), 0);
  const std::string undocumented = R"(
class Cache {
 private:
  mutable int hits_ = 0;
};
)";
  EXPECT_EQ(
      CountRule(LintSource("src/cache.h", undocumented), "concurrency-hygiene"), 0);
}

// ---------------------------------------------------------------------------
// chameleon-header-hygiene
// ---------------------------------------------------------------------------

TEST(HeaderHygieneTest, ExpectedGuardFollowsPathConvention) {
  EXPECT_EQ(ExpectedGuard("src/util/status.h"), "CHAMELEON_UTIL_STATUS_H_");
  EXPECT_EQ(ExpectedGuard("tools/analyzer/token.h"),
            "CHAMELEON_TOOLS_ANALYZER_TOKEN_H_");
  EXPECT_EQ(ExpectedGuard("src/data/schema.h"), "CHAMELEON_DATA_SCHEMA_H_");
}

TEST(HeaderHygieneTest, FlagsWrongOrMissingGuard) {
  EXPECT_EQ(CountRule(LintSource("src/a/b.h",
                          "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n"),
                      "header-hygiene"),
            1);
  EXPECT_EQ(CountRule(LintSource("src/a/b.h", "#pragma once\nint x;\n"),
                      "header-hygiene"),
            1);
  EXPECT_EQ(CountRule(LintSource("src/a/b.h",
                          "#ifndef CHAMELEON_A_B_H_\n"
                          "#define CHAMELEON_A_B_H_\n"
                          "#endif  // CHAMELEON_A_B_H_\n"),
                      "header-hygiene"),
            0);
}

TEST(HeaderHygieneTest, FlagsUsingNamespaceAtNamespaceScope) {
  const std::string bad =
      "#ifndef CHAMELEON_A_B_H_\n#define CHAMELEON_A_B_H_\n"
      "namespace a {\nusing namespace std;\n}\n#endif\n";
  EXPECT_EQ(CountRule(LintSource("src/a/b.h", bad), "header-hygiene"), 1);
  // Inside a function body it is local and tolerated.
  const std::string scoped =
      "#ifndef CHAMELEON_A_B_H_\n#define CHAMELEON_A_B_H_\n"
      "inline void f() {\nusing namespace std;\n}\n#endif\n";
  EXPECT_EQ(CountRule(LintSource("src/a/b.h", scoped), "header-hygiene"), 0);
  // .cc files may use it at file scope (project style tolerates that).
  EXPECT_EQ(CountRule(LintSource("src/a/b.cc", "using namespace std;\n"),
                      "header-hygiene"),
            0);
}

TEST(HeaderHygieneTest, SelfContainednessRequiresDirectIncludes) {
  const std::string missing =
      "#ifndef CHAMELEON_A_B_H_\n#define CHAMELEON_A_B_H_\n"
      "inline std::string Name() { return {}; }\n#endif\n";
  EXPECT_EQ(CountRule(LintSource("src/a/b.h", missing), "header-hygiene"), 1);
  const std::string direct =
      "#ifndef CHAMELEON_A_B_H_\n#define CHAMELEON_A_B_H_\n"
      "#include <string>\n"
      "inline std::string Name() { return {}; }\n#endif\n";
  EXPECT_EQ(CountRule(LintSource("src/a/b.h", direct), "header-hygiene"), 0);
}

// ---------------------------------------------------------------------------
// Output format
// ---------------------------------------------------------------------------

TEST(OutputTest, FormatIsMachineFriendly) {
  const Finding finding{"src/a.cc", 12, 5, "determinism", "call to rand()"};
  EXPECT_EQ(FormatFinding(finding),
            "src/a.cc:12:5: [chameleon-determinism] call to rand()");
}

TEST(OutputTest, RuleListIsStable) {
  const auto& rules = Rules();
  ASSERT_EQ(rules.size(), 6u);
  EXPECT_STREQ(rules[0].name, "determinism");
  EXPECT_STREQ(rules[1].name, "concurrency-hygiene");
  EXPECT_STREQ(rules[2].name, "header-hygiene");
  EXPECT_STREQ(rules[3].name, "lock-discipline");
  EXPECT_STREQ(rules[4].name, "lock-order");
  EXPECT_STREQ(rules[5].name, "determinism-taint");
}

// ---------------------------------------------------------------------------
// Lexer: raw-string prefixes and comment-relative NOLINT placement
// ---------------------------------------------------------------------------

TEST(LexerTest, AllRawStringPrefixesAreOpaque) {
  // Every encoding prefix C++ allows in front of R"(...)" must leave the
  // raw string's contents un-tokenized — including UR, which the lexer
  // historically missed.
  const LexResult lex = Lex(
      "auto a = R\"(rand())\";\n"
      "auto b = u8R\"(rand())\";\n"
      "auto c = uR\"(rand())\";\n"
      "auto d = UR\"(rand())\";\n"
      "auto e = LR\"(rand())\";\n");
  for (const Token& t : lex.tokens) EXPECT_NE(t.text, "rand");
}

TEST(LexerTest, RawStringDelimiterIsRespected) {
  // A ")" inside the raw string must not close it when a custom
  // delimiter is in play.
  const LexResult lex = Lex("auto s = R\"x(rand() )\" still raw )x\"; int z;\n");
  for (const Token& t : lex.tokens) EXPECT_NE(t.text, "rand");
  bool found_z = false;
  for (const Token& t : lex.tokens) found_z |= t.text == "z";
  EXPECT_TRUE(found_z);
}

TEST(LexerTest, DigitSeparatorsStayOneToken) {
  const LexResult lex = Lex("long n = 1'000'000; int m = 0x1F'FF;\n");
  bool big = false, hex = false;
  for (const Token& t : lex.tokens) {
    big |= t.text == "1'000'000";
    hex |= t.text == "0x1F'FF";
  }
  EXPECT_TRUE(big);
  EXPECT_TRUE(hex);
}

TEST(LexerTest, NolintInsideMultiLineBlockCommentTargetsItsOwnLine) {
  // The NOLINT is written on the second line of the block comment; it
  // must suppress that line, not the line the comment started on.
  const LexResult lex = Lex(
      "int a;\n"
      "/* explanation\n"
      "   NOLINT(chameleon-determinism) */ int b;\n");
  EXPECT_FALSE(IsSuppressed(lex, 2, "chameleon-determinism"));
  EXPECT_TRUE(IsSuppressed(lex, 3, "chameleon-determinism"));
}

// ---------------------------------------------------------------------------
// Cross-TU engine fixtures. Violations live inside raw strings; paths
// are synthetic. Analyze() drives the same three-pass engine the CLI
// uses, so these double as determinism fixtures (jobs=1 vs jobs=4).
// ---------------------------------------------------------------------------

EngineResult Analyze(std::vector<SourceFile> files, int jobs = 1,
                     EngineOptions options = {}) {
  options.jobs = jobs;
  return AnalyzeSources(std::move(files), options);
}

// A header declaring a guarded member. The annotation lives here; the
// method bodies live in a separate "TU" to exercise the cross-TU merge.
constexpr char kCounterHeader[] = R"fixture(
#ifndef CHAMELEON_W_COUNTER_H_
#define CHAMELEON_W_COUNTER_H_
#include <mutex>
#include "src/util/thread_annotations.h"
class Counter {
 public:
  void Add(long delta);
  long Read() const;
 private:
  mutable std::mutex mutex_;
  std::mutex other_mutex_;
  long value_ CHAMELEON_GUARDED_BY(mutex_) = 0;
};
#endif  // CHAMELEON_W_COUNTER_H_
)fixture";

TEST(LockDisciplineTest, AccessUnderTheNamedMutexIsClean) {
  const EngineResult result = Analyze(
      {{"src/w/counter.h", kCounterHeader},
       {"src/w/counter.cc", R"fixture(
#include "src/w/counter.h"
void Counter::Add(long delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  value_ += delta;
}
)fixture"}});
  EXPECT_EQ(CountRule(result.findings, "lock-discipline"), 0);
}

TEST(LockDisciplineTest, AccessWithoutTheLockIsFlagged) {
  const EngineResult result = Analyze(
      {{"src/w/counter.h", kCounterHeader},
       {"src/w/counter.cc", R"fixture(
#include "src/w/counter.h"
void Counter::Add(long delta) {
  value_ += delta;
}
)fixture"}});
  ASSERT_EQ(CountRule(result.findings, "lock-discipline"), 1);
  EXPECT_NE(result.findings[0].message.find("'value_'"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("CHAMELEON_GUARDED_BY(mutex_)"),
            std::string::npos);
}

TEST(LockDisciplineTest, HoldingTheWrongMutexIsFlagged) {
  const EngineResult result = Analyze(
      {{"src/w/counter.h", kCounterHeader},
       {"src/w/counter.cc", R"fixture(
#include "src/w/counter.h"
void Counter::Add(long delta) {
  std::lock_guard<std::mutex> lock(other_mutex_);
  value_ += delta;
}
)fixture"}});
  ASSERT_EQ(CountRule(result.findings, "lock-discipline"), 1);
  // The message names what *was* held so the fix is obvious.
  EXPECT_NE(result.findings[0].message.find("other_mutex_"),
            std::string::npos);
}

TEST(LockDisciplineTest, ConstMemberReadsAreExempt) {
  const EngineResult result = Analyze(
      {{"src/w/counter.h", kCounterHeader},
       {"src/w/counter.cc", R"fixture(
#include "src/w/counter.h"
long Counter::Read() const {
  return value_;
}
)fixture"}});
  EXPECT_EQ(CountRule(result.findings, "lock-discipline"), 0);
}

TEST(LockOrderTest, InvertedAcquisitionOrderAcrossTUsIsACycle) {
  // TU one takes a then b; TU two takes b then a. Neither file alone has
  // a cycle — only the tree-wide graph does.
  const EngineResult result = Analyze(
      {{"src/w/one.cc", R"fixture(
#include <mutex>
extern std::mutex mu_a;
extern std::mutex mu_b;
void TakeAThenB() {
  std::lock_guard<std::mutex> la(mu_a);
  std::lock_guard<std::mutex> lb(mu_b);
}
)fixture"},
       {"src/w/two.cc", R"fixture(
#include <mutex>
extern std::mutex mu_a;
extern std::mutex mu_b;
void TakeBThenA() {
  std::lock_guard<std::mutex> lb(mu_b);
  std::lock_guard<std::mutex> la(mu_a);
}
)fixture"}});
  EXPECT_GE(CountRule(result.findings, "lock-order"), 1);
  // Dropping either file breaks the cycle.
  const EngineResult one_only = Analyze({{"src/w/one.cc", R"fixture(
#include <mutex>
extern std::mutex mu_a;
extern std::mutex mu_b;
void TakeAThenB() {
  std::lock_guard<std::mutex> la(mu_a);
  std::lock_guard<std::mutex> lb(mu_b);
}
)fixture"}});
  EXPECT_EQ(CountRule(one_only.findings, "lock-order"), 0);
}

TEST(LockOrderTest, CycleThroughACallIsDetected) {
  // f holds mu_a and calls g, which acquires mu_b; h nests them the
  // other way. The a->b edge only exists interprocedurally.
  const EngineResult result = Analyze(
      {{"src/w/calls.cc", R"fixture(
#include <mutex>
extern std::mutex mu_a;
extern std::mutex mu_b;
void AcquireB() { std::lock_guard<std::mutex> l(mu_b); }
void HoldAThenCall() {
  std::lock_guard<std::mutex> l(mu_a);
  AcquireB();
}
void NestBOverA() {
  std::lock_guard<std::mutex> lb(mu_b);
  std::lock_guard<std::mutex> la(mu_a);
}
)fixture"}});
  EXPECT_GE(CountRule(result.findings, "lock-order"), 1);
}

TEST(DeterminismTaintTest, OneHopCallerOfAnEntropyLeafIsFlagged) {
  const EngineResult result = Analyze(
      {{"src/w/seed.cc", R"fixture(
int Entropy() { return rand(); }
int UsesEntropy() { return Entropy(); }
)fixture"}});
  // The leaf is the determinism rule's finding; the caller is taint's.
  EXPECT_EQ(CountRule(result.findings, "determinism"), 1);
  ASSERT_EQ(CountRule(result.findings, "determinism-taint"), 1);
  const Finding* taint = nullptr;
  for (const Finding& f : result.findings)
    if (f.rule == "determinism-taint") taint = &f;
  ASSERT_NE(taint, nullptr);
  EXPECT_NE(taint->message.find("UsesEntropy"), std::string::npos);
  EXPECT_NE(taint->message.find("rand()"), std::string::npos);
}

TEST(DeterminismTaintTest, TaintPropagatesTwoHops) {
  const EngineResult result = Analyze(
      {{"src/w/a.cc", "int Entropy() { return rand(); }\n"},
       {"src/w/b.cc", "int Entropy();\nint Middle() { return Entropy(); }\n"},
       {"src/w/c.cc", "int Middle();\nint Outer() { return Middle(); }\n"}});
  EXPECT_EQ(CountRule(result.findings, "determinism-taint"), 2);
}

TEST(DeterminismTaintTest, SanctionedLeavesDoNotTaintCallers) {
  // util/stopwatch is allowlisted: its wall-clock reads are the point,
  // and callers of it stay deterministic-by-contract.
  const EngineResult result = Analyze(
      {{"src/util/stopwatch.cc",
        "double NowSeconds() { return clock(); }\n"},
       {"src/w/user.cc",
        "double NowSeconds();\ndouble Elapsed() { return NowSeconds(); }\n"}});
  EXPECT_EQ(CountRule(result.findings, "determinism-taint"), 0);
}

TEST(DeterminismTaintTest, NolintOnTheLeafClearsTransitiveTaint) {
  const EngineResult result = Analyze(
      {{"src/w/seed.cc", R"fixture(
int Entropy() {
  return rand();  // NOLINT(chameleon-determinism) vetted: test-only shim
}
int UsesEntropy() { return Entropy(); }
)fixture"}});
  EXPECT_EQ(CountRule(result.findings, "determinism"), 0);
  EXPECT_EQ(CountRule(result.findings, "determinism-taint"), 0);
}

// ---------------------------------------------------------------------------
// Engine determinism, baselines, SARIF, --fix
// ---------------------------------------------------------------------------

std::vector<SourceFile> MixedFixtureTree() {
  return {
      {"src/w/counter.h", kCounterHeader},
      {"src/w/counter.cc", R"fixture(
#include "src/w/counter.h"
void Counter::Add(long delta) { value_ += delta; }
)fixture"},
      {"src/w/seed.cc", R"fixture(
int Entropy() { return rand(); }
int UsesEntropy() { return Entropy(); }
)fixture"},
      {"src/w/order.cc", R"fixture(
#include <mutex>
extern std::mutex mu_a;
extern std::mutex mu_b;
void TakeAThenB() {
  std::lock_guard<std::mutex> la(mu_a);
  std::lock_guard<std::mutex> lb(mu_b);
}
void TakeBThenA() {
  std::lock_guard<std::mutex> lb(mu_b);
  std::lock_guard<std::mutex> la(mu_a);
}
)fixture"},
  };
}

TEST(EngineTest, OutputIsByteIdenticalAcrossJobCounts) {
  const EngineResult serial = Analyze(MixedFixtureTree(), 1);
  const EngineResult parallel = Analyze(MixedFixtureTree(), 4);
  ASSERT_EQ(serial.findings.size(), parallel.findings.size());
  for (size_t i = 0; i < serial.findings.size(); ++i) {
    EXPECT_EQ(FormatFinding(serial.findings[i]),
              FormatFinding(parallel.findings[i]));
  }
  EXPECT_EQ(ToSarif(serial.findings), ToSarif(parallel.findings));
}

TEST(EngineTest, InputOrderDoesNotMatter) {
  std::vector<SourceFile> forward = MixedFixtureTree();
  std::vector<SourceFile> reversed(forward.rbegin(), forward.rend());
  const EngineResult a = Analyze(std::move(forward), 2);
  const EngineResult b = Analyze(std::move(reversed), 2);
  EXPECT_EQ(ToSarif(a.findings), ToSarif(b.findings));
}

TEST(EngineTest, BaselineRoundTripSuppressesEverything) {
  const EngineResult unfiltered = Analyze(MixedFixtureTree());
  ASSERT_FALSE(unfiltered.findings.empty());
  const std::string text = FormatBaseline(unfiltered.findings);
  EngineOptions options;
  options.baseline = ParseBaseline(text);
  const EngineResult filtered = Analyze(MixedFixtureTree(), 1, options);
  EXPECT_TRUE(filtered.findings.empty());
  EXPECT_EQ(filtered.baseline_suppressed, unfiltered.findings.size());
}

TEST(EngineTest, BaselineKeysIgnoreLineNumbers) {
  const Finding moved{"src/a.cc", 99, 1, "determinism", "call to rand()"};
  const Finding original{"src/a.cc", 12, 5, "determinism", "call to rand()"};
  EXPECT_EQ(BaselineKey(moved), BaselineKey(original));
}

TEST(SarifTest, GoldenSingleFinding) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 12, 5, "determinism", "call to \"rand()\""}};
  const std::string sarif = ToSarif(findings);
  // Structural spot checks plus full determinism: two calls are
  // byte-identical, the schema/version header is exact, and the escaped
  // message survives.
  EXPECT_EQ(sarif, ToSarif(findings));
  EXPECT_NE(
      sarif.find("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""),
      std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"chameleon-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"chameleon-determinism\""),
            std::string::npos);
  EXPECT_NE(sarif.find("call to \\\"rand()\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12, \"startColumn\": 5"),
            std::string::npos);
  // Every rule in Rules() appears in the driver rules table.
  for (const RuleInfo& rule : Rules()) {
    EXPECT_NE(sarif.find("\"id\": \"chameleon-" + std::string(rule.name) +
                         "\""),
              std::string::npos);
  }
}

TEST(FixTest, WrongGuardIsRewrittenAndFixIsIdempotent) {
  const std::string path = "src/w/fixme.h";
  const std::string before =
      "#ifndef WRONG_NAME_H\n"
      "#define WRONG_NAME_H\n"
      "struct Fixme {};\n"
      "#endif\n";
  const EngineResult first = Analyze({{path, before}});
  ASSERT_EQ(CountRule(first.findings, "header-hygiene"), 1);
  size_t applied = 0;
  const std::string once = ApplyFixes(path, before, first.findings, &applied);
  EXPECT_EQ(applied, 1u);
  EXPECT_NE(once.find("#ifndef CHAMELEON_W_FIXME_H_"), std::string::npos);
  EXPECT_NE(once.find("#define CHAMELEON_W_FIXME_H_"), std::string::npos);
  EXPECT_NE(once.find("#endif  // CHAMELEON_W_FIXME_H_"), std::string::npos);
  // Re-analysis of the fixed text is clean, and a second --fix pass is a
  // no-op: fixed twice == fixed once, byte for byte.
  const EngineResult second = Analyze({{path, once}});
  EXPECT_EQ(CountRule(second.findings, "header-hygiene"), 0);
  size_t applied_again = 0;
  const std::string twice =
      ApplyFixes(path, once, second.findings, &applied_again);
  EXPECT_EQ(applied_again, 0u);
  EXPECT_EQ(twice, once);
}

}  // namespace
}  // namespace chameleon_lint
