// gclint's own test suite: every rule id must have a fail fixture that
// fires it and a pass fixture that stays clean, the suppression syntax must
// round-trip, the JSON report must match its schema, and the repository
// itself must lint clean (the check that keeps the tree that way).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/gclint/driver.hpp"
#include "tools/gclint/rules.hpp"

namespace gclint {
namespace {

LintOptions fixtureOptions() {
  LintOptions opts;
  opts.root = GCLINT_FIXTURES;
  opts.hot_prefixes.clear();  // fixtures opt in via the in-file hot marker
  return opts;
}

std::set<std::string> rulesFired(const FileResult& r) {
  std::set<std::string> out;
  for (const Diagnostic& d : r.diagnostics) out.insert(d.rule);
  return out;
}

FileResult lintFixture(const std::string& name) {
  return lintPath(fixtureOptions(), name);
}

// ---- rule coverage ----------------------------------------------------------

struct RuleCase {
  const char* rule;
  const char* fail_fixture;
  const char* pass_fixture;
};

const RuleCase kRuleCases[] = {
    {"det-rand", "det_rand_fail.cc", "det_rand_pass.cc"},
    {"det-clock", "det_clock_fail.cc", "det_clock_pass.cc"},
    {"det-time", "det_time_fail.cc", "det_time_pass.cc"},
    {"det-unordered-iter", "det_unordered_iter_fail.cc",
     "det_unordered_iter_pass.cc"},
    {"hot-std-function", "hot_std_function_fail.cc",
     "hot_std_function_pass.cc"},
    {"hot-new-delete", "hot_new_delete_fail.cc", "hot_new_delete_pass.cc"},
    {"hot-make-shared", "hot_make_shared_fail.cc", "hot_make_shared_pass.cc"},
    {"hyg-using-namespace", "hyg_using_namespace_fail.hpp",
     "hyg_using_namespace_pass.hpp"},
    {"hyg-explicit-ctor", "hyg_explicit_ctor_fail.cc",
     "hyg_explicit_ctor_pass.cc"},
    {"hyg-iwyu", "hyg_iwyu_fail.cc", "hyg_iwyu_pass.cc"},
    {"flow-halt-release", "flow_halt_release_fail.cc",
     "flow_halt_release_pass.cc"},
    {"flow-status-ignored", "flow_status_ignored_fail.cc",
     "flow_status_ignored_pass.cc"},
    {"flow-switch-order", "flow_switch_order_fail.cc",
     "flow_switch_order_pass.cc"},
    {"bad-allow", "bad_allow_fail.cc", nullptr},
    {"unused-allow", "unused_allow_fail.cc", nullptr},
    {"det-pdes-hazard", "det_pdes_hazard_fail.cc", "det_pdes_hazard_pass.cc"},
};

TEST(GclintRules, EveryRuleHasAFiringFailFixture) {
  for (const RuleCase& c : kRuleCases) {
    const std::set<std::string> fired = rulesFired(lintFixture(c.fail_fixture));
    EXPECT_EQ(fired, std::set<std::string>{c.rule})
        << c.fail_fixture << " must fire exactly " << c.rule;
    EXPECT_FALSE(fired.empty()) << c.fail_fixture;
  }
}

TEST(GclintRules, EveryRuleHasACleanPassFixture) {
  for (const RuleCase& c : kRuleCases) {
    if (c.pass_fixture == nullptr) continue;
    const std::vector<Diagnostic> diags =
        lintFixture(c.pass_fixture).diagnostics;
    EXPECT_TRUE(diags.empty())
        << c.pass_fixture << " first: "
        << (diags.empty() ? "" : formatDiagnostic(diags.front()));
  }
}

TEST(GclintRules, PdesHazardRuleIsQuietWithoutTheMarker) {
  // The same hazard text outside a pdes file is not det-pdes-hazard's
  // business; the rule is scoped to simulation code.
  FileInput in;
  in.path = "cold.cc";
  in.source = "thread_local int t = 0;\n";
  EXPECT_TRUE(lintFile(in).diagnostics.empty());
  in.pdes = true;
  EXPECT_EQ(lintFile(in).diagnostics.size(), 1u);
}

TEST(GclintRules, RuleCasesCoverEveryRegisteredRuleId) {
  std::set<std::string> covered;
  for (const RuleCase& c : kRuleCases) covered.insert(c.rule);
  for (const std::string& id : allRuleIds())
    EXPECT_TRUE(covered.count(id) > 0) << "no fixture covers rule " << id;
  EXPECT_EQ(covered.size(), allRuleIds().size());
}

TEST(GclintRules, PairedHeaderSeedsUnorderedMembers) {
  const FileResult r = lintFixture("det_unordered_iter_paired.cc");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "det-unordered-iter");
  // The header alone is clean: it declares but never iterates.
  EXPECT_TRUE(lintFixture("det_unordered_iter_paired.hpp").diagnostics.empty());
}

TEST(GclintRules, HotRulesStayQuietInColdFiles) {
  // The same std::function text fires only under the hot marker.
  EXPECT_TRUE(lintFixture("hot_std_function_pass.cc").diagnostics.empty());
  const FileResult hot = lintFixture("hot_std_function_fail.cc");
  EXPECT_EQ(rulesFired(hot), std::set<std::string>{"hot-std-function"});
}

// ---- flow-sensitive rules ---------------------------------------------------

FileResult lintSource(const std::string& source) {
  FileInput in;
  in.path = "inline.cc";
  in.source = source;
  return lintFile(in);
}

TEST(GclintFlow, StatusFailFixtureReportsBothDiscardShapes) {
  // The fixture drops a Status twice: once as a bare expression statement,
  // once into a variable that is never read.
  const FileResult r = lintFixture("flow_status_ignored_fail.cc");
  ASSERT_EQ(r.diagnostics.size(), 2u);
  for (const Diagnostic& d : r.diagnostics)
    EXPECT_EQ(d.rule, "flow-status-ignored");
}

TEST(GclintFlow, StatusConsumedInConditionIsClean) {
  const FileResult r = lintSource(
      "enum class Status { kOk };\n"
      "struct C { Status initJob(int j); };\n"
      "bool f(C& c) { return c.initJob(1) == Status::kOk; }\n"
      "void g(C& c) { if (c.initJob(2) == Status::kOk) { return; } }\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(GclintFlow, DoubleHaltAcrossBranchJoinIsCaught) {
  const FileResult r = lintSource(
      "struct Nic { void beginFlush(); void beginRelease(); };\n"
      "void f(Nic& n, bool b) {\n"
      "  n.beginFlush();\n"
      "  if (b) {\n"
      "    n.beginFlush();\n"
      "  }\n"
      "  n.beginRelease();\n"
      "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "flow-switch-order");
  EXPECT_EQ(r.diagnostics[0].line, 5);
}

TEST(GclintFlow, HaltAndReleaseInsideLoopBodyIsClean) {
  const FileResult r = lintSource(
      "struct Nic { void beginFlush(); void beginRelease(); };\n"
      "void f(Nic& n, int k) {\n"
      "  for (int i = 0; i < k; ++i) {\n"
      "    n.beginFlush();\n"
      "    n.beginRelease();\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(GclintFlow, HaltBeforeLoopReleasedAfterLoopIsClean) {
  // The zero-iteration bypass and the back edge both still pass the
  // release below the loop.
  const FileResult r = lintSource(
      "struct Nic { void beginFlush(); void beginRelease(); };\n"
      "void work(int i);\n"
      "void f(Nic& n, int k) {\n"
      "  n.beginFlush();\n"
      "  for (int i = 0; i < k; ++i) {\n"
      "    work(i);\n"
      "  }\n"
      "  n.beginRelease();\n"
      "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(GclintFlow, HaltEveryIterationReleaseOnceIsDoubleHalt) {
  // A loop body that halts on the back edge without releasing re-halts a
  // halted network: the second iteration is a protocol violation.
  const FileResult r = lintSource(
      "struct Nic { void beginFlush(); void beginRelease(); };\n"
      "void f(Nic& n, int k) {\n"
      "  for (int i = 0; i < k; ++i) {\n"
      "    n.beginFlush();\n"
      "  }\n"
      "  n.beginRelease();\n"
      "}\n");
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].rule, "flow-switch-order");
}

TEST(GclintFlow, SwitchStatementArmsAreAlternatives) {
  // The release lives in every reachable arm, so no escape exists; the
  // halt in one arm does not leak into its siblings.
  const FileResult r = lintSource(
      "struct Nic { void beginFlush(); void beginRelease(); };\n"
      "void f(Nic& n, int k) {\n"
      "  n.beginFlush();\n"
      "  switch (k) {\n"
      "    case 0:\n"
      "      n.beginRelease();\n"
      "      break;\n"
      "    default:\n"
      "      n.beginRelease();\n"
      "      break;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(GclintFlow, NestedCallbackChainReadsInSourceOrder) {
  // The gang-switch continuation chain: halt -> switch -> release nested in
  // callbacks inside one statement must parse as one in-order node.
  const FileResult r = lintSource(
      "struct Comm {\n"
      "  template <typename F> void haltNetwork(F f);\n"
      "  template <typename F> void contextSwitch(int j, F f);\n"
      "  template <typename F> void releaseNetwork(F f);\n"
      "};\n"
      "void f(Comm& c, int j) {\n"
      "  c.haltNetwork([&] {\n"
      "    c.contextSwitch(j, [&] {\n"
      "      c.releaseNetwork([&] {});\n"
      "    });\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(r.diagnostics.empty());
}

// ---- suppression syntax -----------------------------------------------------

TEST(GclintSuppressions, SameLineAllowSuppressesAndIsRecorded) {
  const FileResult r = lintFixture("suppress_same_line_pass.cc");
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rule, "det-rand");
  EXPECT_FALSE(r.suppressions[0].reason.empty());
}

TEST(GclintSuppressions, OwnLineAllowSkipsWrappedCommentLines) {
  const FileResult r = lintFixture("suppress_own_line_pass.cc");
  EXPECT_TRUE(r.diagnostics.empty());
  ASSERT_EQ(r.suppressions.size(), 1u);
  EXPECT_EQ(r.suppressions[0].rule, "det-rand");
}

TEST(GclintSuppressions, AllowWithoutReasonIsRejected) {
  const FileResult r = lintFixture("bad_allow_fail.cc");
  EXPECT_EQ(rulesFired(r), std::set<std::string>{"bad-allow"});
  EXPECT_EQ(r.diagnostics.size(), 3u);
}

TEST(GclintSuppressions, StaleAllowIsFlagged) {
  const FileResult r = lintFixture("unused_allow_fail.cc");
  EXPECT_EQ(rulesFired(r), std::set<std::string>{"unused-allow"});
}

// ---- the repository itself --------------------------------------------------

TEST(GclintTree, RepositoryLintsClean) {
  LintOptions opts;
  opts.root = GCLINT_REPO_ROOT;
  // The same directories as the lint-gclint target in CMakeLists.txt.
  const std::vector<std::string> files =
      collectFiles(opts, {"src", "bench", "tests", "tools/common",
                          "tools/gctrace", "tools/gcsweep", "tools/gcprof"});
  ASSERT_GT(files.size(), 50u) << "collectFiles found too little of the tree";
  const TreeResult result = lintTree(opts, files);
  for (const Diagnostic& d : result.diagnostics)
    ADD_FAILURE() << formatDiagnostic(d);
  EXPECT_TRUE(result.diagnostics.empty());
  // The hot set must include the packet-path subsystems.
  const auto hot_under = [&](const char* prefix) {
    return std::any_of(result.hot_files.begin(), result.hot_files.end(),
                       [&](const std::string& f) {
                         return f.rfind(prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(hot_under("src/sim"));
  EXPECT_TRUE(hot_under("src/net"));
  EXPECT_TRUE(hot_under("src/fm"));
}

// ---- JSON report ------------------------------------------------------------

// Minimal recursive-descent JSON reader — just enough structure to validate
// the report schema without external dependencies.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }

  bool object() {
    ++pos_;  // {
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // [
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(GclintReport, JsonReportMatchesSchema) {
  LintOptions opts = fixtureOptions();
  const std::vector<std::string> files = collectFiles(opts, {"."});
  const TreeResult result = lintTree(opts, files);
  ASSERT_FALSE(result.diagnostics.empty());
  ASSERT_FALSE(result.suppressions.empty());

  const std::string path =
      testing::TempDir() + "/gclint_report_schema_test.json";
  ASSERT_TRUE(writeJsonReport(result, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string report = ss.str();

  EXPECT_TRUE(JsonChecker(report).valid()) << "report is not well-formed";
  for (const char* key :
       {"\"tool\": \"gclint\"", "\"version\": 1", "\"files_scanned\":",
        "\"diagnostics\": [", "\"suppressions\": ["})
    EXPECT_NE(report.find(key), std::string::npos) << "missing " << key;
  // Every diagnostic row carries the full location schema.
  const std::size_t rows = [&] {
    std::size_t n = 0;
    for (std::size_t at = report.find("\"rule\":"); at != std::string::npos;
         at = report.find("\"rule\":", at + 1))
      ++n;
    return n;
  }();
  EXPECT_EQ(rows, result.diagnostics.size() + result.suppressions.size());
  for (const char* key : {"\"file\":", "\"line\":", "\"message\":"})
    EXPECT_NE(report.find(key), std::string::npos) << "missing " << key;
}

TEST(GclintReport, DiagnosticsAreDeterministicallyOrdered) {
  LintOptions opts = fixtureOptions();
  const std::vector<std::string> files = collectFiles(opts, {"."});
  ASSERT_TRUE(std::is_sorted(files.begin(), files.end()));
  const TreeResult a = lintTree(opts, files);
  const TreeResult b = lintTree(opts, files);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i)
    EXPECT_EQ(formatDiagnostic(a.diagnostics[i]),
              formatDiagnostic(b.diagnostics[i]));
}

}  // namespace
}  // namespace gclint
