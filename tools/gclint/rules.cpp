#include "tools/gclint/rules.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/gclint/cfg.hpp"

namespace gclint {
namespace {

// ---- rule ids ---------------------------------------------------------------

constexpr const char* kDetRand = "det-rand";
constexpr const char* kDetClock = "det-clock";
constexpr const char* kDetTime = "det-time";
constexpr const char* kDetUnorderedIter = "det-unordered-iter";
constexpr const char* kHotStdFunction = "hot-std-function";
constexpr const char* kHotNewDelete = "hot-new-delete";
constexpr const char* kHotMakeShared = "hot-make-shared";
constexpr const char* kHygUsingNamespace = "hyg-using-namespace";
constexpr const char* kHygExplicitCtor = "hyg-explicit-ctor";
constexpr const char* kHygIwyu = "hyg-iwyu";
constexpr const char* kFlowHaltRelease = "flow-halt-release";
constexpr const char* kFlowStatusIgnored = "flow-status-ignored";
constexpr const char* kFlowSwitchOrder = "flow-switch-order";
constexpr const char* kBadAllow = "bad-allow";
constexpr const char* kUnusedAllow = "unused-allow";
constexpr const char* kDetPdesHazard = "det-pdes-hazard";

bool isHeaderPath(const std::string& path) {
  auto ends = [&](const char* suf) {
    const std::size_t n = std::string(suf).size();
    return path.size() >= n && path.compare(path.size() - n, n, suf) == 0;
  };
  return ends(".hpp") || ends(".h") || ends(".hh");
}

// ---- suppression directives -------------------------------------------------

struct Allow {
  std::string rule;
  std::string reason;
  int directive_line = 0;  // where the comment lives
  int target_line = 0;     // line it suppresses
  bool used = false;
};

struct Directives {
  std::vector<Allow> allows;
  std::vector<Diagnostic> errors;  // malformed allow comments
  bool hot_marker = false;
  bool cold_marker = false;
  bool pdes_marker = false;
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

Directives parseDirectives(const std::string& file,
                           const std::vector<Comment>& comments) {
  Directives out;
  // Lines holding comment-only text, so an own-line allow can skip past the
  // rest of a multi-line comment and still land on the next statement.
  std::map<int, int> own_comment_end;  // start line -> end line
  for (const Comment& c : comments)
    if (c.own_line) own_comment_end[c.line] = c.end_line;
  for (const Comment& c : comments) {
    const std::size_t at = c.text.find("gclint:");
    if (at == std::string::npos) continue;
    std::string rest = trim(c.text.substr(at + 7));
    if (rest == "hot") {
      out.hot_marker = true;
      continue;
    }
    if (rest == "cold") {
      out.cold_marker = true;
      continue;
    }
    if (rest == "pdes") {
      out.pdes_marker = true;
      continue;
    }
    if (rest.rfind("allow", 0) != 0) {
      out.errors.push_back({file, c.line, kBadAllow,
                            "unrecognized gclint directive: '" + rest + "'"});
      continue;
    }
    rest = trim(rest.substr(5));
    if (rest.empty() || rest[0] != '(') {
      out.errors.push_back(
          {file, c.line, kBadAllow, "allow needs a rule id: allow(<rule>)"});
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string::npos) {
      out.errors.push_back(
          {file, c.line, kBadAllow, "unterminated allow(<rule>)"});
      continue;
    }
    const std::string rule = trim(rest.substr(1, close - 1));
    std::string reason = trim(rest.substr(close + 1));
    if (!reason.empty() && (reason[0] == ':' || reason[0] == '-'))
      reason = trim(reason.substr(1));
    if (!isKnownRule(rule)) {
      out.errors.push_back(
          {file, c.line, kBadAllow, "allow names unknown rule '" + rule + "'"});
      continue;
    }
    if (reason.empty()) {
      out.errors.push_back({file, c.line, kBadAllow,
                            "allow(" + rule +
                                ") needs a reason: allow(" + rule +
                                "): <why this site is exempt>"});
      continue;
    }
    Allow a;
    a.rule = rule;
    a.reason = std::move(reason);
    a.directive_line = c.line;
    // A comment sharing its line with code suppresses that line; a comment
    // alone on a line suppresses the first code line after it (skipping any
    // further comment-only lines, so a long reason may wrap).
    if (c.own_line) {
      int target = c.end_line + 1;
      for (auto it = own_comment_end.find(target); it != own_comment_end.end();
           it = own_comment_end.find(target)) {
        target = it->second + 1;
      }
      a.target_line = target;
    } else {
      a.target_line = c.line;
    }
    out.allows.push_back(std::move(a));
  }
  return out;
}

// ---- token helpers ----------------------------------------------------------

using Tokens = std::vector<Token>;

bool isIdent(const Token& t, const char* s) {
  return t.kind == TokKind::kIdent && t.text == s;
}
bool isPunct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

/// True when tokens[i] is a member access (preceded by . or ->).
bool memberAccess(const Tokens& toks, std::size_t i) {
  return i > 0 && (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->"));
}

/// For an identifier preceded by `::`, returns the qualifying identifier
/// (e.g. "std" for std::rand) or "" for an unqualified / globally-qualified
/// name.  Names qualified by anything other than std are project symbols and
/// never match the std bans.
std::string qualifier(const Tokens& toks, std::size_t i) {
  if (i < 2 || !isPunct(toks[i - 1], "::")) return "";
  if (toks[i - 2].kind == TokKind::kIdent) return toks[i - 2].text;
  return "";
}

bool stdOrUnqualified(const Tokens& toks, std::size_t i) {
  if (i == 0) return true;
  if (isPunct(toks[i - 1], "::")) {
    const std::string q = qualifier(toks, i);
    return q == "std";  // `::rand` is global libc — but toks[i-2] non-ident
  }
  return true;
}

/// Index of the matching close paren for the open paren at `open`, or
/// toks.size() when unbalanced.
std::size_t matchParen(const Tokens& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (isPunct(toks[i], "(")) ++depth;
    if (isPunct(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

// ---- D: determinism ---------------------------------------------------------

void ruleDetRand(const std::string& file, const Tokens& toks,
                 std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "random_device") {
      if (memberAccess(toks, i)) continue;
      out.push_back({file, t.line, kDetRand,
                     "std::random_device is nondeterministic; use "
                     "sim::Xoshiro256 with an explicit seed"});
      continue;
    }
    if ((t.text == "rand" || t.text == "srand") && i + 1 < toks.size() &&
        isPunct(toks[i + 1], "(")) {
      if (memberAccess(toks, i)) continue;
      if (!stdOrUnqualified(toks, i)) continue;
      out.push_back({file, t.line, kDetRand,
                     t.text + "() draws from hidden global state; use "
                     "sim::Xoshiro256 with an explicit seed"});
    }
  }
}

void ruleDetClock(const std::string& file, const Tokens& toks,
                  std::vector<Diagnostic>& out) {
  static const std::array<const char*, 3> kClocks = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    for (const char* clock : kClocks) {
      if (t.text != clock) continue;
      if (memberAccess(toks, i)) break;
      out.push_back({file, t.line, kDetClock,
                     "std::chrono::" + t.text +
                         " reads the wall clock; simulation state must "
                         "derive time from sim::Simulator::now()"});
      break;
    }
  }
}

void ruleDetTime(const std::string& file, const Tokens& toks,
                 std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!isIdent(t, "time") || !isPunct(toks[i + 1], "(")) continue;
    if (memberAccess(toks, i)) continue;
    if (!stdOrUnqualified(toks, i)) continue;
    // Flag the wall-clock forms: time(), time(nullptr), time(0), time(NULL).
    const std::size_t a = i + 2;
    if (a >= toks.size()) continue;
    const bool empty = isPunct(toks[a], ")");
    const bool null_arg =
        a + 1 < toks.size() && isPunct(toks[a + 1], ")") &&
        (isIdent(toks[a], "nullptr") || isIdent(toks[a], "NULL") ||
         (toks[a].kind == TokKind::kNumber && toks[a].text == "0"));
    if (!empty && !null_arg) continue;
    out.push_back({file, t.line, kDetTime,
                   "time() reads the wall clock; simulation state must "
                   "derive time from sim::Simulator::now()"});
  }
}

/// Host-thread hazards: constructs that give different results at different
/// thread counts.  The jobs=N sweep runner drives one Cluster per worker
/// thread, so simulation code must hold no state a second thread could see
/// or depend on.  Runs only on files inside the configured pdes prefixes
/// (src/ by default) or carrying a `// gclint: pdes` marker.
void ruleDetPdesHazard(const std::string& file, const Tokens& toks,
                       std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "thread_local") {
      out.push_back({file, t.line, kDetPdesHazard,
                     "thread_local state diverges across worker threads; "
                     "partition the state by logical process instead"});
      continue;
    }
    if (t.text == "volatile") {
      out.push_back({file, t.line, kDetPdesHazard,
                     "volatile is not a synchronization primitive and hides "
                     "data races from the PDES refactor; model the hardware "
                     "register explicitly"});
      continue;
    }
    if (t.text == "this_thread" && stdOrUnqualified(toks, i)) {
      out.push_back({file, t.line, kDetPdesHazard,
                     "std::this_thread makes behavior depend on the hosting "
                     "thread; simulation code must be thread-agnostic"});
      continue;
    }
    const bool atomic_tmpl = t.text == "atomic" && i + 1 < toks.size() &&
                             isPunct(toks[i + 1], "<");
    const bool atomic_alias = t.text.rfind("atomic_", 0) == 0;
    if ((atomic_tmpl || atomic_alias) && !memberAccess(toks, i) &&
        stdOrUnqualified(toks, i)) {
      out.push_back({file, t.line, kDetPdesHazard,
                     "raw std::atomic invites cross-partition sharing; "
                     "ownership must be explicit before the event core is "
                     "sharded (wrap it behind a domain-owned API)"});
      continue;
    }
    // Host threading primitives: only the explicitly std::-qualified forms
    // match, so project types reusing these names stay exempt.
    if ((t.text == "mutex" || t.text == "recursive_mutex" ||
         t.text == "shared_mutex" || t.text == "timed_mutex" ||
         t.text == "condition_variable" ||
         t.text == "condition_variable_any" || t.text == "thread" ||
         t.text == "jthread") &&
        qualifier(toks, i) == "std") {
      out.push_back({file, t.line, kDetPdesHazard,
                     "std::" + t.text +
                         " brings host-thread scheduling into simulation "
                         "code; the gang-scheduled event core must own all "
                         "concurrency (partition state by logical process)"});
    }
  }
}

/// Collect names declared with an unordered container type (and aliases of
/// such types) from a token stream.
void collectUnorderedDecls(const Tokens& toks, std::set<std::string>& types,
                           std::set<std::string>& vars) {
  auto isUnorderedName = [&](const Token& t) {
    return t.kind == TokKind::kIdent &&
           (t.text == "unordered_map" || t.text == "unordered_set" ||
            t.text == "unordered_multimap" || t.text == "unordered_multiset");
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // using Alias = std::unordered_map<...>;
    if (isIdent(toks[i], "using") && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent && isPunct(toks[i + 2], "=")) {
      for (std::size_t j = i + 3; j < toks.size() && j < i + 8; ++j) {
        if (isPunct(toks[j], ";")) break;
        if (isUnorderedName(toks[j])) {
          types.insert(toks[i + 1].text);
          break;
        }
      }
    }
    const bool direct = isUnorderedName(toks[i]);
    const bool aliased = toks[i].kind == TokKind::kIdent &&
                         types.count(toks[i].text) > 0;
    if (!direct && !aliased) continue;
    std::size_t j = i + 1;
    if (direct) {
      if (j >= toks.size() || !isPunct(toks[j], "<")) continue;
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (isPunct(toks[j], "<")) ++depth;
        if (isPunct(toks[j], ">") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (j < toks.size() &&
           (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
            isIdent(toks[j], "const")))
      ++j;
    if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
        j + 1 < toks.size() &&
        (isPunct(toks[j + 1], ";") || isPunct(toks[j + 1], "=") ||
         isPunct(toks[j + 1], "{") || isPunct(toks[j + 1], "(") ||
         isPunct(toks[j + 1], ",") || isPunct(toks[j + 1], ")"))) {
      vars.insert(toks[j].text);
    }
  }
}

void ruleDetUnorderedIter(const std::string& file, const Tokens& toks,
                          const Tokens* paired_header,
                          std::vector<Diagnostic>& out) {
  std::set<std::string> types;
  std::set<std::string> vars;
  if (paired_header != nullptr)
    collectUnorderedDecls(*paired_header, types, vars);
  collectUnorderedDecls(toks, types, vars);
  if (vars.empty()) return;

  auto diag = [&](int line, const std::string& name) {
    out.push_back({file, line, kDetUnorderedIter,
                   "iteration over unordered container '" + name +
                       "' has platform-defined order; use std::map/std::set "
                       "or sort before iterating"});
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Range-for whose range expression names an unordered container.
    if (isIdent(toks[i], "for") && i + 1 < toks.size() &&
        isPunct(toks[i + 1], "(")) {
      const std::size_t close = matchParen(toks, i + 1);
      // Locate the top-level ':' separating declaration from range.
      std::size_t colon = close;
      int depth = 0;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (isPunct(toks[j], "(") || isPunct(toks[j], "[") ||
            isPunct(toks[j], "{"))
          ++depth;
        if (isPunct(toks[j], ")") || isPunct(toks[j], "]") ||
            isPunct(toks[j], "}"))
          --depth;
        if (depth == 0 && isPunct(toks[j], ":")) {
          colon = j;
          break;
        }
      }
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == TokKind::kIdent && vars.count(toks[j].text) > 0 &&
            !memberAccess(toks, j)) {
          diag(toks[i].line, toks[j].text);
          break;
        }
      }
      continue;
    }
    // Explicit iterator walks: var.begin(), var.cbegin(), var.rbegin().
    if (toks[i].kind == TokKind::kIdent && vars.count(toks[i].text) > 0 &&
        i + 3 < toks.size() &&
        (isPunct(toks[i + 1], ".") || isPunct(toks[i + 1], "->")) &&
        toks[i + 2].kind == TokKind::kIdent &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
         toks[i + 2].text == "rbegin" || toks[i + 2].text == "crbegin") &&
        isPunct(toks[i + 3], "(")) {
      diag(toks[i].line, toks[i].text);
    }
  }
}

// ---- A: hot-path allocation -------------------------------------------------

void ruleHotStdFunction(const std::string& file, const Tokens& toks,
                        std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (isIdent(toks[i], "std") && isPunct(toks[i + 1], "::") &&
        isIdent(toks[i + 2], "function")) {
      out.push_back({file, toks[i].line, kHotStdFunction,
                     "std::function heap-allocates closures beyond ~16 bytes; "
                     "hot paths must use util::SboFunction"});
    }
  }
}

void ruleHotNewDelete(const std::string& file, const Tokens& toks,
                      std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (isIdent(t, "new")) {
      // ::new (addr) T is placement new — no allocation, exempt.
      if (i > 0 && isPunct(toks[i - 1], "::")) continue;
      out.push_back({file, t.line, kHotNewDelete,
                     "naked new in a hot file; allocate up front or use an "
                     "arena/slab (see sim::Simulator's event slab)"});
    } else if (isIdent(t, "delete")) {
      if (i > 0 && isPunct(toks[i - 1], "=")) continue;  // = delete
      out.push_back({file, t.line, kHotNewDelete,
                     "naked delete in a hot file; allocate up front or use "
                     "an arena/slab"});
    }
  }
}

void ruleHotMakeShared(const std::string& file, const Tokens& toks,
                       std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (t.text != "make_shared" && t.text != "make_unique") continue;
    if (memberAccess(toks, i)) continue;
    out.push_back({file, t.line, kHotMakeShared,
                   "std::" + t.text +
                       " heap-allocates in a hot file; allocate at setup "
                       "time or use an arena/slab"});
  }
}

// ---- H: hygiene -------------------------------------------------------------

void ruleHygUsingNamespace(const std::string& file, const Tokens& toks,
                           std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (isIdent(toks[i], "using") && isIdent(toks[i + 1], "namespace")) {
      out.push_back({file, toks[i].line, kHygUsingNamespace,
                     "`using namespace` in a header leaks into every "
                     "includer; qualify names or alias individual symbols"});
    }
  }
}

void ruleHygExplicitCtor(const std::string& file, const Tokens& toks,
                         std::vector<Diagnostic>& out) {
  struct Scope {
    std::string name;  // empty for non-class braces
    int body_depth;    // brace depth inside the class body
  };
  std::vector<Scope> scopes;
  int depth = 0;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (isPunct(t, "{")) {
      ++depth;
      continue;
    }
    if (isPunct(t, "}")) {
      --depth;
      while (!scopes.empty() && scopes.back().body_depth > depth)
        scopes.pop_back();
      continue;
    }
    if ((isIdent(t, "class") || isIdent(t, "struct")) &&
        !(i > 0 && isIdent(toks[i - 1], "enum")) &&
        !(i > 0 && isIdent(toks[i - 1], "friend")) &&
        // `template <class T, class U>`: a type-parameter, not a class.
        !(i > 0 && (isPunct(toks[i - 1], "<") || isPunct(toks[i - 1], ",")))) {
      // Find the class name: the last plain identifier before the body
      // opens (skipping `final`, attributes, and template argument lists).
      std::string name;
      int angle = 0;
      bool in_base_clause = false;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (isPunct(toks[j], "<")) ++angle;
        if (isPunct(toks[j], ">")) --angle;
        if (angle > 0) continue;
        if (isPunct(toks[j], ";")) break;        // forward declaration
        if (isPunct(toks[j], "{")) {
          scopes.push_back({name, depth + 1});
          ++depth;
          i = j;
          break;
        }
        // Base clause: the class name is already final; base names must not
        // overwrite it.
        if (isPunct(toks[j], ":")) in_base_clause = true;
        if (in_base_clause) continue;
        if (toks[j].kind == TokKind::kIdent && toks[j].text != "final" &&
            toks[j].text != "alignas")
          name = toks[j].text;
      }
      continue;
    }
    // Constructor declaration directly in the innermost class body.
    if (scopes.empty() || scopes.back().name.empty()) continue;
    if (depth != scopes.back().body_depth) continue;
    const std::string& cls = scopes.back().name;
    if (t.kind != TokKind::kIdent || t.text != cls) continue;
    if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "(")) continue;
    if (i > 0 && (isPunct(toks[i - 1], "~") || isPunct(toks[i - 1], "::") ||
                  isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->") ||
                  isPunct(toks[i - 1], "&") || isPunct(toks[i - 1], "*")))
      continue;
    // A delegating constructor call in a member-init list (`Foo() : Foo(1)`)
    // follows a ':' that is not an access specifier's.
    if (i > 0 && isPunct(toks[i - 1], ":") &&
        !(i > 1 && (isIdent(toks[i - 2], "public") ||
                    isIdent(toks[i - 2], "private") ||
                    isIdent(toks[i - 2], "protected"))))
      continue;
    // `explicit` may sit a few tokens back (constexpr explicit Foo(...)).
    bool is_explicit = false;
    for (std::size_t back = 1; back <= 3 && back <= i; ++back) {
      const Token& p = toks[i - back];
      if (isIdent(p, "explicit")) {
        is_explicit = true;
        break;
      }
      if (!isIdent(p, "constexpr") && !isIdent(p, "inline")) break;
    }
    if (is_explicit) continue;

    const std::size_t open = i + 1;
    const std::size_t close = matchParen(toks, open);
    if (close >= toks.size()) continue;
    // Count top-level parameters and whether each beyond the first has a
    // default argument.
    int params = 0;
    int defaults_after_first = 0;
    bool cur_has_default = false;
    bool first_mentions_class = false;
    bool first_is_init_list = false;
    int pdepth = 0;
    int adepth = 0;  // angle depth, best-effort
    for (std::size_t j = open + 1; j < close; ++j) {
      const Token& u = toks[j];
      if (isPunct(u, "(") || isPunct(u, "[") || isPunct(u, "{")) ++pdepth;
      if (isPunct(u, ")") || isPunct(u, "]") || isPunct(u, "}")) --pdepth;
      if (isPunct(u, "<")) ++adepth;
      if (isPunct(u, ">") && adepth > 0) --adepth;
      if (params == 0 && !(isPunct(u, ",") && pdepth == 0 && adepth == 0)) {
        params = 1;  // first non-empty token: at least one parameter
      }
      if (params >= 1 && pdepth == 0 && adepth == 0) {
        if (isPunct(u, ",")) {
          if (params > 1 && cur_has_default) ++defaults_after_first;
          ++params;
          cur_has_default = false;
          continue;
        }
        if (isPunct(u, "=")) cur_has_default = true;
      }
      if (params == 1) {
        if (u.kind == TokKind::kIdent && u.text == cls)
          first_mentions_class = true;
        if (isIdent(u, "initializer_list")) first_is_init_list = true;
      }
    }
    if (params > 1 && cur_has_default) ++defaults_after_first;
    if (params == 0) continue;                       // default ctor
    if (params > 1 && defaults_after_first < params - 1) continue;  // multi-arg
    if (first_mentions_class) continue;              // copy/move ctor
    if (first_is_init_list) continue;                // initializer-list ctor
    out.push_back({file, t.line, kHygExplicitCtor,
                   "single-argument constructor '" + cls +
                       "' must be explicit (or carry an allow with the "
                       "reason implicit conversion is intended)"});
  }
}

struct IwyuEntry {
  const char* symbol;
  const char* header;
};

// Curated std symbol → required direct include.  Only `std::`-qualified uses
// are checked, so project members that reuse these names never match.
constexpr std::array<IwyuEntry, 56> kIwyuMap = {{
    {"vector", "vector"},
    {"string", "string"},
    {"to_string", "string"},
    {"stoi", "string"},
    {"stoul", "string"},
    {"stod", "string"},
    {"string_view", "string_view"},
    {"deque", "deque"},
    {"map", "map"},
    {"multimap", "map"},
    {"set", "set"},
    {"multiset", "set"},
    {"array", "array"},
    {"function", "functional"},
    {"unique_ptr", "memory"},
    {"shared_ptr", "memory"},
    {"weak_ptr", "memory"},
    {"make_unique", "memory"},
    {"make_shared", "memory"},
    {"move", "utility"},
    {"forward", "utility"},
    {"pair", "utility"},
    {"swap", "utility"},
    {"exchange", "utility"},
    {"size_t", "cstddef"},
    {"nullptr_t", "cstddef"},
    {"max_align_t", "cstddef"},
    {"int8_t", "cstdint"},
    {"int16_t", "cstdint"},
    {"int32_t", "cstdint"},
    {"int64_t", "cstdint"},
    {"uint8_t", "cstdint"},
    {"uint16_t", "cstdint"},
    {"uint32_t", "cstdint"},
    {"uint64_t", "cstdint"},
    {"uintptr_t", "cstdint"},
    {"intptr_t", "cstdint"},
    {"numeric_limits", "limits"},
    {"sort", "algorithm"},
    {"stable_sort", "algorithm"},
    {"min", "algorithm"},
    {"max", "algorithm"},
    {"clamp", "algorithm"},
    {"min_element", "algorithm"},
    {"max_element", "algorithm"},
    {"accumulate", "numeric"},
    {"iota", "numeric"},
    {"atomic", "atomic"},
    {"mutex", "mutex"},
    {"lock_guard", "mutex"},
    {"unique_lock", "mutex"},
    {"thread", "thread"},
    {"optional", "optional"},
    {"chrono", "chrono"},
    {"unordered_map", "unordered_map"},
    {"unordered_set", "unordered_set"},
}};

void ruleHygIwyu(const std::string& file, const Tokens& toks,
                 const std::vector<IncludeDirective>& includes,
                 std::vector<Diagnostic>& out) {
  std::set<std::string> included;
  for (const IncludeDirective& inc : includes)
    if (inc.angled) included.insert(inc.header);
  std::set<std::string> reported;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!isIdent(toks[i], "std") || !isPunct(toks[i + 1], "::")) continue;
    const Token& sym = toks[i + 2];
    if (sym.kind != TokKind::kIdent) continue;
    for (const IwyuEntry& e : kIwyuMap) {
      if (sym.text != e.symbol) continue;
      if (included.count(e.header) > 0) break;
      if (!reported.insert(e.header).second) break;
      out.push_back({file, sym.line, kHygIwyu,
                     "std::" + sym.text + " needs a direct #include <" +
                         std::string(e.header) + ">"});
      break;
    }
  }
}

// ---- F: flow-sensitive protocol rules ---------------------------------------
//
// These run the per-function CFGs from tools/gclint/cfg.hpp.  The gang-switch
// stage vocabulary below mirrors the three-stage protocol (paper §3.2): a
// network halt must be released on every path, util::Status results must be
// consumed, and stage calls must respect halt -> swap -> release order.

enum class Stage { kHalt, kSwap, kRelease };

/// Names of the halt/quiesce entry points (CommNode facade, CommManager
/// interface, and the Nic flush FSM starters).
bool isHaltName(const std::string& s) {
  return s == "COMM_halt_network" || s == "haltNetwork" || s == "beginFlush" ||
         s == "beginLocalQuiesce" || s == "beginAckQuiesce";
}
/// Names of buffer-switch stage operations.
bool isSwapName(const std::string& s) {
  return s == "COMM_context_switch" || s == "contextSwitch" ||
         s == "copyOut" || s == "copyIn";
}
/// Names of the release-stage entry points.
bool isReleaseName(const std::string& s) {
  return s == "COMM_release_network" || s == "releaseNetwork" ||
         s == "beginRelease" || s == "endLocalQuiesce" || s == "endAckQuiesce";
}

/// A stage call is a stage name used as a call (followed by `(`), not its
/// own definition header — cfg bodies never include the function's name.
bool isCallAt(const Tokens& toks, std::size_t i) {
  return toks[i].kind == TokKind::kIdent && i + 1 < toks.size() &&
         isPunct(toks[i + 1], "(");
}

struct StageCall {
  std::size_t tok;
  Stage stage;
  std::string receiver;  // textual key of the object expression; "" = this
};

/// Index of the open paren/bracket matching the closer at `close`, scanning
/// backwards; returns toks.size() when unbalanced.
std::size_t matchBack(const Tokens& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    const Token& t = toks[i];
    if (isPunct(t, ")") || isPunct(t, "]")) ++depth;
    if (isPunct(t, "(") || isPunct(t, "[")) {
      if (--depth == 0) return i;
    }
  }
  return toks.size();
}

/// Walk back from a call name over its object expression (`a.b->c(...)`,
/// `f(x).g(...)`) to the first token of the whole call expression.
std::size_t callExprStart(const Tokens& toks, std::size_t name_at,
                          std::size_t begin) {
  std::size_t s = name_at;
  while (s > begin + 1) {
    const Token& prev = toks[s - 1];
    if (!isPunct(prev, ".") && !isPunct(prev, "->") && !isPunct(prev, "::"))
      break;
    const Token& q = toks[s - 2];
    if (q.kind == TokKind::kIdent) {
      s -= 2;
      continue;
    }
    if (isPunct(q, ")") || isPunct(q, "]")) {
      const std::size_t open = matchBack(toks, s - 2);
      if (open >= toks.size() || open <= begin) break;
      if (toks[open - 1].kind == TokKind::kIdent) {
        s = open - 1;
        continue;
      }
      s = open;
      break;
    }
    break;
  }
  return s;
}

/// The textual receiver of the call at `name_at`: the token texts of the
/// object expression (`nics_[0]` for `nics_[0]->beginFlush(...)`), or ""
/// for an unqualified (implicit this) call.  The stage rules track protocol
/// state per receiver, so halting one NIC and then another is not a double
/// halt.  Textual identity is an approximation: aliases split state (may
/// miss), and reseated references share it (may over-report).
std::string receiverKey(const Tokens& toks, std::size_t name_at,
                        std::size_t begin) {
  const std::size_t s = callExprStart(toks, name_at, begin);
  std::string key;
  for (std::size_t j = s; j + 1 < name_at; ++j) key += toks[j].text;
  return key;
}

/// Names declared as range-for variables anywhere in [begin, end):
/// `for (auto& nic : nics_)` declares `nic`.  A stage call whose receiver
/// is such a variable addresses a *different* object every iteration, so
/// the per-object protocol rules exempt it rather than mistake the loop's
/// back edge for a repeated call on one object.
std::set<std::string> rangeForVars(const Tokens& toks, std::size_t begin,
                                   std::size_t end) {
  std::set<std::string> out;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "(")) continue;
    const std::size_t close = matchParen(toks, i + 1);
    if (close >= end) continue;
    int depth = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (isPunct(toks[j], "(") || isPunct(toks[j], "[") ||
          isPunct(toks[j], "{"))
        ++depth;
      if (isPunct(toks[j], ")") || isPunct(toks[j], "]") ||
          isPunct(toks[j], "}"))
        --depth;
      if (depth == 0 && isPunct(toks[j], ":") && j > i + 2 &&
          toks[j - 1].kind == TokKind::kIdent) {
        out.insert(toks[j - 1].text);
        break;
      }
    }
  }
  return out;
}

std::vector<StageCall> stageCallsIn(const Tokens& toks, std::size_t begin,
                                    std::size_t end, std::size_t body_begin,
                                    const std::set<std::string>& loop_vars) {
  std::vector<StageCall> out;
  for (std::size_t i = begin; i < end; ++i) {
    if (!isCallAt(toks, i)) continue;
    const std::string& s = toks[i].text;
    Stage stage;
    if (isHaltName(s))
      stage = Stage::kHalt;
    else if (isSwapName(s))
      stage = Stage::kSwap;
    else if (isReleaseName(s))
      stage = Stage::kRelease;
    else
      continue;
    std::string key = receiverKey(toks, i, body_begin);
    if (loop_vars.count(key) > 0) continue;  // fan-out over many objects
    out.push_back({i, stage, std::move(key)});
  }
  return out;
}

void ruleFlowHaltRelease(const std::string& file, const Tokens& toks,
                         const std::vector<FunctionCfg>& cfgs,
                         std::vector<Diagnostic>& out) {
  for (const FunctionCfg& cfg : cfgs) {
    const std::set<std::string> loop_vars =
        rangeForVars(toks, cfg.body_begin, cfg.body_end);
    // Per-node stage positions, grouped by receiver key.
    std::map<std::string, std::vector<std::vector<std::size_t>>> halts;
    std::map<std::string, std::vector<std::vector<std::size_t>>> releases;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      for (const StageCall& c :
           stageCallsIn(toks, cfg.nodes[n].tok_begin, cfg.nodes[n].tok_end,
                        cfg.body_begin, loop_vars)) {
        auto& table = c.stage == Stage::kHalt      ? halts
                      : c.stage == Stage::kRelease ? releases
                                                   : halts;
        if (c.stage == Stage::kSwap) continue;
        auto [it, inserted] = table.try_emplace(c.receiver);
        if (inserted) it->second.resize(cfg.nodes.size());
        it->second[n].push_back(c.tok);
      }
    }

    for (const auto& [key, key_halts] : halts) {
      // The rule only applies when this receiver both halts and releases in
      // the function: a halt whose release lives in a later continuation
      // (callback style) is the codebase's normal asynchronous shape and
      // cannot be judged locally.
      const auto rel_it = releases.find(key);
      if (rel_it == releases.end()) continue;
      const std::vector<std::vector<std::size_t>>& key_rels = rel_it->second;

      // bad(n): control can flow from n to the function exit without
      // passing a release on this receiver.  Reverse fixpoint;
      // release-bearing nodes absorb.
      std::vector<char> bad(cfg.nodes.size(), 0);
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
          if (!key_rels[n].empty()) continue;
          char b = n == cfg.exit ? 1 : 0;
          for (const std::size_t s : cfg.nodes[n].succs) b |= bad[s];
          if (b != bad[n]) {
            bad[n] = b;
            changed = true;
          }
        }
      }

      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        for (const std::size_t h : key_halts[n]) {
          // A release later in the same straight-line node covers this halt.
          bool covered = false;
          for (const std::size_t r : key_rels[n]) covered = covered || r > h;
          if (covered) continue;
          bool escapes = false;
          for (const std::size_t s : cfg.nodes[n].succs)
            escapes |= bad[s] != 0;
          if (!escapes) continue;
          out.push_back(
              {file, toks[h].line, kFlowHaltRelease,
               "'" + toks[h].text + "' halts the network but '" + cfg.name +
                   "' can exit without releasing it; every path after a halt "
                   "must reach a release"});
        }
      }
    }
  }
}

void ruleFlowSwitchOrder(const std::string& file, const Tokens& toks,
                         const std::vector<FunctionCfg>& cfgs,
                         std::vector<Diagnostic>& out) {
  // Possible-state sets as bitmasks over the switch-protocol machine.
  constexpr unsigned kU = 1;  // unknown (function entry / continuation)
  constexpr unsigned kH = 2;  // network halted
  constexpr unsigned kS = 4;  // buffers switched
  constexpr unsigned kR = 8;  // network released
  for (const FunctionCfg& cfg : cfgs) {
    const std::set<std::string> loop_vars =
        rangeForVars(toks, cfg.body_begin, cfg.body_end);
    std::vector<std::vector<StageCall>> calls(cfg.nodes.size());
    bool any = false;
    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
      calls[n] = stageCallsIn(toks, cfg.nodes[n].tok_begin,
                              cfg.nodes[n].tok_end, cfg.body_begin, loop_vars);
      any = any || !calls[n].empty();
    }
    if (!any) continue;

    // Diagnostics dedupe across fixpoint revisits.
    std::set<std::pair<int, std::string>> diags;
    auto step = [&](unsigned state_bit, const StageCall& c) -> unsigned {
      const int line = toks[c.tok].line;
      const std::string& name = toks[c.tok].text;
      switch (c.stage) {
        case Stage::kHalt:
          if (state_bit == kH)
            diags.insert({line, "'" + name +
                                    "' halts a network that is already "
                                    "halted (double halt)"});
          if (state_bit == kS)
            diags.insert({line, "'" + name +
                                    "' halts after a buffer switch; release "
                                    "the network before halting again"});
          return kH;
        case Stage::kSwap:
          if (state_bit == kR)
            diags.insert({line, "'" + name +
                                    "' switches buffers after the release "
                                    "stage; stages must run halt -> switch "
                                    "-> release"});
          return kS;
        case Stage::kRelease:
          if (state_bit == kR)
            diags.insert({line, "'" + name +
                                    "' releases a network that is already "
                                    "released (double release)"});
          return kR;
      }
      return state_bit;
    };
    // Protocol state is tracked per receiver expression: halting nics_[0]
    // and then nics_[1] is a fan-out over two networks, not a double halt.
    // Each call advances only its own receiver's machine, so the analysis
    // decomposes into one independent fixpoint per key.
    std::set<std::string> keys;
    for (const std::vector<StageCall>& node_calls : calls)
      for (const StageCall& c : node_calls) keys.insert(c.receiver);

    for (const std::string& key : keys) {
      auto transfer = [&](std::size_t n, unsigned in_mask) -> unsigned {
        unsigned m = in_mask;
        for (const StageCall& c : calls[n]) {
          if (c.receiver != key) continue;
          unsigned next = 0;
          for (unsigned bit = 1; bit <= kR; bit <<= 1u)
            if ((m & bit) != 0) next |= step(bit, c);
          m = next;
        }
        return m;
      };

      std::vector<unsigned> in(cfg.nodes.size(), 0);
      in[cfg.entry] = kU;
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
          if (in[n] == 0) continue;
          const unsigned o = transfer(n, in[n]);
          for (const std::size_t s : cfg.nodes[n].succs) {
            if ((in[s] | o) != in[s]) {
              in[s] |= o;
              changed = true;
            }
          }
        }
      }
    }
    for (const auto& [line, msg] : diags)
      out.push_back({file, line, kFlowSwitchOrder, msg});
  }
}

/// Functions in this tree returning util::Status, by unambiguous name.
/// Names shared with void-returning APIs (e.g. `send`) are deliberately
/// absent — the compiler-side [[nodiscard]] on util::Status covers those;
/// this rule keeps zero false positives on token evidence alone.
bool isStatusFnName(const std::string& s) {
  return s == "COMM_init_node" || s == "COMM_add_node" ||
         s == "COMM_remove_node" || s == "COMM_init_job" ||
         s == "COMM_end_job" || s == "initJob" || s == "endJob" ||
         s == "allocContext" || s == "freeContext" || s == "hostEnqueueSend";
}

void ruleFlowStatusIgnored(const std::string& file, const Tokens& toks,
                           const std::vector<FunctionCfg>& cfgs,
                           std::vector<Diagnostic>& out) {
  for (const FunctionCfg& cfg : cfgs) {
    const std::size_t begin = cfg.body_begin;
    const std::size_t end = cfg.body_end;
    for (std::size_t i = begin; i < end; ++i) {
      if (!isCallAt(toks, i) || !isStatusFnName(toks[i].text)) continue;
      const std::size_t close = matchParen(toks, i + 1);
      if (close >= end) continue;
      const std::size_t s = callExprStart(toks, i, begin);

      // `(void)` prefix: the discard is explicit and intentional.
      if (s >= begin + 3 && isPunct(toks[s - 1], ")") &&
          isIdent(toks[s - 2], "void") && isPunct(toks[s - 3], "("))
        continue;

      const Token* b = s > begin ? &toks[s - 1] : nullptr;
      const bool stmt_start =
          b == nullptr || isPunct(*b, ";") || isPunct(*b, "{") ||
          isPunct(*b, "}") || isPunct(*b, ")") || isIdent(*b, "else") ||
          isIdent(*b, "do");
      if (stmt_start) {
        // Bare expression statement: the Status vanishes.
        if (close + 1 < end && isPunct(toks[close + 1], ";")) {
          out.push_back({file, toks[i].line, kFlowStatusIgnored,
                         "result of '" + toks[i].text +
                             "' is a util::Status but is discarded; check "
                             "it or cast to (void) with a reason"});
        }
        continue;
      }
      // `Status st = call(...)` / `auto st = call(...)`: flag when `st` is
      // never read again anywhere in the function.
      if (isPunct(*b, "=") && s >= begin + 2 &&
          toks[s - 2].kind == TokKind::kIdent && s >= begin + 3 &&
          (isIdent(toks[s - 3], "Status") || isIdent(toks[s - 3], "auto"))) {
        const std::string& var = toks[s - 2].text;
        bool read = false;
        for (std::size_t j = begin; j < end && !read; ++j)
          read = j != s - 2 && toks[j].kind == TokKind::kIdent &&
                 toks[j].text == var;
        if (!read) {
          out.push_back({file, toks[s - 2].line, kFlowStatusIgnored,
                         "util::Status stored in '" + var +
                             "' is never read; the call's outcome is "
                             "silently dropped"});
        }
      }
    }
  }
}

}  // namespace

const std::vector<std::string>& allRuleIds() {
  static const std::vector<std::string> kIds = {
      kDetRand,        kDetClock,          kDetTime,
      kDetUnorderedIter, kDetPdesHazard,   kHotStdFunction,
      kHotNewDelete,   kHotMakeShared,     kHygUsingNamespace,
      kHygExplicitCtor, kHygIwyu,          kFlowHaltRelease,
      kFlowStatusIgnored, kFlowSwitchOrder, kBadAllow,
      kUnusedAllow,
  };
  return kIds;
}

bool isKnownRule(const std::string& id) {
  const auto& ids = allRuleIds();
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

FileResult lintFile(const FileInput& input) {
  FileResult result;
  TokenStream ts = tokenize(input.source);
  Directives dir = parseDirectives(input.path, ts.comments);
  result.hot = (input.hot_by_path || dir.hot_marker) && !dir.cold_marker;

  TokenStream paired;
  if (input.paired_header != nullptr) paired = tokenize(*input.paired_header);

  std::vector<Diagnostic> raw;
  ruleDetRand(input.path, ts.tokens, raw);
  ruleDetClock(input.path, ts.tokens, raw);
  ruleDetTime(input.path, ts.tokens, raw);
  ruleDetUnorderedIter(input.path, ts.tokens,
                       input.paired_header != nullptr ? &paired.tokens
                                                      : nullptr,
                       raw);
  if (input.pdes || dir.pdes_marker)
    ruleDetPdesHazard(input.path, ts.tokens, raw);
  if (result.hot) {
    ruleHotStdFunction(input.path, ts.tokens, raw);
    ruleHotNewDelete(input.path, ts.tokens, raw);
    ruleHotMakeShared(input.path, ts.tokens, raw);
  }
  if (isHeaderPath(input.path))
    ruleHygUsingNamespace(input.path, ts.tokens, raw);
  ruleHygExplicitCtor(input.path, ts.tokens, raw);
  ruleHygIwyu(input.path, ts.tokens, ts.includes, raw);
  const std::vector<FunctionCfg> cfgs = buildFunctionCfgs(ts.tokens);
  ruleFlowHaltRelease(input.path, ts.tokens, cfgs, raw);
  ruleFlowStatusIgnored(input.path, ts.tokens, cfgs, raw);
  ruleFlowSwitchOrder(input.path, ts.tokens, cfgs, raw);

  // Apply suppressions: an allow matches a diagnostic on its target line
  // with the same rule id.
  for (Diagnostic& d : raw) {
    bool suppressed = false;
    for (Allow& a : dir.allows) {
      if (a.rule == d.rule && a.target_line == d.line) {
        a.used = true;
        suppressed = true;
        result.suppressions.push_back({d.file, d.line, a.rule, a.reason});
        break;
      }
    }
    if (!suppressed) result.diagnostics.push_back(std::move(d));
  }
  for (const Allow& a : dir.allows) {
    if (a.used) continue;
    result.diagnostics.push_back(
        {input.path, a.directive_line, kUnusedAllow,
         "allow(" + a.rule + ") suppresses nothing on line " +
             std::to_string(a.target_line) + "; remove the stale directive"});
  }
  for (Diagnostic& e : dir.errors)
    result.diagnostics.push_back(std::move(e));

  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  std::sort(result.suppressions.begin(), result.suppressions.end(),
            [](const SuppressionUse& a, const SuppressionUse& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

}  // namespace gclint
