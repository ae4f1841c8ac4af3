// gclint — project-invariant static analysis for the gangcomm tree.
//
//   gclint [--root DIR] [--json FILE] [--sarif FILE] [--hot PREFIX]...
//          [--no-default-hot] [--jobs N] [--list-rules] PATH...
//
// PATHs (files or directories, relative to --root) are scanned for
// violations of the determinism (det-*), hot-path allocation (hot-*),
// hygiene (hyg-*), and flow-sensitive protocol (flow-*) invariants; see
// DESIGN.md "Static analysis" for the rule tables and suppression syntax.
// --jobs (or GANGCOMM_JOBS) sets the worker count; output is
// byte-identical at any job count.
// Exit status: 0 clean, 1 diagnostics emitted, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tools/gclint/driver.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: gclint [--root DIR] [--json FILE] [--sarif FILE]\n"
      "              [--hot PREFIX]... [--no-default-hot]\n"
      "              [--jobs N] [--list-rules] PATH...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gclint::LintOptions opts;
  std::string json_path;
  std::string sarif_path;
  std::vector<std::string> paths;
  std::vector<std::string> extra_hot;
  bool default_hot = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& id : gclint::allRuleIds())
        std::printf("%s\n", id.c_str());
      return 0;
    }
    if (arg == "--root") {
      if (++i >= argc) return usage();
      opts.root = argv[i];
    } else if (arg == "--json") {
      if (++i >= argc) return usage();
      json_path = argv[i];
    } else if (arg == "--sarif") {
      if (++i >= argc) return usage();
      sarif_path = argv[i];
    } else if (arg == "--hot") {
      if (++i >= argc) return usage();
      extra_hot.push_back(argv[i]);
    } else if (arg == "--no-default-hot") {
      default_hot = false;
    } else if (arg == "--jobs") {
      if (++i >= argc) return usage();
      opts.jobs = std::atoi(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "gclint: unknown option '%s'\n", arg.c_str());
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();
  if (!default_hot) opts.hot_prefixes.clear();
  for (std::string& h : extra_hot) opts.hot_prefixes.push_back(std::move(h));

  const std::vector<std::string> files = gclint::collectFiles(opts, paths);
  if (files.empty()) {
    std::fprintf(stderr, "gclint: no lintable files under the given paths\n");
    return 2;
  }
  const gclint::TreeResult result = gclint::lintTree(opts, files);

  for (const gclint::Diagnostic& d : result.diagnostics)
    std::fprintf(stderr, "%s\n", gclint::formatDiagnostic(d).c_str());

  if (!json_path.empty() && !gclint::writeJsonReport(result, json_path)) {
    std::fprintf(stderr, "gclint: cannot write report to %s\n",
                 json_path.c_str());
    return 2;
  }
  if (!sarif_path.empty() && !gclint::writeSarif(result, sarif_path)) {
    std::fprintf(stderr, "gclint: cannot write SARIF to %s\n",
                 sarif_path.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "gclint: %d files scanned (%zu hot), %zu diagnostics, "
               "%zu suppressions in use\n",
               result.files_scanned, result.hot_files.size(),
               result.diagnostics.size(), result.suppressions.size());
  return result.diagnostics.empty() ? 0 : 1;
}
