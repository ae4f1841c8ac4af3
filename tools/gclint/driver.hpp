// gclint driver: file collection, hot-path classification, and the JSON
// report.  Kept apart from main() so the fixture test suite can lint files
// and trees in-process.
#pragma once

#include <string>
#include <vector>

#include "tools/gclint/rules.hpp"

namespace gclint {

struct LintOptions {
  std::string root;  // paths in diagnostics are reported relative to this
  /// A file whose root-relative path starts with one of these is hot.
  std::vector<std::string> hot_prefixes = {"src/sim", "src/net", "src/fm"};
  /// Files under these prefixes get the pre-PDES hazard rule
  /// (det-pdes-hazard); a `// gclint: pdes` marker opts a file in anywhere.
  std::vector<std::string> pdes_prefixes = {"src/"};
  /// Worker threads for the per-file tokenize/analyze phase.  0 = take
  /// GANGCOMM_JOBS from the environment, falling back to the hardware
  /// concurrency (the sweep_runner convention).  Output is byte-identical
  /// at any job count.
  int jobs = 0;
};

struct TreeResult {
  std::vector<Diagnostic> diagnostics;
  std::vector<SuppressionUse> suppressions;
  int files_scanned = 0;
  std::vector<std::string> hot_files;  // root-relative, sorted
};

/// Recursively collect .hpp/.h/.hh/.cpp/.cc files under each path (a path
/// may also name a single file), sorted for deterministic output.  Paths are
/// interpreted relative to opts.root when not absolute.
std::vector<std::string> collectFiles(const LintOptions& opts,
                                      const std::vector<std::string>& paths);

/// Lint one file on disk (root-relative path).
FileResult lintPath(const LintOptions& opts, const std::string& rel_path);

/// Lint a set of root-relative paths, merging per-file results in order.
TreeResult lintTree(const LintOptions& opts,
                    const std::vector<std::string>& rel_paths);

/// `file:line: rule-id: message` — one line per diagnostic.
std::string formatDiagnostic(const Diagnostic& d);

/// Machine-readable report (schema: tool, version, files_scanned,
/// diagnostics[], suppressions[]).  Returns false when the file cannot be
/// written.
bool writeJsonReport(const TreeResult& result, const std::string& path);

/// SARIF 2.1.0 log of the diagnostics, for PR annotation uploads.  Returns
/// false when the file cannot be written.
bool writeSarif(const TreeResult& result, const std::string& path);

}  // namespace gclint
