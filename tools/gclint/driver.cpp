#include "tools/gclint/driver.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gclint {
namespace fs = std::filesystem;

namespace {

bool lintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".cpp" ||
         ext == ".cc";
}

bool readFile(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

fs::path resolve(const LintOptions& opts, const std::string& path) {
  fs::path p(path);
  if (p.is_absolute() || opts.root.empty()) return p;
  return fs::path(opts.root) / p;
}

std::string relativize(const LintOptions& opts, const fs::path& p) {
  if (opts.root.empty()) return p.generic_string();
  std::error_code ec;
  const fs::path rel = fs::relative(p, opts.root, ec);
  if (ec || rel.empty() || *rel.begin() == "..") return p.generic_string();
  return rel.generic_string();
}

bool matchesPrefixes(const std::vector<std::string>& prefixes,
                     const std::string& rel) {
  for (const std::string& prefix : prefixes)
    if (rel.rfind(prefix, 0) == 0) return true;
  return false;
}

void jsonEscape(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

bool writeTextFile(const std::string& content, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

std::vector<std::string> collectFiles(const LintOptions& opts,
                                      const std::vector<std::string>& paths) {
  std::vector<std::string> out;
  for (const std::string& path : paths) {
    const fs::path p = resolve(opts, path);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && lintableExtension(it->path()))
          out.push_back(relativize(opts, it->path()));
      }
    } else if (fs::is_regular_file(p, ec) && lintableExtension(p)) {
      out.push_back(relativize(opts, p));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

FileResult lintPath(const LintOptions& opts, const std::string& rel_path) {
  const fs::path abs = resolve(opts, rel_path);
  FileInput input;
  input.path = rel_path;
  if (!readFile(abs, input.source)) {
    FileResult r;
    r.diagnostics.push_back(
        {rel_path, 0, "bad-allow", "cannot read file"});
    return r;
  }
  input.hot_by_path = matchesPrefixes(opts.hot_prefixes, rel_path);
  input.pdes = matchesPrefixes(opts.pdes_prefixes, rel_path);

  // Seed the unordered-container symbol table from the paired header so a
  // member declared in foo.hpp and iterated in foo.cpp is still caught.
  std::string header_src;
  const std::string ext = abs.extension().string();
  if (ext == ".cpp" || ext == ".cc") {
    for (const char* hext : {".hpp", ".h", ".hh"}) {
      fs::path header = abs;
      header.replace_extension(hext);
      if (readFile(header, header_src)) {
        input.paired_header = &header_src;
        break;
      }
    }
  }
  return lintFile(input);
}

/// Resolved worker count: explicit option, else GANGCOMM_JOBS, else the
/// hardware concurrency (same resolution order as bench/sweep_runner).
int resolveJobs(const LintOptions& opts) {
  int jobs = opts.jobs;
  if (jobs <= 0) {
    if (const char* env = std::getenv("GANGCOMM_JOBS")) jobs = std::atoi(env);
  }
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  return jobs > 0 ? jobs : 1;
}

TreeResult lintTree(const LintOptions& opts,
                    const std::vector<std::string>& rel_paths) {
  TreeResult out;
  // The per-file phase is embarrassingly parallel (lintPath touches only its
  // own file + paired header).  Results land in per-index slots and merge in
  // input order, so the report is byte-identical at any job count.
  std::vector<FileResult> slots(rel_paths.size());
  const int jobs = std::min<int>(resolveJobs(opts),
                                 static_cast<int>(rel_paths.size()));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < rel_paths.size(); ++i)
      slots[i] = lintPath(opts, rel_paths[i]);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back([&]() {
        for (std::size_t i = next.fetch_add(1); i < rel_paths.size();
             i = next.fetch_add(1))
          slots[i] = lintPath(opts, rel_paths[i]);
      });
    }
    for (std::thread& t : workers) t.join();
  }
  for (std::size_t i = 0; i < rel_paths.size(); ++i) {
    FileResult& r = slots[i];
    ++out.files_scanned;
    if (r.hot) out.hot_files.push_back(rel_paths[i]);
    for (Diagnostic& d : r.diagnostics)
      out.diagnostics.push_back(std::move(d));
    for (SuppressionUse& s : r.suppressions)
      out.suppressions.push_back(std::move(s));
  }
  return out;
}

std::string formatDiagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": " + d.rule + ": " +
         d.message;
}

bool writeJsonReport(const TreeResult& result, const std::string& path) {
  std::string j;
  j += "{\n";
  j += "  \"tool\": \"gclint\",\n";
  j += "  \"version\": 1,\n";
  j += "  \"files_scanned\": " + std::to_string(result.files_scanned) + ",\n";
  j += "  \"diagnostics\": [";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"file\": \"";
    jsonEscape(j, d.file);
    j += "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"";
    jsonEscape(j, d.rule);
    j += "\", \"message\": \"";
    jsonEscape(j, d.message);
    j += "\"}";
  }
  j += result.diagnostics.empty() ? "],\n" : "\n  ],\n";
  j += "  \"suppressions\": [";
  for (std::size_t i = 0; i < result.suppressions.size(); ++i) {
    const SuppressionUse& s = result.suppressions[i];
    j += i == 0 ? "\n" : ",\n";
    j += "    {\"file\": \"";
    jsonEscape(j, s.file);
    j += "\", \"line\": " + std::to_string(s.line) + ", \"rule\": \"";
    jsonEscape(j, s.rule);
    j += "\", \"reason\": \"";
    jsonEscape(j, s.reason);
    j += "\"}";
  }
  j += result.suppressions.empty() ? "]\n" : "\n  ]\n";
  j += "}\n";
  return writeTextFile(j, path);
}

bool writeSarif(const TreeResult& result, const std::string& path) {
  std::string j;
  j += "{\n";
  j += "  \"version\": \"2.1.0\",\n";
  j += "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
       "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n";
  j += "  \"runs\": [\n    {\n";
  j += "      \"tool\": {\n        \"driver\": {\n";
  j += "          \"name\": \"gclint\",\n";
  j += "          \"informationUri\": \"tools/gclint\",\n";
  j += "          \"rules\": [";
  const std::vector<std::string>& ids = allRuleIds();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    j += i == 0 ? "\n" : ",\n";
    j += "            {\"id\": \"";
    jsonEscape(j, ids[i]);
    j += "\"}";
  }
  j += "\n          ]\n        }\n      },\n";
  j += "      \"results\": [";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    j += i == 0 ? "\n" : ",\n";
    j += "        {\"ruleId\": \"";
    jsonEscape(j, d.rule);
    j += "\", \"level\": \"error\", \"message\": {\"text\": \"";
    jsonEscape(j, d.message);
    j += "\"}, \"locations\": [{\"physicalLocation\": "
         "{\"artifactLocation\": {\"uri\": \"";
    jsonEscape(j, d.file);
    j += "\"}, \"region\": {\"startLine\": " +
         std::to_string(d.line > 0 ? d.line : 1) + "}}}]}";
  }
  j += result.diagnostics.empty() ? "]\n" : "\n      ]\n";
  j += "    }\n  ]\n}\n";
  return writeTextFile(j, path);
}

}  // namespace gclint
