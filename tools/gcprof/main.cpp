// gcprof CLI: turn a causality dump into the event-causality view —
// total work, critical path and ideal speedup, per-LP event counts, and a
// Chrome trace with the critical path drawn as a flow chain.
//
//   gcprof --dump gcprof_dump.json [--csv lp.csv] [--json analysis.json]
//          [--chrome trace.json] [--quiet]
//
// With no output flags it prints the report tables.  All sim-mode outputs
// are byte-identical across reruns of the same simulated run (DESIGN.md §14).
#include <cstdio>
#include <cstring>
#include <string>

#include "analyze.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dump FILE [--csv FILE] [--json FILE]\n"
               "          [--chrome FILE] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gangcomm::gcprof_tool;

  std::string dump_path, csv_path, json_path, chrome_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (std::strcmp(arg, "--dump") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      dump_path = v;
    } else if (std::strcmp(arg, "--csv") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      csv_path = v;
    } else if (std::strcmp(arg, "--json") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      json_path = v;
    } else if (std::strcmp(arg, "--chrome") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      chrome_path = v;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "gcprof: unknown argument %s\n", arg);
      return usage(argv[0]);
    }
  }
  if (dump_path.empty()) return usage(argv[0]);

  const Dump dump = loadDump(dump_path);
  const Analysis a = analyze(dump);

  if (!quiet) std::fputs(renderReport(a).c_str(), stdout);
  bool ok = true;
  if (!csv_path.empty() && !writeCsv(a, csv_path)) {
    std::fprintf(stderr, "gcprof: cannot write %s\n", csv_path.c_str());
    ok = false;
  }
  if (!json_path.empty() && !writeTextFile(analysisJson(a), json_path)) {
    std::fprintf(stderr, "gcprof: cannot write %s\n", json_path.c_str());
    ok = false;
  }
  if (!chrome_path.empty() && !writeChromeTrace(dump, a, chrome_path)) {
    std::fprintf(stderr, "gcprof: cannot write %s\n", chrome_path.c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
