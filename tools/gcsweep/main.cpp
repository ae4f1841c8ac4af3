// gcsweep CLI.
//
// Usage:
//   gcsweep [--nodes N] [--jobs J] [--rounds R] [--msg-bytes B]
//           [--quantum-ms Q] [--salts K] [--loss r1,r2,...]
//           [--jitter-ns j1,j2,...] [--corrupt c1,c2,...]
//           [--fail-stop none,link,nic,node] [--seeds s1,s2,...] [--out FILE]
//
// Runs the cross product of the axis lists (tie salts 0..K-1) with the
// gcverify invariant engine armed in abort mode and gctrace on, prints one
// summary line per cell, writes the sweep CSV to --out, and exits 1 if the
// oracle finds a divergence (2 on bad input).  Cells run on GANGCOMM_JOBS
// worker threads; stdout and the CSV are byte-identical at any thread count.
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/log.hpp"
#include "sim/time.hpp"
#include "sweep.hpp"
#include "util/status.hpp"

namespace {

[[noreturn]] void usageError(const std::string& what) {
  std::fprintf(stderr, "gcsweep: %s\n", what.c_str());
  std::exit(2);
}

std::vector<std::string> splitList(const char* value) {
  std::vector<std::string> out(1);
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p == ',') {
      out.emplace_back();
    } else {
      out.back() += *p;
    }
  }
  return out;
}

std::uint64_t parseU64(const char* flag, const std::string& s,
                       std::uint64_t max = UINT64_MAX) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE || v > max)
    usageError(std::string("bad value for ") + flag + ": " + s);
  return v;
}

std::vector<std::uint64_t> parseU64s(const char* flag, const char* value) {
  std::vector<std::uint64_t> out;
  for (const std::string& s : splitList(value))
    out.push_back(parseU64(flag, s));
  return out;
}

std::vector<double> parseDoubles(const char* flag, const char* value) {
  std::vector<double> out;
  for (const std::string& s : splitList(value)) {
    char* end = nullptr;
    out.push_back(std::strtod(s.c_str(), &end));
    if (end == s.c_str() || *end != '\0')
      usageError(std::string("bad value for ") + flag + ": " + s);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  namespace sweep = gangcomm::sweep;
  gangcomm::sim::Log::initFromEnv();  // GANGCOMM_TRACE=1..3 for debugging
  sweep::SweepConfig cfg;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) usageError(std::string(arg) + " needs a value");
    const char* value = argv[++i];
    if (std::strcmp(arg, "--nodes") == 0) {
      cfg.nodes = static_cast<int>(parseU64(arg, value, INT_MAX));
    } else if (std::strcmp(arg, "--jobs") == 0) {
      cfg.jobs = static_cast<int>(parseU64(arg, value, INT_MAX));
    } else if (std::strcmp(arg, "--rounds") == 0) {
      cfg.rounds = parseU64(arg, value);
    } else if (std::strcmp(arg, "--msg-bytes") == 0) {
      cfg.msg_bytes =
          static_cast<std::uint32_t>(parseU64(arg, value, UINT32_MAX));
    } else if (std::strcmp(arg, "--quantum-ms") == 0) {
      cfg.quantum_ms =
          parseU64(arg, value, UINT64_MAX / gangcomm::sim::kMillisecond);
    } else if (std::strcmp(arg, "--salts") == 0) {
      cfg.salts.clear();
      for (std::uint64_t s = 0, k = parseU64(arg, value); s < k; ++s)
        cfg.salts.push_back(s);
    } else if (std::strcmp(arg, "--loss") == 0) {
      cfg.loss = parseDoubles(arg, value);
    } else if (std::strcmp(arg, "--jitter-ns") == 0) {
      cfg.jitter_ns = parseU64s(arg, value);
    } else if (std::strcmp(arg, "--corrupt") == 0) {
      cfg.corrupt = parseDoubles(arg, value);
    } else if (std::strcmp(arg, "--fail-stop") == 0) {
      cfg.fail_stops = splitList(value);
    } else if (std::strcmp(arg, "--seeds") == 0) {
      cfg.seeds = parseU64s(arg, value);
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = value;
    } else {
      usageError(std::string("unknown flag ") + arg);
    }
  }
  std::string why;
  if (!gangcomm::util::ok(sweep::validate(cfg, &why))) usageError(why);

  const std::vector<sweep::CellResult> results = sweep::runSweep(cfg);
  std::printf("gcsweep: %zu cells (%d jobs x %d nodes, %llu rounds of %u B, "
              "retransmit %s)\n",
              results.size(), cfg.jobs, cfg.nodes,
              static_cast<unsigned long long>(cfg.rounds), cfg.msg_bytes,
              results.front().cell.retransmit ? "on" : "off");
  for (const sweep::CellResult& r : results)
    std::printf("  %s\n", sweep::summarize(r).c_str());

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    const bool written =
        f != nullptr && std::fputs(sweep::renderCsv(results).c_str(), f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "gcsweep: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }

  const std::vector<std::string> divergences = sweep::checkOracle(results);
  for (const std::string& d : divergences)
    std::fprintf(stderr, "gcsweep: DIVERGENCE: %s\n", d.c_str());
  if (!divergences.empty()) return 1;
  std::printf("gcsweep: all %zu cells agree\n", results.size());
  return 0;
}
