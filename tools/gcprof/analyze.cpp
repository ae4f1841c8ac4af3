#include "analyze.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json_reader.hpp"
#include "obs/gcprof.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace gangcomm::gcprof_tool {

namespace {

using json::JsonParser;
using json::JsonValue;

std::string readFileOrDie(const std::string& path, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "gcprof: cannot open %s %s\n", what, path.c_str());
    std::exit(2);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

const char* domainName(std::uint32_t tag) {
  switch (sim::lpTagDomain(tag)) {
    case sim::LpDomain::kSim: return "sim";
    case sim::LpDomain::kNode: return "node";
    case sim::LpDomain::kNic: return "nic";
    case sim::LpDomain::kLink: return "link";
    case sim::LpDomain::kGlobal: return "global";
  }
  return "?";
}

std::string usStr(std::int64_t ns) {
  return util::formatDouble(static_cast<double>(ns) / 1000.0, 3);
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

}  // namespace

Dump parseDump(const std::string& text) {
  const JsonValue root = JsonParser(text).parse();
  const JsonValue* version = root.find("gcprof");
  if (version == nullptr || version->str != "gcprof-v1")
    throw std::runtime_error("not a gcprof-v1 dump");
  const JsonValue* mode = root.find("mode");
  if (mode == nullptr || mode->str != "sim")
    throw std::runtime_error("not a sim-mode gcprof dump");
  Dump d;
  const JsonValue* records = root.find("records");
  if (records == nullptr || records->kind != JsonValue::Kind::kArray)
    throw std::runtime_error("gcprof dump has no records array");
  d.records.reserve(records->items.size());
  for (const JsonValue& row : records->items) {
    if (row.kind != JsonValue::Kind::kArray || row.items.size() < 5)
      throw std::runtime_error("malformed gcprof record");
    DumpRecord r;
    r.id = static_cast<std::uint64_t>(row.items[0].asI64());
    r.parent = static_cast<std::uint64_t>(row.items[1].asI64());
    r.sched = row.items[2].asI64();
    r.fire = row.items[3].asI64();
    r.lp = static_cast<std::uint32_t>(row.items[4].asI64());
    d.records.push_back(r);
  }
  const JsonValue* total = root.find("total");
  const JsonValue* cancelled = root.find("cancelled");
  const JsonValue* pending = root.find("pending");
  d.total = total != nullptr ? static_cast<std::uint64_t>(total->asI64())
                             : d.records.size();
  if (cancelled != nullptr)
    d.cancelled = static_cast<std::uint64_t>(cancelled->asI64());
  if (pending != nullptr)
    d.pending = static_cast<std::uint64_t>(pending->asI64());
  if (d.total != d.records.size())
    throw std::runtime_error("gcprof dump total != record count (truncated?)");
  return d;
}

Dump loadDump(const std::string& path) {
  try {
    return parseDump(readFileOrDie(path, "dump"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcprof: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

Analysis analyze(const Dump& dump) {
  Analysis a;
  a.cancelled = dump.cancelled;
  a.pending = dump.pending;
  const std::size_t n = dump.records.size();
  a.events = n;
  if (n == 0) return a;

  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(n * 2);
  std::vector<std::uint64_t> depth(n);
  std::map<std::uint32_t, std::uint64_t> lp_counts;

  a.first_fire = dump.records.front().fire;
  a.last_fire = dump.records.front().fire;
  std::size_t critical_at = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const DumpRecord& r = dump.records[i];
    index.emplace(r.id, i);
    a.first_fire = std::min(a.first_fire, r.fire);
    a.last_fire = std::max(a.last_fire, r.fire);
    ++lp_counts[r.lp];

    const auto pit = r.parent != 0 ? index.find(r.parent) : index.end();
    const bool has_parent = pit != index.end();
    const std::size_t pi = has_parent ? pit->second : 0;

    depth[i] = has_parent ? depth[pi] + 1 : 1;
    if (depth[i] > a.critical_len) {
      a.critical_len = depth[i];
      critical_at = i;
    }

    if (has_parent)
      ++a.edges;
    else
      ++a.roots;
  }

  a.span_ns = a.last_fire - a.first_fire;
  a.ideal_speedup = static_cast<double>(n) /
                    static_cast<double>(std::max<std::uint64_t>(
                        a.critical_len, 1));

  for (const auto& [tag, count] : lp_counts)
    a.lps.push_back({tag, obs::CausalityRecorder::lpName(tag), count});

  // Recover the critical chain (root -> deepest event) via parent links.
  std::vector<std::uint64_t> chain;
  std::size_t cur = critical_at;
  while (true) {
    chain.push_back(dump.records[cur].id);
    const std::uint64_t parent = dump.records[cur].parent;
    if (parent == 0) break;
    const auto it = index.find(parent);
    if (it == index.end()) break;
    cur = it->second;
  }
  a.critical_ids.assign(chain.rbegin(), chain.rend());
  return a;
}

std::string renderReport(const Analysis& a) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "gcprof: %llu events, %llu edges, %llu roots from a sim-mode "
                "dump\n",
                static_cast<unsigned long long>(a.events),
                static_cast<unsigned long long>(a.edges),
                static_cast<unsigned long long>(a.roots));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "cancelled before firing (not DAG nodes): %llu; still "
                "pending at dump: %llu\n",
                static_cast<unsigned long long>(a.cancelled),
                static_cast<unsigned long long>(a.pending));
  out += buf;
  std::snprintf(buf, sizeof(buf), "sim span: %s us (fire %lld..%lld ns)\n",
                usStr(a.span_ns).c_str(),
                static_cast<long long>(a.first_fire),
                static_cast<long long>(a.last_fire));
  out += buf;

  out += "\nCausal critical path:\n";
  util::Table fc({"metric", "value"});
  fc.addRow({"total work [events]", util::formatU64(a.events)});
  fc.addRow({"critical path [events]", util::formatU64(a.critical_len)});
  fc.addRow({"ideal speedup (infinite LPs)",
             util::formatDouble(a.ideal_speedup, 3)});
  out += fc.render();

  // Per-domain load.
  out += "\nPer-domain load:\n";
  struct DomAgg {
    std::uint64_t lps = 0, events = 0, max = 0;
  };
  std::map<std::string, DomAgg> doms;
  for (const LpRow& r : a.lps) {
    DomAgg& d = doms[domainName(r.tag)];
    ++d.lps;
    d.events += r.events;
    d.max = std::max(d.max, r.events);
  }
  util::Table dt({"domain", "lps", "events", "share_pct", "max_per_lp"});
  for (const auto& [name, d] : doms)
    dt.addRow({name, util::formatU64(d.lps), util::formatU64(d.events),
               util::formatDouble(pct(d.events, a.events), 2),
               util::formatU64(d.max)});
  out += dt.render();

  // Busiest LPs.
  std::vector<const LpRow*> busy;
  busy.reserve(a.lps.size());
  for (const LpRow& r : a.lps) busy.push_back(&r);
  std::stable_sort(busy.begin(), busy.end(),
                   [](const LpRow* x, const LpRow* y) {
                     return x->events > y->events;
                   });
  if (busy.size() > 8) busy.resize(8);
  out += "\nBusiest LPs:\n";
  util::Table bt({"lp", "events", "share_pct"});
  for (const LpRow* r : busy)
    bt.addRow({r->name, util::formatU64(r->events),
               util::formatDouble(pct(r->events, a.events), 2)});
  out += bt.render();

  return out;
}

bool writeCsv(const Analysis& a, const std::string& path) {
  util::Table t({"lp_tag", "name", "domain", "events", "share_pct"});
  for (const LpRow& r : a.lps)
    t.addRow({util::formatU64(r.tag), r.name, domainName(r.tag),
              util::formatU64(r.events),
              util::formatDouble(pct(r.events, a.events), 4)});
  return t.writeCsv(path);
}

std::string analysisJson(const Analysis& a) {
  std::string out = "{\"gcprof_analysis\":\"gcprof-analysis-v1\",";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"mode\":\"sim\",\"events\":%llu,\"edges\":%llu,\"roots\":%llu,"
      "\"cancelled\":%llu,\"pending\":%llu,\"span_ns\":%lld,\n"
      "\"critical_path_events\":%llu,\"ideal_speedup\":%.3f,\n"
      "\"lps\":%llu,",
      static_cast<unsigned long long>(a.events),
      static_cast<unsigned long long>(a.edges),
      static_cast<unsigned long long>(a.roots),
      static_cast<unsigned long long>(a.cancelled),
      static_cast<unsigned long long>(a.pending),
      static_cast<long long>(a.span_ns),
      static_cast<unsigned long long>(a.critical_len), a.ideal_speedup,
      static_cast<unsigned long long>(a.lps.size()));
  out += buf;
  out += "\n\"lp_table\":[";
  bool first = true;
  for (const LpRow& r : a.lps) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"tag\":%lu,\"name\":\"%s\",\"events\":%llu}",
                  first ? "" : ",", static_cast<unsigned long>(r.tag),
                  r.name.c_str(),
                  static_cast<unsigned long long>(r.events));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

bool writeChromeTrace(const Dump& dump, const Analysis& a,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::map<std::uint32_t, int> tids;
  for (const LpRow& r : a.lps) {
    const int tid = static_cast<int>(tids.size()) + 1;
    tids.emplace(r.tag, tid);
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                 tid, r.name.c_str());
  }
  bool first = true;
  for (const DumpRecord& r : dump.records) {
    const auto it = tids.find(r.lp);
    const int tid = it != tids.end() ? it->second : 0;
    std::fprintf(f,
                 "%s{\"name\":\"ev\",\"cat\":\"gcprof\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":0.001,\"pid\":0,\"tid\":%d,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 first ? "" : ",\n",
                 static_cast<double>(r.fire) / 1000.0, tid,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
    first = false;
  }
  // Critical path as a flow-event chain across the LP tracks.
  std::unordered_map<std::uint64_t, const DumpRecord*> by_id;
  for (const DumpRecord& r : dump.records) by_id.emplace(r.id, &r);
  for (std::size_t i = 0; i < a.critical_ids.size(); ++i) {
    const auto it = by_id.find(a.critical_ids[i]);
    if (it == by_id.end()) continue;
    const DumpRecord& r = *it->second;
    const auto tit = tids.find(r.lp);
    const char* ph = i == 0 ? "s"
                    : i + 1 == a.critical_ids.size() ? "f"
                                                     : "t";
    std::fprintf(f,
                 "%s{\"name\":\"critical\",\"cat\":\"gcprof\",\"ph\":"
                 "\"%s\",\"id\":1,\"ts\":%.3f,\"pid\":0,\"tid\":%d%s}",
                 first ? "" : ",\n", ph,
                 static_cast<double>(r.fire) / 1000.0,
                 tit != tids.end() ? tit->second : 0,
                 *ph == 'f' ? ",\"bp\":\"e\"" : "");
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool writeTextFile(const std::string& text, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace gangcomm::gcprof_tool
