#include "report.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/json_reader.hpp"
#include "util/table.hpp"

namespace gangcomm::gctrace_tool {

namespace {

using json::JsonParser;
using json::JsonValue;

// ---- Ingestion --------------------------------------------------------------

std::int64_t argI64(const JsonValue& ev, const char* key,
                    std::int64_t fallback = -1) {
  const JsonValue* args = ev.find("args");
  if (args == nullptr) return fallback;
  const JsonValue* v = args->find(key);
  return v != nullptr ? v->asI64(fallback) : fallback;
}

/// Chrome "ts" is microseconds with three decimals; recover exact ns.
std::int64_t tsToNs(const JsonValue& ev) {
  const JsonValue* ts = ev.find("ts");
  return ts != nullptr ? static_cast<std::int64_t>(
                             std::llround(ts->number * 1000.0))
                       : -1;
}

std::uint64_t flowId(const JsonValue& ev) {
  const JsonValue* id = ev.find("id");
  if (id == nullptr) return 0;
  if (id->kind == JsonValue::Kind::kString)
    return std::strtoull(id->str.c_str(), nullptr, 10);
  return static_cast<std::uint64_t>(id->asI64(0));
}

bool fieldIs(const JsonValue& ev, const char* key, const char* want) {
  const JsonValue* v = ev.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString &&
         v->str == want;
}

TraceReport ingestChrome(const JsonValue& root) {
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray)
    throw std::runtime_error("no traceEvents array in Chrome trace");

  struct StartInfo {
    int node = -1;
    std::int64_t ts = -1;
  };
  std::map<std::uint64_t, StartInfo> starts;
  std::map<std::uint64_t, std::array<std::int64_t, obs::kPacketStageCount>>
      stages;
  TraceReport report;
  std::set<std::uint64_t> finished;

  for (const JsonValue& ev : events->items) {
    if (!fieldIs(ev, "cat", "gctrace")) continue;
    if (fieldIs(ev, "name", "pkt") && fieldIs(ev, "ph", "s")) {
      StartInfo s;
      const JsonValue* pid = ev.find("pid");
      s.node = pid != nullptr ? static_cast<int>(pid->asI64(-1)) : -1;
      s.ts = tsToNs(ev);
      starts[flowId(ev)] = s;
    } else if (fieldIs(ev, "name", "pkt") && fieldIs(ev, "ph", "f")) {
      PacketRecord r;
      r.id = flowId(ev);
      const JsonValue* pid = ev.find("pid");
      r.dst_node = pid != nullptr ? static_cast<int>(pid->asI64(-1)) : -1;
      r.finish_ns = tsToNs(ev);
      r.job = static_cast<int>(argI64(ev, "job"));
      r.src_rank = static_cast<int>(argI64(ev, "src"));
      r.dst_rank = static_cast<int>(argI64(ev, "dst"));
      r.seq = static_cast<std::uint64_t>(argI64(ev, "seq", 0));
      r.bytes = argI64(ev, "bytes", 0);
      r.switches = argI64(ev, "switches", 0);
      report.packets.push_back(r);
      finished.insert(r.id);
    } else if (fieldIs(ev, "name", "pkt:stages")) {
      const auto id = static_cast<std::uint64_t>(argI64(ev, "id", 0));
      auto& dst = stages[id];
      std::size_t i = 0;
      for (const obs::PacketStage s : obs::packetStages())
        dst[i++] = argI64(ev, obs::packetStageName(s), 0);
    }
  }

  for (PacketRecord& r : report.packets) {
    const auto sit = starts.find(r.id);
    if (sit != starts.end()) {
      r.src_node = sit->second.node;
      r.start_ns = sit->second.ts;
    } else {
      report.unmatched_finishes.push_back(r.id);
    }
    const auto stit = stages.find(r.id);
    if (stit != stages.end()) {
      r.stages = stit->second;
      r.has_stages = true;
    }
  }
  for (const auto& [id, s] : starts)
    if (finished.find(id) == finished.end())
      report.unmatched_starts.push_back(id);
  return report;
}

TraceReport ingestFlight(const JsonValue& root) {
  const JsonValue* events = root.find("gctrace_flight");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray)
    throw std::runtime_error("no gctrace_flight array in flight dump");

  TraceReport report;
  report.from_flight = true;
  const JsonValue* depth = root.find("depth");
  const JsonValue* recorded = root.find("recorded");
  if (depth != nullptr)
    report.flight_depth = static_cast<std::uint64_t>(depth->asI64(0));
  if (recorded != nullptr)
    report.flight_recorded = static_cast<std::uint64_t>(recorded->asI64(0));

  for (const JsonValue& ev : events->items) {
    const JsonValue* kind = ev.find("kind");
    const std::string k =
        kind != nullptr && kind->kind == JsonValue::Kind::kString ? kind->str
                                                                  : "?";
    bool counted = false;
    for (auto& [name, count] : report.event_kinds) {
      if (name == k) {
        ++count;
        counted = true;
        break;
      }
    }
    if (!counted) report.event_kinds.emplace_back(k, 1);

    if (k != "dispatch") continue;
    PacketRecord r;
    const JsonValue* id = ev.find("id");
    r.id = id != nullptr ? static_cast<std::uint64_t>(id->asI64(0)) : 0;
    const JsonValue* node = ev.find("node");
    r.dst_node = node != nullptr ? static_cast<int>(node->asI64(-1)) : -1;
    const JsonValue* job = ev.find("job");
    r.job = job != nullptr ? static_cast<int>(job->asI64(-1)) : -1;
    const JsonValue* src = ev.find("src");
    r.src_rank = src != nullptr ? static_cast<int>(src->asI64(-1)) : -1;
    const JsonValue* dst = ev.find("dst");
    r.dst_rank = dst != nullptr ? static_cast<int>(dst->asI64(-1)) : -1;
    const JsonValue* seq = ev.find("seq");
    r.seq = seq != nullptr ? static_cast<std::uint64_t>(seq->asI64(0)) : 0;
    const JsonValue* value = ev.find("value");
    r.bytes = value != nullptr ? value->asI64(0) : 0;
    const JsonValue* ts = ev.find("ts");
    r.finish_ns = ts != nullptr ? ts->asI64(-1) : -1;
    const JsonValue* st = ev.find("stages");
    if (st != nullptr && st->kind == JsonValue::Kind::kArray &&
        st->items.size() == obs::kPacketStageCount) {
      for (std::size_t i = 0; i < obs::kPacketStageCount; ++i)
        r.stages[i] = st->items[i].asI64(0);
      r.has_stages = true;
    }
    report.packets.push_back(r);
  }
  return report;
}

// ---- Rendering helpers ------------------------------------------------------

std::string usStr(std::int64_t ns) {
  return util::formatDouble(static_cast<double>(ns) / 1000.0, 3);
}

std::string pairStr(const PacketRecord& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d:%d->%d", r.job, r.src_rank,
                r.dst_rank);
  return buf;
}

}  // namespace

std::int64_t PacketRecord::stageSumNs() const {
  std::int64_t sum = 0;
  for (const std::int64_t s : stages) sum += s;
  return sum;
}

std::int64_t PacketRecord::endToEndNs() const {
  if (has_stages) return stageSumNs();
  if (start_ns >= 0 && finish_ns >= start_ns) return finish_ns - start_ns;
  return 0;
}

TraceReport parseJson(const std::string& text) {
  const JsonValue root = JsonParser(text).parse();
  if (root.find("gctrace_flight") != nullptr) return ingestFlight(root);
  if (root.find("traceEvents") != nullptr) return ingestChrome(root);
  throw std::runtime_error(
      "unrecognised input: neither a Chrome trace (traceEvents) nor a "
      "gctrace flight dump (gctrace_flight)");
}

TraceReport loadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "gctrace: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  try {
    return parseJson(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gctrace: %s: %s\n", path.c_str(), e.what());
    std::exit(2);
  }
}

obs::LatencyAttribution buildAttribution(const TraceReport& report) {
  obs::LatencyAttribution attr;
  for (const PacketRecord& r : report.packets) {
    if (!r.has_stages) continue;
    // Rebuild a journey whose stamps reproduce the recorded stage values
    // exactly; record() then folds it like the live tracer did.
    obs::PacketJourney j;
    j.id = r.id;
    j.job = r.job;
    j.src_rank = r.src_rank;
    j.dst_rank = r.dst_rank;
    j.src_node = r.src_node;
    j.dst_node = r.dst_node;
    j.seq = r.seq;
    j.bytes = static_cast<std::uint32_t>(r.bytes);
    auto ns = [&r](obs::PacketStage s) {
      return static_cast<sim::Duration>(
          r.stages[static_cast<std::size_t>(s)]);
    };
    j.send_start = 0;
    j.credit_grant = ns(obs::PacketStage::kCreditWait);
    j.nicq_enter = j.credit_grant + ns(obs::PacketStage::kHostPio);
    j.switch_stall = ns(obs::PacketStage::kSwitchStall);
    j.wire_enter =
        j.nicq_enter + ns(obs::PacketStage::kNicQueue) + j.switch_stall;
    j.rx_wire_done = j.wire_enter + ns(obs::PacketStage::kWire);
    j.rxq_enter = j.rx_wire_done + ns(obs::PacketStage::kRxDma);
    j.dispatch = j.rxq_enter + ns(obs::PacketStage::kRecvQueue);
    attr.record(j);
  }
  return attr;
}

std::string renderReport(const TraceReport& report,
                         const ReportOptions& opt) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "gctrace: %zu dispatched packet%s from a %s\n",
                report.packets.size(),
                report.packets.size() == 1 ? "" : "s",
                report.from_flight ? "flight dump" : "Chrome trace");
  out += buf;
  if (report.from_flight) {
    std::snprintf(buf, sizeof(buf),
                  "flight ring: depth %llu, %llu events recorded over the "
                  "run\n",
                  static_cast<unsigned long long>(report.flight_depth),
                  static_cast<unsigned long long>(report.flight_recorded));
    out += buf;
  }
  if (!report.unmatched_starts.empty() ||
      !report.unmatched_finishes.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "warning: %zu flow starts without a finish, %zu finishes "
                  "without a start\n",
                  report.unmatched_starts.size(),
                  report.unmatched_finishes.size());
    out += buf;
  }

  out += "\nLatency attribution (per-stage share of end-to-end):\n";
  out += buildAttribution(report).table().render();

  if (report.from_flight && !report.event_kinds.empty()) {
    out += "\nFlight events by kind:\n";
    util::Table kinds({"kind", "events"});
    for (const auto& [name, count] : report.event_kinds)
      kinds.addRow({name, util::formatU64(count)});
    out += kinds.render();
  }

  const bool one_pair = opt.pair_job >= 0;
  if (one_pair) {
    std::snprintf(buf, sizeof(buf), "\nTimeline for pair %d:%d->%d:\n",
                  opt.pair_job, opt.pair_src, opt.pair_dst);
    out += buf;
    util::Table t({"seq", "bytes", "start_us", "e2e_us", "credit_us",
                   "pio_us", "nicq_us", "stall_us", "wire_us", "dma_us",
                   "recvq_us", "switches"});
    for (const PacketRecord& r : report.packets) {
      if (r.job != opt.pair_job || r.src_rank != opt.pair_src ||
          r.dst_rank != opt.pair_dst)
        continue;
      std::vector<std::string> row = {
          util::formatU64(r.seq), util::formatU64(
              static_cast<unsigned long long>(r.bytes)),
          r.start_ns >= 0 ? usStr(r.start_ns) : "-", usStr(r.endToEndNs())};
      for (const std::int64_t s : r.stages) row.push_back(usStr(s));
      row.push_back(util::formatU64(
          static_cast<unsigned long long>(r.switches)));
      t.addRow(std::move(row));
    }
    out += t.render();
  } else {
    // Per-pair summary: packets, bytes, mean/max end-to-end.
    struct PairAgg {
      std::uint64_t packets = 0;
      std::int64_t bytes = 0;
      std::int64_t e2e_sum = 0;
      std::int64_t e2e_max = 0;
    };
    std::map<std::tuple<int, int, int>, PairAgg> pairs;
    for (const PacketRecord& r : report.packets) {
      PairAgg& a = pairs[{r.job, r.src_rank, r.dst_rank}];
      ++a.packets;
      a.bytes += r.bytes;
      const std::int64_t e2e = r.endToEndNs();
      a.e2e_sum += e2e;
      a.e2e_max = std::max(a.e2e_max, e2e);
    }
    out += "\nPer-pair summary (job src->dst):\n";
    util::Table t({"pair", "packets", "bytes", "mean_e2e_us", "max_e2e_us"});
    for (const auto& [key, a] : pairs) {
      std::snprintf(buf, sizeof(buf), "%d:%d->%d", std::get<0>(key),
                    std::get<1>(key), std::get<2>(key));
      t.addRow({buf, util::formatU64(a.packets),
                util::formatU64(static_cast<unsigned long long>(a.bytes)),
                util::formatDouble(a.packets > 0
                                       ? static_cast<double>(a.e2e_sum) /
                                             (1000.0 *
                                              static_cast<double>(a.packets))
                                       : 0.0,
                                   3),
                usStr(a.e2e_max)});
    }
    out += t.render();
  }

  if (opt.slowest > 0 && !report.packets.empty()) {
    std::vector<const PacketRecord*> order;
    order.reserve(report.packets.size());
    for (const PacketRecord& r : report.packets) order.push_back(&r);
    std::stable_sort(order.begin(), order.end(),
                     [](const PacketRecord* a, const PacketRecord* b) {
                       return a->endToEndNs() > b->endToEndNs();
                     });
    if (order.size() > opt.slowest) order.resize(opt.slowest);
    std::snprintf(buf, sizeof(buf), "\nSlowest %zu packets:\n",
                  order.size());
    out += buf;
    util::Table t({"id", "pair", "seq", "bytes", "e2e_us", "worst_stage",
                   "worst_us"});
    for (const PacketRecord* r : order) {
      obs::PacketStage worst = obs::PacketStage::kCreditWait;
      std::int64_t worst_ns = -1;
      for (const obs::PacketStage s : obs::packetStages()) {
        const std::int64_t v = r->stages[static_cast<std::size_t>(s)];
        if (v > worst_ns) {
          worst_ns = v;
          worst = s;
        }
      }
      t.addRow({util::formatU64(r->id), pairStr(*r),
                util::formatU64(r->seq),
                util::formatU64(static_cast<unsigned long long>(r->bytes)),
                usStr(r->endToEndNs()),
                r->has_stages ? obs::packetStageName(worst) : "-",
                r->has_stages ? usStr(worst_ns) : "-"});
    }
    out += t.render();
  }
  return out;
}

}  // namespace gangcomm::gctrace_tool
