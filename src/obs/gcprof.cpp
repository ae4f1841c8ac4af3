// Every hook below runs once per event transition while causality
// profiling is enabled; opt into the hot-path allocation rules:
// gclint: hot
#include "obs/gcprof.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace gangcomm::obs {

CausalityRecorder::CausalityRecorder(CausalityConfig cfg)
    : cfg_(std::move(cfg)) {
  if (cfg_.buffer_records == 0) cfg_.buffer_records = 1;
  buf_.reserve(cfg_.buffer_records);
  if (!cfg_.dump_path.empty()) {
    file_ = std::fopen(cfg_.dump_path.c_str(), "w");
    if (file_ == nullptr) {
      io_error_ = true;
    } else {
      std::fprintf(file_, "{\"gcprof\":\"gcprof-v1\",\"mode\":\"sim\",\n");
      std::fprintf(file_, "\"records\":[");
    }
  }
}

CausalityRecorder::~CausalityRecorder() { finish(); }

void CausalityRecorder::onSchedule(std::uint64_t id, std::uint64_t parent,
                                   sim::SimTime sched_at, sim::SimTime,
                                   std::uint32_t lp) {
  pending_.emplace(id, Pending{parent, sched_at, lp});
}

void CausalityRecorder::onCancel(std::uint64_t id) {
  // Cancelled events are not DAG nodes: drop them before emission.  A
  // cancel+re-add reschedule re-enters through onSchedule under a fresh id.
  if (pending_.erase(id) != 0) ++cancelled_;
}

void CausalityRecorder::onFireBegin(std::uint64_t id, sim::SimTime t) {
  const auto it = pending_.find(id);
  cur_known_ = it != pending_.end();
  if (!cur_known_) return;  // scheduled before the hook was installed
  cur_.id = id;
  cur_.parent = it->second.parent;
  cur_.sched = it->second.sched;
  cur_.fire = t;
  cur_.lp = it->second.lp;
  pending_.erase(it);
}

void CausalityRecorder::onFireEnd(std::uint64_t id) {
  if (!cur_known_) return;
  GC_CHECK_MSG(cur_.id == id, "causality fire begin/end ids out of order");
  emit(cur_);
  cur_known_ = false;
}

void CausalityRecorder::emit(const CausalityRecord& r) {
  ++recorded_;
  ++lp_counts_[r.lp];
  buf_.push_back(r);
  if (file_ != nullptr && buf_.size() >= cfg_.buffer_records) spillBuffer();
}

bool CausalityRecorder::spillBuffer() {
  if (file_ == nullptr) return !io_error_;
  char line[160];
  for (const CausalityRecord& r : buf_) {
    const int n = std::snprintf(
        line, sizeof(line), "%s[%llu,%llu,%llu,%llu,%lu]",
        spilled_ == 0 ? "\n" : ",\n", static_cast<unsigned long long>(r.id),
        static_cast<unsigned long long>(r.parent),
        static_cast<unsigned long long>(r.sched),
        static_cast<unsigned long long>(r.fire),
        static_cast<unsigned long>(r.lp));
    if (n < 0 || std::fwrite(line, 1, static_cast<std::size_t>(n), file_) !=
                     static_cast<std::size_t>(n)) {
      io_error_ = true;
      break;
    }
    ++spilled_;
  }
  buf_.clear();
  return !io_error_;
}

bool CausalityRecorder::writeTrailer() {
  if (file_ == nullptr) return !io_error_;
  std::fprintf(file_, "\n],\n\"lps\":[");
  bool first = true;
  for (const auto& [tag, count] : lp_counts_) {
    std::fprintf(file_, "%s\n{\"tag\":%lu,\"name\":\"%s\",\"events\":%llu}",
                 first ? "" : ",", static_cast<unsigned long>(tag),
                 lpName(tag).c_str(),
                 static_cast<unsigned long long>(count));
    first = false;
  }
  std::fprintf(file_,
               "\n],\n\"total\":%llu,\"cancelled\":%llu,\"pending\":%llu}\n",
               static_cast<unsigned long long>(recorded_),
               static_cast<unsigned long long>(cancelled_),
               static_cast<unsigned long long>(pending_.size()));
  if (std::ferror(file_) != 0) io_error_ = true;
  if (std::fclose(file_) != 0) io_error_ = true;
  file_ = nullptr;
  return !io_error_;
}

bool CausalityRecorder::finish() {
  if (finished_) return !io_error_;
  finished_ = true;
  spillBuffer();
  return writeTrailer();
}

void CausalityRecorder::publish(MetricsRegistry& reg) const {
  reg.setCounter("gcprof.records", recorded_);
  reg.setCounter("gcprof.spilled", spilled_);
  reg.setCounter("gcprof.cancelled_dropped", cancelled_);
  reg.setCounter("gcprof.open_pending", pending_.size());
  reg.setGauge("gcprof.lps", static_cast<double>(lp_counts_.size()));
}

std::string CausalityRecorder::lpName(std::uint32_t tag) {
  const sim::LpDomain d = sim::lpTagDomain(tag);
  const std::uint32_t idx = sim::lpTagIndex(tag);
  const char* base = "?";
  bool instanced = false;
  switch (d) {
    case sim::LpDomain::kSim: base = "sim"; break;
    case sim::LpDomain::kNode:
      base = "node";
      instanced = true;
      break;
    case sim::LpDomain::kNic:
      base = "nic";
      instanced = true;
      break;
    case sim::LpDomain::kLink: base = "link"; break;
    case sim::LpDomain::kGlobal: base = "global"; break;
  }
  std::string name = base;
  if (instanced || idx != 0) {
    name += '.';
    name += std::to_string(idx);
  }
  return name;
}

}  // namespace gangcomm::obs
