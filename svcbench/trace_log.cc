#include "trace_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

namespace svcbench {

uint32_t SpanLog::Begin(const char* name, uint64_t request) {
  uint32_t index = kNone;
  if (enabled_) {
    index = static_cast<uint32_t>(spans_.size());
    const uint32_t parent = open_.empty() ? kNone : open_.back().index;
    spans_.push_back({name, request, parent, 0, 0});
  }
  open_.push_back({Clock::now(), index});
  return static_cast<uint32_t>(open_.size() - 1);
}

double SpanLog::End(uint32_t span) {
  const Clock::time_point end = Clock::now();
  const Open open = open_[span];
  open_.resize(span);
  if (open.index != kNone) {
    spans_[open.index].start_ns = Ns(open.start);
    spans_[open.index].end_ns = Ns(end);
  }
  return std::chrono::duration<double>(end - open.start).count();
}

rdfmr::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
  if (!out) return rdfmr::Status::IoError("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out.get());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out.get(),
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
                 "}}",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.request);
  }
  std::fputs("\n]}\n", out.get());
  if (std::ferror(out.get())) {
    return rdfmr::Status::IoError("write failed: " + path);
  }
  return rdfmr::Status::OK();
}

std::string SpanLog::SelfTimeTable() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != kNone) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  struct Row {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  int64_t all_self = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    row.self_ns += self[i];
    all_self += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::string table = "span                          count    total_ms     "
                      "self_ms  self_share\n";
  char line[160];
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line),
                  "%-28s %6" PRIu64 " %11.3f %11.3f %10.4f\n",
                  name.c_str(), row.count, row.total_ns / 1e6,
                  row.self_ns / 1e6,
                  all_self > 0 ? static_cast<double>(row.self_ns) / all_self
                               : 0.0);
    table += line;
  }
  return table;
}

}  // namespace svcbench
