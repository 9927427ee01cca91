// In-memory span log of the benchmark's own calls into each rdfmr layer.
//
// Begin/End always time the call (steady_clock) and return its duration,
// so traced and untraced runs share one timing path; only a log built
// with `enabled` keeps the spans. Spans nest: the span open when another
// begins is its parent, and spans of one replayed request share its
// request id. The log is written out once, after the run, as a Chrome
// trace (chrome://tracing, Perfetto) and as a self-time table.

#ifndef SVCBENCH_TRACE_LOG_H_
#define SVCBENCH_TRACE_LOG_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace svcbench {

class SpanLog {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// \brief Opens span `name` (a string literal) for `request`.
  uint32_t Begin(const char* name, uint64_t request);

  /// \brief Closes `span` (the value Begin returned) and returns its
  /// duration in seconds. Spans close in reverse order of opening.
  double End(uint32_t span);

  /// \brief Spans kept so far.
  size_t size() const { return spans_.size(); }

  rdfmr::Status WriteChromeTrace(const std::string& path) const;

  /// \brief One row per span name: count, total and self milliseconds,
  /// and the self time's share of all self time. Self time is a span's
  /// duration minus the part its child spans cover.
  std::string SelfTimeTable() const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    const char* name;
    uint64_t request;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Open {
    Clock::time_point start;
    uint32_t index;  ///< into spans_, kNone when not kept
  };

  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Open> open_;
};

}  // namespace svcbench

#endif  // SVCBENCH_TRACE_LOG_H_
