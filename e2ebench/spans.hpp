// In-memory span recorder for the end-to-end benchmark.
//
// A span is one host-time interval around a public call the benchmark (or a
// component body) makes into a layer: name, start, end, the span that was
// open when it began (its parent) and the id of the reconfiguration
// operation it belongs to (0 outside operations). Spans stay in memory and
// are written out when the benchmark ends; nothing is recorded while the
// recorder pointer handed to the stack is null, which is how untraced runs
// measure the end-to-end metrics without the recorder's cost.
//
// Self time: a span's duration minus the part of it that its direct
// children cover. Children never overlap each other (the stack is single
// threaded and spans nest strictly), so that part is the sum of their
// durations.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

[[nodiscard]] inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. The stack is single threaded and never
/// blocks, so on an idle host this advances with host_ns(); unlike it, it
/// does not count time the host scheduler gives to other processes.
[[nodiscard]] inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Span {
  const char* name = "";  ///< string literal: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the recorder, -1 for roots
  std::uint32_t op = 0;
  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Per-name totals over a set of spans.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::int32_t begin(const char* name, std::uint32_t op = 0) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, host_ns(), 0, open_.empty() ? -1 : open_.back(),
                      op});
    open_.push_back(index);
    return index;
  }
  void end(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = host_ns();
    open_.pop_back();
  }
  /// Records an already-timed span under the innermost open one (component
  /// bodies time their own calls and hand the interval in).
  void leaf(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    const std::uint32_t op =
        parent < 0 ? 0 : spans_[static_cast<std::size_t>(parent)].op;
    spans_.push_back({name, start_ns, end_ns, parent, op});
  }
  /// Appends a finished span verbatim (hand-built trees in tests).
  void add(const Span& span) { spans_.push_back(span); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    open_.clear();
  }

  /// Self time of every span, index-aligned with spans().
  [[nodiscard]] std::vector<std::int64_t> self_times() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].duration();
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.duration();
      }
    }
    return self;
  }

  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const {
    const std::vector<std::int64_t> self = self_times();
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_ns += spans_[i].duration();
      t.self_ns += self[i];
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint32_t op = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

/// The layer a span name belongs to: the text before the first '.'.
[[nodiscard]] inline std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace e2e
