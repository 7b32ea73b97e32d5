// Lightweight structured logger.
//
// The simulator is single-threaded and deterministic, so the logger is
// deliberately simple: a global level, an optional sink override (used by
// tests to capture output), and a virtual-time stamp supplied by the caller
// that owns the clock.
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace drt::log {

enum class Level { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] std::string_view to_string(Level level);

/// Sink receives fully formatted lines. Default writes to stderr.
using Sink = std::function<void(Level, const std::string& line)>;

void set_level(Level level);
[[nodiscard]] Level level();

/// Replaces the sink; pass nullptr to restore the stderr default.
void set_sink(Sink sink);

/// True when `level` would currently be emitted.
[[nodiscard]] bool enabled(Level level);

/// Emits one log line. `component` names the subsystem ("osgi", "drcr", ...).
/// `when` is the current virtual time, or -1 when no clock is running yet.
void write(Level level, std::string_view component, SimTime when,
           std::string_view message);

/// Stream-style helper: log::Line(log::Level::kInfo, "drcr", now) << "x=" << x;
/// The stream is built only when `level` is enabled at construction, so a
/// disabled line costs one level check. Arguments are still evaluated:
/// guard an expensive one with `if (log::enabled(level))`.
class Line {
 public:
  Line(Level level, std::string_view component, SimTime when = -1)
      : level_(level), component_(component), when_(when) {
    if (enabled(level)) stream_.emplace();
  }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;
  ~Line() {
    if (stream_.has_value()) write(level_, component_, when_, stream_->str());
  }

  template <typename T>
  Line& operator<<(const T& value) {
    if (stream_.has_value()) *stream_ << value;
    return *this;
  }

 private:
  Level level_;
  std::string_view component_;
  SimTime when_;
  std::optional<std::ostringstream> stream_;
};

}  // namespace drt::log
