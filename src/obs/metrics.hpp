// MetricsRegistry: typed, pre-registered runtime metrics.
//
// Design (mirrors the Trace philosophy — observability is opt-in):
//   * Subsystems register handles ONCE at construction time
//     (`registry.counter("rtos.dispatches", ...)`) and keep the returned
//     pointer. The hot path is then a single branch on the registry's
//     enabled flag plus a plain add — no map lookups, no strings.
//   * The registry is disabled by default; a disabled registry makes every
//     handle operation a no-op, so instrumented code costs ~nothing in
//     latency benches.
//   * Computed values (pool occupancy, admitted utilization, live component
//     count) are registered as *callback gauges*: a lambda evaluated only
//     when a snapshot is taken, with zero hot-path presence.
//   * snapshot() returns values ordered by metric name, so every exporter
//     built on it is deterministic.
//
// Metric names are dotted lowercase ("ipc.mailbox_sent"); exporters adapt
// them to their format's conventions (Prometheus rewrites dots to
// underscores and prefixes "drt_").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace drt::obs {

class MetricsRegistry;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (*enabled_) value_ += n;
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help, const bool* enabled)
      : name_(std::move(name)), help_(std::move(help)), enabled_(enabled) {}

  std::string name_;
  std::string help_;
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (*enabled_) value_ = v;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help, const bool* enabled)
      : name_(std::move(name)), help_(std::move(help)), enabled_(enabled) {}

  std::string name_;
  std::string help_;
  const bool* enabled_;
  double value_ = 0.0;
};

/// Fixed-bucket distribution. Bucket upper bounds are chosen at registration
/// (they never adapt, so observation is an O(#buckets) scan with no
/// allocation); values above the last bound land in the +Inf bucket. Bounds
/// may be negative — release latency (actual - ideal) routinely is.
class Histogram {
 public:
  void observe(double v) {
    if (!*enabled_) return;
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++buckets_[i];
    sum_ns_ += v;
    ++count_;
  }

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +Inf.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return buckets_;
  }
  [[nodiscard]] double sum() const { return sum_ns_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Estimates the q-quantile (q in [0,1]) by a cumulative walk over the
  /// buckets with linear interpolation inside the containing bucket — the
  /// standard fixed-bucket estimator (Prometheus histogram_quantile). Values
  /// in the +Inf bucket are attributed to the last finite bound, so the
  /// estimate is conservative there rather than unbounded. Returns 0 when
  /// the histogram is empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help, std::vector<double> bounds,
            const bool* enabled)
      : name_(std::move(name)),
        help_(std::move(help)),
        bounds_(std::move(bounds)),
        buckets_(bounds_.size() + 1),
        enabled_(enabled) {}

  std::string name_;
  std::string help_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  const bool* enabled_;
  double sum_ns_ = 0.0;
  std::uint64_t count_ = 0;
};

/// Point-in-time value set, ordered by name. What every exporter consumes.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::string help;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::string help;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    std::string help;
    std::vector<double> bounds;           ///< bucket upper bounds
    std::vector<std::uint64_t> buckets;   ///< per-bucket counts; last = +Inf
    double sum = 0.0;
    std::uint64_t count = 0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Get-or-create. The returned pointer is stable for the registry's
  /// lifetime; callers keep it and never look the name up again.
  Counter* counter(const std::string& name, const std::string& help = {});
  Gauge* gauge(const std::string& name, const std::string& help = {});
  Histogram* histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds);

  /// A gauge whose value is computed on demand: `fn` runs only during
  /// snapshot(), never on the hot path. Re-registering a name replaces the
  /// callback (components may come and go across a registry's lifetime).
  void gauge_callback(const std::string& name, const std::string& help,
                      std::function<double()> fn);
  void remove_gauge_callback(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::size_t metric_count() const;

  /// Resets every counter/gauge/histogram to zero (callback gauges are
  /// stateless). Handles stay valid.
  void reset();

 private:
  struct CallbackGauge {
    std::string help;
    std::function<double()> fn;
  };

  bool enabled_ = false;
  // std::map: deterministic name order + stable node addresses.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, CallbackGauge> callbacks_;
};

}  // namespace drt::obs
