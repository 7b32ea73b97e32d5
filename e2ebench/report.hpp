// Turns rounds into the benchmark's metrics, summary and result line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "scenario.hpp"

namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  std::vector<Metric> end_to_end;  ///< from the untraced rounds
  /// end_to_end before calibration (calibration.hpp), for the summary.
  std::vector<Metric> uncalibrated;
  std::vector<Metric> per_layer;   ///< from the traced rounds (may be empty)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> findings;
  std::uint64_t vt_digest = 0;
  Counts counts;  ///< of one round (every round's are identical)
  std::size_t reconfig_samples = 0;
  /// Pooled median operation latency, calibrated; printed, not bounded.
  double reconfig_p50_us = 0.0;
  /// Self time per layer, ms per traced round.
  std::map<std::string, double> layer_self_ms;
  /// Traced / untraced, when both kinds of round ran (0 otherwise).
  double traced_jobs_ratio = 0.0;
  double traced_gmean_ratio = 0.0;
};

[[nodiscard]] Report build_report(const std::vector<RoundResult>& plain,
                                  const std::vector<RoundResult>& traced,
                                  double peak_rss_mb);

void print_summary(const Report& report, std::FILE* out);

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Report& report,
                                      const std::vector<Metric>& metrics);

/// Geometric mean (values must be positive); 0 for an empty sample.
[[nodiscard]] double geometric_mean(const std::vector<double>& values);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace e2e
