#include "report.hpp"

#include <algorithm>
#include <cmath>

#include "calibration.hpp"

namespace e2e {
namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Scale from round `r`'s host times to the nominal host (calibration.hpp);
/// 1 when `calibrated` is false.
double scale(const RoundResult& r, bool calibrated) {
  return calibrated && r.calibration_ns > 0.0
             ? kCalibrationNominalNs / r.calibration_ns
             : 1.0;
}

/// Jobs per host second of round `r`'s steady-state window.
double jobs_per_s(const RoundResult& r, bool calibrated) {
  return ratio(static_cast<double>(r.counts.window_jobs),
               r.window_s * scale(r, calibrated));
}

double median_jobs_per_s(const std::vector<RoundResult>& rounds,
                         bool calibrated) {
  std::vector<double> values;
  for (const RoundResult& r : rounds) {
    values.push_back(jobs_per_s(r, calibrated));
  }
  return quantile(values, 0.5);
}

/// Latencies of every operation of `rounds`.
std::vector<double> pooled_ops(const std::vector<RoundResult>& rounds,
                               bool calibrated) {
  std::vector<double> all;
  for (const RoundResult& r : rounds) {
    for (double us : r.op_us) all.push_back(us * scale(r, calibrated));
  }
  return all;
}

std::vector<Metric> end_to_end(const std::vector<RoundResult>& plain,
                               double peak_rss_mb, bool calibrated) {
  const std::vector<double> ops = pooled_ops(plain, calibrated);
  std::vector<double> setups;
  for (const RoundResult& r : plain) {
    for (double s : r.setup_samples) {
      setups.push_back(s * scale(r, calibrated));
    }
  }
  return {
      {"setup_s", "s", quantile(setups, 0.5)},
      {"jobs_per_s", "1/s", median_jobs_per_s(plain, calibrated)},
      {"reconfig_gmean_us", "us", geometric_mean(ops)},
      {"reconfig_p99_us", "us", quantile(ops, 0.99)},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& traced) {
  // Every round's counts are identical (build_report checks that), so the
  // first round's are the per-round counts.
  const Counts& c = traced.front().counts;
  std::map<std::string, SpanTotals> spans;
  std::uint64_t traced_events = 0;
  for (const RoundResult& r : traced) {
    for (const auto& [name, t] : r.spans) {
      SpanTotals& sum = spans[name];
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
    traced_events += r.traced_events;
  }
  const auto total = [&spans](const char* name) {
    const auto found = spans.find(name);
    return found == spans.end() ? 0.0
                                : static_cast<double>(found->second.total_ns);
  };
  const auto count = [&spans](const char* name) {
    const auto found = spans.find(name);
    return found == spans.end() ? 0.0
                                : static_cast<double>(found->second.count);
  };
  const auto mean = [&](const char* name) {
    return ratio(total(name), count(name));
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto run_self = spans.find("rtos.run_until");
  const double jobs = d(c.jobs);
  return {
      {"rtos.run_self_ns_per_event", "ns",
       run_self == spans.end()
           ? 0.0
           : ratio(static_cast<double>(run_self->second.self_ns),
                   d(traced_events))},
      {"rtos.events_per_job", "count", ratio(d(c.events), jobs)},
      {"rtos.dispatches_per_job", "count", ratio(d(c.dispatches), jobs)},
      {"rtos.preemptions_per_job", "count", ratio(d(c.preemptions), jobs)},
      {"rtos.deadline_misses", "count", d(c.deadline_misses)},
      {"ipc.mailbox_sent_per_job", "count", ratio(d(c.mailbox_sent), jobs)},
      {"ipc.mailbox_dropped", "count", d(c.mailbox_dropped)},
      {"ipc.handoffs_per_job", "count", ratio(d(c.handoffs), jobs)},
      {"cap.call_ns", "ns", mean("cap.call")},
      {"cap.serve_ns", "ns",
       ratio(total("cap.serve"), d(c.served * traced.size()))},
      {"cap.accept_ratio", "ratio", ratio(d(c.cap_accepted), d(c.cap_sent))},
      {"cap.binds_per_op", "count", ratio(d(c.cap_binds), d(c.ops))},
      {"drcom.register_ns", "ns", mean("drcom.register")},
      {"drcom.unregister_ns", "ns", mean("drcom.unregister")},
      {"drcom.enable_ns", "ns", mean("drcom.enable")},
      {"drcom.disable_ns", "ns", mean("drcom.disable")},
      {"drcom.deploy_system_ns", "ns", mean("drcom.deploy_system")},
      {"drcom.resolve_ns", "ns", mean("drcom.resolve")},
      {"drcom.mode_transition_ns", "ns", mean("drcom.mode_transition")},
      {"drcom.admit_ratio", "ratio",
       ratio(d(c.activations), d(c.activations + c.rejections))},
      {"drcom.contract_violations", "count", d(c.contract_violations)},
      {"osgi.install_ns", "ns", mean("osgi.install")},
      {"osgi.start_ns", "ns", mean("osgi.start")},
      {"osgi.uninstall_ns", "ns",
       ratio(total("osgi.stop") + total("osgi.uninstall"),
             count("osgi.uninstall"))},
      {"osgi.lookup_ns", "ns", mean("osgi.lookup")},
      {"obs.observe_ns", "ns", mean("obs.observe")},
      {"obs.export_ns", "ns", mean("obs.export")},
      {"obs.export_bytes", "bytes", ratio(d(c.export_bytes), d(c.exports))},
      {"fed.place_ns", "ns", mean("fed.place")},
      {"fed.migrate_ns", "ns", mean("fed.migrate")},
      {"fed.publish_ns", "ns", mean("fed.publish")},
      {"fed.leave_join_ns", "ns",
       ratio(total("fed.leave") + total("fed.join"), count("fed.leave"))},
      {"fed.place_accept_ratio", "ratio",
       ratio(d(c.placements), d(c.place_calls))},
      {"fed.channel_msgs_per_job", "count", ratio(d(c.channel_msgs), jobs)},
  };
}

}  // namespace

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Report build_report(const std::vector<RoundResult>& plain,
                    const std::vector<RoundResult>& traced,
                    double peak_rss_mb) {
  Report report;
  if (!plain.empty()) {
    report.end_to_end = end_to_end(plain, peak_rss_mb, true);
    report.uncalibrated = end_to_end(plain, peak_rss_mb, false);
    report.reconfig_samples = pooled_ops(plain, false).size();
    report.reconfig_p50_us = quantile(pooled_ops(plain, true), 0.5);
  }
  if (!traced.empty()) report.per_layer = per_layer(traced);

  std::vector<const RoundResult*> all;
  for (const RoundResult& r : plain) all.push_back(&r);
  for (const RoundResult& r : traced) all.push_back(&r);
  if (!all.empty()) {
    report.vt_digest = all.front()->vt_digest;
    report.counts = all.front()->counts;
  }
  for (const RoundResult* r : all) {
    report.attempted += r->counts.ops + r->counts.jobs;
    report.failed += r->failed;
    for (const std::string& finding : r->findings) {
      if (report.findings.size() < 16) report.findings.push_back(finding);
    }
    // A round is a pure function of (workload, seed): any difference in
    // behaviour between rounds, traced or not, is a failure.
    if (r->vt_digest != report.vt_digest || !(r->counts == report.counts)) {
      ++report.failed;
      report.findings.push_back(
          "vt_digest or counts differ between rounds of one seed");
    }
  }

  if (!traced.empty()) {
    for (const RoundResult& r : traced) {
      for (const auto& [name, t] : r.spans) {
        report.layer_self_ms[layer_of(name)] +=
            static_cast<double>(t.self_ns) / 1e6 /
            static_cast<double>(traced.size());
      }
    }
    if (!plain.empty()) {
      report.traced_jobs_ratio =
          ratio(median_jobs_per_s(traced, true),
                median_jobs_per_s(plain, true));
      report.traced_gmean_ratio =
          ratio(geometric_mean(pooled_ops(traced, true)),
                geometric_mean(pooled_ops(plain, true)));
    }
  }
  return report;
}

void print_summary(const Report& report, std::FILE* out) {
  const Counts& c = report.counts;
  std::fprintf(out, "vt_digest %016llx\n",
               static_cast<unsigned long long>(report.vt_digest));
  std::fprintf(
      out,
      "counts per round: events %llu jobs %llu dispatches %llu preemptions "
      "%llu deadline_misses %llu mailbox_sent %llu handoffs %llu cap_sent "
      "%llu cap_binds %llu served %llu channel_msgs %llu ops %llu "
      "expected_rejections %llu\n",
      static_cast<unsigned long long>(c.events),
      static_cast<unsigned long long>(c.jobs),
      static_cast<unsigned long long>(c.dispatches),
      static_cast<unsigned long long>(c.preemptions),
      static_cast<unsigned long long>(c.deadline_misses),
      static_cast<unsigned long long>(c.mailbox_sent),
      static_cast<unsigned long long>(c.handoffs),
      static_cast<unsigned long long>(c.cap_sent),
      static_cast<unsigned long long>(c.cap_binds),
      static_cast<unsigned long long>(c.served),
      static_cast<unsigned long long>(c.channel_msgs),
      static_cast<unsigned long long>(c.ops),
      static_cast<unsigned long long>(c.expected_rejections));
  for (const Metric& m : report.end_to_end) {
    std::fprintf(out, "end-to-end %-28s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (!report.end_to_end.empty()) {
    std::fprintf(out, "end-to-end reconfig samples %zu\n",
                 report.reconfig_samples);
    std::fprintf(out, "summary    %-28s %14.4f us (not bounded)\n",
                 "reconfig_p50_us", report.reconfig_p50_us);
  }
  for (const Metric& m : report.uncalibrated) {
    if (m.unit == "MB") continue;
    std::fprintf(out, "as measured %-27s %14.4f %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::fprintf(out, "end-to-end %-28s %14.6f ratio (%llu of %llu)\n",
               "failed_ops_ratio",
               ratio(static_cast<double>(report.failed),
                     static_cast<double>(report.attempted)),
               static_cast<unsigned long long>(report.failed),
               static_cast<unsigned long long>(report.attempted));
  for (const Metric& m : report.per_layer) {
    std::fprintf(out, "per-layer  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const auto& [layer, ms] : report.layer_self_ms) {
    std::fprintf(out, "self-time  %-28s %14.3f ms/round\n", layer.c_str(), ms);
  }
  if (report.traced_jobs_ratio > 0.0) {
    std::fprintf(out,
                 "tracing overhead: traced/untraced jobs_per_s %.4f, "
                 "reconfig_gmean_us %.4f\n",
                 report.traced_jobs_ratio, report.traced_gmean_ratio);
  }
  for (const std::string& finding : report.findings) {
    std::fprintf(out, "FINDING: %s\n", finding.c_str());
  }
}

std::string result_json(const Report& report,
                        const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace e2e
