// ContractMonitor: stochastic runtime checking of declared contracts and the
// machinery it feeds — quantile estimation, typed violation events, the
// adaptation escalation ladder, empirical admission, and the determinism
// contract (monitoring off or silent must not perturb the virtual-time run).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "drcom/adaptation.hpp"
#include "drcom/drcr.hpp"
#include "drcom/monitor.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace drt::drcom {
namespace {

using rtos::testing::quiet_config;

// ------------------------------------------------- quantile estimator units
// Closed-form checks of the fixed-bucket estimator against hand-computed
// values: rank = q * total (1-based), linear interpolation in the containing
// bucket, +Inf samples attributed to the last finite bound.

TEST(HistogramQuantile, EmptyHistogramReturnsZero) {
  obs::MetricsRegistry registry;
  registry.enable();
  auto* hist = registry.histogram("q.empty", "", {10.0, 20.0});
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 0.0);
}

TEST(HistogramQuantile, UniformSamplesMatchClosedForm) {
  obs::MetricsRegistry registry;
  registry.enable();
  auto* hist = registry.histogram("q.uniform", "", {25.0, 50.0, 75.0, 100.0});
  // 100 samples at 0.5, 1.5, ..., 99.5: exactly 25 per bucket, so the
  // estimator's piecewise-linear CDF is exact at every bucket edge.
  for (int i = 0; i < 100; ++i) hist->observe(static_cast<double>(i) + 0.5);
  ASSERT_EQ(hist->count(), 100u);
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(hist->quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(hist->quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist->quantile(1.0), 100.0);
}

TEST(HistogramQuantile, PointMassesInterpolateWithinBucket) {
  obs::MetricsRegistry registry;
  registry.enable();
  auto* hist = registry.histogram("q.mass", "", {10.0, 20.0, 30.0});
  for (int i = 0; i < 16; ++i) hist->observe(15.0);
  for (int i = 0; i < 4; ++i) hist->observe(25.0);
  // rank(0.95) = 19; 16 samples below the (20,30] bucket, 3/4 into it:
  // 20 + 10 * 0.75 = 27.5.
  EXPECT_DOUBLE_EQ(hist->quantile(0.95), 27.5);
}

TEST(HistogramQuantile, OverflowBucketClampsToLastFiniteBound) {
  obs::MetricsRegistry registry;
  registry.enable();
  auto* hist = registry.histogram("q.inf", "", {100.0});
  hist->observe(150.0);
  hist->observe(2000.0);
  // Conservative, not unbounded: +Inf samples report the last finite bound.
  EXPECT_DOUBLE_EQ(hist->quantile(0.99), 100.0);
}

TEST(HistogramQuantile, BoundlessHistogramFallsBackToMean) {
  obs::MetricsRegistry registry;
  registry.enable();
  auto* hist = registry.histogram("q.none", "", {});
  hist->observe(5.0);
  hist->observe(15.0);
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 10.0);
}

// --------------------------------------------------------- monitor fixture

/// Periodic worker whose job cost is externally adjustable, so one binary
/// can play both a compliant and an overrunning component.
class Variable : public RtComponent {
 public:
  explicit Variable(SimDuration* cost) : cost_(cost) {}
  rtos::TaskCoro run(JobContext& job) override {
    while (job.active()) {
      co_await job.consume(*cost_);
      co_await job.next_cycle();
    }
  }

 private:
  SimDuration* cost_;
};

struct MonitorFixture : public ::testing::Test {
  MonitorFixture() : kernel(engine, quiet_config()), drcr(framework, kernel) {
    kernel.metrics().enable();
    drcr.factories().register_factory("var.Impl", [this] {
      return std::make_unique<Variable>(&job_cost);
    });
  }

  /// 100 Hz worker declaring cpuusage 0.05: per-job budget C = 500us.
  ComponentDescriptor worker(const std::string& name, double usage = 0.05) {
    ComponentDescriptor d;
    d.name = name;
    d.bincode = "var.Impl";
    d.type = rtos::TaskType::kPeriodic;
    d.cpu_usage = usage;
    d.periodic = PeriodicSpec{100.0, 0, 3};
    return d;
  }

  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  Drcr drcr;
  SimDuration job_cost = microseconds(400);
};

TEST_F(MonitorFixture, CompliantComponentNeverTrips) {
  ASSERT_TRUE(drcr.register_component(worker("w")).ok());
  ContractMonitor monitor(drcr);
  monitor.start();
  engine.run_until(seconds(1));
  // 400us observed vs 500us declared: inside tolerance, plenty of samples.
  EXPECT_GT(monitor.sample_count("w"), 16u);
  EXPECT_EQ(monitor.violations_reported(), 0u);
  EXPECT_EQ(drcr.total_contract_violations(), 0u);
  const auto health = drcr.component_health("w");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->contract_violations, 0u);
  EXPECT_GT(health->observed_usage, 0.0);
  EXPECT_LT(health->observed_usage, 0.05 * monitor.config().tolerance);
}

TEST_F(MonitorFixture, OverrunReportsTypedViolation) {
  ASSERT_TRUE(drcr.register_component(worker("w")).ok());
  ContractMonitor monitor(drcr);
  monitor.start();
  job_cost = microseconds(1'200);  // 2.4x the declared 500us budget
  engine.run_until(seconds(1));
  EXPECT_GE(monitor.violations_reported(), 1u);
  EXPECT_EQ(drcr.total_contract_violations(), monitor.violations_reported());
  const auto health = drcr.component_health("w");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->contract_violations, monitor.violations_reported());
  EXPECT_GT(health->observed_usage, 0.05);
  // The violation surfaced as a typed event, not just a counter.
  std::size_t events = 0;
  for (const auto& event : drcr.recent_events()) {
    if (event.type != DrcrEventType::kContractViolation) continue;
    ++events;
    EXPECT_EQ(event.component, "w");
    EXPECT_EQ(event.code, ErrorCode::kContractViolated);
    EXPECT_NE(event.reason.find("declared"), std::string::npos);
  }
  EXPECT_EQ(events, monitor.violations_reported());
}

TEST_F(MonitorFixture, MinSamplesGatesTheFirstCheck) {
  ASSERT_TRUE(drcr.register_component(worker("w")).ok());
  MonitorConfig config;
  config.min_samples = 1000;  // far beyond what 1s at 100 Hz produces
  ContractMonitor monitor(drcr, config);
  monitor.start();
  job_cost = microseconds(1'200);
  engine.run_until(seconds(1));
  EXPECT_EQ(monitor.violations_reported(), 0u);
  EXPECT_DOUBLE_EQ(monitor.observed_quantile_ns("w"), -1.0);
  EXPECT_DOUBLE_EQ(monitor.observed_usage("w"), -1.0);
}

TEST_F(MonitorFixture, DescriptorOptOutIsNeverWatched) {
  ComponentDescriptor d = worker("quiet");
  d.monitor = false;
  ASSERT_TRUE(drcr.register_component(std::move(d)).ok());
  ContractMonitor monitor(drcr);
  monitor.start();
  job_cost = microseconds(1'200);
  engine.run_until(seconds(1));
  EXPECT_EQ(monitor.sample_count("quiet"), 0u);
  EXPECT_EQ(monitor.violations_reported(), 0u);
}

TEST_F(MonitorFixture, EscalationLadderQuarantinesRepeatOffender) {
  ASSERT_TRUE(drcr.register_component(worker("w")).ok());
  ContractMonitor monitor(drcr);
  AdaptationConfig ladder;
  ladder.poll_period = milliseconds(50);
  ladder.policies = {
      {AdaptationTrigger::kContractViolation, QosActionKind::kNotify, 1},
      {AdaptationTrigger::kContractViolation, QosActionKind::kDisable, 2},
  };
  AdaptationManager manager(drcr, ladder);
  monitor.start();
  manager.start();
  job_cost = microseconds(1'200);
  engine.run_until(seconds(1));
  EXPECT_GE(manager.trips_of("w", AdaptationTrigger::kContractViolation), 2u);
  EXPECT_EQ(drcr.state_of("w").value(), ComponentState::kDisabled);
  auto health = drcr.component_health("w");
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(health->quarantined);
  // Quarantine is an operator-reversible decision, not a tombstone.
  ASSERT_TRUE(drcr.enable_component("w").ok());
  health = drcr.component_health("w");
  EXPECT_FALSE(health->quarantined);
  EXPECT_EQ(health->state, ComponentState::kActive);
}

TEST_F(MonitorFixture, ComponentHealthSnapshotsTheRecord) {
  ASSERT_TRUE(drcr.register_component(worker("w")).ok());
  const auto health = drcr.component_health("w");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->name, "w");
  EXPECT_EQ(health->state, ComponentState::kActive);
  EXPECT_EQ(health->last_error, ErrorCode::kNone);
  EXPECT_DOUBLE_EQ(health->declared_usage, 0.05);
  EXPECT_DOUBLE_EQ(health->observed_usage, -1.0);  // no monitor attached
  EXPECT_FALSE(health->quarantined);
  EXPECT_TRUE(health->current_mode.empty());
  EXPECT_FALSE(drcr.component_health("ghost").has_value());
}

TEST(AdaptationDefaults, LadderIsOneStepNotify) {
  const auto policies = AdaptationConfig{}.policies;
  ASSERT_EQ(policies.size(), 1u);
  EXPECT_EQ(policies[0].trigger, AdaptationTrigger::kQosRule);
  EXPECT_EQ(policies[0].action, QosActionKind::kNotify);
  EXPECT_EQ(policies[0].threshold, 1u);
}

// ---------------------------------------------------- empirical admission

TEST(EmpiricalAdmission, ObservedUsageTightensTheBudget) {
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel(engine, quiet_config());
  kernel.metrics().enable();
  DrcrConfig config;
  config.empirical_admission = true;
  Drcr drcr(framework, kernel, config);
  SimDuration cost = microseconds(6'000);
  drcr.factories().register_factory(
      "var.Impl", [&] { return std::make_unique<Variable>(&cost); });

  ComponentDescriptor liar;
  liar.name = "liar";
  liar.bincode = "var.Impl";
  liar.type = rtos::TaskType::kPeriodic;
  liar.cpu_usage = 0.2;  // declares 2ms per 10ms period, burns 6ms
  liar.periodic = PeriodicSpec{100.0, 0, 3};
  ASSERT_TRUE(drcr.register_component(std::move(liar)).ok());

  ContractMonitor monitor(drcr);
  monitor.start();
  engine.run_until(milliseconds(400));
  ASSERT_GE(monitor.sample_count("liar"), 16u);
  ASSERT_GT(monitor.observed_usage("liar"), 0.5);

  // Declared math admits the candidate (0.2 + 0.5 <= 0.9); observed does
  // not (~0.59 + 0.5 > 0.9). Empirical admission must say no.
  ComponentDescriptor candidate;
  candidate.name = "cand";
  candidate.bincode = "var.Impl";
  candidate.type = rtos::TaskType::kPeriodic;
  candidate.cpu_usage = 0.5;
  candidate.periodic = PeriodicSpec{100.0, 0, 4};
  ASSERT_TRUE(drcr.register_component(std::move(candidate)).ok());
  EXPECT_EQ(drcr.state_of("cand").value(), ComponentState::kUnsatisfied);
  const auto health = drcr.component_health("cand");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->last_error, ErrorCode::kAdmissionRejected);
  EXPECT_NE(health->reason.find("observed"), std::string::npos);
}

// -------------------------------------------------- determinism contract

/// One self-contained stack for the differential run.
struct World {
  World() : kernel(engine, quiet_config()), drcr(framework, kernel) {
    kernel.metrics().enable();
    kernel.trace().enable();
    drcr.factories().register_factory("var.Impl", [this] {
      return std::make_unique<Variable>(&job_cost);
    });
    ComponentDescriptor d;
    d.name = "w";
    d.bincode = "var.Impl";
    d.type = rtos::TaskType::kPeriodic;
    d.cpu_usage = 0.05;
    d.periodic = PeriodicSpec{100.0, 0, 3};
    EXPECT_TRUE(drcr.register_component(std::move(d)).ok());
  }

  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  Drcr drcr;
  SimDuration job_cost = microseconds(400);  // compliant: no violations
};

/// Drops the monitor-only series (per-task exec histograms and the
/// violation counter) from a rendered export, leaving what both worlds
/// must agree on byte for byte.
std::string without_monitor_series(const std::string& rendered) {
  std::string out;
  std::size_t start = 0;
  while (start <= rendered.size()) {
    const std::size_t end = rendered.find('\n', start);
    const std::string line = rendered.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    if (line.find("task_exec_ns") == std::string::npos &&
        line.find("contract_violations") == std::string::npos) {
      out += line;
      if (end != std::string::npos) out += '\n';
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

TEST(MonitorDifferential, SilentMonitorIsInvisibleInEveryExport) {
  World on;
  World off;
  ContractMonitor monitor(on.drcr);  // only world "on" is watched
  monitor.start();
  on.engine.run_until(seconds(1));
  off.engine.run_until(seconds(1));
  ASSERT_EQ(monitor.violations_reported(), 0u);
  ASSERT_GT(monitor.sample_count("w"), 16u);

  const auto snap_on = on.drcr.observe();
  const auto snap_off = off.drcr.observe();
  ASSERT_EQ(snap_on.now, snap_off.now);

  // Scheduling is untouched: the kernel trace renders byte-identically.
  obs::ChromeTraceExporter chrome;
  EXPECT_EQ(chrome.render(snap_on), chrome.render(snap_off));

  // Lifecycle history is untouched: same events, no violation entries.
  const auto events_on = on.drcr.recent_events();
  const auto events_off = off.drcr.recent_events();
  ASSERT_EQ(events_on.size(), events_off.size());
  for (std::size_t i = 0; i < events_on.size(); ++i) {
    EXPECT_EQ(events_on[i].type, events_off[i].type);
    EXPECT_EQ(events_on[i].component, events_off[i].component);
    EXPECT_EQ(events_on[i].when, events_off[i].when);
  }

  // Metrics differ ONLY by the monitor's own series: filtering those out
  // of the monitored world's export reproduces the bare world's export.
  obs::PrometheusExporter prom;
  const std::string prom_on = prom.render(snap_on);
  const std::string prom_off = prom.render(snap_off);
  EXPECT_NE(prom_on, prom_off);  // the extra series do exist...
  EXPECT_EQ(without_monitor_series(prom_on), prom_off);  // ...and only they
  EXPECT_EQ(prom_off.find("task_exec_ns"), std::string::npos);
  EXPECT_EQ(prom_off.find("contract_violations"), std::string::npos);
}

}  // namespace
}  // namespace drt::drcom
