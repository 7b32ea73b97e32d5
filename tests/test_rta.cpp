// Response-time-analysis resolver: the exact fixed-priority schedulability
// test, validated against hand-computed classics and against the simulator
// itself (analysis says feasible <=> simulation shows zero misses).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "drcom/drcr.hpp"
#include "test_helpers.hpp"

namespace drt::drcom {
namespace {

using rtos::testing::quiet_config;

// ------------------------------------------------- response_time() maths --

TEST(ResponseTime, NoInterferenceIsJustCost) {
  EXPECT_EQ(ResponseTimeResolver::response_time(5, 100, {}), 5);
}

TEST(ResponseTime, ClassicTextbookSet) {
  // Burns & Wellings example: C/T = 3/7(hi), 3/12, 5/20 — all feasible.
  // R1 = 3; R2 = 3 + ceil(R2/7)*3 -> 6; R3 = 5 + ceil/7*3 + ceil/12*3 -> 20.
  EXPECT_EQ(ResponseTimeResolver::response_time(3, 7, {}), 3);
  EXPECT_EQ(ResponseTimeResolver::response_time(3, 12, {{3, 7}}), 6);
  EXPECT_EQ(
      ResponseTimeResolver::response_time(5, 20, {{3, 7}, {3, 12}}), 20);
}

TEST(ResponseTime, InfeasibleReturnsFirstExceedingValue) {
  // 60% + 60% on one CPU: the low task misses. The iteration crosses the
  // deadline at R = 6 + ceil(6/10)*6 = 12, and that first exceeding value is
  // returned so rejection messages can report a concrete response time.
  EXPECT_EQ(ResponseTimeResolver::response_time(6, 10, {{6, 10}}), 12);
}

TEST(ResponseTime, DivergentRecurrenceHitsIterationCap) {
  // U > 1 with a huge deadline: the iterate grows by 1 per step and never
  // crosses D within the 1000-iteration cap, so the analysis reports
  // kSimTimeNever ("diverges") rather than a concrete value.
  EXPECT_EQ(ResponseTimeResolver::response_time(1, 1'000'000, {{1, 1}}),
            kSimTimeNever);
}

TEST(ResponseTime, ExactFitConverges) {
  // U = 1.0 harmonic: C=5,T=10 (hi) + C=5,D=T=10? low: R = 5 + ceil(R/10)*5
  // -> 10 == D: feasible at exactly full utilization (harmonic).
  EXPECT_EQ(ResponseTimeResolver::response_time(5, 10, {{5, 10}}), 10);
}

// ------------------------------------- bucketed_response_time() maths --

using Demand = ResponseTimeResolver::Demand;

/// Sums `tasks` into (priority, period) buckets, sorted by that pair.
std::vector<Demand> bucket(const std::vector<Demand>& tasks) {
  std::vector<Demand> demand;
  for (const Demand& task : tasks) {
    auto it = std::find_if(demand.begin(), demand.end(), [&](const Demand& b) {
      return b.priority == task.priority && b.period == task.period;
    });
    if (it == demand.end()) {
      demand.push_back(task);
    } else {
      it->cost += task.cost;
    }
  }
  std::sort(demand.begin(), demand.end(), [](const Demand& a, const Demand& b) {
    return std::tie(a.priority, a.period) < std::tie(b.priority, b.period);
  });
  return demand;
}

/// The per-task interferer list response_time() takes: every other task at
/// or above `self`'s priority (numerically <=).
std::vector<std::pair<SimDuration, SimDuration>> interferers_of(
    const std::vector<Demand>& tasks, std::size_t self) {
  std::vector<std::pair<SimDuration, SimDuration>> interferers;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    if (j != self && tasks[j].priority <= tasks[self].priority) {
      interferers.emplace_back(tasks[j].cost, tasks[j].period);
    }
  }
  return interferers;
}

TEST(BucketedResponseTime, EqualsPerTaskRecurrenceOnRandomSets) {
  // Few periods and priorities, so buckets hold many tasks; costs span
  // feasible and infeasible sets. A saturating priority-0 hog (C = T) makes
  // the iterate grow by a near-constant step, so with a huge deadline the
  // lower tasks hit the 1000-iteration cap ("diverges").
  static const SimDuration kPeriods[] = {1'000, 2'000, 5'000, 10'000};
  std::mt19937_64 rng(0x5eed);
  ResponseTimeResolver::WorkCounts work;
  std::size_t diverged = 0;
  std::size_t missed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + rng() % 16;
    std::vector<Demand> tasks;
    std::vector<SimTime> deadlines;
    if (rng() % 4 == 0) {
      tasks.push_back(Demand{0, 1'000, 1'000});
      deadlines.push_back(1'000);
    }
    while (tasks.size() < n) {
      const SimDuration period = kPeriods[rng() % std::size(kPeriods)];
      const auto cost = static_cast<SimDuration>(1 + rng() % (period / 8));
      tasks.push_back(Demand{static_cast<int>(rng() % 4), period, cost});
      deadlines.push_back(rng() % 4 == 0 ? SimTime{1'000'000'000} : period);
    }
    const std::vector<Demand> demand = bucket(tasks);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const SimTime expected = ResponseTimeResolver::response_time(
          tasks[i].cost, deadlines[i], interferers_of(tasks, i));
      const SimTime actual = ResponseTimeResolver::bucketed_response_time(
          demand, tasks[i], deadlines[i], true, nullptr, tasks[i].cost, work);
      ASSERT_EQ(actual, expected) << "trial " << trial << " task " << i;
      if (expected == kSimTimeNever) ++diverged;
      if (expected > deadlines[i]) ++missed;
    }
    // The same set seen by a candidate outside it, with the last task as
    // the `extra` interferer that is not yet bucketed.
    std::vector<Demand> base(tasks.begin(), tasks.end() - 1);
    const Demand extra = tasks.back();
    const std::vector<Demand> base_demand = bucket(base);
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i) {
      const SimTime expected = ResponseTimeResolver::response_time(
          tasks[i].cost, deadlines[i], interferers_of(tasks, i));
      const SimTime actual = ResponseTimeResolver::bucketed_response_time(
          base_demand, tasks[i], deadlines[i], true, &extra, tasks[i].cost,
          work);
      ASSERT_EQ(actual, expected) << "trial " << trial << " task " << i;
    }
    const Demand outsider{static_cast<int>(rng() % 4), kPeriods[0], 50};
    std::vector<Demand> with_outsider = tasks;
    with_outsider.push_back(outsider);
    EXPECT_EQ(ResponseTimeResolver::bucketed_response_time(
                  demand, outsider, kPeriods[0], false, nullptr, outsider.cost,
                  work),
              ResponseTimeResolver::response_time(
                  outsider.cost, kPeriods[0],
                  interferers_of(with_outsider, with_outsider.size() - 1)))
        << "trial " << trial;
  }
  // The draw must reach every outcome, the cap included.
  EXPECT_GT(diverged, 0u);
  EXPECT_GT(missed, diverged);
  EXPECT_GT(work.solves, 0u);
}

TEST(BucketedResponseTime, CountsOneTermPerInterferingBucket) {
  // Ten tasks in two buckets at priority <= 1 and one bucket below: each
  // iteration sums exactly the two interfering buckets.
  std::vector<Demand> tasks;
  for (int i = 0; i < 5; ++i) tasks.push_back(Demand{0, 10'000, 100});
  for (int i = 0; i < 5; ++i) tasks.push_back(Demand{1, 20'000, 100});
  tasks.push_back(Demand{2, 5'000, 100});
  ResponseTimeResolver::WorkCounts work;
  const SimTime response = ResponseTimeResolver::bucketed_response_time(
      bucket(tasks), tasks[5], 20'000, true, nullptr, tasks[5].cost, work);
  EXPECT_EQ(response, 1'000);  // 100 + 5 * 100 + 4 * 100
  EXPECT_EQ(work.solves, 1u);
  EXPECT_EQ(work.terms, 2 * work.iterations);
}

// --------------------------------------------------------- admit() logic --

ComponentDescriptor periodic_component(std::string name, double usage,
                                       double hz, int priority,
                                       SimDuration deadline = 0) {
  ComponentDescriptor d;
  d.name = std::move(name);
  d.bincode = "rta.Impl";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = usage;
  d.periodic = PeriodicSpec{hz, 0, priority, deadline};
  return d;
}

SystemView view_of(const std::vector<const ComponentDescriptor*>& active) {
  SystemView view;
  view.active = active;
  view.cpu_count = 1;
  return view;
}

TEST(RtaResolver, AdmitsBeyondRmBound) {
  // Harmonic set at U = 0.95: RM bound (0.78 for n=3) rejects, RTA admits.
  ResponseTimeResolver rta(0);  // no overhead for the pure-maths check
  RateMonotonicResolver rm;
  const auto a = periodic_component("a", 0.475, 1000.0, 1);
  const auto b = periodic_component("b", 0.25, 500.0, 2);
  const auto candidate = periodic_component("c", 0.225, 250.0, 4);
  EXPECT_FALSE(rm.admit(candidate, view_of({&a, &b})).ok());
  EXPECT_TRUE(rta.admit(candidate, view_of({&a, &b})).ok())
      << rta.admit(candidate, view_of({&a, &b})).error().message;
}

TEST(RtaResolver, RejectsWhenExistingTaskWouldBreak) {
  // The candidate has HIGHER priority than an existing tight task: admitting
  // it would break the deployed contract, which §2.2 forbids.
  ResponseTimeResolver rta(0);
  const auto existing = periodic_component("old", 0.6, 1000.0, 5);
  const auto candidate = periodic_component("new", 0.45, 2000.0, 1);
  auto result = rta.admit(candidate, view_of({&existing}));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("'old'"), std::string::npos);
}

TEST(RtaResolver, RejectionReportsFirstExceedingResponse) {
  // Same set as above: 'old' iterates 600000 -> 600000 + 2*225000 = 1050000,
  // which crosses D = 1000000. The message must cite that concrete value.
  ResponseTimeResolver rta(0);
  const auto existing = periodic_component("old", 0.6, 1000.0, 5);
  const auto candidate = periodic_component("new", 0.45, 2000.0, 1);
  auto result = rta.admit(candidate, view_of({&existing}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message,
            "RTA: task 'old' would miss its deadline on cpu 0 "
            "(R=1050000 > D=1000000) if 'new' were admitted");
}

TEST(RtaResolver, RejectionReportsDivergesOnlyAtIterationCap) {
  // A saturating interferer (U = 1.0, C = T = 1000ns) plus a candidate with a
  // deadline far beyond what 1000 iterations can reach: the recurrence never
  // crosses D before the cap, so the message says "diverges".
  ResponseTimeResolver rta(0);
  const auto hog = periodic_component("hog", 1.0, 1'000'000.0, 1);
  const auto candidate =
      periodic_component("div", 0.001, 1000.0, 7, microseconds(100'000));
  auto result = rta.admit(candidate, view_of({&hog}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message,
            "RTA: task 'div' would miss its deadline on cpu 0 "
            "(R diverges > D=100000000) if 'div' were admitted");
}

TEST(RtaResolver, ConstrainedDeadlineTightensTheTest) {
  ResponseTimeResolver rta(0);
  const auto interferer = periodic_component("hi", 0.4, 1000.0, 1);
  // Low task: C = 0.3 * 2ms = 600us, deadline 1ms. R = 600 + ceil(R/1ms)*400.
  // R -> 600+400 = 1000 <= 1000: feasible with D=1ms...
  const auto ok_candidate =
      periodic_component("lo", 0.3, 500.0, 5, microseconds(1'000));
  EXPECT_TRUE(rta.admit(ok_candidate, view_of({&interferer})).ok());
  // ...but infeasible with D=900us.
  const auto bad_candidate =
      periodic_component("lo", 0.3, 500.0, 5, microseconds(900));
  EXPECT_FALSE(rta.admit(bad_candidate, view_of({&interferer})).ok());
}

TEST(RtaResolver, ConstrainedDeadlineRejectionReportsEffectiveDeadline) {
  // Pin the exact message for a constrained-deadline rejection: it must cite
  // the effective deadline D_i (900us), not the 2ms period the task releases
  // on — the response time is compared against D_i. R iterates 600us ->
  // 600 + ceil(600/1000)*400 = 1000us, first exceeding value.
  ResponseTimeResolver rta(0);
  const auto interferer = periodic_component("hi", 0.4, 1000.0, 1);
  const auto bad_candidate =
      periodic_component("lo", 0.3, 500.0, 5, microseconds(900));
  auto result = rta.admit(bad_candidate, view_of({&interferer}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message,
            "RTA: task 'lo' would miss its deadline on cpu 0 "
            "(R=1000000 > D=900000) if 'lo' were admitted");
}

TEST(RtaResolver, AperiodicPassesThrough) {
  ResponseTimeResolver rta;
  ComponentDescriptor aperiodic;
  aperiodic.name = "evt";
  aperiodic.bincode = "x";
  aperiodic.type = rtos::TaskType::kAperiodic;
  EXPECT_TRUE(rta.admit(aperiodic, view_of({})).ok());
}

// --------------------------- analysis vs simulation cross-validation ------

class Spinner : public RtComponent {
 public:
  explicit Spinner(SimDuration cost) : cost_(cost) {}
  rtos::TaskCoro run(JobContext& job) override {
    while (job.active()) {
      co_await job.consume(cost_);
      co_await job.next_cycle();
    }
  }

 private:
  SimDuration cost_;
};

/// The RTA must agree with the simulator: sets it admits run without misses.
TEST(RtaResolver, AdmittedSetsAreMissFreeInSimulation) {
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel(engine, quiet_config(1));
  DrcrConfig config;
  config.cpu_budget = 1.0;
  Drcr drcr(framework, kernel, config);
  // Per-job overhead in the quiet config: poll cost 150ns, no ctx switch.
  drcr.set_internal_resolver(std::make_unique<ResponseTimeResolver>(200));

  struct Spec {
    const char* name;
    double usage;
    double hz;
    int priority;
  };
  // Harmonic near-saturation set: U = 0.95.
  const Spec specs[] = {{"a", 0.475, 1000.0, 1},
                        {"b", 0.25, 500.0, 2},
                        {"c", 0.225, 250.0, 4}};
  for (const auto& spec : specs) {
    drcr.factories().register_factory(
        std::string("rta.") + spec.name, [&spec] {
          const auto period = period_from_hz(spec.hz);
          return std::make_unique<Spinner>(static_cast<SimDuration>(
              spec.usage * static_cast<double>(period)));
        });
    ComponentDescriptor d =
        periodic_component(spec.name, spec.usage, spec.hz, spec.priority);
    d.bincode = std::string("rta.") + spec.name;
    ASSERT_TRUE(drcr.register_component(std::move(d)).ok());
  }
  ASSERT_EQ(drcr.active_count(), 3u);  // RTA admits the whole set
  engine.run_until(seconds(5));
  for (const auto& spec : specs) {
    EXPECT_EQ(drcr.instance_of(spec.name)->status().stats.deadline_misses, 0u)
        << spec.name;
  }
}

TEST(RtaResolver, RejectedAdditionWouldHaveMissedInSimulation) {
  // Counterfactual check: force the rejected set in with always-accept and
  // observe real misses — proving the RTA rejection was warranted.
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel(engine, quiet_config(1));
  DrcrConfig config;
  config.cpu_budget = 1.0;
  Drcr drcr(framework, kernel, config);
  drcr.set_internal_resolver(std::make_unique<AlwaysAcceptResolver>());
  // 60% at prio 5 plus 45% at prio 1 (the RejectsWhenExistingTaskWouldBreak
  // set): "old" must miss.
  drcr.factories().register_factory("rta.old", [] {
    return std::make_unique<Spinner>(microseconds(600));
  });
  drcr.factories().register_factory("rta.new", [] {
    return std::make_unique<Spinner>(microseconds(225));
  });
  ComponentDescriptor old_c = periodic_component("old", 0.6, 1000.0, 5);
  old_c.bincode = "rta.old";
  ComponentDescriptor new_c = periodic_component("new", 0.45, 2000.0, 1);
  new_c.bincode = "rta.new";
  ASSERT_TRUE(drcr.register_component(std::move(old_c)).ok());
  ASSERT_TRUE(drcr.register_component(std::move(new_c)).ok());
  engine.run_until(seconds(2));
  EXPECT_GT(drcr.instance_of("old")->status().stats.deadline_misses, 0u);
  EXPECT_EQ(drcr.instance_of("new")->status().stats.deadline_misses, 0u);
}

}  // namespace
}  // namespace drt::drcom
