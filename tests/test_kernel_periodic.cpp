// Periodic task semantics: releases, latency sampling, overruns, deadline
// misses, suspension, and the load/latency model hooks.
#include <gtest/gtest.h>

#include "rtos/kernel.hpp"
#include "rtos/subtask.hpp"
#include "test_helpers.hpp"

namespace drt::rtos {
namespace {

using testing::quiet_config;

TaskParams periodic(std::string name, SimDuration period, int priority = 10,
                    CpuId cpu = 0) {
  TaskParams params;
  params.name = std::move(name);
  params.type = TaskType::kPeriodic;
  params.period = period;
  params.priority = priority;
  params.cpu = cpu;
  return params;
}

/// A standard periodic body: consume `demand` per job until stopped.
TaskBody periodic_body(SimDuration demand) {
  return [demand](TaskContext& ctx) -> TaskCoro {
    while (!ctx.stop_requested()) {
      co_await ctx.consume(demand);
      co_await ctx.wait_next_period();
    }
  };
}

TEST(Periodic, ActivationsMatchElapsedPeriods) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  auto id = kernel.create_task(periodic("tick", milliseconds(1)),
                               periodic_body(microseconds(100)));
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(100));
  const Task* task = kernel.find_task(id.value());
  // First release at t=1ms, then every 1ms: 100 releases in [0, 100ms].
  EXPECT_GE(task->stats.activations, 99u);
  EXPECT_LE(task->stats.activations, 100u);
  EXPECT_EQ(task->stats.deadline_misses, 0u);
  EXPECT_EQ(task->stats.overruns, 0u);
}

TEST(Periodic, ZeroLatencyConfigYieldsZeroSamples) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  auto id = kernel.create_task(periodic("tick", milliseconds(1)),
                               periodic_body(microseconds(100)));
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(50));
  const Task* task = kernel.find_task(id.value());
  ASSERT_GT(task->latency.size(), 0u);
  const auto summary = task->latency.summary();
  EXPECT_DOUBLE_EQ(summary.average, 0.0);
  EXPECT_DOUBLE_EQ(summary.min, 0.0);
  EXPECT_DOUBLE_EQ(summary.max, 0.0);
}

TEST(Periodic, ExplicitStartTimeAlignsFirstRelease) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  std::vector<SimTime> job_times;
  auto id = kernel.create_task(
      periodic("tick", milliseconds(10)), [&](TaskContext& ctx) -> TaskCoro {
        while (!ctx.stop_requested()) {
          job_times.push_back(ctx.now());
          co_await ctx.wait_next_period();
        }
      });
  ASSERT_TRUE(kernel.start_task(id.value(), milliseconds(5)).ok());
  engine.run_until(milliseconds(46));
  ASSERT_GE(job_times.size(), 4u);
  EXPECT_EQ(job_times[0], milliseconds(5));
  EXPECT_EQ(job_times[1], milliseconds(15));
  EXPECT_EQ(job_times[2], milliseconds(25));
}

TEST(Periodic, OverrunningJobCountsMissesAndContinues) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  // 1ms period but 2.5ms demand: every job overruns.
  auto id = kernel.create_task(periodic("slow", milliseconds(1)),
                               periodic_body(microseconds(2'500)));
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(50));
  const Task* task = kernel.find_task(id.value());
  EXPECT_GT(task->stats.deadline_misses, 0u);
  EXPECT_GT(task->stats.overruns, 0u);
  // Throughput degrades to ~1 job per 2.5ms but the task keeps running.
  EXPECT_GE(task->stats.completions, 15u);
}

TEST(Periodic, SuspendSkipsReleases) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  auto id = kernel.create_task(periodic("tick", milliseconds(1)),
                               periodic_body(microseconds(50)));
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(10));
  const auto activations_before =
      kernel.find_task(id.value())->stats.activations;
  ASSERT_TRUE(kernel.suspend_task(id.value()).ok());
  engine.run_until(milliseconds(30));
  EXPECT_EQ(kernel.find_task(id.value())->stats.activations,
            activations_before);
  ASSERT_TRUE(kernel.resume_task(id.value()).ok());
  engine.run_until(milliseconds(50));
  const Task* task = kernel.find_task(id.value());
  EXPECT_GT(task->stats.activations, activations_before);
  // Releases during the 20ms suspension collapse: at most the one job that
  // was interrupted mid-flight resumes as an immediate overrun.
  EXPECT_LE(task->stats.overruns, 1u);
}

TEST(Periodic, TwoTasksSharePriorityWithInterference) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  // High-priority 1kHz task; low-priority 100Hz task with 3ms jobs on the
  // same CPU. The low task is preempted by every high release.
  auto high = kernel.create_task(periodic("high", milliseconds(1), 1),
                                 periodic_body(microseconds(200)));
  auto low = kernel.create_task(periodic("low", milliseconds(10), 5),
                                periodic_body(milliseconds(3)));
  ASSERT_TRUE(kernel.start_task(high.value()).ok());
  ASSERT_TRUE(kernel.start_task(low.value()).ok());
  engine.run_until(milliseconds(200));
  const Task* high_task = kernel.find_task(high.value());
  const Task* low_task = kernel.find_task(low.value());
  // High never misses (its 200us job always fits).
  EXPECT_EQ(high_task->stats.deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(high_task->latency.summary().max, 0.0);
  // Low gets preempted but still completes all jobs: 3ms of demand + ~0.6ms
  // of interference per period fits in 10ms.
  EXPECT_GT(low_task->stats.preemptions, 0u);
  EXPECT_EQ(low_task->stats.deadline_misses, 0u);
}

TEST(Periodic, SkipMissedPeriodsRealignsBaseline) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  std::vector<SimTime> job_times;
  auto id = kernel.create_task(
      periodic("tick", milliseconds(1)), [&](TaskContext& ctx) -> TaskCoro {
        // First job sleeps way past several releases, then realigns.
        job_times.push_back(ctx.now());
        co_await ctx.sleep_for(milliseconds(5));
        (void)ctx.skip_missed_periods();
        co_await ctx.wait_next_period();
        job_times.push_back(ctx.now());
      });
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(20));
  ASSERT_EQ(job_times.size(), 2u);
  EXPECT_EQ(job_times[0], milliseconds(1));
  // Slept until 6ms; realigned baseline means next release at 7ms, with no
  // overrun burst in between.
  EXPECT_EQ(job_times[1], milliseconds(7));
  EXPECT_EQ(kernel.find_task(id.value())->stats.overruns, 0u);
}

TEST(Periodic, SubTaskNestingAwaitsKernelOps) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  std::vector<SimTime> marks;
  auto nested = [](TaskContext& ctx, std::vector<SimTime>& out) -> SubTask<> {
    co_await ctx.consume(microseconds(100));
    out.push_back(ctx.now());
    co_await ctx.consume(microseconds(100));
    out.push_back(ctx.now());
  };
  auto id = kernel.create_task(
      periodic("nest", milliseconds(1)), [&](TaskContext& ctx) -> TaskCoro {
        co_await nested(ctx, marks);
        co_await ctx.wait_next_period();
        co_await nested(ctx, marks);
      });
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(10));
  ASSERT_EQ(marks.size(), 4u);
  EXPECT_EQ(marks[0], milliseconds(1) + microseconds(100));
  EXPECT_EQ(marks[1], milliseconds(1) + microseconds(200));
  EXPECT_EQ(marks[2], milliseconds(2) + microseconds(100));
  EXPECT_EQ(marks[3], milliseconds(2) + microseconds(200));
  EXPECT_EQ(kernel.find_task(id.value())->state, TaskState::kFinished);
}

TEST(Periodic, SubTaskReturnsValue) {
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  int result = 0;
  auto compute = [](TaskContext& ctx) -> SubTask<int> {
    co_await ctx.consume(microseconds(10));
    co_return 42;
  };
  auto id = kernel.create_task(
      TaskParams{.name = "calc", .type = TaskType::kAperiodic},
      [&](TaskContext& ctx) -> TaskCoro { result = co_await compute(ctx); });
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(1));
  EXPECT_EQ(result, 42);
}

// -------- parameterized sweep: utilization vs deadline misses -------------

struct UtilizationCase {
  SimDuration period;
  SimDuration demand;
  bool expect_misses;
};

// Names each case by its timing (e.g. T1000us_C500us); without it the test
// name would print the struct's raw bytes, padding included.
void PrintTo(const UtilizationCase& c, std::ostream* out) {
  *out << "T" << c.period / 1'000 << "us_C" << c.demand / 1'000 << "us";
}

class PeriodicUtilization : public ::testing::TestWithParam<UtilizationCase> {};

TEST_P(PeriodicUtilization, MissesIffOverloaded) {
  const auto param = GetParam();
  SimEngine engine;
  RtKernel kernel(engine, quiet_config());
  auto id = kernel.create_task(periodic("sweep", param.period),
                               periodic_body(param.demand));
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(500));
  const Task* task = kernel.find_task(id.value());
  if (param.expect_misses) {
    EXPECT_GT(task->stats.deadline_misses, 0u);
  } else {
    EXPECT_EQ(task->stats.deadline_misses, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PeriodicUtilization,
    ::testing::Values(
        UtilizationCase{milliseconds(1), microseconds(100), false},   // 10%
        UtilizationCase{milliseconds(1), microseconds(500), false},   // 50%
        UtilizationCase{milliseconds(1), microseconds(990), false},   // 99%
        UtilizationCase{milliseconds(1), microseconds(1'100), true},  // 110%
        UtilizationCase{milliseconds(2), microseconds(3'000), true},  // 150%
        UtilizationCase{milliseconds(10), milliseconds(9), false}));  // 90%

// -------- parameterized sweep: N equal tasks round-robin fairness ---------

class RoundRobinFairness : public ::testing::TestWithParam<int> {};

TEST_P(RoundRobinFairness, EqualTasksShareCpuEvenly) {
  const int n = GetParam();
  SimEngine engine;
  auto config = quiet_config();
  config.default_rr_quantum = milliseconds(1);
  RtKernel kernel(engine, config);
  std::vector<TaskId> ids;
  for (int i = 0; i < n; ++i) {
    auto id = kernel.create_task(
        TaskParams{.name = "t" + std::to_string(i),
                   .type = TaskType::kAperiodic,
                   .priority = 5},
        [](TaskContext& ctx) -> TaskCoro {
          co_await ctx.consume(milliseconds(10));
        });
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
    ASSERT_TRUE(kernel.start_task(id.value()).ok());
  }
  // Run half the total demand: every task should have ~equal service.
  engine.run_until(milliseconds(5) * n);
  SimDuration min_served = kSimTimeNever;
  SimDuration max_served = 0;
  for (TaskId id : ids) {
    const auto served = kernel.find_task(id)->stats.cpu_time;
    min_served = std::min(min_served, served);
    max_served = std::max(max_served, served);
  }
  // Fairness within one quantum.
  EXPECT_LE(max_served - min_served, milliseconds(1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoundRobinFairness,
                         ::testing::Values(2, 3, 5, 8));

}  // namespace
}  // namespace drt::rtos
