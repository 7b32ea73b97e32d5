// Logging sink/levels and kernel execution-trace behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "drcom/drcr.hpp"
#include "osgi/service_registry.hpp"
#include "rtos/kernel.hpp"
#include "test_helpers.hpp"
#include "util/logging.hpp"

namespace drt {
namespace {

using rtos::testing::quiet_config;

struct LogCapture {
  LogCapture() {
    log::set_level(log::Level::kTrace);
    log::set_sink([this](log::Level level, const std::string& line) {
      levels.push_back(level);
      lines.push_back(line);
    });
  }
  ~LogCapture() {
    log::set_sink(nullptr);
    log::set_level(log::Level::kWarn);
  }
  std::vector<log::Level> levels;
  std::vector<std::string> lines;
};

TEST(Logging, SinkReceivesFormattedLines) {
  LogCapture capture;
  log::write(log::Level::kInfo, "testmod", 1'234, "hello world");
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_NE(capture.lines[0].find("[INFO]"), std::string::npos);
  EXPECT_NE(capture.lines[0].find("t=1234ns"), std::string::npos);
  EXPECT_NE(capture.lines[0].find("[testmod]"), std::string::npos);
  EXPECT_NE(capture.lines[0].find("hello world"), std::string::npos);
}

TEST(Logging, NegativeTimeOmitsStamp) {
  LogCapture capture;
  log::write(log::Level::kInfo, "m", -1, "no clock yet");
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_EQ(capture.lines[0].find("t="), std::string::npos);
}

TEST(Logging, LevelFiltersOutput) {
  LogCapture capture;
  log::set_level(log::Level::kError);
  log::write(log::Level::kWarn, "m", 0, "dropped");
  log::write(log::Level::kError, "m", 0, "kept");
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_NE(capture.lines[0].find("kept"), std::string::npos);
  EXPECT_FALSE(log::enabled(log::Level::kDebug));
  EXPECT_TRUE(log::enabled(log::Level::kError));
}

TEST(Logging, OffSilencesEverything) {
  LogCapture capture;
  log::set_level(log::Level::kOff);
  log::write(log::Level::kError, "m", 0, "nope");
  EXPECT_TRUE(capture.lines.empty());
}

TEST(Logging, StreamStyleLine) {
  LogCapture capture;
  { log::Line(log::Level::kInfo, "mod", 42) << "x=" << 7 << " y=" << 2.5; }
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_NE(capture.lines[0].find("x=7 y=2.5"), std::string::npos);
}

TEST(Logging, DisabledLineSkipsItsStream) {
  LogCapture capture;
  log::set_level(log::Level::kWarn);
  { log::Line(log::Level::kDebug, "mod") << "dropped " << 1; }
  { log::Line(log::Level::kWarn, "mod") << "kept " << 2; }
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_NE(capture.lines[0].find("kept 2"), std::string::npos);
}

TEST(Logging, RegistryDebugLineCarriesFullProperties) {
  // The registration line is guarded by log::enabled(kDebug), so it builds
  // the property text only when it is emitted — and then in full.
  LogCapture capture;
  log::set_level(log::Level::kDebug);
  osgi::ServiceRegistry registry;
  osgi::Properties properties;
  properties.set("component.name", std::string("sensor"));
  properties.set("service.ranking", static_cast<std::int64_t>(7));
  auto registration = registry.register_service(
      3, {"test.Service"}, std::make_shared<int>(1), properties);
  const std::string expected =
      "[DEBUG] [osgi.registry] registered service #" +
      std::to_string(registration.reference().service_id()) + " " +
      registration.reference().properties().to_string();
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_EQ(capture.lines[0], expected);
  for (const char* key : {"component.name", "sensor", "service.ranking",
                          "objectClass", "test.Service", "service.bundleid"}) {
    EXPECT_NE(capture.lines[0].find(key), std::string::npos) << key;
  }

  // One level up the registration logs nothing.
  log::set_level(log::Level::kInfo);
  auto quiet = registry.register_service(3, {"test.Service"},
                                         std::make_shared<int>(2));
  EXPECT_EQ(capture.lines.size(), 1u);
  registration.unregister();
  quiet.unregister();
}

TEST(Logging, DrcrEventLinesKeepTheirFormat) {
  // Lifecycle lines append ": <reason>" only when the event carries one.
  LogCapture capture;
  log::set_level(log::Level::kInfo);
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel(engine, quiet_config());
  drcom::Drcr drcr(framework, kernel);
  drcom::ComponentDescriptor d;
  d.name = "c0";
  d.bincode = "none";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = 0.1;
  d.periodic = drcom::PeriodicSpec{100.0, 0, 5};
  ASSERT_TRUE(drcr.register_component(d).ok());
  std::vector<std::string> lines;
  for (const std::string& line : capture.lines) {
    if (line.find("[drcr]") != std::string::npos) lines.push_back(line);
  }
  EXPECT_EQ(lines, (std::vector<std::string>{
                       "[INFO] t=0ns [drcr] REGISTERED c0",
                       "[INFO] t=0ns [drcr] REJECTED c0: no implementation "
                       "registered for bincode 'none'"}));
}

TEST(Logging, LevelNames) {
  EXPECT_EQ(log::to_string(log::Level::kTrace), "TRACE");
  EXPECT_EQ(log::to_string(log::Level::kError), "ERROR");
  EXPECT_EQ(log::to_string(log::Level::kOff), "OFF");
}

// -------------------------------------------------------------------- trace

TEST(KernelTrace, PeriodicTaskLeavesFullLifecycleTrail) {
  rtos::SimEngine engine;
  rtos::RtKernel kernel(engine, quiet_config());
  kernel.trace().enable();
  auto id = kernel.create_task(
      rtos::TaskParams{.name = "tick",
                       .type = rtos::TaskType::kPeriodic,
                       .period = milliseconds(1)},
      [](rtos::TaskContext& ctx) -> rtos::TaskCoro {
        while (!ctx.stop_requested()) {
          co_await ctx.consume(microseconds(100));
          co_await ctx.wait_next_period();
        }
      });
  ASSERT_TRUE(kernel.start_task(id.value()).ok());
  engine.run_until(milliseconds(10));
  const auto releases = kernel.trace().filter(rtos::TraceKind::kReleased);
  const auto dispatches = kernel.trace().filter(rtos::TraceKind::kDispatched);
  const auto completions = kernel.trace().filter(rtos::TraceKind::kCompleted);
  EXPECT_GE(releases.size(), 9u);
  EXPECT_GE(dispatches.size(), releases.size());
  EXPECT_GE(completions.size(), releases.size() - 1);
  // Trace events are time-ordered.
  SimTime previous = 0;
  for (const auto& event : kernel.trace().events()) {
    EXPECT_GE(event.when, previous);
    previous = event.when;
  }
  // Releases and completions alternate per job for this simple task.
  for (std::size_t i = 0; i + 1 < completions.size(); ++i) {
    EXPECT_EQ(completions[i].task, id.value());
  }
  kernel.trace().clear();
  EXPECT_TRUE(kernel.trace().events().empty());
}

TEST(KernelTrace, PreemptionEventsCarryTaskIds) {
  rtos::SimEngine engine;
  rtos::RtKernel kernel(engine, quiet_config());
  kernel.trace().enable();
  auto low = kernel.create_task(
      rtos::TaskParams{.name = "low", .type = rtos::TaskType::kAperiodic,
                       .priority = 5},
      [](rtos::TaskContext& ctx) -> rtos::TaskCoro {
        co_await ctx.consume(milliseconds(5));
      });
  auto high = kernel.create_task(
      rtos::TaskParams{.name = "high", .type = rtos::TaskType::kAperiodic,
                       .priority = 1},
      [](rtos::TaskContext& ctx) -> rtos::TaskCoro {
        co_await ctx.consume(milliseconds(1));
      });
  ASSERT_TRUE(kernel.start_task(low.value()).ok());
  ASSERT_TRUE(kernel.start_task(high.value(), milliseconds(1)).ok());
  engine.run_until(milliseconds(10));
  const auto preemptions = kernel.trace().filter(rtos::TraceKind::kPreempted);
  ASSERT_EQ(preemptions.size(), 1u);
  EXPECT_EQ(preemptions[0].task, low.value());
  EXPECT_EQ(preemptions[0].when, milliseconds(1));
}

TEST(KernelTrace, MailboxTrafficTraced) {
  rtos::SimEngine engine;
  rtos::RtKernel kernel(engine, quiet_config());
  kernel.trace().enable();
  auto* mailbox = kernel.mailbox_create("mbx", 4).value();
  kernel.mailbox_send(*mailbox, rtos::message_from_string("x"));
  (void)kernel.mailbox_try_receive(*mailbox);
  EXPECT_EQ(kernel.trace().filter(rtos::TraceKind::kMailboxSend).size(), 1u);
  EXPECT_EQ(kernel.trace().filter(rtos::TraceKind::kMailboxRecv).size(), 1u);
  EXPECT_EQ(kernel.trace().filter(rtos::TraceKind::kMailboxSend)[0].detail,
            "mbx");
}

TEST(TraceKindNames, AllDistinct) {
  // to_string must be injective enough for log analysis.
  const rtos::TraceKind kinds[] = {
      rtos::TraceKind::kTaskCreated, rtos::TraceKind::kTaskStarted,
      rtos::TraceKind::kReleased,    rtos::TraceKind::kDispatched,
      rtos::TraceKind::kPreempted,   rtos::TraceKind::kSliceRotated,
      rtos::TraceKind::kBlocked,     rtos::TraceKind::kCompleted,
      rtos::TraceKind::kSuspendedK,  rtos::TraceKind::kResumed,
      rtos::TraceKind::kDeleted,     rtos::TraceKind::kFinished,
      rtos::TraceKind::kDeadlineMiss, rtos::TraceKind::kMailboxSend,
      rtos::TraceKind::kMailboxRecv};
  std::set<std::string> names;
  for (const auto kind : kinds) names.insert(rtos::to_string(kind));
  EXPECT_EQ(names.size(), std::size(kinds));
}

}  // namespace
}  // namespace drt
