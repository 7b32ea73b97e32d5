// Mode-change protocol (docs/MODES.md): transitions between QoS modes must
// be admission-checked before commit, shrink-first during application, and
// fully reversible — plus the DeadlineResolver's warm (batch-session) path
// must take bit-identical decisions to the cold from-scratch scan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "drcom/adaptation.hpp"
#include "drcom/drcr.hpp"
#include "drcom/mode_change.hpp"
#include "rtos/fault.hpp"
#include "test_helpers.hpp"
#include "testing/oracle.hpp"

namespace drt::drcom {
namespace {

using rtos::testing::quiet_config;

class IdleComponent : public RtComponent {
 public:
  rtos::TaskCoro run(JobContext& job) override {
    while (job.active()) co_await job.next_cycle();
  }
};

struct ModeWorld {
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  Drcr drcr;

  ModeWorld()
      : kernel(engine, quiet_config(2)),
        drcr(framework, kernel, make_config()) {
    drcr.factories().register_factory(
        "mode.X", [] { return std::make_unique<IdleComponent>(); });
  }

  static DrcrConfig make_config() {
    DrcrConfig config;
    config.cpu_budget = 0.9;
    return config;
  }
};

ComponentDescriptor mode_component(std::string name, double base, CpuId cpu,
                                   double hz = 100.0, int priority = 5) {
  ComponentDescriptor d;
  d.name = std::move(name);
  d.bincode = "mode.X";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = base;
  d.periodic = PeriodicSpec{hz, cpu, priority};
  return d;
}

ModeSpec budget_mode(std::string name, double usage) {
  ModeSpec spec;
  spec.name = std::move(name);
  spec.cpu_usage = usage;
  return spec;
}

ModeSpec absent_mode(std::string name) {
  ModeSpec spec;
  spec.name = std::move(name);
  spec.present = false;
  return spec;
}

// --------------------------------------------------- budget re-folding ----

TEST(ModeChange, TransitionRebudgetsActiveComponentsAndBack) {
  ModeWorld world;
  auto a = mode_component("a", 0.3, 0);
  a.modes.push_back(budget_mode("degraded", 0.1));
  auto b = mode_component("b", 0.4, 0);
  b.modes.push_back(budget_mode("degraded", 0.2));
  ASSERT_TRUE(world.drcr.register_component(std::move(a)).ok());
  ASSERT_TRUE(world.drcr.register_component(std::move(b)).ok());
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.3 + 0.4);

  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("degraded").ok());
  EXPECT_EQ(modes.current_mode(), "degraded");
  // The cache's fold is exact: the new sum is the left-fold 0.1 then 0.2.
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.1 + 0.2);
  ASSERT_EQ(modes.history().size(), 1u);
  EXPECT_TRUE(modes.history().back().committed);
  EXPECT_EQ(modes.history().back().budget_changes, 2u);
  EXPECT_EQ(modes.transitions(), 1u);

  // Back to base: the side-tabled base budgets are restored exactly.
  ASSERT_TRUE(modes.transition_to("").ok());
  EXPECT_EQ(modes.current_mode(), "");
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.3 + 0.4);
  EXPECT_EQ(modes.base_usage_of("a", -1.0), 0.3);
}

TEST(ModeChange, TransitionToCurrentModeIsANoop) {
  ModeWorld world;
  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("").ok());
  EXPECT_TRUE(modes.history().empty());
  EXPECT_EQ(modes.transitions(), 0u);
}

// --------------------------------------------------------- rollback ------

TEST(ModeChange, RejectedTargetModeLeavesEverythingUntouched) {
  ModeWorld world;
  auto a = mode_component("a", 0.3, 0);
  a.modes.push_back(budget_mode("high", 0.8));
  auto b = mode_component("b", 0.4, 0);
  b.modes.push_back(budget_mode("high", 0.8));
  ASSERT_TRUE(world.drcr.register_component(std::move(a)).ok());
  ASSERT_TRUE(world.drcr.register_component(std::move(b)).ok());

  ModeChangeController& modes = world.drcr.mode_controller();
  auto result = modes.transition_to("high");  // projects 1.6 > 0.9
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "drcom.mode_rejected");
  // Rejection happens BEFORE any state is touched — nothing to roll back.
  EXPECT_EQ(modes.current_mode(), "");
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.3 + 0.4);
  EXPECT_EQ(world.drcr.state_of("a"), ComponentState::kActive);
  EXPECT_EQ(world.drcr.state_of("b"), ComponentState::kActive);
  ASSERT_EQ(modes.history().size(), 1u);
  EXPECT_FALSE(modes.history().back().committed);
  EXPECT_EQ(modes.rejections(), 1u);
}

TEST(ModeChange, SkipAdmissionCheckHookCommitsBlindly) {
  // The fuzzer's planted-bug hook: with the pre-check disabled the unsafe
  // transition COMMITS — the oracle (invariant 10), not the controller, is
  // then the only line of defence.
  ModeWorld world;
  auto a = mode_component("a", 0.3, 0);
  a.modes.push_back(budget_mode("high", 0.8));
  auto b = mode_component("b", 0.4, 0);
  b.modes.push_back(budget_mode("high", 0.8));
  ASSERT_TRUE(world.drcr.register_component(std::move(a)).ok());
  ASSERT_TRUE(world.drcr.register_component(std::move(b)).ok());
  ModeChangeController& modes = world.drcr.mode_controller();
  modes.set_skip_admission_check(true);
  ASSERT_TRUE(modes.transition_to("high").ok());
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.8 + 0.8);
}

// ------------------------------------------- optional drop and restore ----

TEST(ModeChange, OptionalComponentDroppedAndRestored) {
  ModeWorld world;
  auto opt = mode_component("opt", 0.2, 0);
  opt.modes.push_back(absent_mode("crisis"));
  auto keep = mode_component("keep", 0.2, 0);
  ASSERT_TRUE(world.drcr.register_component(std::move(opt)).ok());
  ASSERT_TRUE(world.drcr.register_component(std::move(keep)).ok());

  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("crisis").ok());
  EXPECT_NE(world.drcr.state_of("opt"), ComponentState::kActive);
  EXPECT_TRUE(modes.dropped_components().contains("opt"));
  // Mode-less components ride through untouched.
  EXPECT_EQ(world.drcr.state_of("keep"), ComponentState::kActive);
  EXPECT_EQ(modes.history().back().drops, 1u);

  ASSERT_TRUE(modes.transition_to("").ok());
  EXPECT_EQ(world.drcr.state_of("opt"), ComponentState::kActive);
  EXPECT_TRUE(modes.dropped_components().empty());
  EXPECT_EQ(modes.history().back().restores, 1u);
}

// A drop that cascades into a dependent the same transition re-budgets. The
// dependent must not be re-appended to the ContractCache while it is not
// ACTIVE: the stale entry would outlive its record (heap-use-after-free on
// the next transition once the dependent is unregistered).
TEST(ModeChange, DropCascadingIntoRebudgetedDependentKeepsCacheExact) {
  ModeWorld world;
  auto provider = mode_component("p", 0.2, 0);
  provider.modes.push_back(absent_mode("low"));
  provider.ports.push_back({PortDirection::kOut, "feed", PortInterface::kShm,
                            rtos::DataType::kInteger, 4});
  auto dependent = mode_component("d", 0.3, 0);
  dependent.modes.push_back(budget_mode("low", 0.1));
  dependent.ports.push_back({PortDirection::kIn, "feed", PortInterface::kShm,
                             rtos::DataType::kInteger, 4});
  ASSERT_TRUE(world.drcr.register_component(std::move(provider)).ok());
  ASSERT_TRUE(world.drcr.register_component(std::move(dependent)).ok());
  ASSERT_EQ(world.drcr.state_of("d"), ComponentState::kActive);

  rtos::FaultPlan faults;
  drt::testing::InvariantOracle oracle(world.drcr, faults, 0.9);
  auto expect_consistent = [&](const char* step) {
    const auto violation = oracle.check();
    EXPECT_FALSE(violation.has_value())
        << step << ": " << violation->invariant << ": " << violation->detail;
  };

  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("low").ok());
  EXPECT_NE(world.drcr.state_of("p"), ComponentState::kActive);
  EXPECT_NE(world.drcr.state_of("d"), ComponentState::kActive);
  EXPECT_TRUE(world.drcr.contract_cache().active().empty());
  EXPECT_EQ(modes.history().back().budget_changes, 0u);
  expect_consistent("after low");

  ASSERT_TRUE(world.drcr.unregister_component("d").ok());
  expect_consistent("after unregister");
  ASSERT_TRUE(modes.transition_to("").ok());
  EXPECT_EQ(world.drcr.state_of("p"), ComponentState::kActive);
  expect_consistent("after base");
}

// The controller's name-keyed side tables belong to one registration: a
// component registered again under the same name starts from its own
// descriptor, not from what the controller remembered about its predecessor.
TEST(ModeChange, ReRegisteredNameDoesNotInheritTheOldBaseBudget) {
  ModeWorld world;
  auto old_a = mode_component("a", 0.3, 0);
  old_a.modes.push_back(budget_mode("degraded", 0.1));
  ASSERT_TRUE(world.drcr.register_component(std::move(old_a)).ok());
  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("degraded").ok());
  EXPECT_EQ(modes.base_usage_of("a", -1.0), 0.3);

  ASSERT_TRUE(world.drcr.unregister_component("a").ok());
  EXPECT_EQ(modes.base_usage_of("a", -1.0), -1.0);
  auto new_a = mode_component("a", 0.5, 0);
  new_a.modes.push_back(budget_mode("degraded", 0.1));
  ASSERT_TRUE(world.drcr.register_component(std::move(new_a)).ok());

  // Back to base: the new `a` keeps its own 0.5, and admission counts it.
  ASSERT_TRUE(modes.transition_to("").ok());
  EXPECT_EQ(world.drcr.descriptor_of("a")->cpu_usage, 0.5);
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.5);
  EXPECT_EQ(modes.history().back().budget_changes, 0u);
}

TEST(ModeChange, ReRegisteredDisabledNameIsNotRestored) {
  ModeWorld world;
  auto opt = mode_component("opt", 0.2, 0);
  opt.modes.push_back(absent_mode("low"));
  ASSERT_TRUE(world.drcr.register_component(opt).ok());
  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("low").ok());
  ASSERT_TRUE(modes.dropped_components().contains("opt"));

  ASSERT_TRUE(world.drcr.unregister_component("opt").ok());
  EXPECT_TRUE(modes.dropped_components().empty());
  opt.enabled = false;
  ASSERT_TRUE(world.drcr.register_component(std::move(opt)).ok());

  // The new `opt` was never dropped by a mode: nothing to restore.
  ASSERT_TRUE(modes.transition_to("high").ok());
  EXPECT_EQ(world.drcr.state_of("opt"), ComponentState::kDisabled);
  EXPECT_EQ(modes.history().back().restores, 0u);
}

TEST(ModeChange, LateRegistrantReportsTheContractItWasAdmittedAt) {
  ModeWorld world;
  auto a = mode_component("a", 0.3, 0);
  a.modes.push_back(budget_mode("degraded", 0.1));
  ASSERT_TRUE(world.drcr.register_component(std::move(a)).ok());
  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("degraded").ok());

  // `b` arrives while `degraded` is active: it is admitted at its base 0.5,
  // and its health reports that contract, not its `degraded` budget.
  auto b = mode_component("b", 0.5, 0);
  b.modes.push_back(budget_mode("degraded", 0.1));
  ASSERT_TRUE(world.drcr.register_component(std::move(b)).ok());
  EXPECT_EQ(world.drcr.state_of("b"), ComponentState::kActive);
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.1 + 0.5);
  auto health = world.drcr.component_health("b");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->current_mode, "degraded");
  EXPECT_EQ(health->declared_usage, 0.5);

  // The next transition is the first to move `b` to a mode contract.
  ASSERT_TRUE(modes.transition_to("").ok());
  ASSERT_TRUE(modes.transition_to("degraded").ok());
  health = world.drcr.component_health("b");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->declared_usage, 0.1);
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.1 + 0.1);
}

TEST(ModeChange, FreedBudgetReadmitsUnsatisfiedComponents) {
  ModeWorld world;
  auto big = mode_component("big", 0.5, 0);
  big.modes.push_back(budget_mode("degraded", 0.2));
  ASSERT_TRUE(world.drcr.register_component(std::move(big)).ok());
  // 0.5 + 0.5 > 0.9: "wait" stays unsatisfied at base budgets.
  ASSERT_TRUE(world.drcr.register_component(mode_component("wait", 0.5, 0))
                  .ok());
  EXPECT_EQ(world.drcr.state_of("wait"), ComponentState::kUnsatisfied);

  // The shrink frees 0.3; the transition's closing resolve() re-admits.
  ASSERT_TRUE(world.drcr.mode_controller().transition_to("degraded").ok());
  EXPECT_EQ(world.drcr.state_of("wait"), ComponentState::kActive);
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.2 + 0.5);
}

// -------------------------------------------------- bounded settling ------

TEST(ModeChange, SettlingWindowIsTheLongestAffectedPeriod) {
  ModeWorld world;
  auto fast = mode_component("fast", 0.2, 0, 100.0);  // 10ms period
  fast.modes.push_back(budget_mode("degraded", 0.1));
  auto slow = mode_component("slow", 0.2, 0, 25.0);   // 40ms period
  slow.modes.push_back(budget_mode("degraded", 0.1));
  ASSERT_TRUE(world.drcr.register_component(std::move(fast)).ok());
  ASSERT_TRUE(world.drcr.register_component(std::move(slow)).ok());

  world.engine.run_until(milliseconds(7));
  ModeChangeController& modes = world.drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("degraded").ok());
  const ModeTransition& t = modes.history().back();
  EXPECT_EQ(t.when, milliseconds(7));
  // Bounded latency: the settling window is one period of the slowest
  // touched component, not unbounded.
  EXPECT_EQ(t.window_end - t.when, period_from_hz(25.0));
}

// ---------------------------------------------- adaptation integration ----

class BombComponent : public RtComponent {
 public:
  rtos::TaskCoro run(JobContext& job) override {
    co_await job.consume(microseconds(10));
    throw std::runtime_error("boom");
  }
};

TEST(ModeChange, QosActionDegradesAndRecoveryHysteresisRestores) {
  ModeWorld world;
  world.drcr.factories().register_factory(
      "mode.Bomb", [] { return std::make_unique<BombComponent>(); });
  auto a = mode_component("a", 0.3, 0);
  a.modes.push_back(budget_mode("degraded", 0.1));
  ASSERT_TRUE(world.drcr.register_component(std::move(a)).ok());
  auto f = mode_component("f", 0.1, 1);
  f.bincode = "mode.Bomb";
  ASSERT_TRUE(world.drcr.register_component(std::move(f)).ok());

  AdaptationConfig config;
  config.policies = {{AdaptationTrigger::kQosRule,
                      QosActionKind::kModeChange, 1}};
  config.degraded_mode = "degraded";
  config.recovery_polls = 2;  // recovery_mode defaults to "" = base
  AdaptationManager manager(world.drcr, config);
  QosRule rule;
  rule.detect_failure = true;  // latches: trips once, later passes are clean
  manager.add_rule(rule);

  world.engine.run_until(milliseconds(30));  // the bomb has gone off
  manager.evaluate_now();  // failure trips -> kModeChange degrades
  ASSERT_EQ(manager.violations().size(), 1u);
  EXPECT_EQ(world.drcr.mode_controller().current_mode(), "degraded");
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.1);

  manager.evaluate_now();  // clean pass 1 of 2: hysteresis holds the mode
  EXPECT_EQ(world.drcr.mode_controller().current_mode(), "degraded");
  manager.evaluate_now();  // clean pass 2 -> automatic recovery
  EXPECT_EQ(world.drcr.mode_controller().current_mode(), "");
  EXPECT_EQ(world.drcr.system_view().declared_utilization(0), 0.3);
}

// ----------------------- DeadlineResolver warm vs cold differential -------

struct EdfWorld {
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  Drcr drcr;

  explicit EdfWorld(bool incremental)
      : kernel(engine, quiet_config(2)),
        drcr(framework, kernel, make_config(incremental)) {
    drcr.factories().register_factory(
        "mode.X", [] { return std::make_unique<IdleComponent>(); });
    drcr.set_internal_resolver(std::make_unique<DeadlineResolver>(0.9));
  }

  static DrcrConfig make_config(bool incremental) {
    DrcrConfig config;
    config.cpu_budget = 0.9;
    config.incremental_admission = incremental;
    return config;
  }
};

ComponentDescriptor random_edf_descriptor(std::mt19937_64& rng,
                                          const std::string& name) {
  static const double kUsages[] = {0.05, 0.1, 0.15, 0.2, 0.25, 0.3};
  static const double kRates[] = {100.0, 200.0, 250.0, 500.0};
  ComponentDescriptor d;
  d.name = name;
  d.bincode = "mode.X";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = kUsages[rng() % std::size(kUsages)];
  d.enabled = rng() % 5 != 0;
  const CpuId cpu = static_cast<CpuId>(rng() % 2);
  PeriodicSpec spec;
  spec.frequency_hz = kRates[rng() % std::size(kRates)];
  spec.run_on_cpu = cpu;
  spec.priority = 5;
  spec.sched = rtos::SchedClass::kDeadline;
  if (rng() % 3 == 0) {
    // Constrained deadline at 60% of the period: brings the density test in.
    spec.deadline = static_cast<SimDuration>(
        0.6 * static_cast<double>(period_from_hz(spec.frequency_hz)));
  }
  d.periodic = spec;
  return d;
}

TEST(DeadlineResolverDifferential, WarmSessionsMatchColdScansBitForBit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL);
    EdfWorld warm(true);
    EdfWorld cold(false);
    const std::vector<std::string> pool = {"e0", "e1", "e2", "e3", "e4",
                                           "e5", "e6", "e7"};
    for (int step = 0; step < 100; ++step) {
      const std::string& name = pool[rng() % pool.size()];
      const bool known = warm.drcr.state_of(name).has_value();
      const auto op = rng() % 10;
      if (op < 5) {
        if (!known) {
          const ComponentDescriptor d = random_edf_descriptor(rng, name);
          const auto r1 = warm.drcr.register_component(d);
          const auto r2 = cold.drcr.register_component(d);
          ASSERT_EQ(r1.ok(), r2.ok()) << "step " << step;
        }
      } else if (op < 7) {
        if (known) {
          (void)warm.drcr.unregister_component(name);
          (void)cold.drcr.unregister_component(name);
        }
      } else if (op < 8) {
        if (known) {
          (void)warm.drcr.enable_component(name);
          (void)cold.drcr.enable_component(name);
        }
      } else if (op < 9) {
        if (known) {
          (void)warm.drcr.disable_component(name);
          (void)cold.drcr.disable_component(name);
        }
      } else {
        warm.drcr.resolve();
        cold.drcr.resolve();
      }
      ASSERT_EQ(warm.drcr.component_names(), cold.drcr.component_names())
          << "step " << step;
      EXPECT_EQ(warm.drcr.active_count(), cold.drcr.active_count())
          << "step " << step;
      for (const std::string& c : pool) {
        EXPECT_EQ(warm.drcr.state_of(c), cold.drcr.state_of(c))
            << "step " << step << " component " << c;
        const auto warm_health = warm.drcr.component_health(c);
        const auto cold_health = cold.drcr.component_health(c);
        ASSERT_EQ(warm_health.has_value(), cold_health.has_value())
            << "step " << step << " component " << c;
        if (warm_health.has_value()) {
          EXPECT_EQ(warm_health->reason, cold_health->reason)
              << "step " << step << " component " << c;
        }
      }
      const SystemView a = warm.drcr.system_view();
      const SystemView b = cold.drcr.system_view();
      for (CpuId cpu = 0; cpu < 2; ++cpu) {
        EXPECT_EQ(a.declared_utilization(cpu), b.declared_utilization(cpu))
            << "step " << step << " cpu " << cpu;
      }
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure()) {
        FAIL() << "divergence at seed " << seed << " step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace drt::drcom
