// Reconfiguration work proportional to the change. The departure cascade
// runs only after a provider with out-ports leaves ACTIVE, so port-less churn
// costs no pass, yet every exit a provider can take (unregister, disable,
// quarantine, mode drop, resolver revocation, bundle stop) must still strand
// its consumer. A mode transition re-folds each touched CPU once, however
// many components it re-budgets. A resolution round collects candidates
// from the UNSATISFIED index only, so a registration visits one record, not
// the whole registered set. Drcr::work() and ContractCache::refolds() pin
// all three as deterministic counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "drcom/drcr.hpp"
#include "drcom/mode_change.hpp"
#include "test_helpers.hpp"

namespace drt::drcom {
namespace {

using rtos::testing::quiet_config;

class IdleComponent : public RtComponent {
 public:
  rtos::TaskCoro run(JobContext& job) override {
    while (job.active()) co_await job.next_cycle();
  }
};

ComponentDescriptor idle_component(std::string name, double usage,
                                   CpuId cpu) {
  ComponentDescriptor d;
  d.name = std::move(name);
  d.bincode = "work.Idle";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = usage;
  d.periodic = PeriodicSpec{100.0, cpu, 5};
  return d;
}

PortSpec feed_port(PortDirection direction) {
  return {direction, "feed", PortInterface::kShm, rtos::DataType::kInteger, 4};
}

ModeSpec absent_mode(std::string name) {
  ModeSpec spec;
  spec.name = std::move(name);
  spec.present = false;
  return spec;
}

/// Revokes (and refuses) one named component while armed.
class Evictor : public ResolvingService {
 public:
  const std::string& name() const override { return name_; }
  Result<void> admit(const ComponentDescriptor& candidate,
                     const SystemView&) override {
    if (armed_ && candidate.name == target_) {
      return make_error("test.evicted", "evicted");
    }
    return Result<void>::success();
  }
  std::vector<std::string> revoke(const SystemView&) override {
    if (!armed_) return {};
    return {target_};
  }
  void arm(std::string target) {
    target_ = std::move(target);
    armed_ = true;
  }

 private:
  std::string name_ = "evictor";
  std::string target_;
  bool armed_ = false;
};

/// 256 port-less components plus a `src` -> `sink` pipeline on 2 CPUs.
struct PipelineWorld : public ::testing::Test {
  static constexpr std::size_t kBackground = 256;

  PipelineWorld() : kernel(engine, quiet_config(2)), drcr(framework, kernel) {
    drcr.factories().register_factory(
        "work.Idle", [] { return std::make_unique<IdleComponent>(); });
    for (std::size_t i = 0; i < kBackground; ++i) {
      EXPECT_TRUE(drcr.register_component(
                          idle_component(background_name(i), 0.001,
                                         static_cast<CpuId>(i % 2)))
                      .ok());
    }
  }

  static std::string background_name(std::size_t i) {
    return "bg" + std::to_string(1000 + i);
  }

  static ComponentDescriptor provider() {
    ComponentDescriptor d = idle_component("src", 0.01, 0);
    d.ports.push_back(feed_port(PortDirection::kOut));
    d.modes.push_back(absent_mode("low"));
    return d;
  }

  void register_pipeline() {
    ASSERT_TRUE(drcr.register_component(provider()).ok());
    register_sink();
  }

  void register_sink() {
    ComponentDescriptor d = idle_component("sink", 0.01, 1);
    d.ports.push_back(feed_port(PortDirection::kIn));
    ASSERT_TRUE(drcr.register_component(std::move(d)).ok());
    ASSERT_EQ(drcr.state_of("src"), ComponentState::kActive);
    ASSERT_EQ(drcr.state_of("sink"), ComponentState::kActive);
    passes_before = drcr.work().cascade_passes;
  }

  /// The provider left: its consumer is stranded, nothing else moved, and
  /// the cascade that found it ran exactly one pass.
  void expect_sink_stranded() {
    EXPECT_NE(drcr.state_of("src"), ComponentState::kActive);
    EXPECT_EQ(drcr.state_of("sink"), ComponentState::kUnsatisfied);
    EXPECT_NE(drcr.component_health("sink")->reason.find(
                  "inport 'feed' has no active provider"),
              std::string::npos);
    EXPECT_EQ(drcr.active_count(), kBackground);
    EXPECT_EQ(drcr.work().cascade_passes - passes_before, 1u);
    bool cascaded = false;
    for (const DrcrEvent& event : drcr.recent_events()) {
      cascaded |= event.type == DrcrEventType::kDeactivated &&
                  event.component == "sink" &&
                  event.reason ==
                      "dependency lost: inport 'feed' has no active provider";
    }
    EXPECT_TRUE(cascaded);
  }

  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  Drcr drcr;
  std::uint64_t passes_before = 0;
};

// ------------------------------------------ every provider exit cascades --

TEST_F(PipelineWorld, UnregisteredProviderStrandsConsumer) {
  register_pipeline();
  ASSERT_TRUE(drcr.unregister_component("src").ok());
  expect_sink_stranded();
  // The provider's return re-activates the consumer.
  ASSERT_TRUE(drcr.register_component(provider()).ok());
  EXPECT_EQ(drcr.state_of("sink"), ComponentState::kActive);
}

TEST_F(PipelineWorld, DisabledProviderStrandsConsumer) {
  register_pipeline();
  ASSERT_TRUE(drcr.disable_component("src").ok());
  expect_sink_stranded();
  ASSERT_TRUE(drcr.enable_component("src").ok());
  EXPECT_EQ(drcr.state_of("sink"), ComponentState::kActive);
}

TEST_F(PipelineWorld, QuarantinedProviderStrandsConsumer) {
  register_pipeline();
  ASSERT_TRUE(drcr.quarantine_component("src").ok());
  expect_sink_stranded();
  EXPECT_TRUE(drcr.component_health("src")->quarantined);
}

TEST_F(PipelineWorld, ModeDroppedProviderStrandsConsumer) {
  register_pipeline();
  ModeChangeController& modes = drcr.mode_controller();
  ASSERT_TRUE(modes.transition_to("low").ok());
  EXPECT_TRUE(modes.dropped_components().contains("src"));
  expect_sink_stranded();
  ASSERT_TRUE(modes.transition_to("").ok());
  EXPECT_EQ(drcr.state_of("sink"), ComponentState::kActive);
}

TEST_F(PipelineWorld, RevokedProviderStrandsConsumer) {
  register_pipeline();
  auto evictor = std::make_shared<Evictor>();
  auto registration = framework.system_context().register_service(
      std::string(kResolvingServiceInterface),
      std::static_pointer_cast<void>(evictor));
  ASSERT_EQ(drcr.state_of("src"), ComponentState::kActive);
  evictor->arm("src");
  drcr.resolve();
  expect_sink_stranded();
  registration.unregister();
}

TEST_F(PipelineWorld, StoppedProviderBundleStrandsConsumer) {
  osgi::BundleDefinition definition;
  definition.manifest.set_symbolic_name("rt.src");
  definition.manifest.add_component_resource("DRT-INF/component.xml");
  definition.resources["DRT-INF/component.xml"] = write_descriptor(provider());
  const auto id = framework.install(std::move(definition));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(framework.start(id.value()).ok());
  register_sink();
  ASSERT_TRUE(framework.stop(id.value()).ok());
  EXPECT_FALSE(drcr.state_of("src").has_value());
  expect_sink_stranded();
}

// ------------------------------------------------------- work counts -----

TEST_F(PipelineWorld, PortlessDeparturesRunNoCascadePass) {
  register_pipeline();
  const Drcr::WorkCounts before = drcr.work();
  ASSERT_TRUE(drcr.unregister_component(background_name(10)).ok());
  ASSERT_TRUE(drcr.disable_component(background_name(11)).ok());
  // Nothing is left unsatisfied either, so no functional check runs at all.
  EXPECT_EQ(drcr.work().cascade_passes, before.cascade_passes);
  EXPECT_EQ(drcr.work().functional_checks, before.functional_checks);
  EXPECT_EQ(drcr.state_of("sink"), ComponentState::kActive);
  EXPECT_EQ(drcr.active_count(), kBackground);
}

TEST_F(PipelineWorld, CandidateCollectionVisitsOnlyPendingRecords) {
  ASSERT_EQ(drcr.active_count(), kBackground);
  // Nothing pending: the round reads an empty UNSATISFIED index. (A
  // full-map scan visited all 256 records, and 257 after the next line.)
  Drcr::WorkCounts before = drcr.work();
  drcr.resolve();
  EXPECT_EQ(drcr.work().candidates_visited, before.candidates_visited);
  // One registration: the round that activates it visits it alone, and the
  // closing round finds the index empty again.
  before = drcr.work();
  ASSERT_TRUE(drcr.register_component(idle_component("late", 0.001, 0)).ok());
  EXPECT_EQ(drcr.state_of("late"), ComponentState::kActive);
  EXPECT_EQ(drcr.work().candidates_visited - before.candidates_visited, 1u);
  // A component that stays rejected is the only record each round visits.
  ASSERT_TRUE(drcr.register_component(idle_component("huge", 0.95, 1)).ok());
  EXPECT_EQ(drcr.state_of("huge"), ComponentState::kUnsatisfied);
  before = drcr.work();
  drcr.resolve();
  EXPECT_EQ(drcr.work().candidates_visited - before.candidates_visited, 1u);
}

TEST_F(PipelineWorld, ActiveCountMatchesAScanAfterEveryStep) {
  const auto scan = [this] {
    std::size_t active = 0;
    for (const std::string& name : drcr.component_names()) {
      if (drcr.state_of(name) == ComponentState::kActive) ++active;
    }
    return active;
  };
  const auto check = [&](const char* what) {
    EXPECT_EQ(drcr.active_count(), scan()) << what;
  };
  check("256 registered");
  register_pipeline();
  check("pipeline registered");
  ComponentDescriptor off = idle_component("off", 0.01, 0);
  off.enabled = false;
  ASSERT_TRUE(drcr.register_component(std::move(off)).ok());
  check("registered disabled");
  ASSERT_TRUE(drcr.register_component(idle_component("huge", 0.95, 1)).ok());
  check("registered unsatisfied");
  ASSERT_TRUE(drcr.disable_component("src").ok());
  check("provider disabled, consumer stranded");
  ASSERT_TRUE(drcr.enable_component("off").ok());
  check("enabled");
  ASSERT_TRUE(drcr.enable_component("src").ok());
  check("provider enabled, consumer back");
  ASSERT_TRUE(drcr.disable_component(background_name(3)).ok());
  check("background disabled");
  ASSERT_TRUE(drcr.unregister_component("src").ok());
  check("provider unregistered");
  ASSERT_TRUE(drcr.unregister_component("huge").ok());
  check("unsatisfied unregistered");
  ASSERT_TRUE(drcr.unregister_component(background_name(3)).ok());
  check("disabled unregistered");
  ASSERT_TRUE(drcr.unregister_component(background_name(4)).ok());
  check("active unregistered");
  ASSERT_TRUE(drcr.enable_component("off").ok());
  check("enable is idempotent");
  EXPECT_EQ(drcr.active_count(), kBackground - 2 + 1);
}

TEST(ReconfigWorkCount, ModeTransitionRefoldsEachTouchedCpuOnce) {
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel(engine, quiet_config(2));
  Drcr drcr(framework, kernel);
  drcr.factories().register_factory(
      "work.Idle", [] { return std::make_unique<IdleComponent>(); });
  constexpr std::size_t kComponents = 512;
  for (std::size_t i = 0; i < kComponents; ++i) {
    ComponentDescriptor d = idle_component("m" + std::to_string(1000 + i),
                                           0.0016, static_cast<CpuId>(i % 2));
    ModeSpec degraded;
    degraded.name = "degraded";
    degraded.cpu_usage = 0.0008;
    d.modes.push_back(degraded);
    ASSERT_TRUE(drcr.register_component(std::move(d)).ok());
  }
  ASSERT_EQ(drcr.active_count(), kComponents);

  ModeChangeController& modes = drcr.mode_controller();
  const ContractCache& cache = drcr.contract_cache();
  for (const char* target : {"degraded", ""}) {
    const std::uint64_t refolds = cache.refolds();
    ASSERT_TRUE(modes.transition_to(target).ok());
    EXPECT_EQ(modes.history().back().budget_changes, kComponents);
    EXPECT_LE(cache.refolds() - refolds, 2u) << "to '" << target << "'";
    // The one re-fold per CPU is the activation-ordered left-fold.
    for (CpuId cpu = 0; cpu < 2; ++cpu) {
      double fold = 0.0;
      for (const ComponentDescriptor* d : cache.active_on(cpu)) {
        fold += d->cpu_usage;
      }
      EXPECT_EQ(cache.declared_utilization(cpu), fold);
    }
  }
}

}  // namespace
}  // namespace drt::drcom
