// A 1-node federation must be an invisible wrapper: the coordinator's
// placement policy, summary protocol and metrics isolation may not perturb
// the node's DRCR by one byte. The differential property test drives a bare
// DRCR stack and a Federation{nodes = 1} through identical randomized
// scripts — register (through global placement), unregister, enable/disable,
// system deploy/undeploy, resolve, time advances — and after every operation
// compares component states, rejection reasons, lifecycle event streams,
// kernel traces and rendered observability exports byte-for-byte.
//
// The second half pins the migration snapshot contract: migrating a
// component there-and-back is a descriptor fixpoint (the drt: XML written on
// the destination equals the source's, both ways) and every message queued
// in the instance's owned mailboxes is drained, replayed through the channel
// layer and delivered — nothing lost, nothing duplicated.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fed/coordinator.hpp"
#include "fed/federation.hpp"
#include "obs/export.hpp"
#include "test_helpers.hpp"
#include "testing/fuzzer.hpp"
#include "testing/scenario.hpp"

namespace drt::fed {
namespace {

using drcom::ComponentDescriptor;
using drcom::ComponentState;
using rtos::testing::quiet_config;

class IdleComponent : public drcom::RtComponent {
 public:
  rtos::TaskCoro run(drcom::JobContext& job) override {
    while (job.active()) co_await job.next_cycle();
  }
};

/// The fuzz bincode family, registered IDENTICALLY on both sides so factory
/// outcomes (ok / throw / null) can never be the source of a divergence.
void register_diff_factories(drcom::Drcr& drcr) {
  drcr.factories().register_factory(
      "fuzz.ok", [] { return std::make_unique<IdleComponent>(); });
  drcr.factories().register_factory(
      "fuzz.throw", []() -> std::unique_ptr<drcom::RtComponent> {
        throw std::runtime_error("diff: injected factory failure");
      });
  drcr.factories().register_factory(
      "fuzz.null",
      []() -> std::unique_ptr<drcom::RtComponent> { return nullptr; });
  drcr.factories().register_factory(
      "fuzz.init", [] { return std::make_unique<IdleComponent>(); });
}

/// The reference: the exact stack a component author runs without a
/// federation — same kernel config, same DRCR config as fed/federation.cpp's
/// drcr_config derives for a 1-node federation.
struct BareStack {
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  drcom::Drcr drcr;

  explicit BareStack(std::size_t cpus)
      : engine(),
        framework(),
        kernel(engine, quiet_config(cpus)),
        drcr(framework, kernel,
             {.cpu_budget = 0.9,
              .auto_resolve = true,
              .register_service = true}) {
    kernel.trace().enable();
    kernel.metrics().enable();
    register_diff_factories(drcr);
  }
};

FederationConfig single_node_config(std::size_t cpus) {
  FederationConfig config;
  config.nodes = 1;
  config.kernel = quiet_config(cpus);
  config.inbox_capacity = 0;  // no extra mailbox: byte-identical node
  return config;
}

std::string render_events(const drcom::Drcr& drcr) {
  std::ostringstream out;
  for (const drcom::DrcrEvent& event : drcr.recent_events()) {
    out << event.when << ' ' << static_cast<int>(event.type) << ' '
        << event.component << ' ' << static_cast<int>(event.code) << ' '
        << event.reason << '\n';
  }
  return out.str();
}

/// Byte-for-byte comparison of every observable surface the two stacks have.
void expect_identical(BareStack& bare, Federation& federation,
                      const std::vector<std::string>& names) {
  drcom::Drcr& fed_drcr = *federation.node(0).drcr;
  ASSERT_EQ(bare.engine.now(), federation.now());
  ASSERT_EQ(bare.drcr.component_names(), fed_drcr.component_names());
  ASSERT_EQ(bare.drcr.active_count(), fed_drcr.active_count());
  ASSERT_EQ(bare.drcr.deployed_systems(), fed_drcr.deployed_systems());
  for (const std::string& name : names) {
    SCOPED_TRACE("component " + name);
    ASSERT_EQ(bare.drcr.state_of(name), fed_drcr.state_of(name));
    const auto bare_health = bare.drcr.component_health(name);
    const auto fed_health = fed_drcr.component_health(name);
    ASSERT_EQ(bare_health.has_value(), fed_health.has_value());
    if (!bare_health.has_value()) continue;
    ASSERT_EQ(bare_health->reason, fed_health->reason);
    ASSERT_EQ(bare_health->last_error, fed_health->last_error);
  }
  // Lifecycle event stream, kernel trace, and rendered obs exports.
  ASSERT_EQ(render_events(bare.drcr), render_events(fed_drcr));
  ASSERT_EQ(drt::testing::render_trace(bare.kernel.trace()),
            drt::testing::render_trace(federation.node(0).kernel->trace()));
  const obs::PrometheusExporter prometheus;
  ASSERT_EQ(prometheus.render(bare.drcr.observe()),
            prometheus.render(fed_drcr.observe()));
}

TEST(FederationDiff, SingleNodeFederationIsByteIdenticalToBareDrcr) {
  constexpr std::size_t kCpus = 2;
  const std::vector<std::string> pool = {"da", "db", "dc", "dd",
                                         "de", "df", "dg", "dh"};
  const std::vector<std::string> systems = {"s0", "s1"};

  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BareStack bare(kCpus);
    Federation federation(single_node_config(kCpus));
    FederationCoordinator coordinator(federation);
    federation.node(0).kernel->trace().enable();
    federation.node(0).kernel->metrics().enable();
    register_diff_factories(*federation.node(0).drcr);

    Rng rng(seed);
    for (int op = 0; op < 60; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const auto roll = rng.uniform(0, 99);
      if (roll < 35) {  // register through global placement
        const std::string& name =
            pool[static_cast<std::size_t>(rng.uniform(0, 7))];
        const ComponentDescriptor descriptor =
            drt::testing::random_descriptor(rng, name, kCpus);
        auto bare_result = bare.drcr.register_component(descriptor);
        auto fed_result = coordinator.place(descriptor);
        ASSERT_EQ(bare_result.ok(), fed_result.ok());
        if (!bare_result.ok()) {
          // place() forwards to the owning node, so even errors match.
          ASSERT_EQ(bare_result.error().code, fed_result.error().code);
          ASSERT_EQ(bare_result.error().message, fed_result.error().message);
        }
      } else if (roll < 50) {  // unregister (sometimes an unknown name)
        const std::string& name =
            pool[static_cast<std::size_t>(rng.uniform(0, 7))];
        ASSERT_EQ(bare.drcr.unregister_component(name).ok(),
                  coordinator.remove(name).ok());
      } else if (roll < 60) {  // enable
        const std::string& name =
            pool[static_cast<std::size_t>(rng.uniform(0, 7))];
        auto bare_result = bare.drcr.enable_component(name);
        auto fed_result = federation.node(0).drcr->enable_component(name);
        ASSERT_EQ(bare_result.ok(), fed_result.ok());
      } else if (roll < 70) {  // disable
        const std::string& name =
            pool[static_cast<std::size_t>(rng.uniform(0, 7))];
        auto bare_result = bare.drcr.disable_component(name);
        auto fed_result = federation.node(0).drcr->disable_component(name);
        ASSERT_EQ(bare_result.ok(), fed_result.ok());
      } else if (roll < 85) {  // advance virtual time
        const SimDuration step = rng.uniform(1, 10) * 1'000'000;
        bare.engine.run_until(bare.engine.now() + step);
        federation.advance(step);
      } else if (roll < 93) {  // explicit resolve
        bare.drcr.resolve();
        federation.node(0).drcr->resolve();
      } else {  // system deploy / undeploy
        const std::string& name =
            systems[static_cast<std::size_t>(rng.uniform(0, 1))];
        if (rng.chance(0.5)) {
          drcom::SystemDescriptor system;
          system.name = name;
          for (int m = 0; m < 2; ++m) {
            ComponentDescriptor member = drt::testing::random_descriptor(
                rng, name + "m" + std::to_string(m), kCpus);
            // Port-free members (plus the sporadic self-owned trigger):
            // system validation demands every internal wire be declared.
            member.ports.clear();
            if (member.type == rtos::TaskType::kSporadic) {
              drcom::PortSpec trigger;
              trigger.direction = drcom::PortDirection::kIn;
              trigger.name = member.name + "t";
              trigger.interface = drcom::PortInterface::kMailbox;
              trigger.data_type = rtos::DataType::kByte;
              trigger.size = 8;
              member.ports.push_back(trigger);
            }
            system.components.push_back(std::move(member));
          }
          ASSERT_EQ(bare.drcr.deploy_system(system).ok(),
                    coordinator.place_system(system).ok());
        } else {
          ASSERT_EQ(bare.drcr.undeploy_system(name).ok(),
                    coordinator.undeploy(name).ok());
        }
      }
      coordinator.publish_all();
      expect_identical(bare, federation, pool);
    }
  }
}

// ------------------------------------------- migration round-trip fixpoint

ComponentDescriptor sporadic_with_trigger(const std::string& name) {
  ComponentDescriptor d;
  d.name = name;
  d.bincode = "fuzz.ok";
  d.type = rtos::TaskType::kSporadic;
  d.cpu_usage = 0.2;
  drcom::PortSpec trigger;
  trigger.direction = drcom::PortDirection::kIn;
  trigger.name = name + "t";
  trigger.interface = drcom::PortInterface::kMailbox;
  trigger.data_type = rtos::DataType::kByte;
  trigger.size = 8;
  drcom::SporadicSpec spec;
  spec.min_interarrival = 2'000'000;
  spec.run_on_cpu = 0;
  spec.priority = 5;
  spec.trigger_port = trigger.name;
  d.sporadic = spec;
  d.ports.push_back(trigger);
  return d;
}

TEST(FederationDiff, MigrationRoundTripIsDescriptorFixpointAndReplaysQueue) {
  FederationConfig config;
  config.nodes = 2;
  config.kernel = quiet_config(2);
  Federation federation(config);
  for (NodeIndex i = 0; i < federation.size(); ++i) {
    register_diff_factories(*federation.node(i).drcr);
  }
  FederationCoordinator coordinator(federation);

  const ComponentDescriptor original = sporadic_with_trigger("rt");
  const std::string original_xml = drcom::write_descriptor(original);
  auto placed = coordinator.place(original);
  ASSERT_TRUE(placed.ok());
  const NodeIndex src = placed.value();
  const NodeIndex dst = 1 - src;

  // Queue messages in the self-owned trigger mailbox; they must survive the
  // drain -> re-admit -> replay cycle.
  rtos::RtKernel& src_kernel = *federation.node(src).kernel;
  rtos::Mailbox* trigger = src_kernel.mailbox_find("rtt");
  ASSERT_NE(trigger, nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(src_kernel.mailbox_send(
        *trigger, rtos::message_from_string("q" + std::to_string(i))));
  }

  // There: snapshot -> re-admit must reproduce the descriptor exactly.
  ASSERT_TRUE(coordinator.migrate("rt", dst).ok());
  const ComponentDescriptor* moved = federation.node(dst).drcr->descriptor_of("rt");
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(drcom::write_descriptor(*moved), original_xml);
  EXPECT_EQ(federation.node(dst).drcr->state_of("rt"),
            ComponentState::kActive);
  rtos::NodeChannel* forward = federation.find_channel(src, dst, "rtt");
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(forward->stats().sent, 3u);

  // Let the replay traffic land before moving again (channels must drain
  // fully — nothing lost, nothing duplicated).
  federation.advance(50'000'000);
  EXPECT_EQ(forward->stats().arrived, 3u);
  EXPECT_EQ(forward->stats().accepted + forward->stats().dropped(), 3u);
  EXPECT_EQ(federation.in_flight_total(), 0u);

  // And back: the fixpoint holds in the other direction too.
  ASSERT_TRUE(coordinator.migrate("rt", src).ok());
  const ComponentDescriptor* returned =
      federation.node(src).drcr->descriptor_of("rt");
  ASSERT_NE(returned, nullptr);
  EXPECT_EQ(drcom::write_descriptor(*returned), original_xml);
  EXPECT_EQ(federation.node(dst).drcr->descriptor_of("rt"), nullptr);
  EXPECT_EQ(coordinator.stats().migrations, 2u);

  federation.advance(50'000'000);
  const rtos::ChannelStats totals = federation.channel_totals();
  EXPECT_EQ(totals.sent, totals.arrived);
  EXPECT_EQ(totals.arrived, totals.accepted + totals.dropped());
  EXPECT_EQ(federation.in_flight_total(), 0u);
}

}  // namespace
}  // namespace drt::fed
