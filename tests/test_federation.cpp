// Federation layer unit tests: inter-node channels (exact two-sided
// counters, FIFO, sever/restore, retired-counter fold across destruction),
// membership and partitions, the coordinator's summary protocol
// (generation-checked publish vs the bit-identical rescan baseline), O(1)
// best-fit placement with sibling retry, and the live-migration state
// machine including rollback. The channel stress at the bottom checks that
// federation accounting, which comes from the per-channel counters, balances
// exactly under churn.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "fed/coordinator.hpp"
#include "fed/federation.hpp"
#include "rtos/channel.hpp"
#include "test_helpers.hpp"

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

FederationConfig fed_config(std::size_t nodes,
                            std::size_t inbox_capacity = 0) {
  FederationConfig config;
  config.nodes = nodes;
  config.kernel = quiet_config(2);
  config.inbox_capacity = inbox_capacity;
  return config;
}

void register_idle_factories(Federation& federation) {
  for (NodeIndex i = 0; i < federation.size(); ++i) {
    federation.node(i).drcr->factories().register_factory(
        "fed.X", [] { return std::make_unique<IdleComponent>(); });
  }
}

ComponentDescriptor periodic_component(std::string name, double usage,
                                       CpuId cpu = 0, int priority = 5) {
  ComponentDescriptor d;
  d.name = std::move(name);
  d.bincode = "fed.X";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = usage;
  d.periodic = drcom::PeriodicSpec{100.0, cpu, priority};
  return d;
}

/// Sporadic component owning its trigger mailbox "<name>t" (capacity 8) —
/// the drain/replay target of the migration tests.
ComponentDescriptor sporadic_component(std::string name, double usage) {
  ComponentDescriptor d;
  d.name = name;
  d.bincode = "fed.X";
  d.type = rtos::TaskType::kSporadic;
  d.cpu_usage = usage;
  drcom::PortSpec trigger;
  trigger.direction = drcom::PortDirection::kIn;
  trigger.name = name + "t";
  trigger.interface = drcom::PortInterface::kMailbox;
  trigger.data_type = rtos::DataType::kByte;
  trigger.size = 8;
  drcom::SporadicSpec spec;
  spec.min_interarrival = 1'000'000;
  spec.run_on_cpu = 0;
  spec.priority = 5;
  spec.trigger_port = trigger.name;
  d.sporadic = spec;
  d.ports.push_back(trigger);
  return d;
}

// -------------------------------------------------------------- channels --

TEST(FedChannel, DeliversIntoNamedMailboxAndCountsBothSides) {
  Federation federation(fed_config(2, /*inbox_capacity=*/4));
  rtos::NodeChannel& channel = federation.channel(0, 1, "fed.inbox");
  EXPECT_TRUE(channel.send(rtos::message_from_string("hello")));
  EXPECT_EQ(channel.stats().sent, 1u);
  EXPECT_EQ(channel.stats().sent_bytes, 5u);
  EXPECT_EQ(channel.in_flight(), 1u);
  EXPECT_EQ(federation.in_flight_total(), 1u);

  federation.advance(10'000'000);  // 10 ms: past any cross-group latency
  const rtos::ChannelStats stats = channel.stats();
  EXPECT_EQ(stats.arrived, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.unroutable, 0u);
  EXPECT_EQ(federation.in_flight_total(), 0u);
  EXPECT_EQ(federation.engine().pending_messages(), 0u);

  rtos::RtKernel& target = *federation.node(1).kernel;
  rtos::Mailbox* inbox = target.mailbox_find("fed.inbox");
  ASSERT_NE(inbox, nullptr);
  auto message = target.mailbox_try_receive(*inbox);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(rtos::message_to_string(*message), "hello");
}

TEST(FedChannel, FullMailboxCountsRejectedMissingCountsUnroutable) {
  Federation federation(fed_config(2, /*inbox_capacity=*/1));
  rtos::NodeChannel& inbox_channel = federation.channel(0, 1, "fed.inbox");
  EXPECT_TRUE(inbox_channel.send(rtos::message_from_string("a")));
  EXPECT_TRUE(inbox_channel.send(rtos::message_from_string("b")));
  rtos::NodeChannel& ghost_channel = federation.channel(0, 1, "ghost");
  EXPECT_TRUE(ghost_channel.send(rtos::message_from_string("c")));

  federation.advance(10'000'000);
  EXPECT_EQ(inbox_channel.stats().arrived, 2u);
  EXPECT_EQ(inbox_channel.stats().accepted, 1u);  // capacity 1
  EXPECT_EQ(inbox_channel.stats().rejected, 1u);
  EXPECT_EQ(ghost_channel.stats().arrived, 1u);
  EXPECT_EQ(ghost_channel.stats().unroutable, 1u);
  // Conservation: arrived == accepted + rejected + unroutable, per channel
  // and in the federation-wide fold.
  const rtos::ChannelStats totals = federation.channel_totals();
  EXPECT_EQ(totals.arrived, totals.accepted + totals.dropped());
  EXPECT_EQ(federation.in_flight_total(), 0u);
}

TEST(FedChannel, FifoOrderSurvivesLatencyJitter) {
  // Non-quiet latency model: per-message cross-group jitter is live, and the
  // FIFO clamp must still deliver in send order.
  FederationConfig config;
  config.nodes = 2;
  config.kernel.cpus = 2;
  config.kernel.seed = 99;
  config.inbox_capacity = 16;
  Federation federation(config);
  rtos::NodeChannel& channel = federation.channel(0, 1, "fed.inbox");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(channel.send(rtos::message_from_string(std::to_string(i))));
  }
  federation.advance(50'000'000);
  EXPECT_EQ(channel.stats().accepted, 10u);
  rtos::RtKernel& target = *federation.node(1).kernel;
  rtos::Mailbox* inbox = target.mailbox_find("fed.inbox");
  ASSERT_NE(inbox, nullptr);
  for (int i = 0; i < 10; ++i) {
    auto message = target.mailbox_try_receive(*inbox);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(rtos::message_to_string(*message), std::to_string(i));
  }
}

TEST(FedChannel, SeveredLinkRefusesAtSourceButInFlightArrives) {
  Federation federation(fed_config(2, /*inbox_capacity=*/4));
  rtos::NodeChannel& channel = federation.channel(0, 1, "fed.inbox");
  EXPECT_TRUE(channel.send(rtos::message_from_string("early")));

  federation.partition(0, 1);
  EXPECT_TRUE(channel.severed());
  EXPECT_FALSE(channel.send(rtos::message_from_string("cut")));
  EXPECT_EQ(channel.stats().severed, 1u);

  federation.advance(10'000'000);
  EXPECT_EQ(channel.stats().accepted, 1u);  // the pre-cut message arrived

  federation.heal(0, 1);
  EXPECT_FALSE(channel.severed());
  EXPECT_TRUE(channel.send(rtos::message_from_string("healed")));
}

TEST(FedChannel, DestroyRefusesWhileInFlightThenFoldsIntoRetired) {
  Federation federation(fed_config(2, /*inbox_capacity=*/4));
  rtos::NodeChannel& channel = federation.channel(0, 1, "fed.inbox");
  EXPECT_TRUE(channel.send(rtos::message_from_string("xy")));

  auto busy = federation.destroy_channel(0, 1, "fed.inbox");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.error().code, "fed.channel_busy");

  federation.advance(10'000'000);
  ASSERT_TRUE(federation.destroy_channel(0, 1, "fed.inbox").ok());
  EXPECT_EQ(federation.channel_count(), 0u);
  // The fold is exact: totals after destruction equal the retired counters.
  const RetiredChannelCounters& retired = federation.retired_channels();
  EXPECT_EQ(retired.sent, 1u);
  EXPECT_EQ(retired.sent_bytes, 2u);
  EXPECT_EQ(retired.accepted, 1u);
  const rtos::ChannelStats totals = federation.channel_totals();
  EXPECT_EQ(totals.sent, 1u);
  EXPECT_EQ(totals.accepted, 1u);

  auto missing = federation.destroy_channel(0, 1, "fed.inbox");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, "fed.no_such_channel");
}

// ------------------------------------------------------------ membership --

TEST(FedMembership, LeaveSeversEveryTouchingChannelJoinHeals) {
  Federation federation(fed_config(3, /*inbox_capacity=*/4));
  rtos::NodeChannel& to_one = federation.channel(0, 1, "fed.inbox");
  rtos::NodeChannel& from_one = federation.channel(1, 2, "fed.inbox");
  rtos::NodeChannel& bystander = federation.channel(0, 2, "fed.inbox");

  federation.leave(1);
  EXPECT_FALSE(federation.alive(1));
  EXPECT_EQ(federation.alive_count(), 2u);
  EXPECT_TRUE(to_one.severed());
  EXPECT_TRUE(from_one.severed());
  EXPECT_FALSE(bystander.severed());

  federation.join(1);
  EXPECT_TRUE(to_one.severed() == false && from_one.severed() == false);
}

TEST(FedMembership, ExplicitPartitionOutlivesLeaveJoinCycle) {
  Federation federation(fed_config(2, /*inbox_capacity=*/4));
  rtos::NodeChannel& channel = federation.channel(0, 1, "fed.inbox");
  federation.partition(0, 1);
  federation.leave(1);
  federation.join(1);
  EXPECT_TRUE(channel.severed());  // the partition was never healed
  federation.heal(0, 1);
  EXPECT_FALSE(channel.severed());
}

TEST(FedMembership, ChannelCreatedTowardsDeadNodeStartsSevered) {
  Federation federation(fed_config(2, /*inbox_capacity=*/4));
  federation.leave(1);
  EXPECT_TRUE(federation.channel(0, 1, "fed.inbox").severed());
}

// ------------------------------------------------------------- summaries --

TEST(FedCoordinator, PublishIsGenerationCheckedAndTracksMutations) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  EXPECT_TRUE(coordinator.summary_fresh(0));

  // A mutation behind the coordinator's back stales the summary; publish
  // refreshes it from the cached sums.
  ASSERT_TRUE(federation.node(0)
                  .drcr->register_component(periodic_component("a", 0.3))
                  .ok());
  EXPECT_FALSE(coordinator.summary_fresh(0));
  coordinator.publish(0);
  EXPECT_TRUE(coordinator.summary_fresh(0));
  EXPECT_EQ(coordinator.summary(0).contracts.declared[0], 0.3);
  EXPECT_EQ(coordinator.summary(0).headroom[0], 0.9 - 0.3);
  EXPECT_EQ(coordinator.summary(0).contracts.active_components, 1u);
}

TEST(FedCoordinator, RescanBaselineIsBitIdenticalToCachedSummary) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  // An awkward accumulation order on purpose: the rescan fold must follow
  // global activation order to stay bit-identical under FP non-associativity.
  const double usages[] = {0.13, 0.07, 0.21, 0.04, 0.11};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(coordinator
                    .place(periodic_component("c" + std::to_string(i),
                                              usages[i],
                                              static_cast<CpuId>(i % 2)))
                    .ok());
  }
  coordinator.publish_all();
  std::vector<NodeSummary> cached;
  for (NodeIndex node = 0; node < federation.size(); ++node) {
    cached.push_back(coordinator.summary(node));
  }
  coordinator.publish_all_rescan();
  for (NodeIndex node = 0; node < federation.size(); ++node) {
    const NodeSummary& rescanned = coordinator.summary(node);
    EXPECT_EQ(rescanned.contracts.declared, cached[node].contracts.declared);
    EXPECT_EQ(rescanned.contracts.recurring, cached[node].contracts.recurring);
    EXPECT_EQ(rescanned.contracts.active_components,
              cached[node].contracts.active_components);
    EXPECT_EQ(rescanned.headroom, cached[node].headroom);
  }
}

TEST(FedCoordinator, InvalidateEmptiesIndexUntilRepublish) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  EXPECT_TRUE(coordinator.select_node(0).has_value());
  coordinator.invalidate();
  EXPECT_FALSE(coordinator.select_node(0).has_value());
  EXPECT_TRUE(coordinator.placement_order(0).empty());
  coordinator.publish_all();
  EXPECT_TRUE(coordinator.select_node(0).has_value());
}

// ------------------------------------------------------------- placement --

TEST(FedCoordinator, SelectNodePicksMostHeadroomTiesByLowestIndex) {
  Federation federation(fed_config(3));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  // All equal: the tie breaks towards node 0.
  EXPECT_EQ(coordinator.select_node(0), NodeIndex{0});

  auto first = coordinator.place(periodic_component("a", 0.4));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), NodeIndex{0});
  // Node 0 lost headroom on CPU 0; the next best fit is node 1.
  EXPECT_EQ(coordinator.select_node(0), NodeIndex{1});
  auto second = coordinator.place(periodic_component("b", 0.4));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), NodeIndex{1});
  EXPECT_EQ(coordinator.select_node(0), NodeIndex{2});
  // The other CPU is untouched everywhere: tie back to node 0.
  EXPECT_EQ(coordinator.select_node(1), NodeIndex{0});
  EXPECT_EQ(coordinator.stats().placements, 2u);
}

TEST(FedCoordinator, PlacementRetriesSiblingsAndLeavesLastUnsatisfied) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  ASSERT_TRUE(coordinator.place(periodic_component("a", 0.6)).ok());
  ASSERT_TRUE(coordinator.place(periodic_component("b", 0.6)).ok());
  ASSERT_EQ(coordinator.node_of("a"), NodeIndex{0});
  ASSERT_EQ(coordinator.node_of("b"), NodeIndex{1});

  // 0.6 + 0.6 > 0.9 on both nodes: every sibling rejects, and the component
  // must end registered-but-unsatisfied on the LAST candidate tried —
  // exactly what a bare DRCR leaves behind.
  auto rejected = coordinator.place(periodic_component("c", 0.6));
  ASSERT_TRUE(rejected.ok());
  const NodeIndex last = rejected.value();
  EXPECT_EQ(federation.node(last).drcr->state_of("c"),
            ComponentState::kUnsatisfied);
  EXPECT_EQ(coordinator.stats().rejects, 1u);
  EXPECT_EQ(coordinator.stats().retries, 1u);
  // No dual admission: exactly one node knows the name.
  std::size_t owners = 0;
  for (NodeIndex node = 0; node < federation.size(); ++node) {
    if (federation.node(node).drcr->descriptor_of("c") != nullptr) ++owners;
  }
  EXPECT_EQ(owners, 1u);

  // Freeing capacity lets a retry settle.
  ASSERT_TRUE(coordinator.remove("c").ok());
  ASSERT_TRUE(coordinator.remove("a").ok());
  auto settled = coordinator.place(periodic_component("c", 0.6));
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(settled.value(), NodeIndex{0});
  EXPECT_EQ(federation.node(0).drcr->state_of("c"), ComponentState::kActive);
}

TEST(FedCoordinator, DuplicateNameForwardsToOwnerForIdenticalError) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  ASSERT_TRUE(coordinator.place(periodic_component("dup", 0.1)).ok());
  auto duplicate = coordinator.place(periodic_component("dup", 0.1));
  ASSERT_FALSE(duplicate.ok());
  // The error is the owning DRCR's own duplicate error, not a fed.* one.
  EXPECT_EQ(duplicate.error().code.find("fed."), std::string::npos);
}

TEST(FedCoordinator, SystemPlacementRoutesWholeSystemToOneNode) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  // Bias node 0 so the system's best fit is node 1.
  ASSERT_TRUE(coordinator.place(periodic_component("bias", 0.5)).ok());

  drcom::SystemDescriptor system;
  system.name = "sys";
  system.components.push_back(periodic_component("m1", 0.2, 0));
  system.components.push_back(periodic_component("m2", 0.2, 1));
  auto placed = coordinator.place_system(system);
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), NodeIndex{1});
  EXPECT_EQ(federation.node(1).drcr->state_of("m1"), ComponentState::kActive);
  EXPECT_EQ(federation.node(1).drcr->state_of("m2"), ComponentState::kActive);
  EXPECT_EQ(coordinator.node_of("m1"), NodeIndex{1});

  ASSERT_TRUE(coordinator.undeploy("sys").ok());
  EXPECT_FALSE(coordinator.node_of("m1").has_value());
}

// ------------------------------------------------------------- migration --

TEST(FedMigration, MovesComponentAndReplaysDrainedMailbox) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  auto placed = coordinator.place(sporadic_component("mig", 0.2));
  ASSERT_TRUE(placed.ok());
  const NodeIndex src = placed.value();
  const NodeIndex dst = 1 - src;
  ASSERT_EQ(federation.node(src).drcr->state_of("mig"),
            ComponentState::kActive);

  // Queue trigger messages without running the engine: migration must drain
  // and replay them, FIFO, into the re-created mailbox on the target.
  rtos::RtKernel& src_kernel = *federation.node(src).kernel;
  rtos::Mailbox* trigger = src_kernel.mailbox_find("migt");
  ASSERT_NE(trigger, nullptr);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(src_kernel.mailbox_send(
        *trigger, rtos::message_from_string("m" + std::to_string(i))));
  }

  ASSERT_TRUE(coordinator.migrate("mig", dst).ok());
  EXPECT_EQ(coordinator.node_of("mig"), dst);
  EXPECT_EQ(federation.node(src).drcr->descriptor_of("mig"), nullptr);
  EXPECT_EQ(federation.node(dst).drcr->state_of("mig"),
            ComponentState::kActive);
  EXPECT_EQ(coordinator.stats().migrations, 1u);

  // The replay went through the channel layer.
  rtos::NodeChannel* replay = federation.find_channel(src, dst, "migt");
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->stats().sent, 3u);
  federation.advance(50'000'000);
  EXPECT_EQ(replay->stats().arrived, 3u);
  EXPECT_EQ(replay->stats().accepted, 3u);
  EXPECT_EQ(federation.in_flight_total(), 0u);
}

TEST(FedMigration, TargetRejectionRollsBackToSource) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  // Fill node 1 so it cannot admit the migrating 0.5 contract.
  ASSERT_TRUE(
      federation.node(1).drcr->register_component(periodic_component("fill", 0.6))
          .ok());
  coordinator.publish_all();
  ASSERT_TRUE(coordinator.place(periodic_component("mig", 0.5)).ok());
  ASSERT_EQ(coordinator.node_of("mig"), NodeIndex{0});

  auto failed = coordinator.migrate("mig", 1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, "fed.migration_rejected");
  EXPECT_EQ(coordinator.stats().migration_failures, 1u);
  // All-or-nothing: still active on the source, absent on the target.
  EXPECT_EQ(federation.node(0).drcr->state_of("mig"), ComponentState::kActive);
  EXPECT_EQ(federation.node(1).drcr->descriptor_of("mig"), nullptr);
  EXPECT_EQ(coordinator.node_of("mig"), NodeIndex{0});
}

TEST(FedMigration, PreservesDisabledState) {
  Federation federation(fed_config(2));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  ASSERT_TRUE(coordinator.place(periodic_component("m", 0.2)).ok());
  const NodeIndex src = *coordinator.node_of("m");
  ASSERT_TRUE(federation.node(src).drcr->disable_component("m").ok());
  coordinator.publish_all();
  ASSERT_TRUE(coordinator.migrate("m", 1 - src).ok());
  EXPECT_EQ(federation.node(1 - src).drcr->state_of("m"),
            ComponentState::kDisabled);
}

TEST(FedMigration, RefusesSystemMembersDeadAndPartitionedTargets) {
  Federation federation(fed_config(3));
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);

  drcom::SystemDescriptor system;
  system.name = "sys";
  system.components.push_back(periodic_component("sm1", 0.1));
  system.components.push_back(periodic_component("sm2", 0.1, 1));
  ASSERT_TRUE(coordinator.place_system(system).ok());
  const NodeIndex owner = *coordinator.node_of("sm1");
  auto member = coordinator.migrate("sm1", (owner + 1) % 3);
  ASSERT_FALSE(member.ok());
  EXPECT_EQ(member.error().code, "fed.system_member");

  ASSERT_TRUE(coordinator.place(periodic_component("solo", 0.1)).ok());
  const NodeIndex src = *coordinator.node_of("solo");
  const NodeIndex dst = (src + 1) % 3;

  federation.leave(dst);
  auto dead = coordinator.migrate("solo", dst);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.error().code, "fed.bad_target");
  federation.join(dst);

  federation.partition(src, dst);
  auto cut = coordinator.migrate("solo", dst);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.error().code, "fed.partitioned");
  federation.heal(src, dst);

  EXPECT_FALSE(coordinator.migrate("ghost", dst).ok());
  EXPECT_TRUE(coordinator.migrate("solo", src).ok());  // self-move: no-op
  EXPECT_EQ(coordinator.stats().migrations, 0u);
}

// ------------------------------------------------------------ stress --

// Exact-counter accounting under churn: four nodes exchange bursts over
// every directed pair while components churn. Conservation must hold
// exactly between every pair of engine runs.
TEST(FedChannel, CountersExactUnderChurn) {
  // Default (stochastic) latency model: a positive cross-group lookahead
  // plus jitter, so deliveries from different senders interleave.
  FederationConfig config;
  config.nodes = 4;
  config.kernel.cpus = 2;
  config.kernel.seed = 7;
  config.inbox_capacity = 8;
  Federation federation(config);
  register_idle_factories(federation);
  FederationCoordinator coordinator(federation);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(coordinator
                    .place(periodic_component("w" + std::to_string(i), 0.1,
                                              static_cast<CpuId>(i % 2)))
                    .ok());
  }
  std::uint64_t expected_sent = 0;
  for (int round = 0; round < 20; ++round) {
    for (NodeIndex src = 0; src < 4; ++src) {
      for (NodeIndex dst = 0; dst < 4; ++dst) {
        if (src == dst) continue;
        rtos::NodeChannel& channel = federation.channel(src, dst, "fed.inbox");
        if (channel.send(rtos::message_from_string("r"))) ++expected_sent;
      }
    }
    federation.advance(5'000'000);
    // Between runs the books must balance exactly, mid-churn, every round.
    const rtos::ChannelStats totals = federation.channel_totals();
    EXPECT_EQ(totals.sent, expected_sent);
    EXPECT_EQ(totals.arrived, totals.accepted + totals.dropped());
    EXPECT_EQ(totals.sent - totals.arrived, federation.in_flight_total());
    EXPECT_EQ(federation.in_flight_total(),
              federation.engine().pending_messages());
    // Drain the inboxes so capacity-8 mailboxes keep accepting.
    for (NodeIndex node = 0; node < 4; ++node) {
      rtos::RtKernel& kernel = *federation.node(node).kernel;
      if (rtos::Mailbox* inbox = kernel.mailbox_find("fed.inbox")) {
        while (kernel.mailbox_try_receive(*inbox)) {
        }
      }
    }
  }
  federation.advance(50'000'000);
  EXPECT_EQ(federation.in_flight_total(), 0u);
  const rtos::ChannelStats totals = federation.channel_totals();
  EXPECT_EQ(totals.sent, expected_sent);
  EXPECT_EQ(totals.arrived, expected_sent);
}

}  // namespace
}  // namespace drt::fed
