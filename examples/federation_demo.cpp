// Federation walkthrough: a 16-node DRCR cluster under one virtual-time
// engine, driven through the three federation stories:
//
//   1. global placement — components flow through the coordinator's O(1)
//      best-fit decision and spread across the cluster;
//   2. overload failover — when the preferred node rejects a contract, the
//      coordinator retries best-fit siblings until one admits it (and leaves
//      the component registered-but-unsatisfied only when the whole cluster
//      is full);
//   3. live migration — a component with queued mailbox traffic moves to a
//      lightly loaded node: descriptor snapshot, drain, re-admit, replay
//      through the inter-node channel layer, nothing lost.
//
//   $ ./federation_demo [output-dir]
//
// Writes federation_demo.trace.json (chrome://tracing / ui.perfetto.dev) for
// the node that received the migrated component. Fully deterministic: fixed
// seeds, virtual time. Exit status is non-zero if any claim above fails.
#include <cstdio>
#include <memory>
#include <string>

#include "fed/coordinator.hpp"
#include "fed/federation.hpp"
#include "obs/export.hpp"

using namespace drt;

namespace {

class WorkerComponent : public drcom::RtComponent {
 public:
  rtos::TaskCoro run(drcom::JobContext& job) override {
    while (job.active()) {
      co_await job.consume(microseconds(40));
      co_await job.next_cycle();
    }
  }
};

drcom::ComponentDescriptor worker(const std::string& name, double usage,
                                  CpuId cpu) {
  drcom::ComponentDescriptor d;
  d.name = name;
  d.bincode = "demo.W";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = usage;
  d.periodic = drcom::PeriodicSpec{200.0, cpu, 5};
  return d;
}

/// Sporadic consumer owning its trigger mailbox "<name>t" — the component we
/// migrate with traffic still queued.
drcom::ComponentDescriptor consumer(const std::string& name) {
  drcom::ComponentDescriptor d;
  d.name = name;
  d.bincode = "demo.W";
  d.type = rtos::TaskType::kSporadic;
  d.cpu_usage = 0.1;
  drcom::PortSpec trigger;
  trigger.direction = drcom::PortDirection::kIn;
  trigger.name = name + "t";
  trigger.interface = drcom::PortInterface::kMailbox;
  trigger.data_type = rtos::DataType::kByte;
  trigger.size = 16;
  drcom::SporadicSpec spec;
  spec.min_interarrival = milliseconds(1);
  spec.run_on_cpu = 1;
  spec.priority = 4;
  spec.trigger_port = trigger.name;
  d.sporadic = spec;
  d.ports.push_back(trigger);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  bool ok = true;
  const auto check = [&ok](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };

  fed::FederationConfig config;
  config.nodes = 16;
  config.kernel.cpus = 2;
  config.kernel.seed = 2026;
  config.inbox_capacity = 32;
  fed::Federation federation(config);
  for (fed::NodeIndex i = 0; i < federation.size(); ++i) {
    federation.node(i).drcr->factories().register_factory(
        "demo.W", [] { return std::make_unique<WorkerComponent>(); });
  }
  federation.node(9).kernel->trace().enable();  // the migration target
  fed::FederationCoordinator coordinator(federation);

  // --- 1. Global placement: 32 workers spread across the cluster. ---------
  for (int i = 0; i < 32; ++i) {
    auto placed =
        coordinator.place(worker("w" + std::to_string(i), 0.2, 0));
    check(placed.ok(), "worker placement");
  }
  std::printf("placed 32 workers across %zu nodes "
              "(%llu decisions, %llu retries)\n",
              federation.size(),
              static_cast<unsigned long long>(coordinator.stats().placements),
              static_cast<unsigned long long>(coordinator.stats().retries));
  check(coordinator.stats().placements == 32, "all workers settled");
  check(coordinator.stats().retries == 0, "no retry while headroom exists");

  // --- 2. Overload: 0.45-utilization contracts exhaust CPU 0 cluster-wide. -
  // Each node carries 2 x 0.2 on CPU 0 (headroom 0.5), so exactly 16 hot
  // contracts fit — one per node. The 17th walks every sibling and stays
  // registered-but-unsatisfied: visible, recoverable failover.
  for (int i = 0; i < 16; ++i) {
    auto placed = coordinator.place(worker("h" + std::to_string(i), 0.45, 0));
    check(placed.ok(), "hot contract placement");
  }
  auto overflow = coordinator.place(worker("hover", 0.45, 0));
  check(overflow.ok(), "overflow placement returns its resting node");
  check(coordinator.stats().rejects == 1, "cluster-wide overload rejected");
  check(coordinator.stats().retries == static_cast<std::uint64_t>(
            federation.size() - 1),
        "overflow retried every sibling");
  std::printf("overload: 16 hot contracts admitted, 17th rejected after "
              "%llu sibling retries\n",
              static_cast<unsigned long long>(coordinator.stats().retries));
  federation.advance(milliseconds(20));

  // --- 3. Live migration with queued traffic. -----------------------------
  auto placed = coordinator.place(consumer("mig"));
  check(placed.ok(), "consumer placement");
  const fed::NodeIndex source = placed.value();
  const fed::NodeIndex target = 9;
  check(source != target, "demo expects the consumer away from node 9");

  rtos::RtKernel& src_kernel = *federation.node(source).kernel;
  rtos::Mailbox* trigger = src_kernel.mailbox_find("migt");
  check(trigger != nullptr, "consumer trigger mailbox exists");
  for (int i = 0; i < 5 && trigger != nullptr; ++i) {
    check(src_kernel.mailbox_send(
              *trigger, rtos::message_from_string("job" + std::to_string(i))),
          "queueing trigger traffic");
  }

  auto migrated = coordinator.migrate("mig", target);
  check(migrated.ok(), "live migration succeeds");
  check(coordinator.node_of("mig") == target, "placement map moved");
  check(federation.node(source).drcr->descriptor_of("mig") == nullptr,
        "source detached");
  rtos::NodeChannel* replay = federation.find_channel(source, target, "migt");
  check(replay != nullptr && replay->stats().sent == 5,
        "drained queue replayed through the channel layer");

  federation.advance(milliseconds(50));
  const rtos::ChannelStats totals = federation.channel_totals();
  check(totals.sent == totals.arrived, "all channel traffic delivered");
  check(totals.arrived == totals.accepted + totals.dropped(),
        "channel accounting conserves");
  check(federation.in_flight_total() == 0, "no stranded in-flight messages");
  std::printf("migrated 'mig' n%zu -> n%zu with 5 queued messages replayed "
              "(%llu accepted at the target)\n",
              source, target,
              static_cast<unsigned long long>(
                  replay != nullptr ? replay->stats().accepted : 0));

  // --- Chrome trace of the migration target. ------------------------------
  const obs::ChromeTraceExporter exporter;
  const std::string trace_path = out_dir + "/federation_demo.trace.json";
  auto written = exporter.write_file(
      federation.node(target).drcr->observe(), trace_path);
  check(written.ok(), "chrome trace export");
  std::printf("wrote %s (load into chrome://tracing or ui.perfetto.dev)\n",
              trace_path.c_str());

  if (!ok) return 1;
  std::printf("federation demo OK: placement, failover and live migration "
              "reproduced\n");
  return 0;
}
