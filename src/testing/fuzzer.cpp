#include "testing/fuzzer.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <iomanip>
#include <set>
#include <sstream>
#include <stdexcept>

#include "cap/channel.hpp"
#include "drcom/snapshot.hpp"
#include "drcom/system_descriptor.hpp"
#include "fed/coordinator.hpp"
#include "fed/federation.hpp"
#include "util/strings.hpp"

namespace drt::testing {
namespace {

using drcom::ComponentDescriptor;
using drcom::PortInterface;

/// The workhorse fuzz component: expresses its declared cpuusage as real
/// demand and touches every declared port each job, so randomized scenarios
/// generate genuine scheduling pressure and IPC traffic.
class FuzzComponent : public drcom::RtComponent {
 public:
  rtos::TaskCoro run(drcom::JobContext& job) override { return body(job); }

 private:
  static SimDuration job_cost(const ComponentDescriptor& d) {
    SimDuration base = 0;
    if (d.periodic.has_value()) base = d.periodic->period();
    if (d.sporadic.has_value()) base = d.sporadic->min_interarrival;
    const auto cost =
        static_cast<SimDuration>(static_cast<double>(base) * d.cpu_usage);
    return std::max<SimDuration>(1'000, cost);
  }

  static void touch_ports(drcom::JobContext& job, std::int32_t counter) {
    const ComponentDescriptor& d = job.descriptor();
    for (const auto* port : d.outports()) {
      if (port->interface == PortInterface::kShm) {
        (void)job.write_i32(port->name, 0, counter);
      } else {
        (void)job.send(port->name, rtos::message_from_string("f"));
      }
    }
    for (const auto* port : d.inports()) {
      if (port->interface == PortInterface::kShm) {
        (void)job.read_i32(port->name, 0);
      }
    }
    // Typed capability traffic: a consumer fires one "ping" per job on its
    // "ctl" route (a revoked endpoint fails fast and counts `revoked` — that
    // is the mid-traffic revocation path the caps band wants), a provider
    // drains its stub inbox.
    if (cap::Connection* route = job.capability("ctl")) {
      std::array<std::byte, 8> ping{};
      std::memcpy(ping.data(), &counter, sizeof(counter));
      (void)route->call(1, ping);
    }
    if (cap::ServerEnd* server = job.cap_server("ctl")) {
      while (server->try_next().has_value()) {
      }
    }
  }

  static rtos::TaskCoro body(drcom::JobContext& job) {
    const ComponentDescriptor& d = job.descriptor();
    const SimDuration cost = job_cost(d);
    std::int32_t counter = 0;
    if (d.type == rtos::TaskType::kPeriodic) {
      while (job.active()) {
        co_await job.consume(cost);
        touch_ports(job, counter++);
        co_await job.next_cycle();
      }
    } else if (d.type == rtos::TaskType::kSporadic) {
      while (job.active()) {
        auto message = co_await job.next_event();
        if (!message.has_value()) break;
        co_await job.consume(cost);
        touch_ports(job, counter++);
      }
    } else {
      while (job.active()) {
        co_await job.consume(cost);
        touch_ports(job, counter++);
        co_await job.sleep_for(milliseconds(2));
        co_await job.next_cycle();
      }
    }
  }
};

/// init() throws: exercises the activation-failure path where the RT task's
/// body factory fails after admission succeeded.
class InitThrowComponent : public FuzzComponent {
 public:
  void init(drcom::JobContext&) override {
    throw std::runtime_error("fuzz: injected init failure");
  }
};

rtos::KernelConfig kernel_config(std::uint64_t seed,
                                 const ScenarioConfig& config) {
  rtos::KernelConfig kernel_config;
  kernel_config.cpus = config.cpus;
  kernel_config.seed = seed;
  return kernel_config;
}

std::string outcome(const Result<void>& result) {
  return result.ok() ? "ok" : "err(" + result.error().code + ")";
}

std::string outcome_node(const Result<fed::NodeIndex>& result) {
  return result.ok() ? "ok(n" + std::to_string(result.value()) + ")"
                     : "err(" + result.error().code + ")";
}

/// Fires `count` calls of `ordinal` on a capability connection, sized to the
/// declared request layout (8 bytes when the ordinal is unknown — on a bound
/// endpoint that is the uncounted invalid-argument refusal the caps band
/// deliberately probes). Returns a per-outcome tally for the action log.
std::string cap_call_burst(cap::Connection& connection, std::uint32_t ordinal,
                           std::size_t count) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t revoked = 0;
  std::size_t invalid = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const cap::MethodSpec* method =
        connection.spec() == nullptr ? nullptr
                                     : connection.spec()->find_method(ordinal);
    std::vector<std::byte> payload(
        method != nullptr ? method->request_bytes : std::size_t{8});
    switch (connection.call(ordinal, payload)) {
      case ErrorCode::kNone: ++accepted; break;
      case ErrorCode::kLimitExceeded: ++rejected; break;
      case ErrorCode::kCapabilityRevoked: ++revoked; break;
      default: ++invalid; break;
    }
  }
  std::ostringstream out;
  out << "accepted=" << accepted << " rejected=" << rejected
      << " revoked=" << revoked << " invalid=" << invalid;
  return out.str();
}

void register_fuzz_factories(drcom::Drcr& drcr) {
  drcr.factories().register_factory(
      "fuzz.ok", [] { return std::make_unique<FuzzComponent>(); });
  drcr.factories().register_factory(
      "fuzz.throw", []() -> std::unique_ptr<drcom::RtComponent> {
        throw std::runtime_error("fuzz: injected factory failure");
      });
  drcr.factories().register_factory(
      "fuzz.null",
      []() -> std::unique_ptr<drcom::RtComponent> { return nullptr; });
  drcr.factories().register_factory(
      "fuzz.init", [] { return std::make_unique<InitThrowComponent>(); });
}

/// The contract-violation escalation ladder every monitor-mode world runs:
/// first detection notifies, the second quarantines (disable + flag) — short
/// enough that fuzz-length scenarios actually reach the terminal action.
drcom::AdaptationConfig monitor_ladder() {
  drcom::AdaptationConfig config;
  config.policies = {
      {drcom::AdaptationTrigger::kContractViolation,
       drcom::QosActionKind::kNotify, 1},
      {drcom::AdaptationTrigger::kContractViolation,
       drcom::QosActionKind::kDisable, 2},
  };
  return config;
}

fed::FederationConfig federation_config(std::uint64_t seed,
                                        const ScenarioConfig& config) {
  fed::FederationConfig fed_config;
  fed_config.nodes = config.nodes;
  fed_config.kernel = kernel_config(seed, config);
  fed_config.cpu_budget = config.cpu_budget;
  // Every node gets a "fed.inbox" sink so kChannelSend always has a live
  // destination namespace to resolve against.
  fed_config.inbox_capacity = 64;
  return fed_config;
}

/// Federation counterpart of FuzzWorld: N DRCR nodes on one engine, the
/// coordinator doing global placement, one shared fault plan, the fuzz
/// factory family on every node. Single-node actions route through the
/// coordinator; federation actions drive membership, partitions, channels
/// and live migration.
class FedFuzzWorld {
 public:
  FedFuzzWorld(std::uint64_t seed, const ScenarioConfig& config)
      : federation(federation_config(seed, config)), coordinator(federation) {
    for (fed::NodeIndex i = 0; i < federation.size(); ++i) {
      fed::Node& node = federation.node(i);
      node.kernel->trace().enable();
      node.kernel->metrics().enable();
      node.kernel->set_fault_plan(&faults);
      register_fuzz_factories(*node.drcr);
      if (config.plant_mode_bug) {
        node.drcr->mode_controller().set_skip_admission_check(true);
      }
    }
    if (config.monitor) {
      for (fed::NodeIndex i = 0; i < federation.size(); ++i) {
        drcom::Drcr& drcr = *federation.node(i).drcr;
        monitors.push_back(std::make_unique<drcom::ContractMonitor>(drcr));
        adaptations.push_back(
            std::make_unique<drcom::AdaptationManager>(drcr, monitor_ladder()));
        monitors.back()->start();
        adaptations.back()->start();
      }
      // Placement ranks by empirical headroom so overrunning nodes stop
      // looking attractive — the observed-rank publish path under fuzz.
      coordinator.set_observed_rank(true);
    }
  }

  FuzzWorld::ApplyResult apply(const Action& action);

  fed::Federation federation;
  fed::FederationCoordinator coordinator;
  rtos::FaultPlan faults;
  std::vector<std::unique_ptr<drcom::ContractMonitor>> monitors;
  std::vector<std::unique_ptr<drcom::AdaptationManager>> adaptations;
};

FuzzWorld::ApplyResult FedFuzzWorld::apply(const Action& action) {
  FuzzWorld::ApplyResult result;
  std::ostringstream log;
  log << "@" << federation.now() << " " << describe(action) << " -> ";
  switch (action.kind) {
    case ActionKind::kRegisterComponent: {
      auto descriptor = drcom::parse_descriptor(action.payload);
      if (!descriptor.ok()) {
        log << "err(" << descriptor.error().code << ")";
        break;
      }
      log << outcome_node(coordinator.place(descriptor.value()));
      break;
    }
    case ActionKind::kUnregisterComponent:
      log << outcome(coordinator.remove(action.name));
      break;
    case ActionKind::kEnableComponent:
    case ActionKind::kDisableComponent: {
      const auto owner = coordinator.node_of(action.name);
      if (!owner.has_value()) {
        log << "noop (unknown component)";
        break;
      }
      drcom::Drcr& drcr = *federation.node(*owner).drcr;
      log << outcome(action.kind == ActionKind::kEnableComponent
                         ? drcr.enable_component(action.name)
                         : drcr.disable_component(action.name));
      break;
    }
    case ActionKind::kDeploySystem: {
      auto system = drcom::parse_system_descriptor(action.payload);
      if (!system.ok()) {
        log << "err(" << system.error().code << ")";
        break;
      }
      log << outcome_node(coordinator.place_system(system.value()));
      break;
    }
    case ActionKind::kUndeploySystem:
      log << outcome(coordinator.undeploy(action.name));
      break;
    case ActionKind::kInstallBundle: {
      // Bundles register their components directly on the node they install
      // on, bypassing the coordinator — so a member name that already lives
      // on another node would become a dual admission. Route to the unique
      // owning node, or skip when members span several.
      std::set<fed::NodeIndex> owners;
      for (const std::string& xml : action.extra) {
        auto descriptor = drcom::parse_descriptor(xml);
        if (!descriptor.ok()) continue;
        if (const auto owner = coordinator.node_of(descriptor.value().name)) {
          owners.insert(*owner);
        }
      }
      if (owners.size() > 1) {
        log << "noop (members span " << owners.size() << " nodes)";
        break;
      }
      const fed::NodeIndex target =
          !owners.empty() ? *owners.begin()
          : action.node < federation.size() ? action.node
                                            : 0;
      osgi::Framework& framework = federation.node(target).framework;
      osgi::BundleDefinition definition;
      definition.manifest.set_symbolic_name(action.name);
      for (std::size_t i = 0; i < action.extra.size(); ++i) {
        const std::string path = "DRT-INF/c" + std::to_string(i) + ".xml";
        definition.manifest.add_component_resource(path);
        definition.resources[path] = action.extra[i];
      }
      auto installed = framework.install(std::move(definition));
      if (!installed.ok()) {
        log << "err(" << installed.error().code << ")";
        break;
      }
      log << "n" << target << " " << outcome(framework.start(installed.value()));
      break;
    }
    case ActionKind::kStopBundle:
    case ActionKind::kUninstallBundle: {
      osgi::Framework* framework = nullptr;
      osgi::Bundle* bundle = nullptr;
      for (fed::NodeIndex i = 0; i < federation.size() && bundle == nullptr;
           ++i) {
        framework = &federation.node(i).framework;
        bundle = framework->find_bundle(action.name);
      }
      if (bundle == nullptr) {
        log << "noop (no such bundle)";
        break;
      }
      log << outcome(action.kind == ActionKind::kStopBundle
                         ? framework->stop(bundle->id())
                         : framework->uninstall(bundle->id()));
      break;
    }
    case ActionKind::kSendCommand: {
      const auto owner = coordinator.node_of(action.name);
      drcom::HybridComponent* instance =
          owner.has_value()
              ? federation.node(*owner).drcr->instance_of(action.name)
              : nullptr;
      if (instance == nullptr) {
        log << "noop (not active)";
        break;
      }
      log << outcome(instance->send_command(action.payload));
      log << " responses=" << instance->drain_responses().size();
      break;
    }
    case ActionKind::kMailboxSend: {
      rtos::RtKernel* kernel = nullptr;
      rtos::Mailbox* mailbox = nullptr;
      for (fed::NodeIndex i = 0; i < federation.size() && mailbox == nullptr;
           ++i) {
        kernel = federation.node(i).kernel.get();
        mailbox = kernel->mailbox_find(action.name);
      }
      if (mailbox == nullptr) {
        log << "noop (no such mailbox)";
        break;
      }
      log << (kernel->mailbox_send(*mailbox,
                                   rtos::message_from_string(action.payload))
                  ? "delivered"
                  : "full");
      break;
    }
    case ActionKind::kArmFault:
      faults.arm(action.fault);
      log << "armed";
      break;
    case ActionKind::kAdvanceTime:
      federation.advance(action.duration);
      log << "now=" << federation.now();
      break;
    case ActionKind::kResolve: {
      std::size_t active = 0;
      for (fed::NodeIndex i = 0; i < federation.size(); ++i) {
        federation.node(i).drcr->resolve();
        active += federation.node(i).drcr->active_count();
      }
      log << "active=" << active;
      break;
    }
    case ActionKind::kSnapshotRoundTrip:
      // Not generated in federation mode; tolerate hand-written repros.
      log << "noop (federation mode)";
      break;
    case ActionKind::kNodeLeave:
      federation.leave(action.node);
      log << "down alive=" << federation.alive_count();
      break;
    case ActionKind::kNodeJoin:
      federation.join(action.node);
      log << "up alive=" << federation.alive_count();
      break;
    case ActionKind::kPartition:
      federation.partition(action.node, action.peer);
      log << (action.node == action.peer ? "noop (self)" : "cut");
      break;
    case ActionKind::kHeal:
      federation.heal(action.node, action.peer);
      log << "healed";
      break;
    case ActionKind::kMigrate:
      log << outcome(coordinator.migrate(action.name, action.node));
      break;
    case ActionKind::kChannelSend: {
      if (action.node >= federation.size() ||
          action.peer >= federation.size()) {
        log << "noop (bad node)";
        break;
      }
      const bool sent =
          federation.channel(action.node, action.peer, action.name)
              .send(rtos::message_from_string(action.payload));
      log << (sent ? "sent" : "severed");
      break;
    }
    case ActionKind::kOverloadStorm:
    case ActionKind::kFlashCrowd: {
      if (action.node >= federation.size()) {
        log << "noop (bad node)";
        break;
      }
      const bool storm = action.kind == ActionKind::kOverloadStorm;
      federation.node(action.node).kernel->set_load_config(
          storm ? rtos::overload_storm() : rtos::flash_crowd());
      log << "n" << action.node << (storm ? " load=storm" : " load=crowd");
      break;
    }
    case ActionKind::kForceModeChange: {
      if (action.node >= federation.size()) {
        log << "noop (bad node)";
        break;
      }
      drcom::Drcr& drcr = *federation.node(action.node).drcr;
      log << outcome(drcr.mode_controller().transition_to(action.payload));
      log << " mode='" << drcr.mode_controller().current_mode() << "'";
      break;
    }
    case ActionKind::kModeChangeMigrate: {
      // The race the protocol must survive: re-home a component, then flip
      // the destination node's mode while the migrated task is settling.
      if (action.node >= federation.size()) {
        log << "noop (bad node)";
        break;
      }
      log << outcome(coordinator.migrate(action.name, action.node));
      drcom::Drcr& drcr = *federation.node(action.node).drcr;
      log << " then "
          << outcome(drcr.mode_controller().transition_to(action.payload));
      break;
    }
    case ActionKind::kMonitorCheck: {
      if (monitors.empty()) {
        log << "noop (no monitor)";
        break;
      }
      std::size_t reported = 0;
      std::uint64_t total = 0;
      for (fed::NodeIndex i = 0; i < federation.size(); ++i) {
        reported += monitors[i]->check_now();
        adaptations[i]->evaluate_now();
        total += federation.node(i).drcr->total_contract_violations();
      }
      log << "reported=" << reported << " total=" << total;
      break;
    }
    case ActionKind::kCapCall: {
      const std::string provider = action.extra.empty() ? "" : action.extra[0];
      cap::Connection* connection = nullptr;
      for (fed::NodeIndex i = 0;
           i < federation.size() && connection == nullptr; ++i) {
        connection = federation.node(i).drcr->cap_router().find_connection(
            action.name, provider, action.payload);
      }
      if (connection == nullptr) {
        log << "noop (no such connection)";
        break;
      }
      log << cap_call_burst(*connection,
                            static_cast<std::uint32_t>(action.node),
                            action.peer);
      break;
    }
    case ActionKind::kCapConnect: {
      const std::string provider = action.extra.empty() ? "" : action.extra[0];
      const auto owner = coordinator.node_of(provider);
      if (!owner.has_value()) {
        log << "noop (unknown provider)";
        break;
      }
      const fed::NodeIndex client_node =
          action.peer < federation.size() ? action.peer : 0;
      auto connected = federation.bind_capability(
          client_node, action.name, *owner, provider, action.payload);
      if (!connected.ok()) {
        log << "err(" << connected.error().code << ")";
      } else {
        log << "n" << client_node << (connected.value()->remote() ? " remote"
                                                                  : " local")
            << (connected.value()->bound() ? " bound" : " revoked");
      }
      break;
    }
    case ActionKind::kCapDeployCycle: {
      auto system = drcom::parse_system_descriptor(action.payload);
      if (!system.ok()) {
        log << "refused(" << system.error().code << ")";
        break;
      }
      auto placed = coordinator.place_system(system.value());
      if (placed.ok()) {
        (void)coordinator.undeploy(action.name);
        result.violation = Violation{
            "capability-offer-cycle",
            "system '" + action.name +
                "' with a cyclic offer graph was admitted on node " +
                std::to_string(placed.value())};
        log << "ADMITTED (cycle not refused)";
      } else {
        log << "refused(" << placed.error().code << ")";
      }
      break;
    }
  }
  // Push-style summary protocol: the coordinator's view refreshes after
  // every mutation (generation-checked, O(cpus) per untouched node).
  coordinator.publish_all();
  result.log = log.str();
  return result;
}

ScenarioResult run_federation_subset(std::uint64_t seed,
                                     const ScenarioConfig& config,
                                     const std::vector<std::size_t>& keep) {
  const std::vector<Action> actions = generate_actions(seed, config);
  FedFuzzWorld world(seed, config);
  std::vector<InvariantOracle> oracles;
  oracles.reserve(world.federation.size());
  for (fed::NodeIndex i = 0; i < world.federation.size(); ++i) {
    oracles.emplace_back(*world.federation.node(i).drcr, world.faults,
                         config.cpu_budget);
  }
  ScenarioResult result;
  result.seed = seed;
  for (const std::size_t index : keep) {
    if (index >= actions.size()) continue;
    FuzzWorld::ApplyResult applied = world.apply(actions[index]);
    result.action_log.push_back("[" + std::to_string(index) + "] " +
                                applied.log);
    std::optional<Violation> violation = std::move(applied.violation);
    for (std::size_t n = 0; !violation.has_value() && n < oracles.size();
         ++n) {
      violation = oracles[n].check();
      if (violation.has_value()) {
        violation->detail = "node " + std::to_string(n) + ": " +
                            violation->detail;
      }
    }
    if (!violation.has_value()) violation = check_federation(world.federation);
    if (violation.has_value()) {
      result.violated = true;
      result.failing_index = index;
      result.violation = std::move(*violation);
      break;
    }
  }
  std::ostringstream trace;
  for (fed::NodeIndex i = 0; i < world.federation.size(); ++i) {
    trace << "--- node " << i << " ---\n"
          << render_trace(world.federation.node(i).kernel->trace());
  }
  result.trace_text = trace.str();
  return result;
}

}  // namespace

FuzzWorld::FuzzWorld(std::uint64_t seed, const ScenarioConfig& config)
    : engine(),
      framework(),
      kernel(engine, kernel_config(seed, config)),
      faults(),
      drcr(framework, kernel,
           {.cpu_budget = config.cpu_budget,
            .auto_resolve = true,
            .register_service = true}),
      config_(config),
      seed_(seed) {
  kernel.trace().enable();
  // Metrics on: the oracle cross-checks registry aggregates against the
  // per-mailbox counters (invariant 7), which only works when counting.
  kernel.metrics().enable();
  kernel.set_fault_plan(&faults);
  register_fuzz_factories(drcr);
  if (config.plant_mode_bug) {
    // The self-test's "buggy controller": transitions commit without the
    // admission pre-check, so the planted overcommit actually lands and the
    // oracle (invariant 10) must be the one to catch it.
    drcr.mode_controller().set_skip_admission_check(true);
  }
  if (config.monitor) {
    monitor = std::make_unique<drcom::ContractMonitor>(drcr);
    adaptation =
        std::make_unique<drcom::AdaptationManager>(drcr, monitor_ladder());
    monitor->start();
    adaptation->start();
    if (config.plant_monitor_bug) {
      // The self-test's "buggy quarantine": the flag lands, the disable is
      // skipped, and the oracle (invariant 11) must be the one to catch it.
      drcr.set_test_skip_quarantine_disable(true);
    }
  }
}

FuzzWorld::ApplyResult FuzzWorld::apply(const Action& action) {
  ApplyResult result;
  std::ostringstream log;
  log << "@" << engine.now() << " " << describe(action) << " -> ";
  switch (action.kind) {
    case ActionKind::kRegisterComponent: {
      auto descriptor = drcom::parse_descriptor(action.payload);
      if (!descriptor.ok()) {
        log << "err(" << descriptor.error().code << ")";
        break;
      }
      log << outcome(drcr.register_component(std::move(descriptor.value())));
      break;
    }
    case ActionKind::kUnregisterComponent:
      log << outcome(drcr.unregister_component(action.name));
      break;
    case ActionKind::kEnableComponent:
      log << outcome(drcr.enable_component(action.name));
      break;
    case ActionKind::kDisableComponent:
      log << outcome(drcr.disable_component(action.name));
      break;
    case ActionKind::kDeploySystem: {
      auto system = drcom::parse_system_descriptor(action.payload);
      if (!system.ok()) {
        log << "err(" << system.error().code << ")";
        break;
      }
      log << outcome(drcr.deploy_system(system.value()));
      break;
    }
    case ActionKind::kUndeploySystem:
      log << outcome(drcr.undeploy_system(action.name));
      break;
    case ActionKind::kInstallBundle: {
      osgi::BundleDefinition definition;
      definition.manifest.set_symbolic_name(action.name);
      for (std::size_t i = 0; i < action.extra.size(); ++i) {
        const std::string path = "DRT-INF/c" + std::to_string(i) + ".xml";
        definition.manifest.add_component_resource(path);
        definition.resources[path] = action.extra[i];
      }
      auto installed = framework.install(std::move(definition));
      if (!installed.ok()) {
        log << "err(" << installed.error().code << ")";
        break;
      }
      log << outcome(framework.start(installed.value()));
      break;
    }
    case ActionKind::kStopBundle:
    case ActionKind::kUninstallBundle: {
      osgi::Bundle* bundle = framework.find_bundle(action.name);
      if (bundle == nullptr) {
        log << "noop (no such bundle)";
        break;
      }
      log << outcome(action.kind == ActionKind::kStopBundle
                         ? framework.stop(bundle->id())
                         : framework.uninstall(bundle->id()));
      break;
    }
    case ActionKind::kSendCommand: {
      drcom::HybridComponent* instance = drcr.instance_of(action.name);
      if (instance == nullptr) {
        log << "noop (not active)";
        break;
      }
      const auto sent = instance->send_command(action.payload);
      log << outcome(sent);
      log << " responses=" << instance->drain_responses().size();
      break;
    }
    case ActionKind::kMailboxSend: {
      rtos::Mailbox* mailbox = kernel.mailbox_find(action.name);
      if (mailbox == nullptr) {
        log << "noop (no such mailbox)";
        break;
      }
      log << (kernel.mailbox_send(*mailbox,
                                  rtos::message_from_string(action.payload))
                  ? "delivered"
                  : "full");
      break;
    }
    case ActionKind::kArmFault:
      faults.arm(action.fault);
      log << "armed";
      break;
    case ActionKind::kAdvanceTime:
      engine.run_until(engine.now() + action.duration);
      log << "now=" << engine.now();
      break;
    case ActionKind::kResolve:
      drcr.resolve();
      log << "active=" << drcr.active_count();
      break;
    case ActionKind::kSnapshotRoundTrip: {
      const std::string before = drcom::snapshot_to_xml(drcr);
      ScenarioConfig fresh_config = config_;
      fresh_config.plant_bug = false;
      fresh_config.plant_mode_bug = false;
      // The fixpoint is about descriptor round-trips; the fresh world does
      // not need a monitor watching the restored components.
      fresh_config.monitor = false;
      fresh_config.plant_monitor_bug = false;
      FuzzWorld fresh(seed_, fresh_config);
      auto restored = drcom::restore_from_xml(fresh.drcr, before);
      if (!restored.ok()) {
        result.violation =
            Violation{"snapshot-fixpoint",
                      "restore(snapshot(S)) failed: " +
                          restored.error().message};
        log << "RESTORE FAILED";
        break;
      }
      const std::string after = drcom::snapshot_to_xml(fresh.drcr);
      if (before != after) {
        result.violation = Violation{
            "snapshot-fixpoint",
            "snapshot(restore(snapshot(S))) differs from snapshot(S): " +
                std::to_string(before.size()) + " vs " +
                std::to_string(after.size()) + " bytes"};
        log << "MISMATCH";
        break;
      }
      log << "fixpoint (" << before.size() << " bytes)";
      break;
    }
    case ActionKind::kOverloadStorm:
      kernel.set_load_config(rtos::overload_storm());
      log << "load=storm";
      break;
    case ActionKind::kFlashCrowd:
      kernel.set_load_config(rtos::flash_crowd());
      log << "load=crowd";
      break;
    case ActionKind::kForceModeChange:
      log << outcome(drcr.mode_controller().transition_to(action.payload));
      log << " mode='" << drcr.mode_controller().current_mode() << "'";
      break;
    case ActionKind::kMonitorCheck: {
      if (monitor == nullptr) {
        log << "noop (no monitor)";
        break;
      }
      const std::size_t reported = monitor->check_now();
      adaptation->evaluate_now();
      log << "reported=" << reported
          << " total=" << drcr.total_contract_violations();
      break;
    }
    case ActionKind::kCapCall: {
      cap::Connection* connection = drcr.cap_router().find_connection(
          action.name, action.extra.empty() ? "" : action.extra[0],
          action.payload);
      if (connection == nullptr) {
        log << "noop (no such connection)";
        break;
      }
      log << cap_call_burst(*connection,
                            static_cast<std::uint32_t>(action.node),
                            action.peer);
      break;
    }
    case ActionKind::kCapConnect: {
      auto connected = drcr.connect_capability(
          action.name, action.extra.empty() ? "" : action.extra[0],
          action.payload);
      if (!connected.ok()) {
        log << "err(" << connected.error().code << ")";
      } else {
        log << (connected.value()->bound() ? "bound" : "revoked");
      }
      break;
    }
    case ActionKind::kCapDeployCycle: {
      auto system = drcom::parse_system_descriptor(action.payload);
      if (!system.ok()) {
        log << "refused(" << system.error().code << ")";
        break;
      }
      auto deployed = drcr.deploy_system(system.value());
      if (deployed.ok()) {
        (void)drcr.undeploy_system(action.name);
        result.violation =
            Violation{"capability-offer-cycle",
                      "system '" + action.name +
                          "' with a cyclic offer graph was admitted"};
        log << "ADMITTED (cycle not refused)";
      } else {
        log << "refused(" << deployed.error().code << ")";
      }
      break;
    }
    case ActionKind::kNodeLeave:
    case ActionKind::kNodeJoin:
    case ActionKind::kPartition:
    case ActionKind::kHeal:
    case ActionKind::kMigrate:
    case ActionKind::kChannelSend:
    case ActionKind::kModeChangeMigrate:
      // Federation actions are only generated when config.nodes > 1, which
      // routes the scenario through FedFuzzWorld instead.
      log << "noop (single-node world)";
      break;
  }
  result.log = log.str();
  return result;
}

std::string render_trace(const rtos::Trace& trace) {
  std::ostringstream out;
  for (const rtos::TraceEvent& event : trace.events()) {
    out << event.when << ' ' << rtos::to_string(event.kind) << " task="
        << event.task << " cpu=" << event.cpu;
    if (!event.detail.empty()) out << ' ' << event.detail;
    out << '\n';
  }
  return out.str();
}

ScenarioResult run_scenario_subset(std::uint64_t seed,
                                   const ScenarioConfig& config,
                                   const std::vector<std::size_t>& keep) {
  if (config.nodes > 1) return run_federation_subset(seed, config, keep);
  const std::vector<Action> actions = generate_actions(seed, config);
  FuzzWorld world(seed, config);
  InvariantOracle oracle(world.drcr, world.faults, config.cpu_budget);
  ScenarioResult result;
  result.seed = seed;
  for (const std::size_t index : keep) {
    if (index >= actions.size()) continue;
    FuzzWorld::ApplyResult applied = world.apply(actions[index]);
    result.action_log.push_back("[" + std::to_string(index) + "] " +
                                applied.log);
    std::optional<Violation> violation = std::move(applied.violation);
    if (!violation.has_value()) violation = oracle.check();
    if (violation.has_value()) {
      result.violated = true;
      result.failing_index = index;
      result.violation = std::move(*violation);
      break;
    }
  }
  result.trace_text = render_trace(world.kernel.trace());
  return result;
}

ScenarioResult run_scenario(std::uint64_t seed, const ScenarioConfig& config) {
  std::vector<std::size_t> all(generate_actions(seed, config).size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return run_scenario_subset(seed, config, all);
}

std::vector<std::size_t> shrink(std::uint64_t seed,
                                const ScenarioConfig& config,
                                std::size_t failing_index) {
  std::vector<std::size_t> keep(failing_index + 1);
  for (std::size_t i = 0; i <= failing_index; ++i) keep[i] = i;
  bool changed = true;
  while (changed) {
    changed = false;
    // Back-to-front so indices stay valid while erasing.
    for (std::size_t i = keep.size(); i-- > 0;) {
      if (keep.size() == 1) break;
      std::vector<std::size_t> candidate = keep;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (run_scenario_subset(seed, config, candidate).violated) {
        keep = std::move(candidate);
        changed = true;
      }
    }
  }
  return keep;
}

std::string write_repro(const Repro& repro, const ScenarioResult& result) {
  std::ostringstream out;
  out << "# drt_fuzz repro — replay with: drt_fuzz --replay <this file>\n";
  if (result.violated) {
    out << "# violation: " << result.violation.invariant << ": "
        << result.violation.detail << '\n';
  }
  out << "seed " << repro.seed << '\n';
  out << "actions " << repro.config.action_count << '\n';
  out << "cpus " << repro.config.cpus << '\n';
  out << "budget " << std::setprecision(17) << repro.config.cpu_budget << '\n';
  out << "max_advance " << repro.config.max_advance << '\n';
  out << "faults " << (repro.config.enable_faults ? 1 : 0) << '\n';
  out << "plant " << (repro.config.plant_bug ? 1 : 0) << '\n';
  out << "snapshots " << (repro.config.snapshot_checks ? 1 : 0) << '\n';
  out << "nodes " << repro.config.nodes << '\n';
  out << "modes " << (repro.config.modes ? 1 : 0) << '\n';
  out << "plantmode " << (repro.config.plant_mode_bug ? 1 : 0) << '\n';
  out << "monitor " << (repro.config.monitor ? 1 : 0) << '\n';
  out << "plantmonitor " << (repro.config.plant_monitor_bug ? 1 : 0) << '\n';
  out << "caps " << (repro.config.caps ? 1 : 0) << '\n';
  out << "keep";
  for (const std::size_t index : repro.keep) out << ' ' << index;
  out << '\n';
  for (const std::string& line : result.action_log) {
    out << "# " << line << '\n';
  }
  return out.str();
}

Result<Repro> parse_repro(std::string_view text) {
  Repro repro;
  bool seen_seed = false;
  bool seen_keep = false;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const auto trimmed = str::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::istringstream fields{std::string(trimmed)};
    std::string key;
    fields >> key;
    auto bad = [&](const std::string& what) {
      return make_error("fuzz.bad_repro",
                        "repro line '" + std::string(trimmed) + "': " + what);
    };
    if (key == "seed") {
      if (!(fields >> repro.seed)) return bad("expected integer seed");
      seen_seed = true;
    } else if (key == "actions") {
      if (!(fields >> repro.config.action_count)) {
        return bad("expected action count");
      }
    } else if (key == "cpus") {
      if (!(fields >> repro.config.cpus) || repro.config.cpus == 0) {
        return bad("expected positive cpu count");
      }
    } else if (key == "budget") {
      if (!(fields >> repro.config.cpu_budget)) return bad("expected budget");
    } else if (key == "max_advance") {
      if (!(fields >> repro.config.max_advance)) {
        return bad("expected max_advance ns");
      }
    } else if (key == "faults") {
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.enable_faults = value != 0;
    } else if (key == "plant") {
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.plant_bug = value != 0;
    } else if (key == "snapshots") {
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.snapshot_checks = value != 0;
    } else if (key == "engine") {
      // Older repro files name the engine; only the sequential one exists.
      std::string value;
      if (!(fields >> value)) return bad("expected sequential");
      if (value != "sequential") {
        return bad("engine '" + value + "' is not available: the parallel "
                   "backend was removed; only sequential replays");
      }
    } else if (key == "nodes") {
      // Absent in pre-federation repro files; those default to one node.
      if (!(fields >> repro.config.nodes) || repro.config.nodes == 0) {
        return bad("expected positive node count");
      }
    } else if (key == "modes") {
      // Absent in pre-modes repro files; those default to no mode bands.
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.modes = value != 0;
    } else if (key == "plantmode") {
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.plant_mode_bug = value != 0;
    } else if (key == "monitor") {
      // Absent in pre-monitor repro files; those default to no monitor.
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.monitor = value != 0;
    } else if (key == "plantmonitor") {
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.plant_monitor_bug = value != 0;
    } else if (key == "caps") {
      // Absent in pre-caps repro files; those default to no capability band.
      int value = 0;
      if (!(fields >> value)) return bad("expected 0/1");
      repro.config.caps = value != 0;
    } else if (key == "keep") {
      std::size_t index = 0;
      repro.keep.clear();
      while (fields >> index) repro.keep.push_back(index);
      if (!std::is_sorted(repro.keep.begin(), repro.keep.end())) {
        return bad("keep indices must be ascending");
      }
      seen_keep = true;
    } else {
      return bad("unknown key '" + key + "'");
    }
  }
  if (!seen_seed) {
    return make_error("fuzz.bad_repro", "repro is missing the seed line");
  }
  if (!seen_keep) {
    // No keep line: replay the full sequence.
    repro.keep.resize(repro.config.action_count);
    for (std::size_t i = 0; i < repro.keep.size(); ++i) repro.keep[i] = i;
  }
  return repro;
}

ScenarioResult replay(const Repro& repro) {
  return run_scenario_subset(repro.seed, repro.config, repro.keep);
}

}  // namespace drt::testing
