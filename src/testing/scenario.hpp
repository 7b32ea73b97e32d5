// Deterministic whole-stack scenario generation for the fuzzer (drt_fuzz).
//
// A scenario is a flat vector of Actions generated up-front from one
// SplitMix64 seed: install/start/stop/uninstall bundles, register and replace
// components with randomized descriptors, deploy systems, exchange mailbox
// traffic, arm kernel-level faults, and advance virtual time. The generator
// keeps its own lightweight model of what exists (component names, systems,
// bundles, port providers) so most actions target live objects — but the
// applier is tolerant, so an action whose target has since vanished is simply
// a logged no-op. Nothing here reads a clock or global RNG: the same seed
// always yields byte-identical actions, which is what makes repro files a
// (seed, kept-indices) pair instead of a serialized action dump.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drcom/descriptor.hpp"
#include "rtos/fault.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace drt::testing {

enum class ActionKind {
  kRegisterComponent,   ///< drcr.register_component(parse(payload))
  kUnregisterComponent,
  kEnableComponent,
  kDisableComponent,
  kDeploySystem,        ///< drcr.deploy_system(parse_system(payload))
  kUndeploySystem,
  kInstallBundle,       ///< framework install + start; descriptors in `extra`
  kStopBundle,
  kUninstallBundle,
  kSendCommand,         ///< management command via instance_of(name)
  kMailboxSend,         ///< raw kernel mailbox_send to mailbox `name`
  kArmFault,            ///< faults.arm(fault)
  kAdvanceTime,         ///< engine.run_until(now + duration)
  kResolve,             ///< explicit drcr.resolve()
  kSnapshotRoundTrip,   ///< restore(snapshot(S)) fixpoint check
  // Federation actions (generated only when config.nodes > 1; appended at
  // the enum tail so single-node repro files keep their meaning).
  kNodeLeave,           ///< federation.leave(node)
  kNodeJoin,            ///< federation.join(node)
  kPartition,           ///< federation.partition(node, peer)
  kHeal,                ///< federation.heal(node, peer)
  kMigrate,             ///< coordinator.migrate(name, node)
  kChannelSend,         ///< channel(node -> peer, mailbox `name`).send
  // Mode-change actions (generated only when config.modes is set; appended
  // at the enum tail so earlier repro files keep their meaning).
  kOverloadStorm,       ///< kernel load -> rtos::overload_storm() plateau
  kFlashCrowd,          ///< kernel load -> rtos::flash_crowd() burst profile
  kForceModeChange,     ///< mode_controller().transition_to(payload)
  kModeChangeMigrate,   ///< federation: migrate(name, node) + transition
  // Monitor action (generated only when config.monitor is set; appended at
  // the enum tail so earlier repro files keep their meaning).
  kMonitorCheck,        ///< ContractMonitor::check_now + adaptation pass
  // Capability actions (generated only when config.caps is set; appended at
  // the enum tail so earlier repro files keep their meaning).
  kCapCall,             ///< typed call burst on a bound/revoked connection
  kCapConnect,          ///< external client bind via connect_capability
  kCapDeployCycle,      ///< deploy a cyclic-offer system; admission = bug
};

[[nodiscard]] const char* to_string(ActionKind kind);

struct Action {
  ActionKind kind = ActionKind::kAdvanceTime;
  std::string name;                 ///< component / system / bundle / mailbox
  std::string payload;              ///< descriptor XML, command, message text
  std::vector<std::string> extra;   ///< bundle member descriptor XMLs
  SimDuration duration = 0;         ///< kAdvanceTime amount
  rtos::FaultSpec fault;            ///< kArmFault spec
  std::size_t node = 0;             ///< federation target / source node
  std::size_t peer = 0;             ///< federation peer node (partition/send)
};

/// One-line human-readable rendering (used in repro files and logs).
[[nodiscard]] std::string describe(const Action& action);

struct ScenarioConfig {
  std::size_t action_count = 40;
  std::size_t cpus = 2;
  double cpu_budget = 0.9;
  /// Upper bound of one kAdvanceTime step (uniform in [1ms, max]).
  SimDuration max_advance = 20'000'000;  // 20 ms
  bool enable_faults = true;
  /// Prefix the scenario with a sequence that trips the deliberately planted
  /// kMiscountMessage accounting bug (fuzzer self-test: the oracle must
  /// catch it and the shrinker must reduce to the planted prefix).
  bool plant_bug = false;
  bool snapshot_checks = true;
  /// Adds the mode-change bands to the mix: overload-storm / flash-crowd
  /// load swings, forced QoS-mode transitions, and (federation mode)
  /// transitions racing a live migration. Some registered components then
  /// declare per-mode contracts and run in the kernel's EDF deadline class.
  /// false keeps every pre-modes seed byte-identical.
  bool modes = false;
  /// Prefix the scenario with a deliberately UNSAFE mode transition: the
  /// world disables the ModeChangeController's admission pre-check and the
  /// prefix forces a transition that overcommits a CPU 4x (fuzzer self-test:
  /// oracle invariant 10 must catch it and the shrinker must reduce it).
  bool plant_mode_bug = false;
  /// Attaches a ContractMonitor + AdaptationManager (contract-violation
  /// escalation ladder: notify, then quarantine) to every DRCR in the world
  /// and adds the monitor-check band to the mix. The existing arm-fault band
  /// already injects kBudgetOverrun demand inflation, so monitor runs see
  /// genuine contract violations escalate to quarantine — oracle invariant
  /// 11 cross-checks the bookkeeping after every action. false keeps every
  /// pre-monitor seed byte-identical.
  bool monitor = false;
  /// Prefix the scenario with a component whose first 8 jobs overrun their
  /// declared budget 5x while the world's Drcr deliberately skips the
  /// disable half of quarantine (fuzzer self-test: oracle invariant 11 must
  /// report contract-consistency and the shrinker must reduce the prefix).
  /// Implies `monitor` (drt_fuzz sets both).
  bool plant_monitor_bug = false;
  /// Adds the typed-capability band to the mix: some registered components
  /// declare/expose the fuzz "ctl" protocol and consumers bind routes to
  /// them; actions then fire typed call bursts (including on revoked
  /// endpoints after a provider disable), bind external clients, and deploy
  /// cyclic-offer systems that MUST be refused with a typed error. Oracle
  /// invariant 12 cross-checks the per-connection conservation ledger after
  /// every action. false keeps every pre-caps seed byte-identical.
  bool caps = false;
  /// > 1 runs the scenario against a fed::Federation of this many nodes
  /// (one engine shard each): registrations flow through the coordinator's
  /// global placement, and membership / partition / migration / channel
  /// actions join the mix. 1 (the default) keeps single-node generation
  /// byte-identical to every pre-federation seed. Snapshot round-trips are
  /// not generated in federation mode.
  std::size_t nodes = 1;
};

/// Generates the full action sequence for `seed`. Pure function of its
/// arguments; called once per run and once per replay.
[[nodiscard]] std::vector<Action> generate_actions(std::uint64_t seed,
                                                   const ScenarioConfig& config);

/// A randomized-but-valid component descriptor (shared with the snapshot
/// property test). Periodic or sporadic, 0-2 pool ports, bincode from the
/// fuzz factory family. `name` must respect the 6-character RT limit.
[[nodiscard]] drcom::ComponentDescriptor random_descriptor(
    Rng& rng, const std::string& name, std::size_t cpus);

}  // namespace drt::testing
