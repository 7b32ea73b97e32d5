// DRCR — the Declarative Real-time Component Runtime (paper §2.2).
//
// The DRCR owns the whole lifecycle of every declarative real-time component
// in the system. Components are never created or destroyed through their own
// interfaces; only the DRCR activates and deactivates instances, which is
// what keeps its global view of promised real-time contracts complete and
// accurate. It:
//
//   * watches the OSGi framework for bundle starts/stops and parses the
//     DRCom descriptors those bundles carry (DRT-Components manifest header),
//   * resolves functional constraints (in-port/out-port compatibility) and
//     non-functional constraints (admission through the internal resolving
//     service AND every custom resolving service discovered in the OSGi
//     registry),
//   * activates satisfied components (creating the hybrid instance and its
//     RT task) and registers one RtComponentManagement service per instance,
//   * reacts to departures with cascading deactivation of dependents and to
//     arrivals with re-resolution — the §4.3 dynamicity behaviour.
//
// Lifecycle (Figure 1):  DISABLED <-> UNSATISFIED -> ACTIVE -> (departure)
// with every transition driven by the DRCR, never by the component.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cap/channel.hpp"
#include "drcom/contract_cache.hpp"
#include "drcom/descriptor.hpp"
#include "drcom/factory.hpp"
#include "drcom/hybrid.hpp"
#include "drcom/mode_change.hpp"
#include "drcom/resolver.hpp"
#include "drcom/system_descriptor.hpp"
#include "obs/export.hpp"
#include "obs/ring.hpp"
#include "osgi/framework.hpp"
#include "osgi/service_tracker.hpp"
#include "rtos/kernel.hpp"

namespace drt::drcom {

/// Service interface name under which the DRCR itself is discoverable.
inline constexpr const char* kDrcrServiceInterface = "drcom.DRCR";

enum class ComponentState {
  kDisabled,     ///< registered but enabled="false" / disable_component()
  kUnsatisfied,  ///< enabled, but constraints not (currently) satisfiable
  kActive,       ///< hybrid instance running under its real-time contract
};

[[nodiscard]] constexpr const char* to_string(ComponentState state) {
  switch (state) {
    case ComponentState::kDisabled: return "DISABLED";
    case ComponentState::kUnsatisfied: return "UNSATISFIED";
    case ComponentState::kActive: return "ACTIVE";
  }
  return "?";
}

enum class DrcrEventType {
  kRegistered,
  kUnregistered,
  kActivated,
  kDeactivated,
  kRejected,  ///< admission or functional resolution failed this round
  kEnabled,
  kDisabled,
  /// The ContractMonitor found the observed execution-time quantile above
  /// the declared budget (appended at the enum tail so persisted event
  /// streams keep their meaning).
  kContractViolation,
};

[[nodiscard]] constexpr const char* to_string(DrcrEventType type) {
  switch (type) {
    case DrcrEventType::kRegistered: return "REGISTERED";
    case DrcrEventType::kUnregistered: return "UNREGISTERED";
    case DrcrEventType::kActivated: return "ACTIVATED";
    case DrcrEventType::kDeactivated: return "DEACTIVATED";
    case DrcrEventType::kRejected: return "REJECTED";
    case DrcrEventType::kEnabled: return "ENABLED";
    case DrcrEventType::kDisabled: return "DISABLED";
    case DrcrEventType::kContractViolation: return "CONTRACT_VIOLATION";
  }
  return "?";
}

struct DrcrEvent {
  SimTime when = 0;
  DrcrEventType type = DrcrEventType::kRegistered;
  std::string component;
  std::string reason;
  /// Typed category for kRejected/kDeactivated events, so listeners branch
  /// on it instead of string-matching `reason`.
  ErrorCode code = ErrorCode::kNone;
};

using DrcrListener = std::function<void(const DrcrEvent&)>;

class ContractMonitor;

/// One-call per-component inspection surface: everything the scattered
/// state/reason/usage getters exposed, in a single typed snapshot. Returned
/// by Drcr::component_health().
struct ComponentHealth {
  std::string name;
  ComponentState state = ComponentState::kUnsatisfied;
  /// Typed category of `reason`: why the component is not active (kNone when
  /// it is), or kContractViolated context from the monitor.
  ErrorCode last_error = ErrorCode::kNone;
  std::string reason;
  /// The descriptor's current cpuusage contract (mode changes re-budget it).
  double declared_usage = 0.0;
  /// Measured per-period CPU fraction from the attached ContractMonitor
  /// (observed quantile / period); -1 when no monitor is attached, the
  /// component is not being watched, or the confidence window is not met.
  double observed_usage = -1.0;
  /// drcom.contract_violation events reported against this component.
  std::uint64_t contract_violations = 0;
  /// True while the component is disabled by quarantine_component() — the
  /// escalation ladder's terminal action; cleared by enable_component().
  bool quarantined = false;
  /// The system's current QoS mode ("" = base mode or no controller).
  std::string current_mode;
};

struct DrcrConfig {
  /// Budget of the built-in internal resolving service (declared utilization
  /// per CPU). Replaceable via set_internal_resolver().
  double cpu_budget = 0.9;
  /// Re-resolve automatically on every registration/bundle/resolver change.
  bool auto_resolve = true;
  /// Publish the DRCR handle in the service registry.
  bool register_service = true;
  /// Retained window of lifecycle events (rounded up to a power of two).
  /// Older events are overwritten; add_listener() is the lossless path.
  std::size_t event_ring_capacity = 1024;
  /// Hand resolvers ContractCache-backed views (O(1) aggregates) and bracket
  /// admission passes with the batch-session hooks, enabling memoized RTA.
  /// Off = cache-less views and per-candidate from-scratch analysis — the
  /// seed behaviour, kept as an in-binary reference; decisions are identical
  /// either way.
  bool incremental_admission = true;
  /// Opt-in second opinion at admission: when a ContractMonitor is attached,
  /// an EmpiricalResolver re-runs the budget/RTA tests with measured
  /// execution-time quantiles in place of the declared C_i (falling back to
  /// declared where the confidence window is unmet). Off (the default) keeps
  /// admission decisions byte-identical to the seed.
  bool empirical_admission = false;
};

class Drcr {
 public:
  /// Attaches to the framework (bundle listener + resolver tracker) and
  /// scans bundles that are already active.
  Drcr(osgi::Framework& framework, rtos::RtKernel& kernel,
       DrcrConfig config = {});
  ~Drcr();
  Drcr(const Drcr&) = delete;
  Drcr& operator=(const Drcr&) = delete;

  // ------------------------------------------------------ registration ----
  /// Registers a descriptor directly (tests, programmatic deployment). The
  /// normal path is automatic via bundle descriptors.
  Result<void> register_component(ComponentDescriptor descriptor,
                                  BundleId owner = 0);
  Result<void> unregister_component(const std::string& name);

  /// The paper's enableRTComponent / disable counterpart. enable also lifts
  /// a quarantine.
  Result<void> enable_component(const std::string& name);
  Result<void> disable_component(const std::string& name);
  /// Disables the component AND marks it quarantined — the escalation
  /// ladder's terminal reaction to repeated contract violations. The flag is
  /// introspectable via component_health() and cleared by enable_component()
  /// (oracle invariant 11 checks quarantined => DISABLED).
  Result<void> quarantine_component(const std::string& name);
  /// Fuzzer self-test hook: when set, quarantine_component() flags the
  /// record but skips the disable — deliberately breaking the
  /// quarantined => DISABLED half of oracle invariant 11 so drt_fuzz
  /// --planted-monitor-bug can prove the oracle catches it. Nothing outside
  /// the fuzzer sets this.
  void set_test_skip_quarantine_disable(bool skip) {
    test_skip_quarantine_disable_ = skip;
  }

  /// Deploys a validated <drt:system> composition atomically: either every
  /// member registers (followed by one resolution pass) or none does.
  /// Member ownership is tracked so undeploy_system() removes exactly them.
  Result<void> deploy_system(const SystemDescriptor& system,
                             BundleId owner = 0);
  Result<void> undeploy_system(const std::string& system_name);
  [[nodiscard]] std::vector<std::string> deployed_systems() const;
  [[nodiscard]] std::vector<std::string> system_members(
      const std::string& system_name) const;

  /// Runs resolution rounds until no further component can be activated,
  /// then applies resolver revocations. Called automatically when
  /// auto_resolve is on.
  void resolve();

  /// Deterministic reconfiguration work: departure-cascade passes run,
  /// functional_satisfied evaluations, and the records candidate collection
  /// visited (only UNSATISFIED ones). Plain counters, kept out of the
  /// metrics registry so exports stay byte-identical.
  struct WorkCounts {
    std::uint64_t cascade_passes = 0;
    std::uint64_t functional_checks = 0;
    std::uint64_t candidates_visited = 0;
  };
  [[nodiscard]] const WorkCounts& work() const { return work_; }

  // ------------------------------------------------------ introspection ---
  [[nodiscard]] std::optional<ComponentState> state_of(
      const std::string& name) const;
  /// The registered contract (nullptr when unknown).
  [[nodiscard]] const ComponentDescriptor* descriptor_of(
      const std::string& name) const;
  /// The composition a deployed system was created from (nullptr when
  /// unknown). Used by snapshots.
  [[nodiscard]] const SystemDescriptor* system_of(
      const std::string& system_name) const;
  /// One typed snapshot of a component's state, error, declared vs observed
  /// usage, violation count, quarantine flag and the current mode
  /// (std::nullopt for unknown names).
  [[nodiscard]] std::optional<ComponentHealth> component_health(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::string> component_names() const;
  /// O(1): the ContractCache holds exactly the ACTIVE descriptors.
  [[nodiscard]] std::size_t active_count() const;
  /// The live hybrid instance (nullptr unless ACTIVE). Non-const: callers
  /// legitimately send management commands through it.
  [[nodiscard]] HybridComponent* instance_of(const std::string& name) const;
  [[nodiscard]] SystemView system_view() const;
  /// Incrementally maintained aggregates over the active set (the data
  /// behind system_view()'s O(1) accessors and the admitted-utilization
  /// gauges). Exposed for invariant checking and benchmarks.
  [[nodiscard]] const ContractCache& contract_cache() const {
    return contract_cache_;
  }
  /// O(cpus) admission summary for federation coordinators: cached
  /// utilization sums + generation counters, never a descriptor rescan.
  [[nodiscard]] ContractSummary contract_summary() const {
    return contract_cache_.summary();
  }

  /// The mode-change controller (docs/MODES.md), created on first use — a
  /// stack that never transitions modes never registers its metrics, so
  /// existing observability exports are untouched.
  [[nodiscard]] ModeChangeController& mode_controller() {
    if (mode_controller_ == nullptr) {
      mode_controller_.reset(new ModeChangeController(*this));
    }
    return *mode_controller_;
  }
  /// Introspection without forcing creation (oracle, snapshots).
  [[nodiscard]] const ModeChangeController* mode_controller_if_any() const {
    return mode_controller_.get();
  }

  /// The typed capability router (docs/CHANNELS.md): bind-once proxy/stub
  /// routes between components with declared protocols. Routes are bound at
  /// activation and revoked at deactivation; a protocol-less stack never
  /// touches it (its lazy cap.* metrics stay unregistered).
  [[nodiscard]] cap::CapRouter& cap_router() { return cap_router_; }
  [[nodiscard]] const cap::CapRouter& cap_router() const {
    return cap_router_;
  }
  /// External (non-component) client endpoint against an exposed protocol of
  /// `provider`. The endpoint outlives provider churn: it is revoked while
  /// the provider is away and re-bound when it activates again.
  Result<cap::Connection*> connect_capability(const std::string& client,
                                              const std::string& provider,
                                              const std::string& protocol);

  /// The attached ContractMonitor (nullptr when none): observed usage,
  /// sample counts, quantiles.
  [[nodiscard]] const ContractMonitor* contract_monitor() const {
    return monitor_;
  }
  /// Sum of contract violations over every record, including components
  /// already unregistered — always equals the drcom.contract_violations
  /// counter (oracle invariant 11).
  [[nodiscard]] std::uint64_t total_contract_violations() const;
  /// Violations carried over from unregistered components.
  [[nodiscard]] std::uint64_t retired_contract_violations() const {
    return retired_violations_;
  }

  // Lifecycle event access is a view over a bounded ring: the DRCR no longer
  // keeps an unbounded history. recent_events() returns the retained window
  // (oldest first); event_ring() exposes total_pushed()/dropped() so callers
  // can detect loss; add_listener() remains the lossless delivery path.
  [[nodiscard]] std::vector<DrcrEvent> recent_events() const {
    return events_.snapshot();
  }
  [[nodiscard]] const obs::EventRing<DrcrEvent>& event_ring() const {
    return events_;
  }
  /// Drops the retained window; event_ring().total_pushed() keeps counting.
  void clear_recent_events() { events_.clear(); }

  void add_listener(DrcrListener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// One-call observability snapshot: the shared kernel metrics registry
  /// (kernel + IPC + DRCR + OSGi series) plus the kernel trace, ready to
  /// feed any obs::Exporter.
  [[nodiscard]] obs::ObsSnapshot observe() const;

  // ------------------------------------------------------------ plumbing --
  [[nodiscard]] ComponentFactoryRegistry& factories() { return factories_; }
  [[nodiscard]] rtos::RtKernel& kernel() { return *kernel_; }
  [[nodiscard]] const rtos::RtKernel& kernel() const { return *kernel_; }
  [[nodiscard]] osgi::Framework& framework() { return *framework_; }

  /// Replaces the internal resolving service (default:
  /// UtilizationBudgetResolver with config.cpu_budget).
  void set_internal_resolver(std::unique_ptr<ResolvingService> resolver);
  [[nodiscard]] ResolvingService& internal_resolver() {
    return *internal_resolver_;
  }

 private:
  /// The mode-change protocol rebudgets active contracts in place (cache
  /// re-fold + descriptor mutation) and drops/restores optional components;
  /// it is part of the runtime, split into its own translation unit.
  friend class ModeChangeController;
  /// The monitor registers itself via attach_monitor and reports violations
  /// through note_contract_violation.
  friend class ContractMonitor;

  struct ComponentRecord {
    ComponentDescriptor descriptor;
    BundleId owner = 0;
    ComponentState state = ComponentState::kUnsatisfied;
    std::string last_reason;
    ErrorCode last_code = ErrorCode::kNone;
    std::unique_ptr<HybridComponent> instance;
    std::shared_ptr<HybridManagement> management;
    osgi::ServiceRegistration management_registration;
    std::uint64_t activation_order = 0;
    /// drcom.contract_violation events reported against this component.
    std::uint64_t contract_violations = 0;
    /// Set by quarantine_component(), cleared by enable_component().
    bool quarantined = false;
  };

  /// Monitor registration (ContractMonitor ctor/dtor). Attaching the first
  /// monitor lazily registers the drcom.contract_violations counter, so a
  /// monitor-less stack's metric exports stay byte-identical to the seed.
  void attach_monitor(ContractMonitor* monitor);
  /// Records one violation against `name` and emits the typed
  /// drcom.contract_violation event.
  void note_contract_violation(const std::string& name,
                               const std::string& detail);

  void on_bundle_event(const osgi::BundleEvent& event);
  void scan_bundle(const osgi::Bundle& bundle);
  void remove_components_of(BundleId owner);

  /// One resolution pass. Computes the largest activatable GROUP of
  /// unsatisfied components — in-ports may be satisfied by active components
  /// or by other group members, which is what makes feedback cycles
  /// (controller <-> plant) deployable — admits it against the resolving
  /// services, and activates it in two phases (prepare all out-ports, then
  /// commit all tasks). Returns true when at least one component activated.
  bool resolve_round();
  /// Deactivates actives whose in-ports lost their provider, repeatedly —
  /// only while a provider with out-ports has left ACTIVE since the last
  /// pass (cascade_pending_), so port-less churn costs no pass.
  void cascade_departures();
  /// Prunes `name` (and its declared connections) from every stored system
  /// composition; drops a system record that becomes empty. Keeps snapshots
  /// faithful when a system member is unregistered directly.
  void forget_system_member(const std::string& name);
  /// Applies ResolvingService::revoke results.
  void apply_revocations();

  /// `group` (optional) adds the out-ports of not-yet-active candidates to
  /// the provider set.
  [[nodiscard]] bool functional_satisfied(
      const ComponentDescriptor& candidate, std::string* reason,
      const std::vector<ComponentRecord*>* group = nullptr) const;
  [[nodiscard]] Result<void> admission_check(
      const ComponentDescriptor& candidate, const SystemView& view) const;
  /// Registers the management service and emits ACTIVATED for a component
  /// whose hybrid instance just committed.
  void finalize_activation(ComponentRecord& record);
  /// Publishes the record's <expose> servers, binds its <use> client
  /// endpoints, and re-binds any dangling routes other components hold
  /// against this provider. No-op for protocol-less descriptors.
  void bind_capability_routes(ComponentRecord& record);
  void deactivate(ComponentRecord& record, const std::string& reason);
  /// The one writer of ComponentRecord::state; keeps unsatisfied_ in step.
  void set_state(ComponentRecord& record, ComponentState state);
  void note_rejection(ComponentRecord& record, ErrorCode code,
                      const std::string& reason);
  [[nodiscard]] Result<std::unique_ptr<RtComponent>> instantiate(
      const ComponentDescriptor& descriptor) const;

  void emit(DrcrEventType type, const std::string& component,
            std::string reason = {}, ErrorCode code = ErrorCode::kNone);

  /// Visits the internal resolver, the empirical second opinion when armed,
  /// then every tracked external resolver in best-first order — service
  /// objects come from the tracker's entry cache, not a per-call registry
  /// lookup.
  template <typename Fn>
  void each_resolver(Fn&& fn) const {
    fn(*internal_resolver_);
    if (empirical_resolver_ != nullptr) fn(*empirical_resolver_);
    for (const auto& entry : resolver_tracker_->entries()) {
      auto service = std::static_pointer_cast<ResolvingService>(entry.service);
      if (service != nullptr) fn(*service);
    }
  }

  osgi::Framework* framework_;
  rtos::RtKernel* kernel_;
  DrcrConfig config_;
  ComponentFactoryRegistry factories_;
  std::unique_ptr<ResolvingService> internal_resolver_;
  std::map<std::string, ComponentRecord> components_;
  /// The UNSATISFIED records in name order — resolve_round's candidates.
  /// Keys view the records' own names, which live in the components_ nodes;
  /// unregister_component erases the entry before the record.
  std::map<std::string_view, ComponentRecord*> unsatisfied_;
  std::map<std::string, SystemDescriptor> systems_;  ///< deployed compositions
  obs::EventRing<DrcrEvent> events_;
  ContractCache contract_cache_;
  /// Typed capability routes (bind at activation / revoke at deactivation).
  cap::CapRouter cap_router_;
  /// Stamps each DRCR-built SystemView so batch-capable resolvers can match
  /// admit() calls to the pass they belong to.
  mutable std::uint64_t next_view_id_ = 1;
  std::vector<DrcrListener> listeners_;
  /// Pre-registered handles into the kernel's metrics registry.
  struct DrcrMetrics {
    obs::Counter* resolution_rounds = nullptr;
    obs::Counter* registrations = nullptr;
    obs::Counter* unregistrations = nullptr;
    obs::Counter* activations = nullptr;
    obs::Counter* deactivations = nullptr;
    obs::Counter* rejections = nullptr;
    /// Registered lazily by attach_monitor (null until a monitor attaches).
    obs::Counter* contract_violations = nullptr;
  } m_;
  /// Callback-gauge names registered on the kernel registry; removed in the
  /// destructor (the registry outlives this DRCR).
  std::vector<std::string> gauge_names_;
  std::unique_ptr<osgi::ServiceTracker> resolver_tracker_;
  osgi::ListenerToken bundle_listener_token_ = 0;
  osgi::ServiceRegistration self_registration_;
  std::uint64_t next_activation_order_ = 1;
  std::unique_ptr<ModeChangeController> mode_controller_;  ///< lazy
  /// Attached ContractMonitor (at most one; null = no monitoring).
  ContractMonitor* monitor_ = nullptr;
  /// Created when empirical_admission is configured and a monitor attaches;
  /// consulted after the internal and external resolvers.
  std::unique_ptr<ResolvingService> empirical_resolver_;
  /// Contract violations of components since unregistered (keeps the
  /// counter == sum-over-records identity exact across churn).
  std::uint64_t retired_violations_ = 0;
  /// drt_fuzz --planted-monitor-bug only (see set_test_skip_quarantine_disable).
  bool test_skip_quarantine_disable_ = false;
  /// Set by deactivate() when an out-port provider leaves ACTIVE; cleared
  /// by each cascade pass.
  bool cascade_pending_ = false;
  mutable WorkCounts work_;
  bool resolving_ = false;      ///< re-entrancy guard for resolve()
  bool shutting_down_ = false;  ///< destructor in progress: no more resolution
};

/// Handle object published under kDrcrServiceInterface so other bundles can
/// discover the runtime through the registry.
struct DrcrHandle {
  Drcr* drcr = nullptr;
};

}  // namespace drt::drcom
