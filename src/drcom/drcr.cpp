#include "drcom/drcr.hpp"

#include <algorithm>
#include <set>

#include "drcom/monitor.hpp"
#include "osgi/event_admin.hpp"
#include "util/logging.hpp"

namespace drt::drcom {

Drcr::Drcr(osgi::Framework& framework, rtos::RtKernel& kernel,
           DrcrConfig config)
    : framework_(&framework), kernel_(&kernel), config_(config),
      internal_resolver_(
          std::make_unique<UtilizationBudgetResolver>(config.cpu_budget)),
      events_(config.event_ring_capacity),
      contract_cache_(kernel.config().cpus), cap_router_(kernel) {
  // All DRCR series live on the kernel's registry, so one snapshot covers
  // the whole stack. Handles are registered before the initial bundle scan —
  // lifecycle events from pre-existing bundles count too.
  auto& metrics = kernel_->metrics();
  m_.resolution_rounds = metrics.counter(
      "drcom.resolution_rounds", "group resolution passes executed");
  m_.registrations =
      metrics.counter("drcom.registrations", "component contracts registered");
  m_.unregistrations = metrics.counter("drcom.unregistrations",
                                       "component contracts removed");
  m_.activations =
      metrics.counter("drcom.activations", "hybrid instances activated");
  m_.deactivations =
      metrics.counter("drcom.deactivations", "hybrid instances torn down");
  m_.rejections = metrics.counter(
      "drcom.rejections", "admission/functional rejections (distinct reasons)");
  gauge_names_ = {"drcom.active_components", "drcom.events_dropped"};
  metrics.gauge_callback("drcom.active_components",
                         "components currently ACTIVE",
                         [this] { return static_cast<double>(active_count()); });
  metrics.gauge_callback("drcom.events_dropped",
                         "lifecycle events overwritten in the bounded ring",
                         [this] { return static_cast<double>(events_.dropped()); });
  for (CpuId cpu = 0; cpu < kernel_->config().cpus; ++cpu) {
    std::string name = "drcom.admitted_utilization.cpu" + std::to_string(cpu);
    // Reads the cached per-CPU sum directly: snapshotting the gauges no
    // longer builds (and heap-allocates) a full SystemView per CPU.
    metrics.gauge_callback(
        name, "declared utilization admitted on this CPU",
        [this, cpu] { return contract_cache_.declared_utilization(cpu); });
    gauge_names_.push_back(std::move(name));
  }
  // OSGi joins the same registry: service lookups and event dispatches.
  framework_->registry().set_metrics(&metrics);

  bundle_listener_token_ = framework_->add_bundle_listener(
      [this](const osgi::BundleEvent& event) { on_bundle_event(event); });

  // Custom resolving services plug in through the OSGi service model (§1).
  osgi::ServiceTracker::Callbacks callbacks;
  callbacks.on_added = [this](const osgi::ServiceReference&) {
    if (config_.auto_resolve) resolve();
  };
  callbacks.on_removed = [this](const osgi::ServiceReference&) {
    if (config_.auto_resolve) resolve();
  };
  resolver_tracker_ = std::make_unique<osgi::ServiceTracker>(
      framework_->system_context(), kResolvingServiceInterface, std::nullopt,
      std::move(callbacks));
  resolver_tracker_->open();

  if (config_.register_service) {
    auto handle = std::make_shared<DrcrHandle>();
    handle->drcr = this;
    self_registration_ = framework_->system_context().register_service(
        std::string(kDrcrServiceInterface), std::move(handle));
  }

  // Bundles already active before the DRCR came up still contribute.
  for (const osgi::Bundle* bundle : framework_->bundles()) {
    if (bundle->state() == osgi::BundleState::kActive) {
      scan_bundle(*bundle);
    }
  }
  if (config_.auto_resolve) resolve();
}

Drcr::~Drcr() {
  // Closing the tracker fires on_removed callbacks that would otherwise
  // re-enter resolve() against a half-destroyed runtime.
  shutting_down_ = true;
  resolver_tracker_.reset();
  framework_->remove_bundle_listener(bundle_listener_token_);
  if (self_registration_.is_valid()) self_registration_.unregister();
  // Deactivate in reverse activation order.
  std::vector<ComponentRecord*> active;
  for (auto& [_, record] : components_) {
    if (record.state == ComponentState::kActive) active.push_back(&record);
  }
  std::sort(active.begin(), active.end(), [](const auto* a, const auto* b) {
    return a->activation_order > b->activation_order;
  });
  for (ComponentRecord* record : active) {
    deactivate(*record, "DRCR shutdown");
  }
  // The kernel registry outlives this DRCR: detach everything that captured
  // `this` or points back into OSGi state.
  for (const auto& name : gauge_names_) {
    kernel_->metrics().remove_gauge_callback(name);
  }
  framework_->registry().set_metrics(nullptr);
  const auto bus_reference =
      framework_->registry().get_reference(osgi::kEventAdminInterface);
  if (bus_reference.has_value()) {
    auto bus =
        framework_->registry().get_service<osgi::EventAdmin>(*bus_reference);
    if (bus != nullptr) bus->set_metrics(nullptr);
  }
}

// ------------------------------------------------------------ registration

Result<void> Drcr::register_component(ComponentDescriptor descriptor,
                                      BundleId owner) {
  auto valid = validate(descriptor);
  if (!valid.ok()) return valid;
  if (components_.contains(descriptor.name)) {
    return make_error(ErrorCode::kAlreadyExists, "drcom.duplicate_component",
                      "component '" + descriptor.name +
                          "' is already registered (names are global, §2.3)");
  }
  ComponentRecord record;
  record.owner = owner;
  record.descriptor = std::move(descriptor);
  const std::string name = record.descriptor.name;
  ComponentRecord& stored =
      components_.emplace(name, std::move(record)).first->second;
  set_state(stored, stored.descriptor.enabled ? ComponentState::kUnsatisfied
                                              : ComponentState::kDisabled);
  emit(DrcrEventType::kRegistered, name);
  if (config_.auto_resolve) resolve();
  return Result<void>::success();
}

Result<void> Drcr::unregister_component(const std::string& name) {
  const auto found = components_.find(name);
  if (found == components_.end()) {
    return make_error(ErrorCode::kNotFound, "drcom.no_such_component", name);
  }
  if (found->second.state == ComponentState::kActive) {
    deactivate(found->second, "component unregistered");
  }
  // Keep the counter == sum-over-records identity exact across churn.
  retired_violations_ += found->second.contract_violations;
  unsatisfied_.erase(found->first);
  components_.erase(found);
  if (mode_controller_ != nullptr) mode_controller_->forget(name);
  forget_system_member(name);
  emit(DrcrEventType::kUnregistered, name);
  cascade_departures();
  if (config_.auto_resolve) resolve();
  return Result<void>::success();
}

void Drcr::forget_system_member(const std::string& name) {
  for (auto it = systems_.begin(); it != systems_.end();) {
    SystemDescriptor& system = it->second;
    const auto member =
        std::find_if(system.components.begin(), system.components.end(),
                     [&](const ComponentDescriptor& c) {
                       return c.name == name;
                     });
    if (member == system.components.end()) {
      ++it;
      continue;
    }
    system.components.erase(member);
    std::erase_if(system.connections, [&](const ConnectionSpec& link) {
      return link.from_component == name || link.to_component == name;
    });
    if (system.components.empty()) {
      it = systems_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<void> Drcr::enable_component(const std::string& name) {
  const auto found = components_.find(name);
  if (found == components_.end()) {
    return make_error(ErrorCode::kNotFound, "drcom.no_such_component", name);
  }
  if (found->second.state != ComponentState::kDisabled) {
    return Result<void>::success();  // idempotent
  }
  found->second.quarantined = false;  // enable lifts a quarantine
  set_state(found->second, ComponentState::kUnsatisfied);
  emit(DrcrEventType::kEnabled, name);
  if (config_.auto_resolve) resolve();
  return Result<void>::success();
}

Result<void> Drcr::disable_component(const std::string& name) {
  const auto found = components_.find(name);
  if (found == components_.end()) {
    return make_error(ErrorCode::kNotFound, "drcom.no_such_component", name);
  }
  ComponentRecord& record = found->second;
  if (record.state == ComponentState::kDisabled) {
    return Result<void>::success();
  }
  if (record.state == ComponentState::kActive) {
    deactivate(record, "component disabled");
  }
  set_state(record, ComponentState::kDisabled);
  emit(DrcrEventType::kDisabled, name);
  cascade_departures();
  if (config_.auto_resolve) resolve();
  return Result<void>::success();
}

Result<void> Drcr::quarantine_component(const std::string& name) {
  const auto found = components_.find(name);
  if (found == components_.end()) {
    return make_error(ErrorCode::kNotFound, "drcom.no_such_component", name);
  }
  // Flag first: disable_component() is idempotent for already-disabled
  // records, and the invariant quarantined => DISABLED must hold either way.
  found->second.quarantined = true;
  if (test_skip_quarantine_disable_) return Result<void>::success();
  return disable_component(name);
}

Result<void> Drcr::deploy_system(const SystemDescriptor& system,
                                 BundleId owner) {
  auto valid = validate_system(system);
  if (!valid.ok()) return valid;
  if (systems_.contains(system.name)) {
    return make_error(ErrorCode::kAlreadyExists, "drcom.duplicate_system",
                      "system '" + system.name + "' is already deployed");
  }
  // Pre-flight: no member name may clash with an existing component, so the
  // deployment can be all-or-nothing without partial registration.
  for (const auto& component : system.components) {
    if (components_.contains(component.name)) {
      return make_error(ErrorCode::kAlreadyExists, "drcom.duplicate_component",
                        "system member '" + component.name +
                            "' clashes with an existing component");
    }
  }
  // Register all members with resolution deferred to one final pass, so a
  // composition with internal dependencies (or cycles) comes up as a group.
  const bool auto_resolve = config_.auto_resolve;
  config_.auto_resolve = false;
  std::vector<std::string> members;
  for (const auto& component : system.components) {
    auto registered = register_component(component, owner);
    if (!registered.ok()) {
      // Roll back: remove the members registered so far.
      for (const auto& name : members) (void)unregister_component(name);
      config_.auto_resolve = auto_resolve;
      return registered;
    }
    members.push_back(component.name);
  }
  config_.auto_resolve = auto_resolve;
  (void)members;
  systems_.emplace(system.name, system);
  log::Line(log::Level::kInfo, "drcr", kernel_->now())
      << "deployed system '" << system.name << "' ("
      << system.components.size() << " members)";
  if (config_.auto_resolve) resolve();
  return Result<void>::success();
}

Result<void> Drcr::undeploy_system(const std::string& system_name) {
  const auto found = systems_.find(system_name);
  if (found == systems_.end()) {
    return make_error(ErrorCode::kNotFound, "drcom.no_such_system", system_name);
  }
  std::vector<std::string> members;
  for (const auto& component : found->second.components) {
    members.push_back(component.name);
  }
  systems_.erase(found);
  for (const auto& name : members) {
    (void)unregister_component(name);
  }
  log::Line(log::Level::kInfo, "drcr", kernel_->now())
      << "undeployed system '" << system_name << "'";
  return Result<void>::success();
}

std::vector<std::string> Drcr::deployed_systems() const {
  std::vector<std::string> out;
  out.reserve(systems_.size());
  for (const auto& [name, _] : systems_) out.push_back(name);
  return out;
}

std::vector<std::string> Drcr::system_members(
    const std::string& system_name) const {
  const auto found = systems_.find(system_name);
  std::vector<std::string> members;
  if (found != systems_.end()) {
    for (const auto& component : found->second.components) {
      members.push_back(component.name);
    }
  }
  return members;
}

const SystemDescriptor* Drcr::system_of(
    const std::string& system_name) const {
  const auto found = systems_.find(system_name);
  return found == systems_.end() ? nullptr : &found->second;
}

const ComponentDescriptor* Drcr::descriptor_of(
    const std::string& name) const {
  const auto found = components_.find(name);
  return found == components_.end() ? nullptr : &found->second.descriptor;
}

// -------------------------------------------------------------- resolution

void Drcr::resolve() {
  if (resolving_ || shutting_down_) return;  // listeners may call back in
  resolving_ = true;
  cascade_departures();
  while (resolve_round()) {
  }
  apply_revocations();
  resolving_ = false;
}

void Drcr::note_rejection(ComponentRecord& record, ErrorCode code,
                          const std::string& reason) {
  if (record.last_reason != reason) {
    record.last_reason = reason;
    record.last_code = code;
    emit(DrcrEventType::kRejected, record.descriptor.name, reason, code);
  }
}

bool Drcr::resolve_round() {
  m_.resolution_rounds->add();
  // Batch-session brackets around each greedy admission pass: stateful
  // resolvers (memoized RTA) analyse the pass incrementally instead of from
  // scratch per candidate. With incremental_admission off nothing is
  // bracketed and resolvers see cache-less views — the seed behaviour.
  const bool batch = config_.incremental_admission;
  auto batch_begin = [&](const SystemView& view) {
    if (!batch) return;
    each_resolver([&](ResolvingService& r) { r.begin_batch(view); });
  };
  auto batch_admitted = [&](const ComponentDescriptor& descriptor) {
    if (!batch) return;
    each_resolver(
        [&](ResolvingService& r) { r.on_candidate_admitted(descriptor); });
  };
  auto batch_end = [&](bool committed) {
    if (!batch) return;
    each_resolver([&](ResolvingService& r) { r.end_batch(committed); });
  };
  // Members that failed activation mechanics.
  std::set<std::string, std::less<>> excluded;
  for (;;) {
    // 1. Candidates: everything unsatisfied, minus mechanical failures —
    //    read from the name-ordered index, so only pending records are
    //    visited.
    std::vector<ComponentRecord*> candidates;
    work_.candidates_visited += unsatisfied_.size();
    for (const auto& [name, record] : unsatisfied_) {
      if (!excluded.contains(name)) candidates.push_back(record);
    }
    if (candidates.empty()) return false;

    // 2. Functional fixpoint: keep only candidates whose in-ports are
    //    satisfied by active components or other surviving candidates.
    auto shrink_to_functional_closure = [this, &candidates] {
      bool shrunk = true;
      while (shrunk) {
        shrunk = false;
        for (auto it = candidates.begin(); it != candidates.end();) {
          std::string reason;
          if (!functional_satisfied((*it)->descriptor, &reason, &candidates)) {
            note_rejection(**it, ErrorCode::kNotFound, reason);
            it = candidates.erase(it);
            shrunk = true;
          } else {
            ++it;
          }
        }
      }
    };
    shrink_to_functional_closure();

    // 3. Admission, greedy in registration order against the cumulative
    //    view; a rejection can strand dependents, so re-close afterwards.
    for (;;) {
      SystemView view = system_view();
      batch_begin(view);
      std::vector<ComponentRecord*> rejected;
      for (ComponentRecord* record : candidates) {
        if (auto admitted = admission_check(record->descriptor, view);
            admitted.ok()) {
          view.admit_locally(record->descriptor);
          batch_admitted(record->descriptor);
        } else {
          note_rejection(*record, admitted.error().ec,
                         admitted.error().message);
          rejected.push_back(record);
        }
      }
      if (rejected.empty()) break;
      batch_end(false);
      for (ComponentRecord* record : rejected) {
        std::erase(candidates, record);
      }
      shrink_to_functional_closure();
    }
    if (candidates.empty()) {
      batch_end(false);
      return false;
    }

    // 4. Batch activation: instantiate, prepare all (publishing every
    //    out-port), then commit all. Any mechanical failure rolls the whole
    //    batch back and retries without the offender.
    bool failed = false;
    for (ComponentRecord* record : candidates) {
      auto implementation = instantiate(record->descriptor);
      if (!implementation.ok()) {
        note_rejection(*record, implementation.error().ec,
                       implementation.error().message);
        excluded.insert(record->descriptor.name);
        failed = true;
        break;
      }
      record->instance = std::make_unique<HybridComponent>(
          record->descriptor, *kernel_, std::move(implementation).take());
    }
    if (!failed) {
      for (ComponentRecord* record : candidates) {
        if (auto prepared = record->instance->prepare(); !prepared.ok()) {
          note_rejection(*record, prepared.error().ec,
                         prepared.error().message);
          excluded.insert(record->descriptor.name);
          failed = true;
          break;
        }
      }
    }
    if (!failed) {
      for (ComponentRecord* record : candidates) {
        if (auto committed = record->instance->commit(); !committed.ok()) {
          note_rejection(*record, committed.error().ec,
                         committed.error().message);
          excluded.insert(record->descriptor.name);
          failed = true;
          break;
        }
      }
    }
    if (failed) {
      batch_end(false);
      for (ComponentRecord* record : candidates) {
        if (record->instance != nullptr) {
          record->instance->deactivate();
          record->instance.reset();
        }
      }
      continue;  // retry without the offender
    }

    for (ComponentRecord* record : candidates) {
      finalize_activation(*record);
    }
    batch_end(true);
    return true;
  }
}

void Drcr::cascade_departures() {
  // Deactivate every active component that lost an in-port provider; repeat
  // while a pass itself deactivated a provider (a deactivation can strand
  // further dependents). Nothing to do until a provider departs.
  while (cascade_pending_) {
    cascade_pending_ = false;
    ++work_.cascade_passes;
    for (auto& [name, record] : components_) {
      if (record.state != ComponentState::kActive) continue;
      std::string reason;
      if (!functional_satisfied(record.descriptor, &reason)) {
        deactivate(record, "dependency lost: " + reason);
      }
    }
  }
}

void Drcr::apply_revocations() {
  auto view = system_view();
  std::vector<std::string> revoked;
  each_resolver([&](ResolvingService& resolver) {
    auto extra = resolver.revoke(view);
    revoked.insert(revoked.end(), extra.begin(), extra.end());
  });
  for (const auto& name : revoked) {
    const auto found = components_.find(name);
    if (found == components_.end() ||
        found->second.state != ComponentState::kActive) {
      continue;
    }
    deactivate(found->second, "revoked by resolving service");
  }
  if (!revoked.empty()) cascade_departures();
}

bool Drcr::functional_satisfied(
    const ComponentDescriptor& candidate, std::string* reason,
    const std::vector<ComponentRecord*>* group) const {
  ++work_.functional_checks;
  auto provides = [&candidate](const ComponentDescriptor& provider,
                               const PortSpec& inport) {
    if (provider.name == candidate.name) return false;
    for (const PortSpec* outport : provider.outports()) {
      if (outport->compatible_with(inport)) return true;
    }
    return false;
  };
  const PortSpec* trigger = candidate.trigger_inport();
  for (const PortSpec* inport : candidate.inports()) {
    if (inport->optional) continue;  // never gates activation
    if (inport == trigger) continue;  // self-owned sporadic inbox
    bool satisfied = false;
    for (const auto& [other_name, other] : components_) {
      if (other.state == ComponentState::kActive &&
          provides(other.descriptor, *inport)) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied && group != nullptr) {
      for (const ComponentRecord* member : *group) {
        if (provides(member->descriptor, *inport)) {
          satisfied = true;
          break;
        }
      }
    }
    if (!satisfied) {
      if (reason != nullptr) {
        *reason = "inport '" + inport->name + "' has no active provider";
      }
      return false;
    }
  }
  return true;
}

Result<void> Drcr::admission_check(const ComponentDescriptor& candidate,
                                   const SystemView& view) const {
  // Internal resolving service first, then every plugged-in custom service;
  // all must return a positive result (§4.3).
  if (auto internal = internal_resolver_->admit(candidate, view);
      !internal.ok()) {
    return make_error(ErrorCode::kAdmissionRejected, "drcom.admission_rejected",
                      internal_resolver_->name() + ": " +
                          internal.error().message);
  }
  // Empirical second opinion (opt-in): budget/RTA with measured quantiles in
  // place of declared C_i. Only armed when empirical_admission is configured
  // and a ContractMonitor is attached.
  if (empirical_resolver_ != nullptr) {
    if (auto empirical = empirical_resolver_->admit(candidate, view);
        !empirical.ok()) {
      return make_error(ErrorCode::kAdmissionRejected,
                        "drcom.admission_rejected",
                        empirical_resolver_->name() + ": " +
                            empirical.error().message);
    }
  }
  // External resolvers come from the tracker's sorted entry cache — no
  // per-candidate registry round-trip.
  for (const auto& entry : resolver_tracker_->entries()) {
    auto service = std::static_pointer_cast<ResolvingService>(entry.service);
    if (service == nullptr) continue;
    if (auto custom = service->admit(candidate, view); !custom.ok()) {
      return make_error(ErrorCode::kAdmissionRejected, "drcom.admission_rejected",
                        service->name() + ": " + custom.error().message);
    }
  }
  return Result<void>::success();
}

Result<std::unique_ptr<RtComponent>> Drcr::instantiate(
    const ComponentDescriptor& descriptor) const {
  // Directly registered factories win; factories published as services (with
  // a drcom.bincode property) are the fallback.
  if (factories_.contains(descriptor.bincode)) {
    return factories_.create(descriptor.bincode);
  }
  auto filter = osgi::Filter::parse("(drcom.bincode=" + descriptor.bincode +
                                    ")");
  if (filter.ok()) {
    const auto reference = framework_->registry().get_reference(
        kFactoryServiceInterface, &filter.value());
    if (reference.has_value()) {
      auto service =
          framework_->registry().get_service<ComponentFactoryService>(
              *reference);
      if (service != nullptr && service->create) {
        // Same contract as ComponentFactoryRegistry::create: user factory
        // code must not unwind through the resolver.
        std::unique_ptr<RtComponent> instance;
        try {
          instance = service->create();
        } catch (const std::exception& e) {
          return make_error(ErrorCode::kFactoryFailed, "drcom.factory_failed",
                            "factory service for '" + descriptor.bincode +
                                "' threw: " + e.what());
        } catch (...) {
          return make_error(ErrorCode::kFactoryFailed, "drcom.factory_failed",
                            "factory service for '" + descriptor.bincode +
                                "' threw a non-standard exception");
        }
        if (instance != nullptr) {
          return instance;
        }
        return make_error(ErrorCode::kFactoryFailed, "drcom.factory_failed",
                          "factory service for '" + descriptor.bincode +
                              "' returned null");
      }
    }
  }
  return make_error(ErrorCode::kNotFound, "drcom.no_factory",
                    "no implementation registered for bincode '" +
                        descriptor.bincode + "'");
}

void Drcr::finalize_activation(ComponentRecord& record) {
  set_state(record, ComponentState::kActive);
  record.last_reason.clear();
  record.last_code = ErrorCode::kNone;
  record.activation_order = next_activation_order_++;
  contract_cache_.on_activate(record.descriptor);

  // Publish the management interface with the component's properties so the
  // instance is discoverable and tunable through the registry (§2.4).
  record.management = std::make_shared<HybridManagement>(*record.instance);
  osgi::Properties properties = record.descriptor.properties;
  properties.set("component.name", record.descriptor.name);
  properties.set("component.bincode", record.descriptor.bincode);
  properties.set("component.type",
                 std::string(to_string(record.descriptor.type)));
  record.management_registration =
      framework_->system_context().register_service(
          std::string(kManagementInterface), record.management, properties);

  // Attach the exec-time histogram before the ACTIVATED event goes out, so
  // listeners already see the component under observation.
  if (monitor_ != nullptr) monitor_->on_activated(record.descriptor.name);

  bind_capability_routes(record);

  emit(DrcrEventType::kActivated, record.descriptor.name);
}

void Drcr::bind_capability_routes(ComponentRecord& record) {
  const ComponentDescriptor& descriptor = record.descriptor;
  if (descriptor.exposes.empty() && descriptor.uses.empty()) return;

  // Publish every exposed protocol. publish() re-binds the dangling client
  // endpoints other components kept across this provider's downtime, so a
  // consumer's Connection* stays valid through provider churn.
  for (const auto& expose : descriptor.exposes) {
    const cap::ProtocolSpec* spec = descriptor.find_protocol(expose.protocol);
    if (spec == nullptr) continue;  // validate() refuses this descriptor
    auto server = cap_router_.publish(descriptor.name, *spec, expose.queue);
    if (!server.ok()) {
      log::Line(log::Level::kWarn, "drcr", kernel_->now())
          << "capability publish failed for " << descriptor.name << "/"
          << expose.protocol << ": " << server.error().to_string();
      continue;
    }
    record.instance->bind_cap_server(expose.protocol, server.value());
  }

  // Bind every declared use. A use never gates activation: while the
  // provider is away the endpoint exists unbound and refuses calls with
  // kCapabilityRevoked (conserved in the revoked counter).
  for (const auto& use : descriptor.uses) {
    cap::Connection* connection = cap_router_.ensure_connection(
        descriptor.name, use.provider, use.protocol);
    record.instance->bind_capability(use.protocol, use.provider, connection);
  }
}

void Drcr::deactivate(ComponentRecord& record, const std::string& reason) {
  // Detach the exec-time histogram while the instance (and its task) is
  // still alive.
  if (monitor_ != nullptr) monitor_->on_deactivated(record.descriptor.name);
  // Revoke the typed capability routes FIRST: servers this component exposed
  // disappear (their consumers' endpoints flip to revoked, not dangling) and
  // its own client endpoints retire their counters before the instance goes.
  cap_router_.on_component_down(record.descriptor.name);
  if (record.state == ComponentState::kActive) {
    contract_cache_.on_deactivate(record.descriptor);
    // Only an active provider satisfies in-ports, and ports never change
    // after registration: a departure without out-ports strands no one.
    if (std::ranges::any_of(record.descriptor.ports, [](const PortSpec& port) {
          return port.direction == PortDirection::kOut;
        })) {
      cascade_pending_ = true;
    }
  }
  if (record.management_registration.is_valid()) {
    record.management_registration.unregister();
  }
  record.management.reset();
  if (record.instance != nullptr) {
    record.instance->deactivate();
    record.instance.reset();
  }
  set_state(record, ComponentState::kUnsatisfied);
  record.last_reason = reason;
  emit(DrcrEventType::kDeactivated, record.descriptor.name, reason);
}

void Drcr::set_state(ComponentRecord& record, ComponentState state) {
  record.state = state;
  if (state == ComponentState::kUnsatisfied) {
    unsatisfied_.emplace(record.descriptor.name, &record);
  } else {
    unsatisfied_.erase(record.descriptor.name);
  }
}

Result<cap::Connection*> Drcr::connect_capability(const std::string& client,
                                                  const std::string& provider,
                                                  const std::string& protocol) {
  const auto found = components_.find(provider);
  if (found == components_.end()) {
    return make_error(ErrorCode::kNotFound, "cap.no_such_provider",
                      "no component '" + provider + "' registered");
  }
  if (!found->second.descriptor.exposes_protocol(protocol)) {
    return make_error(ErrorCode::kNotFound, "cap.no_such_route",
                      "'" + provider + "' does not expose protocol '" +
                          protocol + "'");
  }
  // The endpoint is created even while the provider is inactive: it starts
  // revoked (calls fail typed with kCapabilityRevoked) and binds the moment
  // the provider activates.
  return cap_router_.ensure_connection(client, provider, protocol);
}

// ---------------------------------------------------------- introspection

std::optional<ComponentState> Drcr::state_of(const std::string& name) const {
  const auto found = components_.find(name);
  if (found == components_.end()) return std::nullopt;
  return found->second.state;
}

std::optional<ComponentHealth> Drcr::component_health(
    const std::string& name) const {
  const auto found = components_.find(name);
  if (found == components_.end()) return std::nullopt;
  const ComponentRecord& record = found->second;
  ComponentHealth health;
  health.name = name;
  health.state = record.state;
  health.last_error = record.last_code;
  health.reason = record.last_reason;
  health.contract_violations = record.contract_violations;
  health.quarantined = record.quarantined;
  if (mode_controller_ != nullptr) {
    health.current_mode = mode_controller_->current_mode();
  }
  // The admitted contract, as the ContractCache holds it: a component
  // registered while a mode is active keeps its base contract until the
  // next transition re-budgets it.
  health.declared_usage = record.descriptor.cpu_usage;
  if (monitor_ != nullptr) {
    health.observed_usage = monitor_->observed_usage(name);
  }
  return health;
}

std::uint64_t Drcr::total_contract_violations() const {
  std::uint64_t total = retired_violations_;
  for (const auto& [_, record] : components_) {
    total += record.contract_violations;
  }
  return total;
}

std::vector<std::string> Drcr::component_names() const {
  std::vector<std::string> out;
  out.reserve(components_.size());
  for (const auto& [name, _] : components_) out.push_back(name);
  return out;
}

std::size_t Drcr::active_count() const {
  return contract_cache_.active().size();
}

HybridComponent* Drcr::instance_of(const std::string& name) const {
  const auto found = components_.find(name);
  return found == components_.end() ? nullptr : found->second.instance.get();
}

SystemView Drcr::system_view() const {
  SystemView view;
  view.kernel = kernel_;
  view.cpu_count = kernel_->config().cpus;
  // Active descriptors in activation order (revocation policies shed the
  // most recent first) — the cache maintains exactly that list, so building
  // a view no longer scans and sorts the component map.
  view.active = contract_cache_.active();
  if (config_.incremental_admission) {
    view.cache = &contract_cache_;
    view.id = next_view_id_++;
  }
  return view;
}

// ----------------------------------------------------------------- monitor

void Drcr::attach_monitor(ContractMonitor* monitor) {
  monitor_ = monitor;
  if (monitor == nullptr) {
    empirical_resolver_.reset();
    return;
  }
  // Lazily registered: a monitor-less stack never creates this series, so
  // its metric exports stay byte-identical to pre-monitoring builds.
  if (m_.contract_violations == nullptr) {
    m_.contract_violations = kernel_->metrics().counter(
        "drcom.contract_violations",
        "stochastic contract violations reported by the monitor");
  }
  if (config_.empirical_admission && empirical_resolver_ == nullptr) {
    empirical_resolver_ =
        std::make_unique<EmpiricalResolver>(*monitor, config_.cpu_budget);
  }
}

void Drcr::note_contract_violation(const std::string& name,
                                   const std::string& detail) {
  const auto found = components_.find(name);
  if (found == components_.end()) return;
  ++found->second.contract_violations;
  emit(DrcrEventType::kContractViolation, name, detail,
       ErrorCode::kContractViolated);
}

void Drcr::set_internal_resolver(std::unique_ptr<ResolvingService> resolver) {
  if (resolver == nullptr) return;
  internal_resolver_ = std::move(resolver);
  if (config_.auto_resolve) resolve();
}

// ----------------------------------------------------------------- bundles

void Drcr::on_bundle_event(const osgi::BundleEvent& event) {
  switch (event.type) {
    case osgi::BundleEventType::kStarted: {
      const osgi::Bundle* bundle = framework_->get_bundle(event.bundle_id);
      if (bundle != nullptr) scan_bundle(*bundle);
      if (config_.auto_resolve) resolve();
      break;
    }
    case osgi::BundleEventType::kStopped:
    case osgi::BundleEventType::kUninstalled:
    case osgi::BundleEventType::kUpdated:
      remove_components_of(event.bundle_id);
      if (config_.auto_resolve) resolve();
      break;
    default:
      break;
  }
}

void Drcr::scan_bundle(const osgi::Bundle& bundle) {
  for (const auto& path : bundle.manifest().component_resources()) {
    const auto content = bundle.resource(path);
    if (!content.has_value()) {
      log::Line(log::Level::kWarn, "drcr", kernel_->now())
          << "bundle " << bundle.symbolic_name()
          << " declares missing descriptor resource " << path;
      continue;
    }
    auto descriptor = parse_descriptor(*content);
    if (!descriptor.ok()) {
      log::Line(log::Level::kError, "drcr", kernel_->now())
          << "bundle " << bundle.symbolic_name() << " descriptor " << path
          << ": " << descriptor.error().to_string();
      continue;
    }
    auto registered =
        register_component(std::move(descriptor).take(), bundle.id());
    if (!registered.ok()) {
      log::Line(log::Level::kError, "drcr", kernel_->now())
          << "bundle " << bundle.symbolic_name() << " descriptor " << path
          << ": " << registered.error().to_string();
    }
  }
}

void Drcr::remove_components_of(BundleId owner) {
  std::vector<std::string> names;
  for (const auto& [name, record] : components_) {
    if (record.owner == owner && owner != 0) names.push_back(name);
  }
  for (const auto& name : names) {
    (void)unregister_component(name);
  }
}

void Drcr::emit(DrcrEventType type, const std::string& component,
                std::string reason, ErrorCode code) {
  DrcrEvent event{kernel_->now(), type, component, std::move(reason), code};
  events_.push(event);
  switch (type) {
    case DrcrEventType::kRegistered:
      m_.registrations->add();
      break;
    case DrcrEventType::kUnregistered:
      m_.unregistrations->add();
      break;
    case DrcrEventType::kActivated:
      m_.activations->add();
      break;
    case DrcrEventType::kDeactivated:
      m_.deactivations->add();
      break;
    case DrcrEventType::kRejected:
      m_.rejections->add();
      break;
    case DrcrEventType::kContractViolation:
      // Null only if a violation is emitted with no monitor ever attached —
      // impossible through note_contract_violation, but stay defensive.
      if (m_.contract_violations != nullptr) m_.contract_violations->add();
      break;
    case DrcrEventType::kEnabled:
    case DrcrEventType::kDisabled:
      break;  // lifecycle toggles are visible through the event ring only
  }
  {
    log::Line line(log::Level::kInfo, "drcr", event.when);
    line << to_string(type) << " " << component;
    if (!event.reason.empty()) line << ": " << event.reason;
  }
  // During shutdown only the log records the teardown: listeners (and the
  // event bus) may already be destroyed or mid-destruction.
  if (shutting_down_) return;
  const auto snapshot = listeners_;
  for (const auto& listener : snapshot) listener(event);

  // Bridge onto the Event Admin bus when one is registered, so any bundle
  // can observe the real-time system through standard OSGi events.
  const auto reference =
      framework_->registry().get_reference(osgi::kEventAdminInterface);
  if (reference.has_value()) {
    auto bus = framework_->registry().get_service<osgi::EventAdmin>(*reference);
    if (bus != nullptr) {
      bus->set_metrics(&kernel_->metrics());
      osgi::Properties properties;
      properties.set("component", component);
      properties.set("reason", event.reason);
      properties.set("timestamp", static_cast<std::int64_t>(event.when));
      bus->post(std::string("drcom/ComponentEvent/") + to_string(type),
                std::move(properties));
    }
  }
}

obs::ObsSnapshot Drcr::observe() const {
  obs::ObsSnapshot snap;
  snap.metrics = kernel_->metrics().snapshot();
  snap.trace = &kernel_->trace();
  snap.now = kernel_->now();
  snap.source = "drcr";
  return snap;
}

}  // namespace drt::drcom
