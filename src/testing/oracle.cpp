#include "testing/oracle.hpp"

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

namespace drt::testing {
namespace {

/// Sums of two-decimal cpuusage values accumulate binary error; anything
/// past this epsilon is a real budget breach, not rounding.
constexpr double kUtilizationEpsilon = 1e-9;

}  // namespace

InvariantOracle::InvariantOracle(const drcom::Drcr& drcr,
                                 const rtos::FaultPlan& faults,
                                 double cpu_budget)
    : drcr_(&drcr), faults_(&faults), budget_(cpu_budget) {}

std::optional<Violation> InvariantOracle::check() {
  // Invariant 10 runs first: an overload introduced by an unsafe mode
  // transition must be reported as a protocol violation, not re-discovered
  // as a generic budget breach by invariant 1.
  if (auto v = check_mode_change()) return v;
  if (auto v = check_utilization()) return v;
  if (auto v = check_task_liveness()) return v;
  if (auto v = check_port_liveness()) return v;
  if (auto v = check_scheduler()) return v;
  if (auto v = check_mailboxes()) return v;
  if (auto v = check_trace()) return v;
  if (auto v = check_metrics()) return v;
  if (auto v = check_contract_cache()) return v;
  if (auto v = check_contract_consistency()) return v;
  if (auto v = check_capabilities()) return v;
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_mode_change() {
  const drcom::ModeChangeController* controller =
      drcr_->mode_controller_if_any();
  if (controller == nullptr) return std::nullopt;
  const auto is_edf = [](const drcom::ComponentDescriptor& d) {
    return d.periodic.has_value() &&
           d.periodic->sched == rtos::SchedClass::kDeadline;
  };
  bool any_committed = false;
  SimTime window_end = 0;
  std::string window_mode;
  for (const drcom::ModeTransition& t : controller->history()) {
    if (!t.committed) continue;
    any_committed = true;
    if (t.window_end >= window_end) {
      window_end = t.window_end;
      window_mode = t.to;
    }
  }

  if (any_committed) {
    // (a) The committed mode must still fit the admission budget. The cache
    // carries the mode-scaled budgets (the controller mutates the same
    // descriptors invariant 8 recomputes from, so both sides agree).
    const drcom::SystemView view = drcr_->system_view();
    for (CpuId cpu = 0; cpu < static_cast<CpuId>(view.cpu_count); ++cpu) {
      const double utilization = view.declared_utilization(cpu);
      if (utilization > budget_ + kUtilizationEpsilon) {
        std::ostringstream out;
        out << "cpu " << cpu << " carries declared utilization "
            << utilization << " > budget " << budget_
            << " after the transition to mode '" << controller->current_mode()
            << "' — the transition was not admission-safe";
        return Violation{"mode-change-safety", out.str()};
      }
    }
    // (b) The deadline class shares one EDF feasibility bound per CPU.
    std::map<CpuId, double> edf;
    for (const drcom::ComponentDescriptor* d :
         drcr_->contract_cache().active()) {
      if (is_edf(*d)) edf[d->target_cpu()] += d->cpu_usage;
    }
    for (const auto& [cpu, utilization] : edf) {
      if (utilization > 1.0 + kUtilizationEpsilon) {
        std::ostringstream out;
        out << "cpu " << cpu << " carries deadline-class utilization "
            << utilization << " > 1 after the transition to mode '"
            << controller->current_mode() << "'";
        return Violation{"mode-change-safety", out.str()};
      }
    }
  }

  // (c) No EDF mode component misses inside a committed settling window.
  // Fault injection (demand inflation, wake delay, kill) legitimately
  // causes misses, so the check is gated on a fault-free plan.
  const rtos::RtKernel& kernel = drcr_->kernel();
  const SimTime now = kernel.now();
  for (const std::string& name : drcr_->component_names()) {
    if (drcr_->state_of(name) != drcom::ComponentState::kActive) continue;
    const drcom::ComponentDescriptor* descriptor = drcr_->descriptor_of(name);
    const drcom::HybridComponent* instance = drcr_->instance_of(name);
    if (descriptor == nullptr || instance == nullptr) continue;
    if (!descriptor->has_modes() || !is_edf(*descriptor)) continue;
    const rtos::Task* task = kernel.find_task(instance->task_id());
    if (task == nullptr) continue;  // invariant 2's department
    const std::uint64_t misses = task->stats.deadline_misses;
    auto [it, fresh] =
        mode_misses_.try_emplace(name, std::make_pair(task->id, misses));
    // A new task id (restore, migration) starts a new miss series.
    const bool comparable = !fresh && it->second.first == task->id;
    const std::uint64_t previous = it->second.second;
    it->second = {task->id, misses};
    if (comparable && misses > previous && now <= window_end &&
        faults_->armed_count() == 0) {
      std::ostringstream out;
      out << "EDF component '" << name << "' missed "
          << (misses - previous) << " deadline(s) at t=" << now
          << " inside the settling window (ends " << window_end
          << ") of the transition to mode '" << window_mode << "'";
      return Violation{"mode-change-safety", out.str()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_utilization() const {
  const drcom::SystemView view = drcr_->system_view();
  for (CpuId cpu = 0; cpu < static_cast<CpuId>(view.cpu_count); ++cpu) {
    const double utilization = view.declared_utilization(cpu);
    if (utilization > budget_ + kUtilizationEpsilon) {
      std::ostringstream out;
      out << "cpu " << cpu << " carries declared utilization " << utilization
          << " > budget " << budget_;
      return Violation{"admitted-utilization", out.str()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_task_liveness() const {
  const rtos::RtKernel& kernel = drcr_->kernel();
  for (const std::string& name : drcr_->component_names()) {
    if (drcr_->state_of(name) != drcom::ComponentState::kActive) continue;
    const drcom::HybridComponent* instance = drcr_->instance_of(name);
    if (instance == nullptr) {
      return Violation{"task-liveness",
                       "ACTIVE component '" + name + "' has no instance"};
    }
    const TaskId task_id = instance->task_id();
    const rtos::Task* task = kernel.find_task(task_id);
    if (task == nullptr) {
      return Violation{"task-liveness", "ACTIVE component '" + name +
                                            "' references missing task #" +
                                            std::to_string(task_id)};
    }
    if (task->state == rtos::TaskState::kFinished &&
        !faults_->task_was_killed(task_id)) {
      return Violation{"task-liveness",
                       "ACTIVE component '" + name + "' task #" +
                           std::to_string(task_id) +
                           " is FINISHED (and was not fault-killed)"};
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_port_liveness() const {
  const rtos::RtKernel& kernel = drcr_->kernel();
  for (const std::string& name : drcr_->component_names()) {
    if (drcr_->state_of(name) != drcom::ComponentState::kActive) continue;
    const drcom::ComponentDescriptor* descriptor = drcr_->descriptor_of(name);
    if (descriptor == nullptr) continue;
    for (const drcom::PortSpec& port : descriptor->ports) {
      if (port.direction == drcom::PortDirection::kIn && port.optional) {
        continue;  // may legitimately be absent
      }
      const bool present =
          port.interface == drcom::PortInterface::kShm
              ? kernel.shm_find(port.name) != nullptr
              : kernel.mailbox_find(port.name) != nullptr;
      if (!present) {
        return Violation{
            "port-liveness",
            std::string(drcom::to_string(port.direction)) + " '" + port.name +
                "' of ACTIVE component '" + name +
                "' references a dead kernel object"};
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_scheduler() const {
  const rtos::RtKernel& kernel = drcr_->kernel();
  for (CpuId cpu = 0; cpu < static_cast<CpuId>(kernel.config().cpus); ++cpu) {
    const rtos::Task* running = kernel.running_task(cpu);
    const rtos::Task* ready = kernel.next_ready(cpu);
    if (ready == nullptr) continue;
    if (running == nullptr) {
      return Violation{"scheduler-sanity",
                       "cpu " + std::to_string(cpu) +
                           " idles while task '" + ready->params.name +
                           "' is ready"};
    }
    if (ready->params.priority < running->params.priority) {
      std::ostringstream out;
      out << "cpu " << cpu << ": ready task '" << ready->params.name
          << "' (prio " << ready->params.priority << ") outranks running '"
          << running->params.name << "' (prio " << running->params.priority
          << ")";
      return Violation{"scheduler-sanity", out.str()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_mailboxes() const {
  for (const rtos::Mailbox* mailbox : drcr_->kernel().mailboxes()) {
    const std::uint64_t sent = mailbox->sent_count();
    const std::uint64_t received = mailbox->received_count();
    const std::uint64_t queued = mailbox->size();
    if (sent != received + queued || mailbox->handoff_count() > received) {
      std::ostringstream out;
      out << "mailbox '" << mailbox->name() << "': sent=" << sent
          << " received=" << received << " queued=" << queued
          << " handoff=" << mailbox->handoff_count()
          << " (conservation law sent == received + queued broken)";
      return Violation{"mailbox-conservation", out.str()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_trace() {
  const auto& events = drcr_->kernel().trace().events();
  for (; trace_checked_ < events.size(); ++trace_checked_) {
    const rtos::TraceEvent& event = events[trace_checked_];
    if (event.when < last_trace_time_) {
      std::ostringstream out;
      out << "trace event #" << trace_checked_ << " ("
          << rtos::to_string(event.kind) << " task " << event.task
          << ") at t=" << event.when << " precedes prior event at t="
          << last_trace_time_;
      return Violation{"trace-order", out.str()};
    }
    last_trace_time_ = event.when;
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_metrics() const {
  const rtos::RtKernel& kernel = drcr_->kernel();
  if (!kernel.metrics().enabled()) return std::nullopt;

  // Sum each per-mailbox counter over live mailboxes, then add what deleted
  // mailboxes carried when they went away.
  rtos::RtKernel::RetiredMailboxCounters sums =
      kernel.retired_mailbox_counters();
  for (const rtos::Mailbox* mailbox : kernel.mailboxes()) {
    sums.sent += mailbox->sent_count();
    sums.dropped += mailbox->dropped_count();
    sums.handoff += mailbox->handoff_count();
    sums.received += mailbox->received_count();
    sums.fault_dropped += mailbox->fault_dropped_count();
    sums.fault_duplicated += mailbox->fault_duplicated_count();
  }

  const obs::MetricsSnapshot snapshot = kernel.metrics().snapshot();
  const auto aggregate = [&snapshot](std::string_view name) -> std::uint64_t {
    for (const auto& counter : snapshot.counters) {
      if (counter.name == name) return counter.value;
    }
    return 0;
  };

  const std::pair<const char*, std::uint64_t> expectations[] = {
      {"ipc.mailbox_sent", sums.sent},
      {"ipc.mailbox_dropped", sums.dropped},
      {"ipc.mailbox_handoff", sums.handoff},
      {"ipc.mailbox_received", sums.received},
      {"ipc.mailbox_fault_dropped", sums.fault_dropped},
      {"ipc.mailbox_fault_duplicated", sums.fault_duplicated},
  };
  for (const auto& [name, expected] : expectations) {
    const std::uint64_t actual = aggregate(name);
    if (actual != expected) {
      std::ostringstream out;
      out << "registry counter " << name << "=" << actual
          << " but per-mailbox counters sum to " << expected
          << " (both are incremented at the same sites, so they drifted)";
      return Violation{"metrics-consistency", out.str()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_contract_cache() const {
  const drcom::ContractCache& cache = drcr_->contract_cache();

  // Recompute the expected per-CPU aggregates from the component records —
  // the same source of truth the pre-cache DRCR scanned on every query.
  struct Expected {
    std::size_t active = 0;
    std::size_t recurring = 0;
    double declared = 0.0;
    double recurring_utilization = 0.0;
  };
  std::map<CpuId, Expected> expected;
  std::set<const drcom::ComponentDescriptor*> active_descriptors;
  for (const std::string& name : drcr_->component_names()) {
    if (drcr_->state_of(name) != drcom::ComponentState::kActive) continue;
    const drcom::ComponentDescriptor* descriptor = drcr_->descriptor_of(name);
    if (descriptor == nullptr) {
      return Violation{"contract-cache",
                       "ACTIVE component '" + name + "' has no descriptor"};
    }
    active_descriptors.insert(descriptor);
    Expected& slot = expected[descriptor->target_cpu()];
    ++slot.active;
    slot.declared += descriptor->cpu_usage;
    if (descriptor->type == rtos::TaskType::kPeriodic ||
        descriptor->type == rtos::TaskType::kSporadic) {
      ++slot.recurring;
      slot.recurring_utilization += descriptor->cpu_usage;
    }
  }

  if (cache.active().size() != active_descriptors.size()) {
    std::ostringstream out;
    out << "cache tracks " << cache.active().size()
        << " active descriptors but " << active_descriptors.size()
        << " components are ACTIVE";
    return Violation{"contract-cache", out.str()};
  }
  for (const drcom::ComponentDescriptor* descriptor : cache.active()) {
    if (active_descriptors.count(descriptor) == 0) {
      return Violation{"contract-cache",
                       "cache lists descriptor '" + descriptor->name +
                           "' that no ACTIVE record owns"};
    }
  }

  // Sweep the union of CPUs the kernel has and CPUs the records pin.
  CpuId max_cpu = static_cast<CpuId>(drcr_->kernel().config().cpus);
  if (!expected.empty()) {
    max_cpu = std::max(max_cpu, expected.rbegin()->first + 1);
  }
  for (CpuId cpu = 0; cpu < max_cpu; ++cpu) {
    const auto it = expected.find(cpu);
    const Expected want = it == expected.end() ? Expected{} : it->second;
    std::ostringstream out;
    if (cache.active_count_on(cpu) != want.active) {
      out << "cpu " << cpu << ": cache active count "
          << cache.active_count_on(cpu) << " != recomputed " << want.active;
    } else if (cache.recurring_count_on(cpu) != want.recurring) {
      out << "cpu " << cpu << ": cache recurring count "
          << cache.recurring_count_on(cpu) << " != recomputed "
          << want.recurring;
    } else if (std::abs(cache.declared_utilization(cpu) - want.declared) >
               kUtilizationEpsilon) {
      out << "cpu " << cpu << ": cache declared utilization "
          << cache.declared_utilization(cpu) << " != recomputed "
          << want.declared;
    } else if (std::abs(cache.recurring_utilization(cpu) -
                        want.recurring_utilization) > kUtilizationEpsilon) {
      out << "cpu " << cpu << ": cache recurring utilization "
          << cache.recurring_utilization(cpu) << " != recomputed "
          << want.recurring_utilization;
    } else {
      continue;
    }
    return Violation{"contract-cache", out.str()};
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_contract_consistency() const {
  // (a) quarantine_component's contract: quarantined => DISABLED, until an
  // explicit enable lifts both.
  std::uint64_t recorded = 0;
  for (const std::string& name : drcr_->component_names()) {
    const auto health = drcr_->component_health(name);
    if (!health.has_value()) continue;
    recorded += health->contract_violations;
    if (health->quarantined &&
        health->state != drcom::ComponentState::kDisabled) {
      return Violation{"contract-consistency",
                       "component '" + name + "' is quarantined but in state " +
                           std::string(drcom::to_string(health->state))};
    }
  }
  recorded += drcr_->retired_contract_violations();

  // (b) counter identity. The drcom.contract_violations series registers
  // lazily at the first monitor attach; when it is absent no monitor ever
  // attached, so no violation can have been recorded.
  if (!drcr_->kernel().metrics().enabled()) return std::nullopt;
  const obs::MetricsSnapshot snapshot = drcr_->kernel().metrics().snapshot();
  bool found = false;
  std::uint64_t counter = 0;
  for (const auto& entry : snapshot.counters) {
    if (entry.name == "drcom.contract_violations") {
      found = true;
      counter = entry.value;
      break;
    }
  }
  if (found && counter != recorded) {
    std::ostringstream out;
    out << "drcom.contract_violations counter=" << counter
        << " but component records sum to " << recorded
        << " (both are driven by note_contract_violation, so they drifted)";
    return Violation{"contract-consistency", out.str()};
  }
  if (!found && recorded != 0) {
    std::ostringstream out;
    out << recorded << " contract violation(s) recorded but the "
        << "drcom.contract_violations series was never registered "
        << "(no monitor ever attached)";
    return Violation{"contract-consistency", out.str()};
  }
  return std::nullopt;
}

std::optional<Violation> InvariantOracle::check_capabilities() const {
  const cap::CapRouter& router = drcr_->cap_router();

  // (a) per-connection conservation and (b) no local bind to a non-ACTIVE
  // provider. (c) accumulates the live sums for the aggregate identity.
  cap::ConnectionCounters sums = router.retired();
  std::optional<Violation> violation;
  router.for_each_connection([&](const cap::Connection& connection) {
    if (violation.has_value()) return;
    const cap::ConnectionCounters& c = connection.counters();
    sums += c;
    if (c.sent != c.accepted + c.rejected + c.revoked) {
      std::ostringstream out;
      out << "connection " << connection.client() << " -> "
          << connection.provider() << "/" << connection.protocol()
          << ": sent=" << c.sent << " != accepted=" << c.accepted
          << " + rejected=" << c.rejected << " + revoked=" << c.revoked;
      violation = Violation{"capability-conservation", out.str()};
      return;
    }
    if (connection.bound() && !connection.remote()) {
      const auto state = drcr_->state_of(connection.provider());
      if (state.has_value() && *state != drcom::ComponentState::kActive) {
        std::ostringstream out;
        out << "connection " << connection.client() << " -> "
            << connection.provider() << "/" << connection.protocol()
            << " is still bound although provider '" << connection.provider()
            << "' is " << drcom::to_string(*state)
            << " — a revocation was skipped (frames would feed a dead inbox)";
        violation = Violation{"capability-revocation", out.str()};
      }
    }
  });
  if (violation.has_value()) return violation;

  // (c) registry aggregates == Σ live + retired. The cap.* series register
  // lazily with the first route, so an absent series demands a zero total.
  if (!drcr_->kernel().metrics().enabled()) return std::nullopt;
  const obs::MetricsSnapshot snapshot = drcr_->kernel().metrics().snapshot();
  const auto aggregate =
      [&snapshot](std::string_view name) -> std::optional<std::uint64_t> {
    for (const auto& counter : snapshot.counters) {
      if (counter.name == name) return counter.value;
    }
    return std::nullopt;
  };
  const std::pair<const char*, std::uint64_t> expectations[] = {
      {"cap.calls", sums.sent},
      {"cap.accepted", sums.accepted},
      {"cap.rejected", sums.rejected},
      {"cap.revoked_calls", sums.revoked},
  };
  for (const auto& [name, expected] : expectations) {
    const auto actual = aggregate(name);
    if (!actual.has_value()) {
      if (expected != 0) {
        std::ostringstream out;
        out << "connections carry " << expected << " in " << name
            << " traffic but the series was never registered";
        return Violation{"capability-conservation", out.str()};
      }
      continue;
    }
    if (*actual != expected) {
      std::ostringstream out;
      out << "registry counter " << name << "=" << *actual
          << " but connection counters sum to " << expected
          << " (both are incremented at the same sites, so they drifted)";
      return Violation{"capability-conservation", out.str()};
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_federation(const fed::Federation& federation) {
  // (a) per-channel exact accounting.
  std::optional<Violation> violation;
  federation.for_each_channel([&](fed::NodeIndex source, fed::NodeIndex target,
                                  const std::string& mailbox,
                                  const rtos::NodeChannel& channel) {
    if (violation.has_value()) return;
    const rtos::ChannelStats stats = channel.stats();
    std::ostringstream out;
    if (stats.arrived > stats.sent) {
      out << "channel n" << source << "->n" << target << " '" << mailbox
          << "': arrived=" << stats.arrived << " exceeds sent=" << stats.sent;
    } else if (stats.arrived !=
               stats.accepted + stats.rejected + stats.unroutable) {
      out << "channel n" << source << "->n" << target << " '" << mailbox
          << "': arrived=" << stats.arrived << " != accepted="
          << stats.accepted << " + rejected=" << stats.rejected
          << " + unroutable=" << stats.unroutable;
    } else {
      return;
    }
    violation = Violation{"fed-channel-conservation", out.str()};
  });
  if (violation.has_value()) return violation;

  // (b) global conservation: every message sent but not yet arrived is
  // pending on an engine shard. Retired channels drained before
  // destruction, so live channels account for all in-flight traffic.
  const std::uint64_t in_flight = federation.in_flight_total();
  const std::size_t pending = federation.engine().pending_messages();
  if (in_flight != pending) {
    std::ostringstream out;
    out << "channels report " << in_flight
        << " message(s) in flight but the engine holds " << pending
        << " pending cross-shard message(s)";
    return Violation{"fed-message-conservation", out.str()};
  }

  // (c) no dual admission: a component name lives on at most one node.
  std::map<std::string, fed::NodeIndex> owners;
  for (fed::NodeIndex node = 0; node < federation.size(); ++node) {
    for (const std::string& name :
         federation.node(node).drcr->component_names()) {
      const auto [it, inserted] = owners.emplace(name, node);
      if (!inserted) {
        std::ostringstream out;
        out << "component '" << name << "' is registered on node "
            << it->second << " AND node " << node;
        return Violation{"fed-dual-admission", out.str()};
      }
    }
  }
  return std::nullopt;
}

}  // namespace drt::testing
