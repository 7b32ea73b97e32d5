#include "drcom/mode_change.hpp"

#include <algorithm>
#include <sstream>

#include "drcom/drcr.hpp"
#include "util/logging.hpp"

namespace drt::drcom {
namespace {

/// The pre-check must be at least as strict as the oracle's utilization
/// sweep (epsilon 1e-9): a projection admitted at this tolerance re-folds to
/// a cache sum within ~1e-15 of it, far inside the oracle's allowance.
constexpr double kProjectionEpsilon = 1e-12;

}  // namespace

ModeChangeController::ModeChangeController(Drcr& drcr) : drcr_(&drcr) {
  auto& metrics = drcr.kernel().metrics();
  m_transitions_ = metrics.counter("drcom.mode_transitions",
                                   "mode transitions committed");
  m_rejections_ = metrics.counter(
      "drcom.mode_rejections",
      "mode transitions rejected by the admission pre-check");
  m_budget_changes_ = metrics.counter(
      "drcom.mode_budget_changes",
      "per-component budget re-folds applied by committed transitions");
  m_drops_ = metrics.counter("drcom.mode_drops",
                             "optional components dropped on mode entry");
  m_restores_ = metrics.counter(
      "drcom.mode_restores", "dropped components restored on re-admission");
  m_window_ns_ = metrics.histogram(
      "drcom.mode_transition_window_ns",
      "settling window length of committed transitions (ns)",
      {1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 1e9});
}

Result<void> ModeChangeController::transition_to(const std::string& target) {
  if (target == mode_) return Result<void>::success();
  const SimTime now = drcr_->kernel_->now();

  // ------------------------------------------------------------- planning
  // The declared budget a mode-declaring component carries in `target`.
  // The descriptor's cpuusage field tracks the CURRENT mode, so the base
  // value comes from the side table once the budget has been mutated.
  auto usage_in = [&](const ComponentDescriptor& descriptor) {
    const ModeSpec* spec = descriptor.find_mode(target);
    return spec != nullptr && spec->cpu_usage >= 0.0
               ? spec->cpu_usage
               : base_usage_of(descriptor.name, descriptor.cpu_usage);
  };

  struct Change {
    Drcr::ComponentRecord* record;
    double usage;
  };
  std::vector<Change> shrinks;
  std::vector<Change> grows;
  std::vector<Change> idle_updates;
  std::vector<Change> restores;
  std::vector<std::string> drops;
  // components_ is a std::map: name order makes the plan deterministic.
  for (auto& [name, record] : drcr_->components_) {
    ComponentDescriptor& descriptor = record.descriptor;
    if (!descriptor.has_modes()) continue;
    const bool available = descriptor.available_in_mode(target);
    const double usage = usage_in(descriptor);
    if (record.state == ComponentState::kActive) {
      // Externally resurrected after a mode drop: active wins.
      dropped_.erase(name);
      if (!available) {
        drops.push_back(name);
      } else if (usage < descriptor.cpu_usage) {
        shrinks.push_back({&record, usage});
      } else if (usage > descriptor.cpu_usage) {
        grows.push_back({&record, usage});
      }
    } else if (dropped_.contains(name) && available) {
      restores.push_back({&record, usage});
    } else if (usage != descriptor.cpu_usage) {
      // Inactive (unsatisfied, user-disabled, or staying dropped): track the
      // mode budget so any later admission sees the current mode's contract.
      idle_updates.push_back({&record, usage});
    }
  }

  // ------------------------------------------------- admission pre-check
  if (!skip_admission_check_) {
    const auto is_edf = [](const ComponentDescriptor& d) {
      return d.periodic.has_value() &&
             d.periodic->sched == rtos::SchedClass::kDeadline;
    };
    std::map<CpuId, double> delta;
    for (const std::string& name : drops) {
      const ComponentDescriptor& d = drcr_->components_.at(name).descriptor;
      delta[d.target_cpu()] -= d.cpu_usage;
    }
    for (const auto& c : shrinks) {
      delta[c.record->descriptor.target_cpu()] +=
          c.usage - c.record->descriptor.cpu_usage;
    }
    for (const auto& c : grows) {
      delta[c.record->descriptor.target_cpu()] +=
          c.usage - c.record->descriptor.cpu_usage;
    }
    for (const auto& c : restores) {
      delta[c.record->descriptor.target_cpu()] += c.usage;
    }
    const double budget = drcr_->config_.cpu_budget;
    auto reject = [&](const std::string& reason) {
      ModeTransition t;
      t.when = now;
      t.from = mode_;
      t.to = target;
      t.reason = reason;
      history_.push_back(std::move(t));
      ++rejections_n_;
      m_rejections_->add();
      return make_error(ErrorCode::kAdmissionRejected, "drcom.mode_rejected",
                        reason);
    };
    for (const auto& [cpu, d] : delta) {
      const double projected =
          drcr_->contract_cache_.declared_utilization(cpu) + d;
      if (projected > budget + kProjectionEpsilon) {
        std::ostringstream out;
        out << "mode '" << target << "' rejected: cpu " << cpu
            << " projected declared utilization " << projected << " > budget "
            << budget;
        return reject(out.str());
      }
    }
    // EDF feasibility: the deadline class shares one CPU-wide bound.
    std::set<const ComponentDescriptor*> dropping;
    for (const std::string& name : drops) {
      dropping.insert(&drcr_->components_.at(name).descriptor);
    }
    std::map<CpuId, double> edf;
    for (const ComponentDescriptor* d : drcr_->contract_cache_.active()) {
      if (!is_edf(*d) || dropping.contains(d)) continue;
      edf[d->target_cpu()] += d->has_modes() ? usage_in(*d) : d->cpu_usage;
    }
    for (const auto& c : restores) {
      if (is_edf(c.record->descriptor)) {
        edf[c.record->descriptor.target_cpu()] += c.usage;
      }
    }
    for (const auto& [cpu, utilization] : edf) {
      if (utilization > 1.0 + kProjectionEpsilon) {
        std::ostringstream out;
        out << "mode '" << target << "' rejected: cpu " << cpu
            << " projected EDF utilization " << utilization << " > 1";
        return reject(out.str());
      }
    }
  }

  // ------------------------------------------------------------ commitment
  // Suppress per-step resolution so freed budget cannot be claimed by a
  // pending component before the grow phase lands; one pass at the end.
  const bool auto_resolve = drcr_->config_.auto_resolve;
  drcr_->config_.auto_resolve = false;
  SimDuration window = 0;
  auto widen = [&](const ComponentDescriptor& d) {
    if (d.periodic.has_value()) {
      window = std::max(window, d.periodic->period());
    } else if (d.sporadic.has_value()) {
      window = std::max(window, d.sporadic->min_interarrival);
    }
  };
  auto set_usage = [&](Drcr::ComponentRecord& record, double usage) {
    base_usage_.try_emplace(record.descriptor.name,
                            record.descriptor.cpu_usage);
    record.descriptor.cpu_usage = usage;
  };

  // Shrink-first: drops and decreases free budget before anything claims it,
  // so the instantaneous utilization never exceeds max(before, after).
  for (const std::string& name : drops) {
    Drcr::ComponentRecord& record = drcr_->components_.at(name);
    widen(record.descriptor);
    (void)drcr_->disable_component(name);
    dropped_.insert(name);
    m_drops_->add();
  }
  // A drop can cascade a deactivation into a planned shrink or grow (a
  // dependent of the dropped provider). Records stay in components_, but
  // only a still-ACTIVE one has a ContractCache entry to re-budget; the
  // others just track the mode budget like any inactive component. The
  // cache folds descriptor values at call time, so the still-ACTIVE ones
  // are re-budgeted in one call after their new contracts are set.
  std::vector<const ComponentDescriptor*> rebudgeted;
  for (const std::vector<Change>* phase : {&shrinks, &grows}) {
    for (const auto& c : *phase) {
      set_usage(*c.record, c.usage);
      if (c.record->state != ComponentState::kActive) continue;
      rebudgeted.push_back(&c.record->descriptor);
      widen(c.record->descriptor);
      m_budget_changes_->add();
    }
  }
  drcr_->contract_cache_.on_rebudget(rebudgeted);
  for (const auto& c : idle_updates) set_usage(*c.record, c.usage);
  for (const auto& c : restores) {
    set_usage(*c.record, c.usage);
    dropped_.erase(c.record->descriptor.name);
    (void)drcr_->enable_component(c.record->descriptor.name);
    widen(c.record->descriptor);
    m_restores_->add();
  }
  drcr_->config_.auto_resolve = auto_resolve;
  // The closing pass re-admits pending components into freed budget — and,
  // through resolver revocation, repairs any over-budget state. The
  // buggy-controller hook skips it too: a protocol that neither pre-checks
  // nor re-validates is exactly what invariant 10 exists to catch.
  if (!skip_admission_check_) drcr_->resolve();

  ModeTransition t;
  t.when = now;
  t.from = mode_;
  t.to = target;
  t.committed = true;
  t.window_end = now + window;
  t.budget_changes = rebudgeted.size();
  t.drops = drops.size();
  t.restores = restores.size();
  log::Line(log::Level::kInfo, "modes", now)
      << "mode '" << t.from << "' -> '" << t.to << "': "
      << t.budget_changes << " budget change(s), " << t.drops << " drop(s), "
      << t.restores << " restore(s), settling window " << window << "ns";
  history_.push_back(std::move(t));
  mode_ = target;
  ++transitions_n_;
  m_transitions_->add();
  m_window_ns_->observe(static_cast<double>(window));
  return Result<void>::success();
}

}  // namespace drt::drcom
