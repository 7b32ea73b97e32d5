#include "drcom/adaptation.hpp"

#include <algorithm>
#include <sstream>

#include "util/logging.hpp"

namespace drt::drcom {

AdaptationManager::AdaptationManager(Drcr& drcr, AdaptationConfig config)
    : drcr_(&drcr), config_(config) {
  tracker_ = std::make_unique<osgi::ServiceTracker>(
      drcr.framework().system_context(), kManagementInterface);
  tracker_->open();
}

AdaptationManager::~AdaptationManager() { stop(); }

namespace {

/// Self-rearming poll tick (a named functor so it can reference itself).
struct PollTick {
  AdaptationManager* manager;
  void operator()() const { manager->on_poll_tick(); }
};

}  // namespace

void AdaptationManager::on_poll_tick() {
  if (!running_) return;
  evaluate_now();
  poll_event_ = drcr_->kernel().engine().schedule_after(config_.poll_period,
                                                        PollTick{this});
}

void AdaptationManager::start() {
  if (running_) return;
  running_ = true;
  on_poll_tick();  // evaluate immediately, then poll on the period
}

void AdaptationManager::stop() {
  if (!running_) return;
  running_ = false;
  drcr_->kernel().engine().cancel(poll_event_);
  poll_event_ = 0;
}

void AdaptationManager::evaluate_now() {
  const std::size_t violations_before = violations_.size();
  for (const auto& reference : tracker_->tracked()) {
    auto management =
        drcr_->framework().registry().get_service<RtComponentManagement>(
            reference);
    if (management == nullptr) continue;
    const ComponentStatus status = management->get_status();
    Baseline& baseline = baselines_[status.component];
    const std::uint64_t new_misses =
        baseline.seen ? status.stats.deadline_misses - baseline.misses
                      : status.stats.deadline_misses;
    const std::uint64_t new_activations =
        baseline.seen ? status.stats.activations - baseline.activations
                      : status.stats.activations;
    const bool first_poll = !baseline.seen;
    baseline.misses = status.stats.deadline_misses;
    baseline.activations = status.stats.activations;
    baseline.seen = true;

    for (const QosRule& rule : rules_) {
      if (!rule.component.empty() && rule.component != status.component) {
        continue;
      }
      std::ostringstream tripped;
      if (rule.max_new_misses.has_value() &&
          new_misses > *rule.max_new_misses) {
        tripped << "misses +" << new_misses << " > "
                << *rule.max_new_misses << "; ";
      }
      if (rule.max_avg_latency_ns.has_value() &&
          status.latency.count > 0 &&
          status.latency.average > *rule.max_avg_latency_ns) {
        tripped << "avg latency " << status.latency.average << " > "
                << *rule.max_avg_latency_ns << "; ";
      }
      if (rule.max_latency_ns.has_value() && status.latency.count > 0 &&
          status.latency.max > *rule.max_latency_ns) {
        tripped << "max latency " << status.latency.max << " > "
                << *rule.max_latency_ns << "; ";
      }
      // The liveness floor only applies once a baseline exists (the first
      // poll may cover a partial interval) and while the component is not
      // deliberately suspended.
      if (rule.min_new_activations > 0 && !first_poll &&
          !status.soft_suspended &&
          new_activations < rule.min_new_activations) {
        tripped << "activations +" << new_activations << " < "
                << rule.min_new_activations << "; ";
      }
      if (rule.detect_failure && status.failed &&
          !baseline.failure_reported) {
        baseline.failure_reported = true;
        tripped << "body failed: " << status.failure << "; ";
      }
      const std::string description = tripped.str();
      if (description.empty()) continue;
      QosViolation violation{drcr_->kernel().now(), status.component,
                             description, status};
      violations_.push_back(violation);
      log::Line(log::Level::kWarn, "adaptation", violation.when)
          << "QoS violation in " << violation.component << ": "
          << description;
      act_on(violation, AdaptationTrigger::kQosRule,
             ++qos_trips_[violation.component]);
    }
  }

  // Contract-violation trigger: consume drcom.contract_violation counts the
  // monitor recorded since the last poll. The cumulative count doubles as
  // the ladder's trip count, so a persistently overrunning component climbs
  // the escalation steps one check pass at a time.
  for (const auto& name : drcr_->component_names()) {
    const auto health = drcr_->component_health(name);
    if (!health.has_value()) continue;
    const std::uint64_t total = health->contract_violations;
    std::uint64_t& seen = contract_seen_[name];
    if (total <= seen) continue;
    const std::uint64_t fresh = total - seen;
    seen = total;
    std::ostringstream description;
    description << "contract violations +" << fresh << " (total " << total
                << ")";
    QosViolation violation;
    violation.when = drcr_->kernel().now();
    violation.component = name;
    violation.rule_description = description.str();
    violation.status.component = name;
    violations_.push_back(violation);
    log::Line(log::Level::kWarn, "adaptation", violation.when)
        << "contract violation in " << name << ": " << description.str();
    act_on(violation, AdaptationTrigger::kContractViolation, total);
  }

  // kModeChange recovery hysteresis: after `recovery_polls` consecutive
  // clean passes in the degraded mode, transition back. Armed whenever the
  // ladder (either trigger) can degrade the mode.
  const bool ladder_degrades = std::any_of(
      config_.policies.begin(), config_.policies.end(), [](const auto& policy) {
        return policy.action == QosActionKind::kModeChange;
      });
  if (violations_.size() > violations_before) {
    clean_polls_ = 0;
  } else if (ladder_degrades && config_.recovery_polls > 0 &&
             drcr_->mode_controller().current_mode() ==
                 config_.degraded_mode &&
             ++clean_polls_ >= config_.recovery_polls) {
    clean_polls_ = 0;
    (void)drcr_->mode_controller().transition_to(config_.recovery_mode);
  }
}

std::uint64_t AdaptationManager::trips_of(const std::string& component,
                                          AdaptationTrigger trigger) const {
  if (trigger == AdaptationTrigger::kQosRule) {
    const auto found = qos_trips_.find(component);
    return found == qos_trips_.end() ? 0 : found->second;
  }
  const auto found = contract_seen_.find(component);
  return found == contract_seen_.end() ? 0 : found->second;
}

void AdaptationManager::act_on(const QosViolation& violation,
                               AdaptationTrigger trigger,
                               std::uint64_t trips) {
  // Of the ladder steps with a matching trigger and threshold <= trips, the
  // LAST declared one acts (rising-threshold order reads as escalation).
  const AdaptationPolicy* selected = nullptr;
  for (const AdaptationPolicy& policy : config_.policies) {
    if (policy.trigger != trigger || trips < policy.threshold) continue;
    selected = &policy;
  }
  const QosActionKind action =
      selected != nullptr ? selected->action : QosActionKind::kNotify;
  switch (action) {
    case QosActionKind::kNotify:
      break;
    case QosActionKind::kSuspend: {
      auto filter = osgi::Filter::parse(
          "(component.name=" + violation.component + ")");
      if (filter.ok()) {
        const auto reference = drcr_->framework().registry().get_reference(
            kManagementInterface, &filter.value());
        if (reference.has_value()) {
          auto management =
              drcr_->framework()
                  .registry()
                  .get_service<RtComponentManagement>(*reference);
          if (management != nullptr) (void)management->suspend();
        }
      }
      break;
    }
    case QosActionKind::kDisable:
      // A broken stochastic contract means the declared budget is a lie —
      // quarantine (disable + flag) instead of a plain disable, so the
      // component does not silently re-enter through a later enable-all.
      if (trigger == AdaptationTrigger::kContractViolation) {
        (void)drcr_->quarantine_component(violation.component);
      } else {
        (void)drcr_->disable_component(violation.component);
      }
      break;
    case QosActionKind::kRestart:
      // Watchdog: tear the instance down and bring a fresh one up. The
      // baseline reset lets the failure/liveness rules re-arm for the new
      // instance.
      (void)drcr_->disable_component(violation.component);
      (void)drcr_->enable_component(violation.component);
      baselines_.erase(violation.component);
      break;
    case QosActionKind::kModeChange:
      // System-wide overload reaction; a no-op when already degraded, and a
      // rejected target leaves the current mode in place.
      (void)drcr_->mode_controller().transition_to(config_.degraded_mode);
      break;
  }
  if (handler_) handler_(violation);
}

}  // namespace drt::drcom
