// Adaptation manager: the general-purpose observer the paper sketches in
// §2.4 — "General or application specific adaptation managers can monitor
// the tasks status and adjust the parameter or even change the application
// structure according to current available resources and system
// requirements."
//
// The manager runs entirely in the non-real-time domain: it polls every
// RtComponentManagement service the DRCR publishes (discovered through a
// ServiceTracker, so arriving/departing components are picked up
// automatically), evaluates declarative QoS rules against the status
// snapshots, and invokes an action when a rule trips. Built-in actions cover
// the common reactions (suspend the component, disable it through the DRCR,
// call a user hook); anything fancier plugs in as a callback.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "drcom/drcr.hpp"
#include "drcom/management.hpp"
#include "osgi/service_tracker.hpp"
#include "rtos/sim_engine.hpp"

namespace drt::drcom {

/// One declarative QoS rule evaluated per poll against a component's status.
struct QosRule {
  /// Which components the rule covers: exact name, or empty = all.
  std::string component;
  /// Trips when deadline misses grew by more than this since the last poll.
  std::optional<std::uint64_t> max_new_misses;
  /// Trips when the mean release latency (ns) exceeds this bound.
  std::optional<double> max_avg_latency_ns;
  /// Trips when the worst release latency (ns) exceeds this bound.
  std::optional<double> max_latency_ns;
  /// Trips when fewer than this many new activations arrived since the last
  /// poll (liveness floor; 0 disables).
  std::uint64_t min_new_activations = 0;
  /// Trips (once per component) when the real-time body terminated with an
  /// escaped exception.
  bool detect_failure = false;
};

enum class QosActionKind {
  kNotify,      ///< only invoke the violation callback
  kSuspend,     ///< soft-suspend the component via its management service
  kDisable,     ///< disable the component through the DRCR (contract-violation
                ///< trigger: quarantine_component — disable + flag)
  kRestart,     ///< disable + re-enable: a fresh instance (watchdog semantics)
  kModeChange,  ///< transition the system to config.degraded_mode
};

/// What tripped: a declarative QosRule over polled status snapshots, or a
/// drcom.contract_violation reported by the ContractMonitor.
enum class AdaptationTrigger {
  kQosRule,
  kContractViolation,
};

[[nodiscard]] constexpr const char* to_string(AdaptationTrigger trigger) {
  return trigger == AdaptationTrigger::kQosRule ? "qos-rule"
                                                : "contract-violation";
}

/// One step of the escalation ladder. Per component the manager keeps a
/// cumulative trip count per trigger; when a trigger fires with `trips`
/// accumulated, the LAST declared step with a matching trigger and
/// threshold <= trips acts. Ordering steps by rising threshold therefore
/// reads as an escalation: e.g. {notify@1, mode-change@3, disable@6}.
struct AdaptationPolicy {
  AdaptationTrigger trigger = AdaptationTrigger::kQosRule;
  QosActionKind action = QosActionKind::kNotify;
  /// Minimum cumulative trips (per component, per trigger) for this step.
  std::uint64_t threshold = 1;
};

struct QosViolation {
  SimTime when = 0;
  std::string component;
  std::string rule_description;
  ComponentStatus status;
};

using QosViolationHandler = std::function<void(const QosViolation&)>;

struct AdaptationConfig {
  SimDuration poll_period = milliseconds(100);
  /// kModeChange only: the QoS mode entered when a rule trips (the overload
  /// reaction — shrink budgets, shed optional components; docs/MODES.md).
  std::string degraded_mode = "degraded";
  /// kModeChange only: the mode restored after `recovery_polls` consecutive
  /// violation-free evaluation passes ("" = the base mode). 0 disables
  /// automatic recovery.
  std::string recovery_mode;
  std::size_t recovery_polls = 0;
  /// Ordered typed escalation ladder. The default notifies on every QoS-rule
  /// trip and takes no other action.
  std::vector<AdaptationPolicy> policies = {
      {AdaptationTrigger::kQosRule, QosActionKind::kNotify, 1}};
};

/// Periodic, registry-driven QoS monitor. Construct, add rules, start().
class AdaptationManager {
 public:
  AdaptationManager(Drcr& drcr, AdaptationConfig config = {});
  ~AdaptationManager();
  AdaptationManager(const AdaptationManager&) = delete;
  AdaptationManager& operator=(const AdaptationManager&) = delete;

  void add_rule(QosRule rule) { rules_.push_back(std::move(rule)); }
  void set_violation_handler(QosViolationHandler handler) {
    handler_ = std::move(handler);
  }

  /// Begins polling on the kernel's virtual clock (idempotent).
  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }

  [[nodiscard]] const std::vector<QosViolation>& violations() const {
    return violations_;
  }
  void clear_violations() { violations_.clear(); }

  /// Runs one evaluation pass immediately (also used by the poll timer).
  void evaluate_now();

  /// Internal: one timer tick (evaluate + re-arm). Public only for the
  /// self-rearming functor; not part of the API.
  void on_poll_tick();

  /// Cumulative trips recorded for (component, trigger) — the escalation
  /// ladder's input.
  [[nodiscard]] std::uint64_t trips_of(const std::string& component,
                                       AdaptationTrigger trigger) const;

 private:
  struct Baseline {
    std::uint64_t misses = 0;
    std::uint64_t activations = 0;
    bool seen = false;
    bool failure_reported = false;
  };

  void act_on(const QosViolation& violation, AdaptationTrigger trigger,
              std::uint64_t trips);

  Drcr* drcr_;
  AdaptationConfig config_;
  std::vector<QosRule> rules_;
  QosViolationHandler handler_;
  std::unique_ptr<osgi::ServiceTracker> tracker_;
  std::map<std::string, Baseline> baselines_;
  std::vector<QosViolation> violations_;
  /// Cumulative QoS-rule trips per component (never reset — escalation
  /// outlives restarts).
  std::map<std::string, std::uint64_t> qos_trips_;
  /// Last consumed Drcr contract-violation count per component (baseline for
  /// detecting new violations between polls).
  std::map<std::string, std::uint64_t> contract_seen_;
  rtos::EventId poll_event_ = 0;
  /// Consecutive violation-free passes (kModeChange recovery hysteresis).
  std::size_t clean_polls_ = 0;
  bool running_ = false;
};

}  // namespace drt::drcom
