// Mode-change protocol for the DRCR (ROADMAP item 4, paper §2.4/§6).
//
// Components may declare per-mode QoS contracts in their descriptor
// (<modes><mode name=.../></modes>, see descriptor.hpp): an alternative CPU
// budget per mode and/or optionality (present="false" drops the component in
// that mode). The ModeChangeController moves the whole component set between
// such modes — the classic reaction to an overload storm is a transition to
// a "degraded" mode that shrinks budgets and sheds optional components, then
// a transition back once the spike passes.
//
// Safety contract (the property oracle invariant 10 checks): the system is
// schedulable at EVERY instant of a transition.
//
//   * Every transition is admission-checked BEFORE any state is touched: the
//     projected per-CPU declared utilization (after all budget changes,
//     drops and restores) must stay within the DRCR's budget, and the
//     projected deadline-class (EDF) utilization must stay <= 1 per CPU. A
//     rejected target mode leaves the system exactly as it was.
//   * Application is shrink-first: drops and budget decreases land before
//     budget increases and restores, so the instantaneous utilization never
//     exceeds max(before, after) — both of which the pre-check bounded.
//   * Restores re-enter through the normal resolution path, so every
//     resolving service (RTA, EDF density) re-admits them individually.
//
// The controller is created lazily by Drcr::mode_controller(); a stack that
// never uses modes never pays for it (and never registers its metrics).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace drt::drcom {

class Drcr;

/// One attempted transition, committed or not. `window_end` bounds the
/// settling interval of a committed transition: one longest period of every
/// component the transition touched, after which the old mode's jobs have
/// drained. The oracle checks that no touched deadline-class component
/// misses inside [when, window_end].
struct ModeTransition {
  SimTime when = 0;
  std::string from;
  std::string to;
  bool committed = false;
  std::string reason;      ///< rejection detail when !committed
  SimTime window_end = 0;  ///< when + longest affected period (committed)
  std::size_t budget_changes = 0;
  std::size_t drops = 0;
  std::size_t restores = 0;
};

class ModeChangeController {
 public:
  /// The mode the system is in; "" is the base mode (every component at its
  /// descriptor-declared contract).
  [[nodiscard]] const std::string& current_mode() const { return mode_; }

  /// Moves every mode-declaring component to its `target`-mode contract.
  /// No-op when already there. On rejection nothing changes and the error
  /// carries the projected overload; on success budgets are re-folded into
  /// the ContractCache, optional components are dropped/restored, and one
  /// resolution pass re-admits whatever the freed budget now allows.
  Result<void> transition_to(const std::string& target);

  /// Every attempted transition in order (committed and rejected).
  [[nodiscard]] const std::vector<ModeTransition>& history() const {
    return history_;
  }
  /// Components currently deactivated because the mode marks them absent.
  [[nodiscard]] const std::set<std::string>& dropped_components() const {
    return dropped_;
  }
  /// The base (mode-less) declared budget of a component the controller has
  /// re-budgeted at least once; `fallback` until then.
  [[nodiscard]] double base_usage_of(const std::string& name,
                                     double fallback) const {
    const auto found = base_usage_.find(name);
    return found == base_usage_.end() ? fallback : found->second;
  }

  [[nodiscard]] std::uint64_t transitions() const { return transitions_n_; }
  [[nodiscard]] std::uint64_t rejections() const { return rejections_n_; }

  /// Test hook: commit transitions WITHOUT the admission pre-check,
  /// modelling a buggy controller. Exists only so the fuzzer's planted-bug
  /// self-test can prove invariant 10 catches an unsafe protocol.
  void set_skip_admission_check(bool skip) { skip_admission_check_ = skip; }
  [[nodiscard]] bool skip_admission_check() const {
    return skip_admission_check_;
  }

 private:
  friend class Drcr;  // sole creator (lazy, via Drcr::mode_controller())
  explicit ModeChangeController(Drcr& drcr);
  /// Drops the side-table state of an unregistered component, so a later
  /// registration under the same name starts from its own descriptor.
  void forget(const std::string& name) {
    dropped_.erase(name);
    base_usage_.erase(name);
  }

  Drcr* drcr_;
  std::string mode_;  ///< "" = base mode
  /// Components this controller deactivated (present="false" in the current
  /// mode). Distinct from user-level disable_component: only these are
  /// restored when a later mode re-admits them.
  std::set<std::string> dropped_;
  /// Original descriptor cpuusage, captured the first time a component's
  /// budget is mutated (the descriptor field itself then tracks the current
  /// mode, so the base value must be kept on the side).
  std::map<std::string, double> base_usage_;
  std::vector<ModeTransition> history_;
  std::uint64_t transitions_n_ = 0;
  std::uint64_t rejections_n_ = 0;
  bool skip_admission_check_ = false;

  // Registered on the kernel's metrics registry at (lazy) construction.
  obs::Counter* m_transitions_ = nullptr;
  obs::Counter* m_rejections_ = nullptr;
  obs::Counter* m_budget_changes_ = nullptr;
  obs::Counter* m_drops_ = nullptr;
  obs::Counter* m_restores_ = nullptr;
  obs::Histogram* m_window_ns_ = nullptr;
};

}  // namespace drt::drcom
