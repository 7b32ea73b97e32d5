// Global invariant oracle for the scenario fuzzer.
//
// After every applied action the oracle sweeps the whole stack through
// const-introspection accessors only (Drcr::system_view / state_of /
// instance_of, RtKernel::running_task / next_ready / mailbox_find / trace)
// and reports the first violated invariant:
//
//   1. admitted utilization — per-CPU declared cpuusage of ACTIVE components
//      never exceeds the internal resolver's schedulability budget;
//   2. task liveness — every ACTIVE component has a live kernel task (a task
//      killed by an armed FaultPlan kill is exempt: that death is injected,
//      not a bug);
//   3. port liveness — every out-port and every mandatory in-port of an
//      ACTIVE component resolves to a live kernel SHM/mailbox object;
//   4. scheduler sanity — no CPU idles while a task is ready, and no ready
//      task outranks the running one (fixed-priority invariant at the
//      settled API boundary);
//   5. mailbox conservation — sent == received + queued on every mailbox
//      (fault drops/duplicates keep their own counters, so an imbalance is a
//      genuine accounting bug);
//   6. trace monotonicity — kernel trace timestamps never run backwards;
//   7. metrics consistency — when the kernel's metrics registry is enabled,
//      each "ipc.mailbox_*" aggregate counter equals the sum of the
//      corresponding per-mailbox counter over live mailboxes plus the
//      kernel's retired-mailbox remainder. Both sides are incremented at the
//      same code sites, so a mismatch means an instrumentation drift (this is
//      a second, independent detector for the planted kMiscount bug);
//   8. contract-cache consistency — the DRCR's incrementally maintained
//      ContractCache (per-CPU utilization sums, active/recurring counts,
//      activation-ordered membership) equals a view recomputed from scratch
//      out of the component records. The cache feeds every admission
//      decision, so drift here silently changes which components the DRCR
//      accepts;
//  10. mode-change safety — once the ModeChangeController has committed a
//      transition, the system must remain schedulable at every instant:
//      (a) per-CPU declared utilization (under the mode-scaled budgets the
//      cache now carries — this extends invariant 8's recomputation, which
//      reads the same mutated descriptors) never exceeds the admission
//      budget, (b) the deadline-class (EDF) utilization per CPU never
//      exceeds 1, and (c) no ACTIVE deadline-class mode component misses a
//      deadline inside a committed transition's settling window
//      [when, window_end] (checked only while no fault is armed — injected
//      demand inflation or wake delay legitimately causes misses). This
//      check runs BEFORE invariant 1, so an unsafe transition is blamed on
//      the protocol, not on generic admission;
//  11. contract consistency — (a) a component flagged quarantined is always
//      DISABLED (quarantine_component's terminal state; a lifted quarantine
//      clears the flag), and (b) when the metrics registry is enabled the
//      drcom.contract_violations counter equals the per-record violation sum
//      plus the retired remainder (both sides are driven by the same
//      note_contract_violation call, so a mismatch is instrumentation
//      drift). A stack whose counter was never registered — no
//      ContractMonitor ever attached — must hold zero recorded violations.
//  12. capability conservation — on every live capability connection,
//      sent == accepted + rejected + revoked (Connection::call counts each
//      attempt in exactly one bucket; invalid-argument refusals are caller
//      bugs and never enter the ledger). Structurally, a connection whose
//      provider is a registered component that is not ACTIVE must not be
//      locally bound — a bound endpoint to a deactivated provider means a
//      revocation was skipped and frames would feed a dead inbox. When the
//      metrics registry is enabled, each cap.* aggregate equals the sum over
//      live connections plus the router's retired remainder (the lazily
//      registered series must be absent only while no route ever existed).
//
// (Invariant 9 is the federation-wide check_federation below.) The snapshot
// fixpoint invariant (restore(snapshot(S)) is snapshot-identical) needs a
// second world to restore into and therefore lives in fuzzer.cpp, not here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "drcom/drcr.hpp"
#include "fed/federation.hpp"
#include "rtos/fault.hpp"

namespace drt::testing {

struct Violation {
  std::string invariant;  ///< short id, e.g. "mailbox-conservation"
  std::string detail;     ///< what exactly was observed
};

class InvariantOracle {
 public:
  InvariantOracle(const drcom::Drcr& drcr, const rtos::FaultPlan& faults,
                  double cpu_budget);

  /// Sweeps invariants 1-8 and 10-12; returns the first violation found,
  /// if any.
  [[nodiscard]] std::optional<Violation> check();

 private:
  [[nodiscard]] std::optional<Violation> check_mode_change();
  [[nodiscard]] std::optional<Violation> check_utilization() const;
  [[nodiscard]] std::optional<Violation> check_task_liveness() const;
  [[nodiscard]] std::optional<Violation> check_port_liveness() const;
  [[nodiscard]] std::optional<Violation> check_scheduler() const;
  [[nodiscard]] std::optional<Violation> check_mailboxes() const;
  [[nodiscard]] std::optional<Violation> check_trace();
  [[nodiscard]] std::optional<Violation> check_metrics() const;
  [[nodiscard]] std::optional<Violation> check_contract_cache() const;
  [[nodiscard]] std::optional<Violation> check_contract_consistency() const;
  [[nodiscard]] std::optional<Violation> check_capabilities() const;

  const drcom::Drcr* drcr_;
  const rtos::FaultPlan* faults_;
  double budget_;
  /// Incremental trace scan cursor (the trace only grows).
  std::size_t trace_checked_ = 0;
  SimTime last_trace_time_ = 0;
  /// Per-component (task id, deadline-miss count) baseline for the mode-
  /// change window check; a changed task id (restore, migration) resets it.
  std::map<std::string, std::pair<TaskId, std::uint64_t>> mode_misses_;
};

/// Invariant 9 — federation-wide conservation and placement sanity, checked
/// alongside the per-node oracles in federation fuzz runs:
///
///   a. per-channel accounting — arrived == accepted + rejected + unroutable
///      and arrived never exceeds sent (exact two-sided counters);
///   b. cross-node message conservation — Σ sent - Σ arrived over live
///      channels equals the engine's pending cross-shard messages (channels
///      are the only cross-shard senders in a federation fuzz world, and
///      retired channels must drain before destruction);
///   c. no dual admission — no component name is registered on two alive-or-
///      dead nodes at once (migration detaches before it re-admits).
[[nodiscard]] std::optional<Violation> check_federation(
    const fed::Federation& federation);

}  // namespace drt::testing
