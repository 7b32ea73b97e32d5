// Incrementally maintained aggregates over the active component set — the
// data structure behind the DRCR's "global view of real-time contracts"
// (paper §2.2). Instead of rebuilding the view and re-scanning every active
// descriptor per admission query, the DRCR updates this cache once per
// activation/deactivation and resolvers read O(1) sums and per-CPU slices.
//
// Determinism contract: the cached per-CPU declared/recurring utilization
// sums are BIT-IDENTICAL to the left-fold an O(n) scan of the activation-
// ordered active list would produce. Appending extends the fold exactly;
// removal re-folds the surviving per-CPU list, so float association never
// drifts from the from-scratch reference. A mode transition's re-budget
// re-folds each touched CPU once (on_rebudget), not once per component.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "drcom/descriptor.hpp"
#include "util/types.hpp"

namespace drt::drcom {

/// Admission-relevant timing of one active recurring (periodic or sporadic)
/// component, derived once at activation. `base_cost` is C = U * T without
/// any resolver-specific per-job overhead; sporadic tasks are analysed as
/// periodic at the minimum interarrival time with D = MIT, mirroring
/// ResponseTimeResolver's task model.
struct RecurringEntry {
  const ComponentDescriptor* descriptor = nullptr;
  SimDuration period = 0;
  SimDuration base_cost = 0;
  int priority = 0;
  SimTime deadline = 0;
};

/// (priority, activation sequence). A map keyed this way iterates the
/// recurring set highest-priority-first (lower numeric value first) with
/// ties broken by activation order — exactly the interference order the
/// response-time analysis wants, maintained in O(log n) per transition.
using RecurringKey = std::pair<int, std::uint64_t>;
using RecurringMap = std::map<RecurringKey, RecurringEntry>;

/// Compact, O(cpus)-sized export of one node's admission state — what a
/// federation coordinator caches per node. Carries the bit-identical cached
/// utilization sums plus the generation vector that makes staleness
/// checkable in O(cpus) (ContractCache::fresh) without ever rescanning
/// descriptors. cache_id pins the summary to one cache instance across
/// node restarts / address reuse.
struct ContractSummary {
  std::uint64_t cache_id = 0;
  std::vector<std::uint64_t> generations;  ///< per-CPU change counters
  std::vector<double> declared;            ///< declared utilization per CPU
  std::vector<double> recurring;           ///< recurring subset per CPU
  std::size_t active_components = 0;       ///< total active descriptors
};

class ContractCache {
 public:
  explicit ContractCache(std::size_t cpu_count);

  /// Process-unique id distinguishing this cache instance from any other a
  /// long-lived external resolver may have memoized against (guards against
  /// address reuse after a Drcr is destroyed).
  [[nodiscard]] std::uint64_t cache_id() const { return cache_id_; }

  /// Monotone per-CPU change counter: bumps on every activation or
  /// deactivation touching `cpu`. Memoized derived state (RTA fixpoints) is
  /// valid only while the generation it was computed against still matches.
  [[nodiscard]] std::uint64_t generation(CpuId cpu) const;

  void on_activate(const ComponentDescriptor& descriptor);
  void on_deactivate(const ComponentDescriptor& descriptor);
  /// Re-budgets active descriptors whose cpu_usage has just changed: leaves
  /// exactly the state that on_deactivate + on_activate of each `batch`
  /// member in order would (same activation order, recurring keys and
  /// entries, bit-identical sums), but removes the batch in one pass and
  /// re-folds and bumps the generation of each touched CPU once. Every
  /// member must be active.
  void on_rebudget(std::span<const ComponentDescriptor* const> batch);

  /// Per-CPU re-folds run so far (one per deactivation, one per CPU a
  /// re-budget touches): a deterministic work count, not an exported metric.
  [[nodiscard]] std::uint64_t refolds() const { return refolds_; }

  /// Sum of declared cpuusage of active components pinned to `cpu` —
  /// bit-identical to the activation-ordered left-fold.
  [[nodiscard]] double declared_utilization(CpuId cpu) const;
  /// Same fold restricted to recurring (periodic/sporadic) components.
  [[nodiscard]] double recurring_utilization(CpuId cpu) const;
  [[nodiscard]] std::size_t active_count_on(CpuId cpu) const;
  [[nodiscard]] std::size_t recurring_count_on(CpuId cpu) const;

  /// Every active descriptor, in activation order.
  [[nodiscard]] const std::vector<const ComponentDescriptor*>& active() const {
    return active_;
  }
  /// Active descriptors pinned to `cpu`, in activation order.
  [[nodiscard]] const std::vector<const ComponentDescriptor*>& active_on(
      CpuId cpu) const;
  /// Recurring tasks on `cpu`, keyed (priority, activation seq).
  [[nodiscard]] const RecurringMap& recurring_by_priority(CpuId cpu) const;

  /// Number of per-CPU slots tracked (grows when a descriptor pins a CPU
  /// beyond the kernel's count; never shrinks).
  [[nodiscard]] std::size_t cpu_count() const { return per_cpu_.size(); }

  /// O(cpus) snapshot of the cached sums + generations (no descriptor scan).
  [[nodiscard]] ContractSummary summary() const;
  /// True while `summary` still reflects this cache: same instance and no
  /// per-CPU generation has moved (including CPUs that appeared since).
  [[nodiscard]] bool fresh(const ContractSummary& summary) const;

 private:
  struct PerCpu {
    std::vector<const ComponentDescriptor*> active;  ///< activation order
    RecurringMap recurring;
    /// Each recurring descriptor's key in `recurring`, so deactivation
    /// erases it in O(log n) instead of scanning the map.
    std::unordered_map<const ComponentDescriptor*, RecurringKey> recurring_key;
    double declared_sum = 0.0;
    double recurring_sum = 0.0;
    std::uint64_t generation = 0;
  };

  /// Recomputes `slot`'s sums as the left-fold over its activation order.
  void refold(PerCpu& slot);

  std::uint64_t cache_id_;
  std::vector<PerCpu> per_cpu_;
  std::vector<const ComponentDescriptor*> active_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t refolds_ = 0;
};

}  // namespace drt::drcom
