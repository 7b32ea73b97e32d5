// Constraint resolving services (the paper's pluggable admission /
// adaptation policy layer).
//
// The DRCR consults resolving services before activating a component and
// after any system change (§1: "a resolving service to provide customized
// real-time admission and adaptation service, which can be plugged into the
// DRCR runtime by using OSGi service model"; §4.3: "the internal resolving
// service and the external customized service will be consulted"). A
// candidate activates only when the internal resolver AND every discovered
// external resolver accept it.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "drcom/contract_cache.hpp"
#include "drcom/descriptor.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace drt::rtos {
class RtKernel;
}

namespace drt::drcom {

/// Service interface name for externally contributed resolvers.
inline constexpr const char* kResolvingServiceInterface =
    "drcom.ResolvingService";

/// Global view of the real-time context handed to resolvers: the descriptors
/// of every currently active component plus the kernel, never individual
/// component internals.
///
/// DRCR-built views additionally carry a ContractCache, which backs the
/// aggregate accessors in O(1). Hand-built views (tests, external tooling)
/// leave `cache` null and the accessors fall back to scanning `active` —
/// same values, seed complexity. During a greedy admission pass the DRCR
/// extends the view with each admitted candidate via admit_locally(), which
/// keeps the cached aggregates in step with the `active` vector.
struct SystemView {
  std::vector<const ComponentDescriptor*> active;
  const rtos::RtKernel* kernel = nullptr;
  std::size_t cpu_count = 0;
  /// Aggregates behind the O(1) accessors; nullptr = scan `active` instead.
  const ContractCache* cache = nullptr;
  /// Distinguishes one admission pass from the next, so batch-capable
  /// resolvers can tell which view their session state belongs to (0 = not
  /// a DRCR admission view).
  std::uint64_t id = 0;

  /// Sum of the *declared* cpuusage of active components pinned to `cpu`.
  [[nodiscard]] double declared_utilization(CpuId cpu) const;
  [[nodiscard]] std::size_t active_count_on(CpuId cpu) const;
  /// Recurring (periodic/sporadic) restriction of the two above.
  [[nodiscard]] double recurring_utilization_on(CpuId cpu) const;
  [[nodiscard]] std::size_t recurring_count_on(CpuId cpu) const;

  /// Extends the view as if `candidate` had just been activated: appends to
  /// `active` and folds its usage into the cached per-CPU aggregates (exact
  /// left-fold extension, so cached and scanned values stay bit-identical).
  void admit_locally(const ComponentDescriptor& candidate);

  /// Visits active components pinned to `cpu` in reverse activation order
  /// (newest first) — the shedding order of revocation policies.
  template <typename Fn>
  void for_each_active_on_reverse(CpuId cpu, Fn&& fn) const {
    if (cache == nullptr) {
      for (auto it = active.rbegin(); it != active.rend(); ++it) {
        if ((*it)->target_cpu() == cpu) fn(**it);
      }
      return;
    }
    if (cpu < overlay_.size()) {
      const auto& added = overlay_[cpu].added;
      for (auto it = added.rbegin(); it != added.rend(); ++it) fn(**it);
    }
    const auto& base = cache->active_on(cpu);
    for (auto it = base.rbegin(); it != base.rend(); ++it) fn(**it);
  }

 private:
  /// Per-CPU aggregates including locally admitted candidates. `touched`
  /// slots hold full totals (cache base folded with every append, in order);
  /// untouched CPUs read straight from the cache.
  struct CpuOverlay {
    bool touched = false;
    double declared_sum = 0.0;
    double recurring_sum = 0.0;
    std::size_t active_count = 0;
    std::size_t recurring_count = 0;
    std::vector<const ComponentDescriptor*> added;
  };
  std::vector<CpuOverlay> overlay_;
};

class ResolvingService {
 public:
  virtual ~ResolvingService() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Non-functional admission: may `candidate` be activated on top of the
  /// currently active set without impairing deployed contracts? A returned
  /// error is the rejection reason.
  [[nodiscard]] virtual Result<void> admit(
      const ComponentDescriptor& candidate, const SystemView& view) = 0;

  /// Re-evaluation after a system change (departure, load change): returns
  /// the names of active components that can no longer be sustained and must
  /// be deactivated. Default: none.
  [[nodiscard]] virtual std::vector<std::string> revoke(
      const SystemView& view) {
    (void)view;
    return {};
  }

  // ---- batch admission (optional) ----------------------------------------
  // resolve_round() brackets each greedy admission pass with begin_batch /
  // end_batch and reports every candidate that passed ALL resolvers through
  // on_candidate_admitted — the batch admit-all path: a stateful resolver
  // (memoized RTA) analyses the whole deploy in one incremental session
  // instead of from scratch per candidate. The defaults do nothing, so
  // stateless resolvers are unaffected.

  /// A greedy admission pass over `view` is starting; admit() calls carrying
  /// the same `view.id` belong to it.
  virtual void begin_batch(const SystemView& view) { (void)view; }
  /// `candidate` passed every resolver and was appended to the pass's view.
  virtual void on_candidate_admitted(const ComponentDescriptor& candidate) {
    (void)candidate;
  }
  /// The pass ended; `committed` is true when its admissions were actually
  /// activated (fold session results into long-lived memo state), false when
  /// the batch was abandoned (discard them).
  virtual void end_batch(bool committed) { (void)committed; }
};

/// Built-in internal resolver: per-CPU declared-utilization budget. A
/// candidate is admitted when the sum of declared cpuusage on its target CPU
/// stays within the budget. O(1) against a cached view.
class UtilizationBudgetResolver : public ResolvingService {
 public:
  explicit UtilizationBudgetResolver(double budget_per_cpu = 0.9)
      : budget_(budget_per_cpu), name_("utilization-budget") {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Result<void> admit(const ComponentDescriptor& candidate,
                                   const SystemView& view) override;
  [[nodiscard]] std::vector<std::string> revoke(
      const SystemView& view) override;

  [[nodiscard]] double budget() const { return budget_; }
  void set_budget(double budget) { budget_ = budget; }

 private:
  double budget_;
  std::string name_;
};

/// Rate-monotonic bound resolver: admits a periodic candidate when the
/// resulting per-CPU task set satisfies the Liu & Layland utilization bound
/// U <= n(2^(1/n) - 1). Aperiodic components pass through (they hold no
/// periodic contract). O(1) against a cached view.
class RateMonotonicResolver : public ResolvingService {
 public:
  RateMonotonicResolver() : name_("rate-monotonic-bound") {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Result<void> admit(const ComponentDescriptor& candidate,
                                   const SystemView& view) override;

  [[nodiscard]] static double bound_for(std::size_t n) {
    return n == 0 ? 1.0
                  : static_cast<double>(n) *
                        (std::pow(2.0, 1.0 / static_cast<double>(n)) - 1.0);
  }

 private:
  std::string name_;
};

/// Exact response-time analysis (Joseph & Pandya / Audsley): admits a
/// periodic candidate iff EVERY periodic task on the CPU — existing and
/// candidate — meets its (possibly constrained) deadline under
/// fixed-priority preemptive scheduling:
///
///     R_i = C_i + sum_{j in hp(i)} ceil(R_i / T_j) * C_j   <=  D_i
///
/// with C_i derived from the declared cpuusage (C = U * T) plus a
/// configurable per-job overhead covering the context switch and the
/// framework's command poll. This is a *necessary-and-sufficient* test for
/// this task model, so it admits feasible sets the RM utilization bound
/// rejects — demonstrating why the paper makes resolving services pluggable.
///
/// Inside a DRCR admission batch the analysis is incremental: per-task
/// response times are memoized per (cache, generation); admitting a
/// candidate only re-analyses tasks at or below its priority on its CPU
/// (higher-priority tasks never see new interference), each warm-started
/// from its previous fixpoint. The recurrence is monotone in the interferer
/// set and the warm start is a known iterate below the new least fixpoint,
/// so the iteration converges to the same fixpoint the from-scratch run
/// finds — decisions are identical. On rejection the failing task's response
/// is recomputed from C_i so the reported value matches the from-scratch
/// message. (Sole caveat: a set needing >1000 iterations from C_i but fewer
/// from the warm start would be capped only by the former; real task sets
/// converge in a handful of iterations.)
///
/// The incremental path evaluates the recurrence over period buckets, not
/// tasks: each CPU keeps its tasks' costs summed per (priority, period).
/// ceil(R / T_j) depends on the interferer only through T_j, so
///
///     sum_j ceil(R / T_j) * C_j  =  sum_{(p,T)} ceil(R / T) * C_(p,T)
///
/// where C_(p,T) is the bucket's summed cost. The integer sums are exact:
/// every iterate, fixpoint and iteration count equals the per-task loop's,
/// at O(buckets) instead of O(tasks) per iteration. A task in the set takes
/// its own cost out of its bucket.
class ResponseTimeResolver : public ResolvingService {
 public:
  /// Summed cost of every task on a CPU that shares (priority, period).
  struct Demand {
    int priority = 0;
    SimDuration period = 0;
    SimDuration cost = 0;
  };
  /// Deterministic work done by the bucketed recurrence: solves run,
  /// iterations taken, and demand-bucket terms summed across them.
  struct WorkCounts {
    std::uint64_t solves = 0;
    std::uint64_t iterations = 0;
    std::uint64_t terms = 0;
  };

  explicit ResponseTimeResolver(SimDuration per_job_overhead = 1'100)
      : per_job_overhead_(per_job_overhead), name_("response-time-analysis") {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Result<void> admit(const ComponentDescriptor& candidate,
                                   const SystemView& view) override;

  void begin_batch(const SystemView& view) override;
  void on_candidate_admitted(const ComponentDescriptor& candidate) override;
  void end_batch(bool committed) override;

  /// Work of every bucketed solve this resolver has run (the from-scratch
  /// path is not counted).
  [[nodiscard]] const WorkCounts& work() const { return work_; }

  /// Worst-case response time of a task with cost `cost` against
  /// higher-priority interferers (cost, period) pairs. When the iteration
  /// exceeds `deadline` at a finite value, returns that first exceeding
  /// value (the caller compares against the deadline); returns kSimTimeNever
  /// only when the 1000-iteration cap is hit without converging.
  [[nodiscard]] static SimTime response_time(
      SimDuration cost, SimTime deadline,
      const std::vector<std::pair<SimDuration, SimDuration>>& interferers);

  /// response_time() over period buckets: `demand` is sorted by (priority,
  /// period), and every bucket at or above `task.priority` (numerically <=)
  /// interferes. `in_set` says `task.cost` is summed into its own bucket and
  /// must not interfere with itself; `extra`, when non-null, is one more
  /// interferer outside `demand`. Same iterates, result and cap as
  /// response_time() over the equivalent per-task interferer list; `work`
  /// accumulates the counts.
  [[nodiscard]] static SimTime bucketed_response_time(
      const std::vector<Demand>& demand, const Demand& task, SimTime deadline,
      bool in_set, const Demand* extra, SimTime start, WorkCounts& work);

 private:
  struct TaskEntry {
    const ComponentDescriptor* descriptor = nullptr;
    SimDuration period = 0;
    SimDuration cost = 0;
    int priority = 0;
    SimTime deadline = 0;
    /// Last known response: the fixpoint while feasible; on a failing base
    /// set the first deadline-exceeding value (or kSimTimeNever at the cap).
    SimTime response = 0;
    /// Activation order among same-CPU tasks (failure reports cite the
    /// first failing task in this order, like the from-scratch scan).
    std::uint64_t seq = 0;
  };
  /// One CPU's recurring tasks sorted by (priority, seq), with memoized
  /// response times, and their costs bucketed by (priority, period).
  struct CpuSet {
    bool built = false;
    std::uint64_t generation = 0;
    bool has_failure = false;  ///< some base entry already misses
    std::uint64_t next_seq = 0;
    std::vector<TaskEntry> entries;
    std::vector<Demand> demand;  ///< sorted by (priority, period)
  };

  [[nodiscard]] Result<void> admit_from_scratch(
      const ComponentDescriptor& candidate, const SystemView& view) const;
  [[nodiscard]] Result<void> admit_incremental(
      const ComponentDescriptor& candidate, const SystemView& view);
  [[nodiscard]] CpuSet& session_cpu(CpuId cpu, const ContractCache& cache);
  [[nodiscard]] TaskEntry make_entry(const ComponentDescriptor& descriptor,
                                     std::uint64_t seq) const;
  static void add_demand(CpuSet& set, const TaskEntry& entry);
  [[nodiscard]] SimTime solve(const CpuSet& set, bool in_set,
                              const TaskEntry* extra, const TaskEntry& task,
                              SimTime start);
  [[nodiscard]] Result<void> reject(const TaskEntry& task, SimTime response,
                                    CpuId cpu,
                                    const ComponentDescriptor& candidate) const;

  SimDuration per_job_overhead_;
  std::string name_;
  WorkCounts work_;

  /// Memoized per-CPU analysis, valid while (cache_id, generation) match.
  std::uint64_t memo_cache_id_ = 0;
  std::vector<CpuSet> memo_;

  /// Live batch session (one greedy admission pass).
  bool in_batch_ = false;
  std::uint64_t session_view_id_ = 0;
  const ContractCache* session_cache_ = nullptr;
  std::vector<CpuSet> session_;
  /// Candidates the DRCR confirmed admitted this pass, per target CPU.
  std::vector<std::uint64_t> admitted_;

  /// Result of the last accepting admit(), folded into the session only if
  /// the DRCR confirms the candidate passed every other resolver too.
  struct Pending {
    bool valid = false;
    std::string name;
    CpuId cpu = 0;
    TaskEntry entry;
    std::vector<std::pair<std::size_t, SimTime>> updates;
  };
  Pending pending_;
};

/// EDF admission for the kernel's deadline class (sched="edf" periodic
/// components): per-CPU utilization test  sum U_i <= budget  plus the
/// density test  sum C_i / min(D_i, T_i) <= budget  over the deadline-class
/// set, with C_i = U_i * T_i plus a per-job overhead (context switch +
/// command poll), mirroring ResponseTimeResolver's cost model. Utilization
/// alone is exact for implicit deadlines; the density test is the standard
/// sufficient condition once constrained deadlines (D < T) enter. Components
/// outside the deadline class pass through — the fixed-priority resolvers
/// own their admission.
///
/// Inside a DRCR admission batch the per-CPU sums are built once from the
/// ContractCache's activation-ordered per-CPU slice and then extended per
/// admitted candidate, so warm admission is O(1); the fold order equals the
/// cold scan of the view's active list, keeping warm and cold decisions
/// bit-identical.
class DeadlineResolver : public ResolvingService {
 public:
  explicit DeadlineResolver(double budget_per_cpu = 1.0,
                            SimDuration per_job_overhead = 1'100)
      : budget_(budget_per_cpu), per_job_overhead_(per_job_overhead),
        name_("deadline-edf") {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Result<void> admit(const ComponentDescriptor& candidate,
                                   const SystemView& view) override;

  void begin_batch(const SystemView& view) override;
  void on_candidate_admitted(const ComponentDescriptor& candidate) override;
  void end_batch(bool committed) override;

  [[nodiscard]] double budget() const { return budget_; }

  /// True when `descriptor` holds a deadline-class (EDF) contract.
  [[nodiscard]] static bool is_deadline_class(
      const ComponentDescriptor& descriptor) {
    return descriptor.periodic.has_value() &&
           descriptor.periodic->sched == rtos::SchedClass::kDeadline;
  }

 private:
  struct Terms {
    double util = 0.0;
    double density = 0.0;
  };
  struct CpuSums {
    bool built = false;
    double util = 0.0;
    double density = 0.0;
  };
  [[nodiscard]] Terms terms_of(const ComponentDescriptor& descriptor) const;
  [[nodiscard]] CpuSums& session_cpu(CpuId cpu, const ContractCache& cache);

  double budget_;
  SimDuration per_job_overhead_;
  std::string name_;

  /// Live batch session (one greedy admission pass); no cross-batch memo —
  /// the once-per-batch per-CPU build is already O(active on cpu).
  bool in_batch_ = false;
  std::uint64_t session_view_id_ = 0;
  const ContractCache* session_cache_ = nullptr;
  std::vector<CpuSums> session_;
};

class ContractMonitor;

/// Empirical second opinion at admission (DrcrConfig::empirical_admission):
/// re-runs the per-CPU budget test and a candidate response-time check with
/// MEASURED execution-time quantiles from the attached ContractMonitor in
/// place of the declared C_i, falling back to declared costs wherever the
/// confidence window is unmet. Observed usage is clamped below by declared
/// (max(declared, observed)), so the second opinion only ever *tightens*
/// admission: a component running under budget never loosens another's
/// check, and with no samples at all the tests collapse to the declared
/// ones. Warm inside a DRCR admission batch: the per-CPU empirical sums are
/// folded once from the ContractCache's activation-ordered slice and then
/// extended per admitted candidate (the DeadlineResolver session pattern),
/// keeping warm and cold decisions bit-identical.
class EmpiricalResolver : public ResolvingService {
 public:
  explicit EmpiricalResolver(const ContractMonitor& monitor,
                             double budget_per_cpu = 0.9,
                             SimDuration per_job_overhead = 1'100)
      : monitor_(&monitor), budget_(budget_per_cpu),
        per_job_overhead_(per_job_overhead), name_("empirical-admission") {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Result<void> admit(const ComponentDescriptor& candidate,
                                   const SystemView& view) override;

  void begin_batch(const SystemView& view) override;
  void on_candidate_admitted(const ComponentDescriptor& candidate) override;
  void end_batch(bool committed) override;

  [[nodiscard]] double budget() const { return budget_; }
  /// max(declared cpuusage, monitor's observed usage) — the fraction the
  /// empirical tests charge for `descriptor`.
  [[nodiscard]] double effective_usage(
      const ComponentDescriptor& descriptor) const;

 private:
  struct CpuSums {
    bool built = false;
    double util = 0.0;
  };
  [[nodiscard]] CpuSums& session_cpu(CpuId cpu, const ContractCache& cache);

  const ContractMonitor* monitor_;
  double budget_;
  SimDuration per_job_overhead_;
  std::string name_;

  /// Live batch session (one greedy admission pass).
  bool in_batch_ = false;
  std::uint64_t session_view_id_ = 0;
  const ContractCache* session_cache_ = nullptr;
  std::vector<CpuSums> session_;
};

/// Accept-everything resolver: the baseline for the admission ablation
/// (bench_admission) and the paper's simulation setting where "both results
/// is true" (§4.3).
class AlwaysAcceptResolver : public ResolvingService {
 public:
  AlwaysAcceptResolver() : name_("always-accept") {}
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] Result<void> admit(const ComponentDescriptor&,
                                   const SystemView&) override {
    return Result<void>::success();
  }

 private:
  std::string name_;
};

}  // namespace drt::drcom
