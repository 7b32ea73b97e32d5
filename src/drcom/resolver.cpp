#include "drcom/resolver.hpp"

#include <algorithm>
#include <sstream>

#include "drcom/monitor.hpp"

namespace drt::drcom {
namespace {

/// True for components with a recurring real-time contract — periodic, or
/// sporadic (analysed as periodic with T = MIT).
bool has_recurring_contract(const ComponentDescriptor& descriptor) {
  return descriptor.type == rtos::TaskType::kPeriodic ||
         descriptor.type == rtos::TaskType::kSporadic;
}

}  // namespace

// ------------------------------------------------------------- SystemView

double SystemView::declared_utilization(CpuId cpu) const {
  if (cache == nullptr) {
    double total = 0.0;
    for (const auto* descriptor : active) {
      if (descriptor->target_cpu() == cpu) total += descriptor->cpu_usage;
    }
    return total;
  }
  if (cpu < overlay_.size() && overlay_[cpu].touched) {
    return overlay_[cpu].declared_sum;
  }
  return cache->declared_utilization(cpu);
}

std::size_t SystemView::active_count_on(CpuId cpu) const {
  if (cache == nullptr) {
    std::size_t count = 0;
    for (const auto* descriptor : active) {
      if (descriptor->target_cpu() == cpu) ++count;
    }
    return count;
  }
  if (cpu < overlay_.size() && overlay_[cpu].touched) {
    return overlay_[cpu].active_count;
  }
  return cache->active_count_on(cpu);
}

double SystemView::recurring_utilization_on(CpuId cpu) const {
  if (cache == nullptr) {
    double total = 0.0;
    for (const auto* descriptor : active) {
      if (has_recurring_contract(*descriptor) &&
          descriptor->target_cpu() == cpu) {
        total += descriptor->cpu_usage;
      }
    }
    return total;
  }
  if (cpu < overlay_.size() && overlay_[cpu].touched) {
    return overlay_[cpu].recurring_sum;
  }
  return cache->recurring_utilization(cpu);
}

std::size_t SystemView::recurring_count_on(CpuId cpu) const {
  if (cache == nullptr) {
    std::size_t count = 0;
    for (const auto* descriptor : active) {
      if (has_recurring_contract(*descriptor) &&
          descriptor->target_cpu() == cpu) {
        ++count;
      }
    }
    return count;
  }
  if (cpu < overlay_.size() && overlay_[cpu].touched) {
    return overlay_[cpu].recurring_count;
  }
  return cache->recurring_count_on(cpu);
}

void SystemView::admit_locally(const ComponentDescriptor& candidate) {
  active.push_back(&candidate);
  if (cache == nullptr) return;
  const CpuId cpu = candidate.target_cpu();
  if (cpu >= overlay_.size()) overlay_.resize(cpu + 1);
  CpuOverlay& slot = overlay_[cpu];
  if (!slot.touched) {
    slot.touched = true;
    slot.declared_sum = cache->declared_utilization(cpu);
    slot.recurring_sum = cache->recurring_utilization(cpu);
    slot.active_count = cache->active_count_on(cpu);
    slot.recurring_count = cache->recurring_count_on(cpu);
  }
  slot.declared_sum += candidate.cpu_usage;
  ++slot.active_count;
  if (has_recurring_contract(candidate)) {
    slot.recurring_sum += candidate.cpu_usage;
    ++slot.recurring_count;
  }
  slot.added.push_back(&candidate);
}

// ------------------------------------------- UtilizationBudgetResolver

Result<void> UtilizationBudgetResolver::admit(
    const ComponentDescriptor& candidate, const SystemView& view) {
  const CpuId cpu = candidate.target_cpu();
  const double current = view.declared_utilization(cpu);
  if (current + candidate.cpu_usage > budget_ + 1e-12) {
    std::ostringstream reason;
    reason << "cpu " << cpu << " budget exceeded: " << current << " + "
           << candidate.cpu_usage << " > " << budget_;
    return make_error(ErrorCode::kAdmissionRejected,
                      "drcom.admission_rejected", reason.str());
  }
  return Result<void>::success();
}

std::vector<std::string> UtilizationBudgetResolver::revoke(
    const SystemView& view) {
  // If the budget shrank below the active set's demand, shed the most
  // recently activated components first until every CPU fits again.
  std::vector<std::string> revoked;
  for (CpuId cpu = 0; cpu < view.cpu_count; ++cpu) {
    double total = view.declared_utilization(cpu);
    if (total <= budget_ + 1e-12) continue;
    view.for_each_active_on_reverse(cpu, [&](const ComponentDescriptor& d) {
      if (total <= budget_ + 1e-12) return;
      revoked.push_back(d.name);
      total -= d.cpu_usage;
    });
  }
  return revoked;
}

// ----------------------------------------------- RateMonotonicResolver

Result<void> RateMonotonicResolver::admit(const ComponentDescriptor& candidate,
                                          const SystemView& view) {
  if (!has_recurring_contract(candidate)) {
    return Result<void>::success();
  }
  const CpuId cpu = candidate.target_cpu();
  double total;
  std::size_t n;
  if (view.cache != nullptr) {
    // candidate + running-fold differs from the candidate-seeded scan only
    // in association — at most one ulp, far below the decision epsilon.
    total = candidate.cpu_usage + view.recurring_utilization_on(cpu);
    n = view.recurring_count_on(cpu) + 1;
  } else {
    total = candidate.cpu_usage;
    n = 1;
    for (const auto* descriptor : view.active) {
      if (!has_recurring_contract(*descriptor)) continue;
      if (descriptor->target_cpu() != cpu) continue;
      total += descriptor->cpu_usage;
      ++n;
    }
  }
  const double bound = bound_for(n);
  if (total > bound + 1e-12) {
    std::ostringstream reason;
    reason << "RM bound violated on cpu " << cpu << ": U=" << total << " > "
           << bound << " (n=" << n << ")";
    return make_error(ErrorCode::kAdmissionRejected,
                      "drcom.admission_rejected", reason.str());
  }
  return Result<void>::success();
}

// ---------------------------------------------- ResponseTimeResolver

SimTime ResponseTimeResolver::response_time(
    SimDuration cost, SimTime deadline,
    const std::vector<std::pair<SimDuration, SimDuration>>& interferers) {
  SimTime response = cost;
  for (int iteration = 0; iteration < 1'000; ++iteration) {
    SimTime next = cost;
    for (const auto& [other_cost, other_period] : interferers) {
      // ceil(response / period) * cost, in integer arithmetic.
      const SimTime jobs = (response + other_period - 1) / other_period;
      next += jobs * other_cost;
    }
    if (next == response) return response;  // fixpoint
    if (next > deadline) return next;  // infeasible: first exceeding value
    response = next;
  }
  return kSimTimeNever;  // iteration cap hit without converging
}

SimTime ResponseTimeResolver::bucketed_response_time(
    const std::vector<Demand>& demand, const Demand& task, SimTime deadline,
    bool in_set, const Demand* extra, SimTime start, WorkCounts& work) {
  SimTime result = kSimTimeNever;  // iteration cap hit without converging
  std::uint64_t iterations = 0;
  std::uint64_t terms = 0;
  SimTime response = start;
  while (iterations < 1'000) {
    ++iterations;
    SimTime next = task.cost;
    // `demand` is sorted by (priority, period), so the interfering buckets —
    // strictly higher priority preempts; equal priority round-robins and is
    // counted as interference too — are a prefix of the vector.
    for (const Demand& bucket : demand) {
      if (bucket.priority > task.priority) break;
      SimDuration cost = bucket.cost;
      if (in_set && bucket.priority == task.priority &&
          bucket.period == task.period) {
        cost -= task.cost;  // a task does not interfere with itself
      }
      next += ((response + bucket.period - 1) / bucket.period) * cost;
      ++terms;
    }
    if (extra != nullptr && extra->priority <= task.priority) {
      next += ((response + extra->period - 1) / extra->period) * extra->cost;
    }
    if (next == response) {
      result = response;  // fixpoint
      break;
    }
    if (next > deadline) {
      result = next;  // infeasible: first exceeding value
      break;
    }
    response = next;
  }
  ++work.solves;
  work.iterations += iterations;
  work.terms += terms;
  return result;
}

SimTime ResponseTimeResolver::solve(const CpuSet& set, bool in_set,
                                    const TaskEntry* extra,
                                    const TaskEntry& task, SimTime start) {
  const Demand own{task.priority, task.period, task.cost};
  Demand other;
  if (extra != nullptr) other = {extra->priority, extra->period, extra->cost};
  return bucketed_response_time(set.demand, own, task.deadline, in_set,
                                extra != nullptr ? &other : nullptr, start,
                                work_);
}

void ResponseTimeResolver::add_demand(CpuSet& set, const TaskEntry& entry) {
  const auto position = std::lower_bound(
      set.demand.begin(), set.demand.end(), entry,
      [](const Demand& bucket, const TaskEntry& key) {
        return bucket.priority != key.priority ? bucket.priority < key.priority
                                               : bucket.period < key.period;
      });
  if (position != set.demand.end() && position->priority == entry.priority &&
      position->period == entry.period) {
    position->cost += entry.cost;
  } else {
    set.demand.insert(position,
                      Demand{entry.priority, entry.period, entry.cost});
  }
}

ResponseTimeResolver::TaskEntry ResponseTimeResolver::make_entry(
    const ComponentDescriptor& descriptor, std::uint64_t seq) const {
  TaskEntry entry;
  entry.descriptor = &descriptor;
  if (descriptor.periodic.has_value()) {
    entry.period = descriptor.periodic->period();
    entry.priority = descriptor.periodic->priority;
    entry.deadline = descriptor.periodic->effective_deadline();
  } else {
    // Sporadic: worst case is periodic arrival at the MIT.
    entry.period = descriptor.sporadic->min_interarrival;
    entry.priority = descriptor.sporadic->priority;
    entry.deadline = descriptor.sporadic->min_interarrival;
  }
  entry.cost = static_cast<SimDuration>(
                   descriptor.cpu_usage * static_cast<double>(entry.period)) +
               per_job_overhead_;
  entry.seq = seq;
  return entry;
}

Result<void> ResponseTimeResolver::reject(
    const TaskEntry& task, SimTime response, CpuId cpu,
    const ComponentDescriptor& candidate) const {
  std::ostringstream reason;
  reason << "RTA: task '" << task.descriptor->name
         << "' would miss its deadline on cpu " << cpu << " (R";
  if (response == kSimTimeNever) {
    reason << " diverges";
  } else {
    reason << "=" << response;
  }
  reason << " > D=" << task.deadline << ") if '" << candidate.name
         << "' were admitted";
  return make_error(ErrorCode::kAdmissionRejected, "drcom.admission_rejected",
                    reason.str());
}

Result<void> ResponseTimeResolver::admit(const ComponentDescriptor& candidate,
                                         const SystemView& view) {
  if (!has_recurring_contract(candidate)) {
    return Result<void>::success();
  }
  if (in_batch_ && view.cache != nullptr && view.cache == session_cache_ &&
      view.id == session_view_id_) {
    return admit_incremental(candidate, view);
  }
  return admit_from_scratch(candidate, view);
}

Result<void> ResponseTimeResolver::admit_from_scratch(
    const ComponentDescriptor& candidate, const SystemView& view) const {
  const CpuId cpu = candidate.target_cpu();

  struct Entry {
    const ComponentDescriptor* descriptor;
    SimDuration period;
    SimDuration cost;
    int priority;
    SimTime deadline;
  };
  std::vector<Entry> tasks;
  auto add = [&](const ComponentDescriptor& descriptor) {
    Entry entry;
    entry.descriptor = &descriptor;
    if (descriptor.periodic.has_value()) {
      entry.period = descriptor.periodic->period();
      entry.priority = descriptor.periodic->priority;
      entry.deadline = descriptor.periodic->effective_deadline();
    } else {
      // Sporadic: worst case is periodic arrival at the MIT.
      entry.period = descriptor.sporadic->min_interarrival;
      entry.priority = descriptor.sporadic->priority;
      entry.deadline = descriptor.sporadic->min_interarrival;
    }
    entry.cost = static_cast<SimDuration>(
                     descriptor.cpu_usage * static_cast<double>(entry.period)) +
                 per_job_overhead_;
    tasks.push_back(entry);
  };
  for (const auto* descriptor : view.active) {
    if (has_recurring_contract(*descriptor) &&
        descriptor->target_cpu() == cpu) {
      add(*descriptor);
    }
  }
  add(candidate);

  // Check every task (the candidate interferes with existing lower-priority
  // tasks too — admitting it must not break deployed contracts, §2.2).
  for (const Entry& task : tasks) {
    std::vector<std::pair<SimDuration, SimDuration>> interferers;
    for (const Entry& other : tasks) {
      if (&other == &task) continue;
      // Strictly higher priority preempts; equal priority round-robins —
      // treat equal as interference too (conservative for RR).
      if (other.priority <= task.priority) {
        interferers.emplace_back(other.cost, other.period);
      }
    }
    const SimTime response =
        response_time(task.cost, task.deadline, interferers);
    if (response > task.deadline) {
      std::ostringstream reason;
      reason << "RTA: task '" << task.descriptor->name
             << "' would miss its deadline on cpu " << cpu << " (R";
      if (response == kSimTimeNever) {
        reason << " diverges";
      } else {
        reason << "=" << response;
      }
      reason << " > D=" << task.deadline << ") if '" << candidate.name
             << "' were admitted";
      return make_error(ErrorCode::kAdmissionRejected,
                        "drcom.admission_rejected", reason.str());
    }
  }
  return Result<void>::success();
}

Result<void> ResponseTimeResolver::admit_incremental(
    const ComponentDescriptor& candidate, const SystemView& view) {
  pending_.valid = false;
  const CpuId cpu = candidate.target_cpu();
  CpuSet& set = session_cpu(cpu, *view.cache);
  const TaskEntry cand = make_entry(candidate, set.next_seq);

  // Tasks at or below the candidate's priority (numerically >=) gain it as
  // an interferer and must be re-analysed; tasks above never see it.
  const auto first_dirty = std::lower_bound(
      set.entries.begin(), set.entries.end(), cand.priority,
      [](const TaskEntry& entry, int priority) {
        return entry.priority < priority;
      });

  // The from-scratch scan rejects at the FIRST failing task in activation
  // order; track the minimum-seq failure across untouched, dirty and
  // candidate (the candidate's seq is the largest, so it is cited last).
  const TaskEntry* failing = nullptr;
  SimTime failing_response = 0;
  bool failing_was_warm = false;
  auto consider = [&](const TaskEntry& entry, SimTime response, bool warm) {
    if (response <= entry.deadline) return;
    if (failing == nullptr || entry.seq < failing->seq) {
      failing = &entry;
      failing_response = response;
      failing_was_warm = warm;
    }
  };

  // Untouched tasks keep their stored response; they can only be failing
  // when the base set itself was infeasible (folds never store misses).
  if (set.has_failure) {
    for (auto it = set.entries.begin(); it != first_dirty; ++it) {
      consider(*it, it->response, false);
    }
  }

  pending_.updates.clear();
  for (auto it = first_dirty; it != set.entries.end(); ++it) {
    // Warm start from the previous fixpoint: the recurrence is monotone in
    // the interferer set, and the stored value is an iterate below the new
    // least fixpoint, so iterating from it converges to the same fixpoint
    // the from-scratch run finds.
    SimTime start = it->response;
    if (start == kSimTimeNever) start = it->cost;  // cap marker, no iterate
    const auto index = static_cast<std::size_t>(it - set.entries.begin());
    const SimTime response = solve(set, true, &cand, *it, start);
    pending_.updates.emplace_back(index, response);
    consider(*it, response, true);
  }
  const SimTime cand_response = solve(set, false, nullptr, cand, cand.cost);
  consider(cand, cand_response, false);  // already iterated from cost

  if (failing != nullptr) {
    SimTime report = failing_response;
    if (failing_was_warm) {
      // The warm iteration may cross the deadline at a different iterate;
      // recompute from cost so the reported value matches the from-scratch
      // message exactly.
      report = solve(set, true, &cand, *failing, failing->cost);
    }
    return reject(*failing, report, cpu, candidate);
  }

  pending_.valid = true;
  pending_.name = candidate.name;
  pending_.cpu = cpu;
  pending_.entry = cand;
  pending_.entry.response = cand_response;
  return Result<void>::success();
}

ResponseTimeResolver::CpuSet& ResponseTimeResolver::session_cpu(
    CpuId cpu, const ContractCache& cache) {
  if (cpu >= session_.size()) session_.resize(cpu + 1);
  CpuSet& set = session_[cpu];
  if (set.built) return set;
  const std::uint64_t generation = cache.generation(cpu);
  if (cpu < memo_.size() && memo_[cpu].built &&
      memo_[cpu].generation == generation) {
    set = memo_[cpu];
    return set;
  }
  // Rebuild from the cache: entries in (priority, activation) order, each
  // response iterated from cost — the canonical base the memo carries
  // forward until the next structural change on this CPU.
  set.built = true;
  set.generation = generation;
  set.has_failure = false;
  set.next_seq = 0;
  set.entries.clear();
  set.demand.clear();
  const RecurringMap& recurring = cache.recurring_by_priority(cpu);
  set.entries.reserve(recurring.size());
  for (const auto& [key, record] : recurring) {
    TaskEntry entry;
    entry.descriptor = record.descriptor;
    entry.period = record.period;
    entry.cost = record.base_cost + per_job_overhead_;
    entry.priority = record.priority;
    entry.deadline = record.deadline;
    entry.seq = key.second;
    set.next_seq = std::max(set.next_seq, key.second + 1);
    set.entries.push_back(entry);
    add_demand(set, entry);
  }
  for (TaskEntry& entry : set.entries) {
    entry.response = solve(set, true, nullptr, entry, entry.cost);
    if (entry.response > entry.deadline) set.has_failure = true;
  }
  return set;
}

void ResponseTimeResolver::begin_batch(const SystemView& view) {
  session_.clear();
  admitted_.clear();
  pending_.valid = false;
  in_batch_ = view.cache != nullptr;
  session_view_id_ = view.id;
  session_cache_ = view.cache;
  if (!in_batch_) return;
  if (memo_cache_id_ != view.cache->cache_id()) {
    memo_cache_id_ = view.cache->cache_id();
    memo_.clear();
  }
}

void ResponseTimeResolver::on_candidate_admitted(
    const ComponentDescriptor& candidate) {
  if (!in_batch_) return;
  // Every admitted candidate, aperiodic ones too, bumps its CPU's cache
  // generation once when it activates; end_batch checks against this.
  const CpuId cpu = candidate.target_cpu();
  if (cpu >= admitted_.size()) admitted_.resize(cpu + 1, 0);
  ++admitted_[cpu];
  if (!pending_.valid || pending_.name != candidate.name) {
    return;  // not ours (aperiodic candidates never leave a pending entry)
  }
  pending_.valid = false;
  CpuSet& set = session_[pending_.cpu];
  for (const auto& [index, response] : pending_.updates) {
    set.entries[index].response = response;
  }
  // Insert after the last equal-priority entry: the candidate's seq is the
  // largest on this CPU, so (priority, seq) order is preserved.
  const auto position = std::upper_bound(
      set.entries.begin(), set.entries.end(), pending_.entry.priority,
      [](int priority, const TaskEntry& entry) {
        return priority < entry.priority;
      });
  set.entries.insert(position, pending_.entry);
  add_demand(set, pending_.entry);
  ++set.next_seq;
}

void ResponseTimeResolver::end_batch(bool committed) {
  pending_.valid = false;
  if (!in_batch_) return;
  in_batch_ = false;
  if (!committed || session_cache_ == nullptr) {
    session_.clear();
    return;
  }
  if (memo_.size() < session_.size()) memo_.resize(session_.size());
  for (std::size_t cpu = 0; cpu < session_.size(); ++cpu) {
    CpuSet& set = session_[cpu];
    if (!set.built) continue;
    // Safety net: a reentrant lifecycle change during activation (a listener
    // deactivating some component mid-commit) would leave this session
    // stale. Each activation bumps its CPU's generation exactly once and
    // generations never go back, so the session mirrors the cache exactly
    // when the generation moved by the admissions alone.
    const auto id = static_cast<CpuId>(cpu);
    const std::uint64_t admitted = cpu < admitted_.size() ? admitted_[cpu] : 0;
    const std::uint64_t generation = session_cache_->generation(id);
    if (generation != set.generation + admitted ||
        session_cache_->recurring_count_on(id) != set.entries.size()) {
      memo_[cpu].built = false;
      continue;
    }
    set.generation = generation;
    memo_[cpu] = std::move(set);
  }
  session_.clear();
}

// --------------------------------------------------- DeadlineResolver

DeadlineResolver::Terms DeadlineResolver::terms_of(
    const ComponentDescriptor& descriptor) const {
  Terms terms;
  terms.util = descriptor.cpu_usage;
  const SimDuration period = descriptor.periodic->period();
  const SimDuration deadline = descriptor.periodic->effective_deadline();
  const SimDuration cost =
      static_cast<SimDuration>(descriptor.cpu_usage *
                               static_cast<double>(period)) +
      per_job_overhead_;
  const SimDuration window = std::min(deadline, period);
  terms.density = static_cast<double>(cost) / static_cast<double>(window);
  return terms;
}

DeadlineResolver::CpuSums& DeadlineResolver::session_cpu(
    CpuId cpu, const ContractCache& cache) {
  if (cpu >= session_.size()) session_.resize(cpu + 1);
  CpuSums& sums = session_[cpu];
  if (sums.built) return sums;
  sums.built = true;
  sums.util = 0.0;
  sums.density = 0.0;
  // The cache's per-CPU slice is the activation-ordered restriction of the
  // global active list, so this fold matches the cold scan bit for bit.
  for (const auto* descriptor : cache.active_on(cpu)) {
    if (!is_deadline_class(*descriptor)) continue;
    const Terms terms = terms_of(*descriptor);
    sums.util += terms.util;
    sums.density += terms.density;
  }
  return sums;
}

Result<void> DeadlineResolver::admit(const ComponentDescriptor& candidate,
                                     const SystemView& view) {
  if (!is_deadline_class(candidate)) {
    return Result<void>::success();
  }
  const CpuId cpu = candidate.target_cpu();
  double util = 0.0;
  double density = 0.0;
  if (in_batch_ && view.cache != nullptr && view.cache == session_cache_ &&
      view.id == session_view_id_) {
    const CpuSums& sums = session_cpu(cpu, *view.cache);
    util = sums.util;
    density = sums.density;
  } else {
    for (const auto* descriptor : view.active) {
      if (descriptor->target_cpu() != cpu || !is_deadline_class(*descriptor)) {
        continue;
      }
      const Terms terms = terms_of(*descriptor);
      util += terms.util;
      density += terms.density;
    }
  }
  const Terms cand = terms_of(candidate);
  if (util + cand.util > budget_ + 1e-12) {
    std::ostringstream reason;
    reason << "EDF utilization exceeded on cpu " << cpu << ": " << util
           << " + " << cand.util << " > " << budget_ << " (candidate D="
           << candidate.periodic->effective_deadline() << ")";
    return make_error(ErrorCode::kAdmissionRejected,
                      "drcom.admission_rejected", reason.str());
  }
  if (density + cand.density > budget_ + 1e-12) {
    std::ostringstream reason;
    reason << "EDF density exceeded on cpu " << cpu << ": " << density
           << " + " << cand.density << " > " << budget_ << " (candidate D="
           << candidate.periodic->effective_deadline() << ")";
    return make_error(ErrorCode::kAdmissionRejected,
                      "drcom.admission_rejected", reason.str());
  }
  return Result<void>::success();
}

void DeadlineResolver::begin_batch(const SystemView& view) {
  session_.clear();
  in_batch_ = view.cache != nullptr;
  session_view_id_ = view.id;
  session_cache_ = view.cache;
}

void DeadlineResolver::on_candidate_admitted(
    const ComponentDescriptor& candidate) {
  if (!in_batch_ || session_cache_ == nullptr ||
      !is_deadline_class(candidate)) {
    return;
  }
  CpuSums& sums = session_cpu(candidate.target_cpu(), *session_cache_);
  const Terms terms = terms_of(candidate);
  sums.util += terms.util;
  sums.density += terms.density;
}

void DeadlineResolver::end_batch(bool /*committed*/) {
  in_batch_ = false;
  session_cache_ = nullptr;
  session_.clear();
}

// --------------------------------------------------- EmpiricalResolver

double EmpiricalResolver::effective_usage(
    const ComponentDescriptor& descriptor) const {
  const double observed = monitor_->observed_usage(descriptor.name);
  return std::max(descriptor.cpu_usage, observed);
}

EmpiricalResolver::CpuSums& EmpiricalResolver::session_cpu(
    CpuId cpu, const ContractCache& cache) {
  if (cpu >= session_.size()) session_.resize(cpu + 1);
  CpuSums& sums = session_[cpu];
  if (sums.built) return sums;
  sums.built = true;
  sums.util = 0.0;
  // The cache's per-CPU slice is the activation-ordered restriction of the
  // global active list, so this fold matches the cold scan bit for bit.
  for (const auto* descriptor : cache.active_on(cpu)) {
    if (!has_recurring_contract(*descriptor)) continue;
    sums.util += effective_usage(*descriptor);
  }
  return sums;
}

Result<void> EmpiricalResolver::admit(const ComponentDescriptor& candidate,
                                      const SystemView& view) {
  if (!has_recurring_contract(candidate)) {
    return Result<void>::success();
  }
  const CpuId cpu = candidate.target_cpu();
  double util = 0.0;
  if (in_batch_ && view.cache != nullptr && view.cache == session_cache_ &&
      view.id == session_view_id_) {
    util = session_cpu(cpu, *view.cache).util;
  } else {
    for (const auto* descriptor : view.active) {
      if (!has_recurring_contract(*descriptor) ||
          descriptor->target_cpu() != cpu) {
        continue;
      }
      util += effective_usage(*descriptor);
    }
  }
  const double cand_usage = effective_usage(candidate);
  if (util + cand_usage > budget_ + 1e-12) {
    std::ostringstream reason;
    reason << "observed utilization exceeded on cpu " << cpu << ": " << util
           << " + " << cand_usage << " > " << budget_;
    return make_error(ErrorCode::kAdmissionRejected,
                      "drcom.admission_rejected", reason.str());
  }

  // Candidate-only response-time check with measured interferer costs.
  // Deadline-class sets are owned by the EDF test above (DeadlineResolver's
  // model); fixed-priority candidates face fixed-priority interference.
  if (DeadlineResolver::is_deadline_class(candidate)) {
    return Result<void>::success();
  }
  SimDuration cand_period = 0;
  int cand_priority = 0;
  SimTime cand_deadline = 0;
  if (candidate.periodic.has_value()) {
    cand_period = candidate.periodic->period();
    cand_priority = candidate.periodic->priority;
    cand_deadline = candidate.periodic->effective_deadline();
  } else {
    cand_period = candidate.sporadic->min_interarrival;
    cand_priority = candidate.sporadic->priority;
    cand_deadline = candidate.sporadic->min_interarrival;
  }
  std::vector<std::pair<SimDuration, SimDuration>> interferers;
  for (const auto* descriptor : view.active) {
    if (!has_recurring_contract(*descriptor) ||
        descriptor->target_cpu() != cpu ||
        DeadlineResolver::is_deadline_class(*descriptor)) {
      continue;
    }
    const int priority = descriptor->periodic.has_value()
                             ? descriptor->periodic->priority
                             : descriptor->sporadic->priority;
    if (priority > cand_priority) continue;  // never preempts the candidate
    const SimDuration period = descriptor->periodic.has_value()
                                   ? descriptor->periodic->period()
                                   : descriptor->sporadic->min_interarrival;
    const auto cost = static_cast<SimDuration>(effective_usage(*descriptor) *
                                               static_cast<double>(period)) +
                      per_job_overhead_;
    interferers.emplace_back(cost, period);
  }
  const SimDuration cand_cost =
      static_cast<SimDuration>(cand_usage * static_cast<double>(cand_period)) +
      per_job_overhead_;
  const SimTime response = ResponseTimeResolver::response_time(
      cand_cost, cand_deadline, interferers);
  if (response > cand_deadline) {
    std::ostringstream reason;
    reason << "RTA with observed costs: '" << candidate.name
           << "' would miss its deadline on cpu " << cpu << " (R";
    if (response == kSimTimeNever) {
      reason << " diverges";
    } else {
      reason << "=" << response;
    }
    reason << " > D=" << cand_deadline << ")";
    return make_error(ErrorCode::kAdmissionRejected,
                      "drcom.admission_rejected", reason.str());
  }
  return Result<void>::success();
}

void EmpiricalResolver::begin_batch(const SystemView& view) {
  session_.clear();
  in_batch_ = view.cache != nullptr;
  session_view_id_ = view.id;
  session_cache_ = view.cache;
}

void EmpiricalResolver::on_candidate_admitted(
    const ComponentDescriptor& candidate) {
  if (!in_batch_ || session_cache_ == nullptr ||
      !has_recurring_contract(candidate)) {
    return;
  }
  session_cpu(candidate.target_cpu(), *session_cache_).util +=
      effective_usage(candidate);
}

void EmpiricalResolver::end_batch(bool /*committed*/) {
  in_batch_ = false;
  session_cache_ = nullptr;
  session_.clear();
}

}  // namespace drt::drcom
