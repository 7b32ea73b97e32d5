#include "drcom/contract_cache.hpp"

#include <algorithm>

namespace drt::drcom {
namespace {

bool has_recurring_contract(const ComponentDescriptor& descriptor) {
  return descriptor.type == rtos::TaskType::kPeriodic ||
         descriptor.type == rtos::TaskType::kSporadic;
}

RecurringEntry derive_entry(const ComponentDescriptor& descriptor) {
  RecurringEntry entry;
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
  entry.base_cost = static_cast<SimDuration>(
      descriptor.cpu_usage * static_cast<double>(entry.period));
  return entry;
}

std::uint64_t next_cache_id() {
  static std::uint64_t counter = 0;
  return ++counter;
}

}  // namespace

ContractCache::ContractCache(std::size_t cpu_count)
    : cache_id_(next_cache_id()), per_cpu_(cpu_count) {}

std::uint64_t ContractCache::generation(CpuId cpu) const {
  return cpu < per_cpu_.size() ? per_cpu_[cpu].generation : 0;
}

void ContractCache::on_activate(const ComponentDescriptor& descriptor) {
  const CpuId cpu = descriptor.target_cpu();
  // Descriptors may pin a CPU the kernel doesn't have; admission still sees
  // them (the O(n) scan did), so the cache tracks them too.
  if (cpu >= per_cpu_.size()) per_cpu_.resize(cpu + 1);
  PerCpu& slot = per_cpu_[cpu];
  active_.push_back(&descriptor);
  slot.active.push_back(&descriptor);
  // Appending to a running left-fold extends it exactly.
  slot.declared_sum += descriptor.cpu_usage;
  if (has_recurring_contract(descriptor)) {
    RecurringEntry entry = derive_entry(descriptor);
    const RecurringKey key{entry.priority, next_seq_};
    slot.recurring_sum += descriptor.cpu_usage;
    slot.recurring.emplace(key, entry);
    slot.recurring_key.emplace(&descriptor, key);
  }
  ++next_seq_;
  ++slot.generation;
}

void ContractCache::on_deactivate(const ComponentDescriptor& descriptor) {
  const CpuId cpu = descriptor.target_cpu();
  if (cpu >= per_cpu_.size()) return;
  PerCpu& slot = per_cpu_[cpu];
  const auto global = std::find(active_.begin(), active_.end(), &descriptor);
  if (global != active_.end()) active_.erase(global);
  const auto local =
      std::find(slot.active.begin(), slot.active.end(), &descriptor);
  if (local == slot.active.end()) return;
  slot.active.erase(local);
  refold(slot);
  if (const auto key = slot.recurring_key.find(&descriptor);
      key != slot.recurring_key.end()) {
    slot.recurring.erase(key->second);
    slot.recurring_key.erase(key);
  }
  ++slot.generation;
}

void ContractCache::on_rebudget(
    std::span<const ComponentDescriptor* const> batch) {
  if (batch.empty()) return;
  // Sorted copy for the membership tests of the one-pass removals.
  std::vector<const ComponentDescriptor*> moving(batch.begin(), batch.end());
  std::sort(moving.begin(), moving.end());
  const auto is_moving = [&moving](const ComponentDescriptor* descriptor) {
    return std::binary_search(moving.begin(), moving.end(), descriptor);
  };
  std::vector<bool> touched(per_cpu_.size(), false);
  for (const ComponentDescriptor* descriptor : batch) {
    touched[descriptor->target_cpu()] = true;
  }
  std::erase_if(active_, is_moving);
  for (CpuId cpu = 0; cpu < per_cpu_.size(); ++cpu) {
    if (touched[cpu]) std::erase_if(per_cpu_[cpu].active, is_moving);
  }
  // Re-append in batch order, each recurring entry re-keyed to the seq the
  // sequential on_activate would assign it; the map node is reused.
  for (const ComponentDescriptor* descriptor : batch) {
    PerCpu& slot = per_cpu_[descriptor->target_cpu()];
    active_.push_back(descriptor);
    slot.active.push_back(descriptor);
    if (has_recurring_contract(*descriptor)) {
      RecurringKey& key = slot.recurring_key.at(descriptor);
      auto node = slot.recurring.extract(key);
      node.mapped() = derive_entry(*descriptor);
      key = {node.mapped().priority, next_seq_};
      node.key() = key;
      slot.recurring.insert(std::move(node));
    }
    ++next_seq_;
  }
  // One re-fold per touched CPU equals the sequential result: the last
  // on_deactivate there re-folded this list minus the appends that follow.
  for (CpuId cpu = 0; cpu < per_cpu_.size(); ++cpu) {
    if (!touched[cpu]) continue;
    refold(per_cpu_[cpu]);
    ++per_cpu_[cpu].generation;
  }
}

void ContractCache::refold(PerCpu& slot) {
  // Subtracting a double does NOT invert the fold that produced the sum;
  // re-fold the survivors in activation order so the cached value stays
  // bit-identical to a from-scratch scan.
  slot.declared_sum = 0.0;
  slot.recurring_sum = 0.0;
  for (const ComponentDescriptor* survivor : slot.active) {
    slot.declared_sum += survivor->cpu_usage;
    if (has_recurring_contract(*survivor)) {
      slot.recurring_sum += survivor->cpu_usage;
    }
  }
  ++refolds_;
}

double ContractCache::declared_utilization(CpuId cpu) const {
  return cpu < per_cpu_.size() ? per_cpu_[cpu].declared_sum : 0.0;
}

double ContractCache::recurring_utilization(CpuId cpu) const {
  return cpu < per_cpu_.size() ? per_cpu_[cpu].recurring_sum : 0.0;
}

std::size_t ContractCache::active_count_on(CpuId cpu) const {
  return cpu < per_cpu_.size() ? per_cpu_[cpu].active.size() : 0;
}

std::size_t ContractCache::recurring_count_on(CpuId cpu) const {
  return cpu < per_cpu_.size() ? per_cpu_[cpu].recurring.size() : 0;
}

const std::vector<const ComponentDescriptor*>& ContractCache::active_on(
    CpuId cpu) const {
  static const std::vector<const ComponentDescriptor*> kEmpty;
  return cpu < per_cpu_.size() ? per_cpu_[cpu].active : kEmpty;
}

const RecurringMap& ContractCache::recurring_by_priority(CpuId cpu) const {
  static const RecurringMap kEmpty;
  return cpu < per_cpu_.size() ? per_cpu_[cpu].recurring : kEmpty;
}

ContractSummary ContractCache::summary() const {
  ContractSummary summary;
  summary.cache_id = cache_id_;
  summary.generations.reserve(per_cpu_.size());
  summary.declared.reserve(per_cpu_.size());
  summary.recurring.reserve(per_cpu_.size());
  for (const PerCpu& slot : per_cpu_) {
    summary.generations.push_back(slot.generation);
    summary.declared.push_back(slot.declared_sum);
    summary.recurring.push_back(slot.recurring_sum);
  }
  summary.active_components = active_.size();
  return summary;
}

bool ContractCache::fresh(const ContractSummary& summary) const {
  if (summary.cache_id != cache_id_) return false;
  // A CPU appearing since the summary was taken always carries a bumped
  // generation, so a size mismatch is stale by construction.
  if (summary.generations.size() != per_cpu_.size()) return false;
  for (std::size_t cpu = 0; cpu < per_cpu_.size(); ++cpu) {
    if (summary.generations[cpu] != per_cpu_[cpu].generation) return false;
  }
  return true;
}

}  // namespace drt::drcom
