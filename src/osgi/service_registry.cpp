#include "osgi/service_registry.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace drt::osgi {

namespace {
const Properties kEmptyProperties;
const std::vector<std::string> kNoInterfaces;

/// The OSGi ordering rule: highest ranking first, ties broken by lowest
/// service id. Ids are unique, so this is a strict weak order with no equal
/// elements — lower_bound yields the unique insertion point.
bool ranks_before(const std::shared_ptr<detail::ServiceEntry>& a,
                  const std::shared_ptr<detail::ServiceEntry>& b) {
  if (a->ranking != b->ranking) return a->ranking > b->ranking;
  return a->id < b->id;
}

void insert_sorted(std::vector<std::shared_ptr<detail::ServiceEntry>>& pool,
                   const std::shared_ptr<detail::ServiceEntry>& entry) {
  pool.insert(std::lower_bound(pool.begin(), pool.end(), entry, ranks_before),
              entry);
}

void erase_entry(std::vector<std::shared_ptr<detail::ServiceEntry>>& pool,
                 const std::shared_ptr<detail::ServiceEntry>& entry) {
  pool.erase(std::remove(pool.begin(), pool.end(), entry), pool.end());
}
}  // namespace

const Properties& ServiceReference::properties() const {
  return entry_ ? entry_->properties : kEmptyProperties;
}

const std::vector<std::string>& ServiceReference::interfaces() const {
  return entry_ ? entry_->interfaces : kNoInterfaces;
}

std::int64_t ServiceReference::ranking() const {
  return entry_ ? entry_->ranking : 0;
}

void ServiceRegistration::set_properties(Properties properties) {
  if (registry_ != nullptr && entry_ != nullptr && entry_->registered) {
    registry_->do_set_properties(entry_, std::move(properties));
  }
}

void ServiceRegistration::unregister() {
  if (registry_ != nullptr && entry_ != nullptr && entry_->registered) {
    registry_->do_unregister(entry_);
  }
}

ServiceRegistration ServiceRegistry::register_service(
    BundleId owner, std::vector<std::string> interfaces,
    std::shared_ptr<void> service, Properties properties) {
  auto entry = std::make_shared<detail::ServiceEntry>();
  entry->id = next_service_id_++;
  entry->owner = owner;
  entry->interfaces = std::move(interfaces);
  entry->service = std::move(service);
  entry->properties = std::move(properties);
  entry->properties.set("objectClass", entry->interfaces);
  entry->properties.set("service.id",
                        static_cast<std::int64_t>(entry->id));
  entry->properties.set("service.bundleid",
                        static_cast<std::int64_t>(owner));
  entry->ranking = entry->properties.get_int("service.ranking").value_or(0);
  entries_.push_back(entry);
  index_entry(entry);
  if (log::enabled(log::Level::kDebug)) {
    log::Line(log::Level::kDebug, "osgi.registry")
        << "registered service #" << entry->id << " "
        << entry->properties.to_string();
  }
  fire(ServiceEventType::kRegistered, entry);
  return ServiceRegistration{entry, this};
}

const std::vector<ServiceRegistry::EntryPtr>* ServiceRegistry::pool_for(
    std::string_view interface_name) const {
  if (interface_name.empty()) return &sorted_all_;
  const auto found = by_interface_.find(interface_name);
  return found == by_interface_.end() ? nullptr : &found->second;
}

std::vector<ServiceReference> ServiceRegistry::get_references(
    std::string_view interface_name, const Filter* filter) const {
  // The index pools are already sorted best-first; filtering preserves the
  // order, so no per-call sort remains.
  if (lookup_counter_ != nullptr) lookup_counter_->add();
  const std::vector<EntryPtr>* pool = pool_for(interface_name);
  if (pool == nullptr) return {};
  std::vector<ServiceReference> out;
  out.reserve(pool->size());
  for (const auto& entry : *pool) {
    if (!entry->registered) continue;
    if (filter != nullptr && !filter->matches(entry->properties)) continue;
    out.push_back(ServiceReference{entry});
  }
  return out;
}

std::optional<ServiceReference> ServiceRegistry::get_reference(
    std::string_view interface_name, const Filter* filter) const {
  // First match in a best-first pool IS the best reference: no vector, no
  // sort, early exit.
  if (lookup_counter_ != nullptr) lookup_counter_->add();
  const std::vector<EntryPtr>* pool = pool_for(interface_name);
  if (pool == nullptr) return std::nullopt;
  for (const auto& entry : *pool) {
    if (!entry->registered) continue;
    if (filter != nullptr && !filter->matches(entry->properties)) continue;
    return ServiceReference{entry};
  }
  return std::nullopt;
}

void ServiceRegistry::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == metrics_) return;
  if (metrics_ != nullptr) metrics_->remove_gauge_callback("osgi.services");
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    lookup_counter_ = nullptr;
    return;
  }
  lookup_counter_ = metrics_->counter(
      "osgi.service_lookups", "Service registry reference lookups.");
  metrics_->gauge_callback("osgi.services", "Live registered services.",
                           [this] { return static_cast<double>(size()); });
}

ListenerToken ServiceRegistry::add_listener(ServiceListener listener,
                                            std::optional<Filter> filter) {
  const ListenerToken token = next_listener_token_++;
  listeners_.push_back({token, std::move(listener), std::move(filter)});
  return token;
}

void ServiceRegistry::remove_listener(ListenerToken token) {
  std::erase_if(listeners_,
                [token](const auto& rec) { return rec.token == token; });
}

void ServiceRegistry::unregister_all(BundleId owner) {
  // Snapshot first: unregistering fires listeners that may mutate entries_.
  std::vector<std::shared_ptr<detail::ServiceEntry>> owned;
  for (const auto& entry : entries_) {
    if (entry->registered && entry->owner == owner) owned.push_back(entry);
  }
  for (const auto& entry : owned) do_unregister(entry);
}

std::size_t ServiceRegistry::size() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& e) { return e->registered; }));
}

void ServiceRegistry::index_entry(const EntryPtr& entry) {
  insert_sorted(sorted_all_, entry);
  for (const std::string& interface_name : entry->interfaces) {
    insert_sorted(by_interface_[interface_name], entry);
  }
}

void ServiceRegistry::unindex_entry(const EntryPtr& entry) {
  erase_entry(sorted_all_, entry);
  for (const std::string& interface_name : entry->interfaces) {
    const auto found = by_interface_.find(interface_name);
    if (found == by_interface_.end()) continue;
    erase_entry(found->second, entry);
    if (found->second.empty()) by_interface_.erase(found);
  }
}

void ServiceRegistry::do_unregister(
    const std::shared_ptr<detail::ServiceEntry>& entry) {
  fire(ServiceEventType::kUnregistering, entry);
  entry->registered = false;
  unindex_entry(entry);
  std::erase(entries_, entry);
  log::Line(log::Level::kDebug, "osgi.registry")
      << "unregistered service #" << entry->id;
}

void ServiceRegistry::do_set_properties(
    const std::shared_ptr<detail::ServiceEntry>& entry,
    Properties properties) {
  // Standard properties survive modification (OSGi Core §5.2.5).
  properties.set("objectClass", entry->interfaces);
  properties.set("service.id", static_cast<std::int64_t>(entry->id));
  properties.set("service.bundleid",
                 static_cast<std::int64_t>(entry->owner));
  entry->properties = std::move(properties);
  const std::int64_t new_ranking =
      entry->properties.get_int("service.ranking").value_or(0);
  if (new_ranking != entry->ranking) {
    // Ranking moved: re-slot the entry in every sorted pool it belongs to.
    unindex_entry(entry);
    entry->ranking = new_ranking;
    index_entry(entry);
  }
  fire(ServiceEventType::kModified, entry);
}

void ServiceRegistry::fire(ServiceEventType type,
                           const std::shared_ptr<detail::ServiceEntry>& entry) {
  // Copy the listener list: a listener may add/remove listeners while being
  // notified (the DRCR does exactly that when a resolver appears).
  const auto snapshot = listeners_;
  const ServiceEvent event{type, ServiceReference{entry}};
  for (const auto& record : snapshot) {
    if (record.filter.has_value() &&
        !record.filter->matches(entry->properties)) {
      continue;
    }
    record.listener(event);
  }
}

}  // namespace drt::osgi
