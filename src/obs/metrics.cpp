#include "obs/metrics.hpp"

#include <algorithm>
#include <utility>

namespace drt::obs {

double Histogram::quantile(double q) const {
  const auto& counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based; q=1 selects the last one.
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cumulative + in_bucket < rank || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    // The +Inf bucket has no upper bound: report its lower edge (the last
    // finite bound), or the sum-derived mean when there are no bounds at all.
    if (i >= bounds_.size()) {
      return bounds_.empty() ? sum() / static_cast<double>(total)
                             : bounds_.back();
    }
    const double hi = bounds_[i];
    const double lo = i == 0 ? std::min(0.0, hi) : bounds_[i - 1];
    const double fraction = (rank - cumulative) / in_bucket;
    return lo + (hi - lo) * fraction;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

Counter* MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(
                                new Counter(name, help, &enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(name,
                      std::unique_ptr<Gauge>(new Gauge(name, help, &enabled_)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(
                                name, help, std::move(bounds), &enabled_)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::gauge_callback(const std::string& name,
                                     const std::string& help,
                                     std::function<double()> fn) {
  callbacks_[name] = CallbackGauge{help, std::move(fn)};
}

void MetricsRegistry::remove_gauge_callback(const std::string& name) {
  callbacks_.erase(name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->help(), c->value()});
  }

  // Stored and callback gauges merge into one name-sorted list; both maps
  // are already sorted, so a two-finger merge keeps the order deterministic.
  auto stored = gauges_.begin();
  auto computed = callbacks_.begin();
  while (stored != gauges_.end() || computed != callbacks_.end()) {
    const bool take_stored =
        computed == callbacks_.end() ||
        (stored != gauges_.end() && stored->first < computed->first);
    if (take_stored) {
      snap.gauges.push_back(
          {stored->first, stored->second->help(), stored->second->value()});
      ++stored;
    } else {
      snap.gauges.push_back({computed->first, computed->second.help,
                             computed->second.fn ? computed->second.fn() : 0.0});
      ++computed;
    }
  }

  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->help(), h->bounds(),
                               h->bucket_counts(), h->sum(), h->count()});
  }
  return snap;
}

std::size_t MetricsRegistry::metric_count() const {
  return counters_.size() + gauges_.size() + histograms_.size() +
         callbacks_.size();
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) {
    c->value_ = 0;
  }
  for (auto& [name, g] : gauges_) {
    g->value_ = 0.0;
  }
  for (auto& [name, h] : histograms_) {
    std::fill(h->buckets_.begin(), h->buckets_.end(), 0);
    h->sum_ns_ = 0.0;
    h->count_ = 0;
  }
}

}  // namespace drt::obs
