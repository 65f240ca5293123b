#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace swr::obs {

std::size_t Counter::shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th observation (1-based, ceil — the standard "nearest
  // rank" definition, so quantile(1.0) lands in the last non-empty bucket).
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;

  // The bucket estimate can overshoot the data by up to a factor of 2;
  // the exact extremes bound it. A racing observe may have bumped the
  // buckets before min/max, so clamp only a consistent pair.
  const double vmin = static_cast<double>(min_.load(std::memory_order_relaxed));
  const double vmax = static_cast<double>(max_.load(std::memory_order_relaxed));
  const auto clamped = [&](double v) { return vmin <= vmax ? std::clamp(v, vmin, vmax) : v; };

  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = buckets_[b].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (seen + c < rank) {
      seen += c;
      continue;
    }
    if (b == 0) return clamped(0.0);
    // Interpolate within [2^(b-1), 2^b) by the rank's position in the
    // bucket's count.
    const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
    const double hi = b >= 64 ? lo * 2.0 : static_cast<double>(std::uint64_t{1} << b);
    const double frac = static_cast<double>(rank - seen) / static_cast<double>(c);
    return clamped(lo + (hi - lo) * frac);
  }
  return 0.0;  // unreachable when count() > 0, but races are benign
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::bucket_counts() const noexcept {
  std::array<std::uint64_t, kBuckets> out{};
  for (std::size_t b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Snapshot::counter(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

Registry::Entry& Registry::entry(std::string_view name, Kind kind) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("Registry: metric '" + std::string(name) +
                                  "' already registered as a different kind");
    }
    return it->second;
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case Kind::Counter: e.counter = std::make_unique<Counter>(); break;
    case Kind::Gauge: e.gauge = std::make_unique<Gauge>(); break;
    case Kind::Histogram: e.histogram = std::make_unique<Histogram>(); break;
  }
  return metrics_.emplace(std::string(name), std::move(e)).first->second;
}

Counter& Registry::counter(std::string_view name) { return *entry(name, Kind::Counter).counter; }

Gauge& Registry::gauge(std::string_view name) { return *entry(name, Kind::Gauge).gauge; }

Histogram& Registry::histogram(std::string_view name) {
  return *entry(name, Kind::Histogram).histogram;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, e] : metrics_) {  // map order = sorted names
    switch (e.kind) {
      case Kind::Counter:
        snap.counters.emplace_back(name, e.counter->value());
        break;
      case Kind::Gauge:
        snap.gauges.emplace_back(name, e.gauge->value());
        break;
      case Kind::Histogram: {
        HistogramSnapshot h;
        h.count = e.histogram->count();
        h.sum = e.histogram->sum();
        h.p50 = e.histogram->quantile(0.50);
        h.p90 = e.histogram->quantile(0.90);
        h.p99 = e.histogram->quantile(0.99);
        const auto counts = e.histogram->bucket_counts();
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          if (counts[b] != 0) h.buckets.emplace_back(Histogram::bucket_upper(b), counts[b]);
        }
        snap.histograms.emplace_back(name, std::move(h));
        break;
      }
    }
  }
  return snap;
}

Registry& global_registry() {
  static Registry registry;
  return registry;
}

}  // namespace swr::obs
