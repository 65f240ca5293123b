// Observability primitives: counters, gauges, latency histograms, and a
// process-wide Registry with stable metric naming.
//
// Database-scale SW systems (SWAPHI, BioSEAL) report sustained GCUPS and
// per-stage utilization as first-class outputs; this module is the
// instrument panel that makes those numbers observable in *this* system —
// the serving layer (svc), the scan engines (host) and the store (db) all
// record into a Registry the caller hands them.
//
// Design constraints, in order:
//
//   * ZERO cost when disabled. Every instrumented component takes a
//     `Registry*` that defaults to nullptr; with no registry the hot paths
//     never form a metric name, never touch an atomic, never branch more
//     than once per scan/chunk. bench_kernels proves the scan-path impact
//     stays under the documented 2% bound (DESIGN.md §3e).
//   * Cheap when enabled. Counter is sharded: per-thread slots on separate
//     cache lines, so concurrent workers never bounce a line. Histograms
//     use power-of-two buckets — observe() is a bit_width, three relaxed
//     fetch_adds and the min/max loads (a CAS only on a new extreme).
//   * Exact where it matters. Counter::value() and Histogram count/sum/
//     min/max are exact (tests reconcile them against ScanResult totals);
//     only the histogram quantiles interpolate within a bucket.
//
// Thread-safety: every mutation is lock-free on shared handles; Registry
// lookups take a mutex (do them once per scan, not per record — handles
// stay valid for the Registry's lifetime).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace swr::obs {

/// Monotonic counter, sharded across cache-line-padded per-thread slots so
/// concurrent add() calls from scan workers never contend on one line.
/// value() sums the shards (exact; reads are racy only in the benign
/// "concurrent adds may or may not be included" sense).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  // 64 = the universal L1 line size on the targets we build for;
  // std::hardware_destructive_interference_size is not constexpr-portable
  // across the GCC versions CI uses.
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static constexpr std::size_t kShards = 16;

  /// Threads are assigned shards round-robin on first use; the assignment
  /// is process-wide so a thread hits the same slot in every counter.
  static std::size_t shard_index() noexcept;

  std::array<Shard, kShards> shards_{};
};

/// Last-value gauge (queue depth, in-flight queries, bytes mapped).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Latency/size histogram with power-of-two buckets: bucket b holds values
/// in [2^(b-1), 2^b), bucket 0 holds zero. count, sum, min and max are
/// exact; quantile() finds the bucket where the cumulative count crosses
/// the rank, interpolates linearly inside it and clamps the estimate into
/// [min, max] — the classic HdrHistogram-style trade of one bit of
/// relative precision for O(1) lock-free observes.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // 0 plus one per bit of uint64_t

  void observe(std::uint64_t v) noexcept { observe_n(v, 1); }

  /// `n` observations of the same value: count, sum and buckets end up
  /// exactly as after n observe(v) calls.
  void observe_n(std::uint64_t v, std::uint64_t n) noexcept {
    if (n == 0) return;
    buckets_[bucket_index(v)].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(v * n, std::memory_order_relaxed);
    std::uint64_t lo = min_.load(std::memory_order_relaxed);
    while (v < lo && !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
    }
    std::uint64_t hi = max_.load(std::memory_order_relaxed);
    while (v > hi && !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
    }
  }

  /// Convenience for wall-clock stages: seconds -> whole microseconds.
  void observe_seconds(double s) noexcept {
    observe(s <= 0.0 ? 0 : static_cast<std::uint64_t>(s * 1e6));
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Exact smallest and largest observed values; both 0 with no
  /// observations.
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_.load(std::memory_order_relaxed); }

  /// q in [0,1]; 0 with no observations. Exact for values that fall on
  /// bucket boundaries, otherwise within a factor of 2 (interpolated),
  /// and always clamped into [min(), max()] — so a single sample's
  /// quantiles are that sample.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Per-bucket counts, index = bucket_index. Racy-benign snapshot.
  [[nodiscard]] std::array<std::uint64_t, kBuckets> bucket_counts() const noexcept;

  /// Exclusive upper bound of bucket b (2^b; bucket 0 -> 1).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t b) noexcept {
    return b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b);
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// One metric's state at snapshot time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// (exclusive upper bound, count) for every non-empty bucket, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Point-in-time view of a whole Registry, names sorted — the stable form
/// everything downstream (JSON dump, stats table, tests) consumes.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Value of a named counter, 0 when absent (tests' reconciliation aid).
  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
};

/// Named metric store. Handles returned by counter()/gauge()/histogram()
/// are stable for the Registry's lifetime — fetch once per scan, mutate
/// lock-free from any thread. Names are dotted lowercase paths
/// ("svc.queries_admitted"); re-requesting a name returns the same metric,
/// requesting it as a different kind throws.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// @throws std::invalid_argument when `name` exists as another kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;  // sorted = stable naming
};

/// The process-wide registry the CLI records into when --stats or
/// --metrics-out asks for observability. Library code never touches it
/// implicitly — components only record into a Registry they were handed.
Registry& global_registry();

}  // namespace swr::obs
