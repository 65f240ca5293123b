// Unit tests for the observability primitives: sharded counters stay
// exact under thread storms, histograms keep exact count/sum/min/max with
// factor-of-2 quantiles clamped into [min, max], the Registry names
// metrics stably and rejects kind collisions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace swr::obs {
namespace {

TEST(Counter, StartsAtZeroAndAddsExactly) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsAreExact) {
  // More threads than shards, uneven per-thread contributions: the total
  // must still be the exact sum no matter how threads map onto shards.
  Counter c;
  constexpr int kThreads = 37;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(static_cast<std::uint64_t>(t % 3) + 1);
    });
  }
  for (std::thread& th : threads) th.join();
  std::uint64_t want = 0;
  for (int t = 0; t < kThreads; ++t) want += (static_cast<std::uint64_t>(t % 3) + 1) * kPerThread;
  EXPECT_EQ(c.value(), want);
}

TEST(Gauge, SetAddValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
  g.set(0);
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketIndexIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(255), 8u);
  EXPECT_EQ(Histogram::bucket_index(256), 9u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);
}

TEST(Histogram, CountAndSumAreExact) {
  Histogram h;
  std::uint64_t want_sum = 0;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    h.observe(v);
    want_sum += v;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), want_sum);
}

TEST(Histogram, QuantileWithinFactorOfTwo) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1024; ++v) h.observe(v);
  // True p50 is 512; the estimate interpolates inside bucket [256, 512).
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 2048.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
}

TEST(Histogram, ObserveNEqualsNObserves) {
  Histogram batched;
  Histogram looped;
  const std::pair<std::uint64_t, std::uint64_t> samples[] = {{0, 3}, {7, 5}, {32, 1}, {41735, 2}};
  for (const auto& [v, n] : samples) {
    batched.observe_n(v, n);
    for (std::uint64_t k = 0; k < n; ++k) looped.observe(v);
  }
  batched.observe_n(99, 0);  // no samples: changes nothing, not even max
  EXPECT_EQ(batched.count(), looped.count());
  EXPECT_EQ(batched.sum(), looped.sum());
  EXPECT_EQ(batched.bucket_counts(), looped.bucket_counts());
  EXPECT_EQ(batched.min(), 0u);
  EXPECT_EQ(batched.max(), 41735u);
  for (const double q : {0.5, 0.9, 0.99}) EXPECT_EQ(batched.quantile(q), looped.quantile(q));
}

TEST(Histogram, SingleSampleQuantilesAreTheSample) {
  // One worker's scan.worker_kernel_us: the bucket estimate alone would
  // report the bucket's top edge, 65536.
  Histogram h;
  h.observe(41735);
  EXPECT_EQ(h.min(), 41735u);
  EXPECT_EQ(h.max(), 41735u);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) EXPECT_EQ(h.quantile(q), 41735.0) << q;
}

TEST(Histogram, QuantilesStayWithinMinAndMax) {
  Histogram h;
  for (std::uint64_t v = 300; v <= 310; ++v) h.observe(v);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), 300.0) << q;
    EXPECT_LE(h.quantile(q), 310.0) << q;
  }
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, ObserveSecondsConvertsToMicros) {
  Histogram h;
  h.observe_seconds(0.001);  // 1000 us
  EXPECT_EQ(h.sum(), 1000u);
  h.observe_seconds(-1.0);  // clamped to 0
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 1000u);
}

TEST(Histogram, ConcurrentObservesKeepExactCountAndSum) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(i % 97);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t per_thread_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) per_thread_sum += i % 97;
  EXPECT_EQ(h.sum(), kThreads * per_thread_sum);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry reg;
  Counter& a = reg.counter("x.hits");
  Counter& b = reg.counter("x.hits");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(&reg.gauge("x.depth"), &reg.gauge("x.depth"));
  EXPECT_EQ(&reg.histogram("x.lat_us"), &reg.histogram("x.lat_us"));
}

TEST(Registry, KindCollisionThrows) {
  Registry reg;
  reg.counter("x.metric");
  EXPECT_THROW(reg.gauge("x.metric"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x.metric"), std::invalid_argument);
  reg.histogram("y.metric");
  EXPECT_THROW(reg.counter("y.metric"), std::invalid_argument);
}

TEST(Registry, SnapshotIsSortedAndComplete) {
  Registry reg;
  reg.counter("b.two").add(2);
  reg.counter("a.one").add(1);
  reg.gauge("z.depth").set(-5);
  reg.histogram("m.lat_us").observe(100);

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.one");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b.two");
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  EXPECT_EQ(snap.histograms[0].second.sum, 100u);

  EXPECT_EQ(snap.counter("a.one"), 1u);
  EXPECT_EQ(snap.counter("no.such"), 0u);
}

TEST(Registry, ConcurrentRegistrationAndMutationIsSafe) {
  // Threads race to create/fetch the same small name set and mutate; the
  // registry must hand every thread the same handle per name.
  Registry reg;
  constexpr int kThreads = 16;
  constexpr int kIters = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter(i % 2 == 0 ? "r.even" : "r.odd").add();
        reg.histogram("r.lat_us").observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("r.even") + snap.counter("r.odd"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.histograms.at(0).second.count, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(Registry, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&global_registry(), &global_registry());
}

}  // namespace
}  // namespace swr::obs
