// Service stress tests: concurrent submit/cancel/deadline storms against a
// tiny admission queue, designed to run under TSan. The invariants: no
// ticket is ever lost (every future resolves), nothing resolves Failed,
// and the observability counters reconcile exactly with what the
// producers saw — admitted + rejected == attempts, terminal status
// counters sum to admitted, and record/cell totals equal the sums over
// the resolved responses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/builder.hpp"
#include "db/store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace std::chrono_literals;

std::vector<seq::Sequence> stress_records() {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 48; ++k) {
    seq::Sequence s = test::random_dna(8 + 17 * static_cast<std::size_t>(k % 11), 7700 + k);
    s.set_name("rec" + std::to_string(k));
    recs.push_back(std::move(s));
  }
  return recs;
}

struct StormOutcome {
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t done = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t records_scanned = 0;
  std::uint64_t cells = 0;
  std::uint64_t swar8_fallbacks = 0;
};

// Runs `producers` threads, each submitting `per_producer` queries against
// `service`; every admitted ticket's future is drained and tallied.
// `cancel_every` > 0 cancels every n-th admitted query immediately;
// `deadline` (zero = none) is applied to every submission.
StormOutcome run_storm(svc::ScanService& service, int producers, int per_producer,
                       int cancel_every, std::chrono::milliseconds deadline) {
  std::mutex mu;
  StormOutcome total;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      StormOutcome local;
      std::vector<svc::Ticket> tickets;
      for (int i = 0; i < per_producer; ++i) {
        host::ScanOptions opt;
        opt.top_k = 4;
        seq::Sequence query =
            test::random_dna(12 + static_cast<std::size_t>((p + i) % 7), 900 + p * 131 + i);
        ++local.attempts;
        std::optional<svc::Ticket> t = service.try_submit(std::move(query), opt, deadline);
        if (!t) {
          ++local.rejected;
          continue;
        }
        ++local.admitted;
        if (cancel_every > 0 && i % cancel_every == 0) (void)service.cancel(t->id);
        tickets.push_back(std::move(*t));
      }
      // Drain every future this producer holds — none may hang or be lost.
      for (svc::Ticket& t : tickets) {
        const svc::ScanResponse resp = t.response.get();
        switch (resp.status) {
          case svc::QueryStatus::Done: ++local.done; break;
          case svc::QueryStatus::Cancelled: ++local.cancelled; break;
          case svc::QueryStatus::DeadlineExpired: ++local.deadline_expired; break;
          case svc::QueryStatus::Failed: ++local.failed; break;
        }
        local.records_scanned += resp.result.records_scanned;
        local.cells += resp.result.cell_updates;
        local.swar8_fallbacks += resp.result.swar8_fallbacks;
      }
      const std::lock_guard<std::mutex> lock(mu);
      total.attempts += local.attempts;
      total.admitted += local.admitted;
      total.rejected += local.rejected;
      total.done += local.done;
      total.cancelled += local.cancelled;
      total.deadline_expired += local.deadline_expired;
      total.failed += local.failed;
      total.records_scanned += local.records_scanned;
      total.cells += local.cells;
      total.swar8_fallbacks += local.swar8_fallbacks;
    });
  }
  for (std::thread& th : threads) th.join();
  return total;
}

void expect_reconciled(const StormOutcome& got, const obs::Registry& reg,
                       const svc::ScanService& service) {
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(got.admitted + got.rejected, got.attempts);
  EXPECT_EQ(got.done + got.cancelled + got.deadline_expired + got.failed, got.admitted);
  EXPECT_EQ(got.failed, 0u);

  EXPECT_EQ(snap.counter("svc.queries_admitted"), got.admitted);
  EXPECT_EQ(snap.counter("svc.queries_rejected"), got.rejected);
  EXPECT_EQ(snap.counter("svc.queries_done"), got.done);
  EXPECT_EQ(snap.counter("svc.queries_cancelled"), got.cancelled);
  EXPECT_EQ(snap.counter("svc.queries_deadline_expired"), got.deadline_expired);
  EXPECT_EQ(snap.counter("svc.queries_failed"), 0u);
  EXPECT_EQ(snap.counter("svc.records_scanned"), got.records_scanned);
  EXPECT_EQ(snap.counter("svc.cells"), got.cells);
  EXPECT_EQ(snap.counter("svc.swar8_fallbacks"), got.swar8_fallbacks);

  EXPECT_EQ(service.resolved(), got.admitted);
  EXPECT_EQ(service.live(), 0u);
  // At rest the depth/dispatch gauges must have returned to zero.
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_EQ(value, 0) << name;
  }
  // Every resolved query observed one end-to-end latency sample.
  for (const auto& [name, hist] : snap.histograms) {
    if (name == "svc.query_us") {
      EXPECT_EQ(hist.count, got.admitted);
    }
  }
}

// Many producers against a deliberately tiny queue: heavy rejection
// traffic, but never a lost or unresolved ticket.
TEST(ServiceStress, TinyQueueSubmitStorm) {
  const std::vector<seq::Sequence> recs = stress_records();
  obs::Registry reg;
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 3;
  cfg.queue_capacity = 2;  // almost everything races against a full queue
  cfg.max_inflight = 2;
  cfg.chunk_records = 16;
  cfg.metrics = &reg;
  StormOutcome got;
  {
    svc::ScanService service(recs, cfg);
    got = run_storm(service, /*producers=*/8, /*per_producer=*/40, /*cancel_every=*/0, 0ms);
    EXPECT_GT(got.admitted, 0u);
    expect_reconciled(got, reg, service);
  }
}

// Cancellation storm: every other admitted query is cancelled right after
// submission, racing the dispatcher. Cancelled queries must still resolve
// (with partial results) and the status counters must still sum up.
TEST(ServiceStress, CancelStorm) {
  const std::vector<seq::Sequence> recs = stress_records();
  obs::Registry reg;
  obs::TraceRing trace(4'096);
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 2;
  cfg.queue_capacity = 8;
  cfg.chunk_records = 8;
  cfg.metrics = &reg;
  cfg.trace = &trace;
  StormOutcome got;
  {
    svc::ScanService service(recs, cfg);
    got = run_storm(service, /*producers=*/6, /*per_producer=*/30, /*cancel_every=*/2, 0ms);
    expect_reconciled(got, reg, service);
  }
  // Every resolved query left exactly one trace span.
  EXPECT_EQ(trace.recorded(), got.admitted);
}

// Deadline storm: a zero-millisecond deadline expires every query that is
// not resolved instantaneously; whichever way each race lands, the
// counters and futures must reconcile.
TEST(ServiceStress, DeadlineStorm) {
  const std::vector<seq::Sequence> recs = stress_records();
  obs::Registry reg;
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 2;
  cfg.queue_capacity = 4;
  cfg.chunk_records = 4;
  cfg.metrics = &reg;
  StormOutcome got;
  {
    svc::ScanService service(recs, cfg);
    got = run_storm(service, /*producers=*/4, /*per_producer=*/25, /*cancel_every=*/0, 1ms);
    expect_reconciled(got, reg, service);
  }
}

// Mixed-executor storm over a store, with cancels AND deadlines at once —
// the worst-case interleaving, still no lost tickets.
TEST(ServiceStress, MixedExecutorCancelAndDeadlineStorm) {
  const std::vector<seq::Sequence> recs = stress_records();
  const std::string path = testing::TempDir() + "/svc_stress.swdb";
  db::build_store(recs, path);
  const db::Store store = db::Store::open(path);

  obs::Registry reg;
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 2;
  cfg.fleet.boards = 2;
  cfg.fleet.pes_per_board = 16;
  cfg.queue_capacity = 3;
  cfg.chunk_records = 8;
  cfg.metrics = &reg;
  StormOutcome got;
  {
    svc::ScanService service(store, cfg);
    got = run_storm(service, /*producers=*/6, /*per_producer=*/20, /*cancel_every=*/3, 5ms);
    expect_reconciled(got, reg, service);
  }
}

// Shutdown race: destroy the service while producers still hold futures.
// The destructor must resolve every live query (as Cancelled) before the
// futures are drained — nothing may hang.
TEST(ServiceStress, ShutdownResolvesEverything) {
  const std::vector<seq::Sequence> recs = stress_records();
  obs::Registry reg;
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 1;
  cfg.queue_capacity = 16;
  cfg.chunk_records = 4;
  cfg.start_paused = true;  // nothing dispatches, so everything is live
  cfg.metrics = &reg;

  std::vector<svc::Ticket> tickets;
  std::uint64_t admitted = 0;
  {
    svc::ScanService service(recs, cfg);
    for (int i = 0; i < 16; ++i) {
      host::ScanOptions opt;
      opt.top_k = 4;
      auto t = service.try_submit(test::random_dna(10, 50 + i), opt);
      ASSERT_TRUE(t.has_value());
      tickets.push_back(std::move(*t));
      ++admitted;
    }
  }  // destructor: joins workers, resolves all live queries
  std::uint64_t cancelled = 0;
  for (svc::Ticket& t : tickets) {
    const svc::ScanResponse resp = t.response.get();
    if (resp.status == svc::QueryStatus::Cancelled) ++cancelled;
  }
  EXPECT_EQ(cancelled, admitted);
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("svc.queries_admitted"), admitted);
  EXPECT_EQ(snap.counter("svc.queries_cancelled"), cancelled);
}

}  // namespace
