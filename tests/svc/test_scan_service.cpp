// svc::ScanService: parity with the direct scans (any executor mix),
// admission control, cancellation, deadlines, shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/scan_engine.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace std::chrono_literals;

std::vector<seq::Sequence> service_records() {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 40; ++k) {
    seq::Sequence s = test::random_dna(10 + 23 * static_cast<std::size_t>(k % 9), 4100 + k);
    s.set_name("rec" + std::to_string(k));
    recs.push_back(std::move(s));
  }
  recs.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGT", "planted"));
  return recs;
}

db::Store open_service_store(const std::vector<seq::Sequence>& recs, const std::string& leaf) {
  const std::string path = testing::TempDir() + "/" + leaf;
  db::build_store(recs, path);
  return db::Store::open(path);
}

void expect_same_hits(const host::ScanResult& a, const host::ScanResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].record, b.hits[k].record) << "hit " << k;
    EXPECT_EQ(a.hits[k].result.score, b.hits[k].result.score) << "hit " << k;
    EXPECT_EQ(a.hits[k].result.end.i, b.hits[k].result.end.i) << "hit " << k;
    EXPECT_EQ(a.hits[k].result.end.j, b.hits[k].result.end.j) << "hit " << k;
  }
}

host::ScanOptions default_opt() {
  host::ScanOptions opt;
  opt.top_k = 8;
  return opt;
}

TEST(ScanService, ConfigValidation) {
  const std::vector<seq::Sequence> recs = service_records();
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 0;
  cfg.fleet.boards = 0;
  EXPECT_THROW(svc::ScanService(recs, cfg), std::invalid_argument);
  cfg = {};
  cfg.queue_capacity = 0;
  EXPECT_THROW(svc::ScanService(recs, cfg), std::invalid_argument);
  cfg = {};
  cfg.chunk_records = 0;
  EXPECT_THROW(svc::ScanService(recs, cfg), std::invalid_argument);
}

TEST(ScanService, AlphabetMismatchRejected) {
  const std::vector<seq::Sequence> recs = service_records();
  svc::ScanService service(recs, {});
  EXPECT_THROW((void)service.submit(test::random_protein(10, 1), default_opt()),
               std::invalid_argument);
}

// A query served over a store — chunked over schedule_order, executed by
// several CPU workers — must be bit-identical to the direct scan.
TEST(ScanService, StoreQueryMatchesDirectScan) {
  const std::vector<seq::Sequence> recs = service_records();
  const db::Store store = open_service_store(recs, "svc_direct.swdb");
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const host::ScanOptions opt = default_opt();
  const host::ScanResult direct =
      host::scan_database_cpu(query, store, align::Scoring::paper_default(), opt);

  svc::ServiceConfig cfg;
  cfg.cpu_workers = 4;
  cfg.chunk_records = 7;  // many chunks, deliberately not a divisor
  svc::ScanService service(store, cfg);
  const svc::ScanResponse resp = service.submit(query, opt).response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Done);
  expect_same_hits(direct, resp.result);
  EXPECT_EQ(resp.result.records_scanned, recs.size());
  EXPECT_EQ(resp.result.cell_updates, direct.cell_updates);
  EXPECT_EQ(resp.result.swar8_fallbacks, direct.swar8_fallbacks);
  EXPECT_EQ(service.resolved(), 1u);
}

// Same query, but the chunks are drawn by a mix of CPU workers and
// accelerator board threads — the executor mix must not change the hits.
TEST(ScanService, MixedCpuAndBoardExecutorsBitIdentical) {
  const std::vector<seq::Sequence> recs = service_records();
  const db::Store store = open_service_store(recs, "svc_mixed.swdb");
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const host::ScanOptions opt = default_opt();
  const host::ScanResult direct =
      host::scan_database_cpu(query, store, align::Scoring::paper_default(), opt);

  svc::ServiceConfig cfg;
  cfg.cpu_workers = 2;
  cfg.fleet.boards = 2;
  cfg.fleet.pes_per_board = 32;
  cfg.chunk_records = 5;
  svc::ScanService service(store, cfg);
  const svc::ScanResponse resp = service.submit(query, opt).response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Done);
  expect_same_hits(direct, resp.result);
}

// Boards as the only executors: every chunk runs on the cycle-level
// accelerator model, and the hits still match the CPU engine exactly.
TEST(ScanService, BoardOnlyExecutorsBitIdentical) {
  const std::vector<seq::Sequence> recs = service_records();
  const db::Store store = open_service_store(recs, "svc_boards.swdb");
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const host::ScanOptions opt = default_opt();
  const host::ScanResult direct =
      host::scan_database_cpu(query, store, align::Scoring::paper_default(), opt);

  svc::ServiceConfig cfg;
  cfg.cpu_workers = 0;
  cfg.fleet.boards = 2;
  cfg.fleet.pes_per_board = 32;
  cfg.chunk_records = 8;
  svc::ScanService service(store, cfg);
  const svc::ScanResponse resp = service.submit(query, opt).response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Done);
  expect_same_hits(direct, resp.result);
  EXPECT_GT(resp.result.board_seconds, 0.0);  // the board model really ran
}

TEST(ScanService, VectorDatabaseMatchesDirectScan) {
  const std::vector<seq::Sequence> recs = service_records();
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const host::ScanOptions opt = default_opt();
  const host::ScanResult direct =
      host::scan_database_cpu(query, recs, align::Scoring::paper_default(), opt);

  svc::ServiceConfig cfg;
  cfg.cpu_workers = 3;
  cfg.chunk_records = 4;
  svc::ScanService service(recs, cfg);
  const svc::ScanResponse resp = service.submit(query, opt).response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Done);
  expect_same_hits(direct, resp.result);
}

TEST(ScanService, ManyConcurrentQueriesEachCorrect) {
  const std::vector<seq::Sequence> recs = service_records();
  const db::Store store = open_service_store(recs, "svc_many.swdb");

  std::vector<seq::Sequence> queries;
  for (int k = 0; k < 10; ++k) queries.push_back(test::random_dna(24, 7100 + k));
  queries.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGT", "planted-q"));

  svc::ServiceConfig cfg;
  cfg.cpu_workers = 4;
  cfg.max_inflight = 3;
  cfg.chunk_records = 6;
  svc::ScanService service(store, cfg);

  const host::ScanOptions opt = default_opt();
  std::vector<svc::Ticket> tickets;
  for (const auto& q : queries) tickets.push_back(service.submit(q, opt));
  for (std::size_t k = 0; k < queries.size(); ++k) {
    const svc::ScanResponse resp = tickets[k].response.get();
    EXPECT_EQ(resp.status, svc::QueryStatus::Done) << "query " << k;
    const host::ScanResult direct =
        host::scan_database_cpu(queries[k], store, align::Scoring::paper_default(), opt);
    SCOPED_TRACE("query " + std::to_string(k));
    expect_same_hits(direct, resp.result);
  }
  EXPECT_EQ(service.resolved(), queries.size());
  EXPECT_EQ(service.live(), 0u);
}

TEST(ScanService, QueueFullRejectsDeterministically) {
  const std::vector<seq::Sequence> recs = service_records();
  svc::ServiceConfig cfg;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;  // nothing dispatches, so the queue must fill
  svc::ScanService service(recs, cfg);
  const seq::Sequence q = test::random_dna(20, 1);
  ASSERT_TRUE(service.try_submit(q, default_opt()).has_value());
  ASSERT_TRUE(service.try_submit(q, default_opt()).has_value());
  EXPECT_FALSE(service.try_submit(q, default_opt()).has_value());
  EXPECT_THROW((void)service.submit(q, default_opt()), std::runtime_error);
  EXPECT_EQ(service.live(), 2u);
}

TEST(ScanService, CancelBeforeDispatchResolvesCancelled) {
  const std::vector<seq::Sequence> recs = service_records();
  svc::ServiceConfig cfg;
  cfg.start_paused = true;
  svc::ScanService service(recs, cfg);
  svc::Ticket t = service.submit(test::random_dna(20, 2), default_opt());
  EXPECT_TRUE(service.cancel(t.id));
  const svc::ScanResponse resp = t.response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Cancelled);
  EXPECT_TRUE(resp.result.hits.empty());
  EXPECT_FALSE(service.cancel(t.id));  // already resolved
  service.resume();
}

TEST(ScanService, ExpiredDeadlineResolvesDeadlineExpired) {
  const std::vector<seq::Sequence> recs = service_records();
  svc::ServiceConfig cfg;
  cfg.start_paused = true;
  svc::ScanService service(recs, cfg);
  svc::Ticket t = service.submit(test::random_dna(20, 3), default_opt(), 1ms);
  std::this_thread::sleep_for(10ms);  // deadline passes while paused
  service.resume();
  const svc::ScanResponse resp = t.response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::DeadlineExpired);
}

TEST(ScanService, DestructorResolvesLiveQueriesAsCancelled) {
  const std::vector<seq::Sequence> recs = service_records();
  std::shared_future<svc::ScanResponse> pending;
  {
    svc::ServiceConfig cfg;
    cfg.start_paused = true;
    svc::ScanService service(recs, cfg);
    pending = service.submit(test::random_dna(20, 4), default_opt()).response;
  }
  EXPECT_EQ(pending.get().status, svc::QueryStatus::Cancelled);
}

TEST(ScanService, EmptyDatabaseResolvesDoneWithNoHits) {
  const std::vector<seq::Sequence> none;
  svc::ScanService service(none, {});
  const svc::ScanResponse resp = service.submit(test::random_dna(20, 5), default_opt())
                                     .response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Done);
  EXPECT_TRUE(resp.result.hits.empty());
  EXPECT_EQ(resp.result.records_scanned, 0u);
}

}  // namespace
