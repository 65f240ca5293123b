// Board-fleet serving through svc::ScanService: catalog-named devices,
// scheduler modes, the bus model and the analytic cycle cross-check. The
// service's board executors reuse the same accelerator model as the
// direct fleet scan, so everything here is a parity statement.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/performance_model.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/scan_engine.hpp"
#include "hw/sched.hpp"
#include "net_test_util.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

std::vector<seq::Sequence> fleet_records() {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 24; ++k) {
    seq::Sequence s = test::random_dna(15 + 31 * static_cast<std::size_t>(k % 7), 7700 + k);
    s.set_name("rec" + std::to_string(k));
    recs.push_back(std::move(s));
  }
  recs.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGT", "planted"));
  return recs;
}

db::Store open_fleet_store(const std::vector<seq::Sequence>& recs, const std::string& leaf) {
  const std::string path = testing::TempDir() + "/" + leaf;
  db::build_store(recs, path);
  return db::Store::open(path);
}

host::ScanOptions default_opt() {
  host::ScanOptions opt;
  opt.top_k = 8;
  return opt;
}

void expect_same_hits(const host::ScanResult& a, const host::ScanResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].record, b.hits[k].record) << "hit " << k;
    EXPECT_EQ(a.hits[k].result, b.hits[k].result) << "hit " << k;
  }
}

TEST(FleetService, CatalogDeviceAndBothSchedulersMatchDirectScan) {
  const std::vector<seq::Sequence> recs = fleet_records();
  const db::Store store = open_fleet_store(recs, "svc_fleet_catalog.swdb");
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const host::ScanOptions opt = default_opt();
  const host::ScanResult direct =
      host::scan_database_cpu(query, store, align::Scoring::paper_default(), opt);

  for (const char* device : {"xc2vp70", "xc2v6000"}) {
    for (const hw::SchedMode sched : {hw::SchedMode::Dense, hw::SchedMode::Event}) {
      svc::ServiceConfig cfg;
      cfg.cpu_workers = 0;
      cfg.fleet.boards = 2;
      cfg.fleet.pes_per_board = 32;
      cfg.fleet.device = device;
      cfg.fleet.sched = sched;
      cfg.chunk_records = 6;
      svc::ScanService service(store, cfg);
      const svc::ScanResponse resp = service.submit(query, opt).response.get();
      EXPECT_EQ(resp.status, svc::QueryStatus::Done);
      expect_same_hits(direct, resp.result);
      EXPECT_GT(resp.result.board_cycles, 0u)
          << device << "/" << hw::sched_mode_name(sched);
    }
  }
}

TEST(FleetService, UnknownDeviceNameThrowsAtConstruction) {
  const std::vector<seq::Sequence> recs = fleet_records();
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 0;
  cfg.fleet.boards = 1;
  cfg.fleet.device = "nosuch-fpga";
  EXPECT_THROW(svc::ScanService(recs, cfg), std::invalid_argument);
}

TEST(FleetService, BoardThatDoesNotFitThrowsAtConstruction) {
  // The boards are built by the constructor, so a PE count the device
  // cannot hold is a typed error here, not a throw inside an executor
  // thread (which would terminate the process).
  const std::vector<seq::Sequence> recs = fleet_records();
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 1;
  cfg.fleet.boards = 1;
  cfg.fleet.pes_per_board = 100000;
  EXPECT_THROW(svc::ScanService(recs, cfg), std::invalid_argument);
}

TEST(FleetService, SeededQueryIsRejectedWhenBoardsServe) {
  // A board streams every record, so its chunks cannot honour the seeded
  // filter: admission refuses the query instead of letting the hits
  // depend on which executor ran which chunk.
  const std::vector<seq::Sequence> recs = fleet_records();
  const db::Store store = open_fleet_store(recs, "svc_fleet_seeded.swdb");
  ASSERT_TRUE(store.has_kmer_index());
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  host::ScanOptions seeded = default_opt();
  seeded.filter = host::FilterMode::Seeded;

  for (const std::size_t cpu_workers : {std::size_t{0}, std::size_t{2}}) {
    svc::ServiceConfig cfg;
    cfg.cpu_workers = cpu_workers;
    cfg.fleet.boards = 1;
    cfg.fleet.pes_per_board = 32;
    svc::ScanService service(store, cfg);
    EXPECT_THROW((void)service.try_submit(query, seeded), std::invalid_argument)
        << cpu_workers << " cpu workers";
    // Exact queries on the same service are still served.
    EXPECT_EQ(service.submit(query, default_opt()).response.get().status,
              svc::QueryStatus::Done);
  }

  // Without boards the seeded query is admitted.
  svc::ServiceConfig cpu_only;
  svc::ScanService service(store, cpu_only);
  EXPECT_EQ(service.submit(query, seeded).response.get().status, svc::QueryStatus::Done);
}

TEST(FleetService, SeededWireRequestToBoardServerIsBadRequest) {
  svc::net::ServerConfig cfg;
  cfg.service.cpu_workers = 1;
  cfg.service.fleet.boards = 1;
  cfg.service.fleet.pes_per_board = 32;
  test::NetServerFixture fixture("svc_fleet_seeded_wire.swdb", cfg);
  svc::net::ScanClient client = fixture.connect();

  svc::net::WireRequest req = test::planted_request(7);
  req.filter = 1;  // seeded
  const svc::net::ClientResponse resp = client.scan(req);
  EXPECT_FALSE(resp.ok);
  ASSERT_EQ(resp.errors.size(), 1u);
  EXPECT_EQ(resp.errors[0].code, svc::net::ErrorCode::BadRequest);
  EXPECT_EQ(resp.errors[0].request_id, 7u);
  EXPECT_EQ(fixture.registry().snapshot().counter("svc.net.invalid_requests"), 1u);

  // The connection survives, and an exact request is served.
  const svc::net::ClientResponse exact = client.scan(test::planted_request(8));
  EXPECT_TRUE(exact.ok) << exact.error;
  EXPECT_GT(exact.hits.size(), 0u);
}

TEST(FleetService, BoardCyclesMatchAnalyticModel) {
  // Boards-only serving: every record crosses the cycle-level model once,
  // so the response's board_cycles must equal the analytic sum exactly —
  // under both schedulers (the event scheduler changes work, not time).
  const std::vector<seq::Sequence> recs = fleet_records();
  const db::Store store = open_fleet_store(recs, "svc_fleet_cycles.swdb");
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const host::ScanOptions opt = default_opt();

  std::uint64_t expected = 0;
  for (const seq::Sequence& r : recs) {
    expected += core::predict_cycles(query.size(), r.size(), 32, true).total_cycles;
  }

  for (const hw::SchedMode sched : {hw::SchedMode::Dense, hw::SchedMode::Event}) {
    svc::ServiceConfig cfg;
    cfg.cpu_workers = 0;
    cfg.fleet.boards = 3;
    cfg.fleet.pes_per_board = 32;
    cfg.fleet.sched = sched;
    cfg.chunk_records = 4;
    svc::ScanService service(store, cfg);
    const svc::ScanResponse resp = service.submit(query, opt).response.get();
    EXPECT_EQ(resp.status, svc::QueryStatus::Done);
    EXPECT_EQ(resp.result.board_cycles, expected) << hw::sched_mode_name(sched);
  }
}

TEST(FleetService, BusModelAddsWallTimeWithoutMovingHits) {
  const std::vector<seq::Sequence> recs = fleet_records();
  const db::Store store = open_fleet_store(recs, "svc_fleet_bus.swdb");
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const host::ScanOptions opt = default_opt();

  svc::ServiceConfig cfg;
  cfg.cpu_workers = 0;
  cfg.fleet.boards = 2;
  cfg.fleet.pes_per_board = 32;
  cfg.chunk_records = 6;

  svc::ScanService compute_only(store, cfg);
  const svc::ScanResponse a = compute_only.submit(query, opt).response.get();

  cfg.fleet.model_bus = true;
  svc::ScanService with_bus(store, cfg);
  const svc::ScanResponse b = with_bus.submit(query, opt).response.get();

  EXPECT_EQ(a.status, svc::QueryStatus::Done);
  EXPECT_EQ(b.status, svc::QueryStatus::Done);
  expect_same_hits(a.result, b.result);
  EXPECT_EQ(a.result.board_cycles, b.result.board_cycles);
  EXPECT_GT(b.result.board_seconds, a.result.board_seconds);
}

}  // namespace
