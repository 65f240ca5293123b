// Metrics reconciliation: for every engine and thread-count combination,
// the registry's counters must equal the exact sums of the corresponding
// ScanResult fields across queries — the counters are bookkeeping over the
// same totals, never an independent (and driftable) estimate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/multiboard.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/fleet_scan.hpp"
#include "host/scan_engine.hpp"
#include "obs/metrics.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

std::vector<seq::Sequence> reconcile_records() {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 33; ++k) {
    seq::Sequence s = test::random_dna(6 + 29 * static_cast<std::size_t>(k % 8), 6100 + k);
    s.set_name("rec" + std::to_string(k));
    recs.push_back(std::move(s));
  }
  recs.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGTACGT", "planted"));
  return recs;
}

std::vector<seq::Sequence> reconcile_queries() {
  std::vector<seq::Sequence> qs;
  qs.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q0"));
  qs.push_back(test::random_dna(17, 31));
  qs.push_back(test::random_dna(40, 32));
  return qs;
}

// CPU engine, every SIMD tier x thread count: scan.* counters must equal
// the summed ScanResult fields.
TEST(MetricsReconcile, CpuEngineAcrossPoliciesAndThreads) {
  const std::vector<seq::Sequence> recs = reconcile_records();
  const std::vector<seq::Sequence> queries = reconcile_queries();

  const std::optional<core::SimdIsa> tiers[] = {std::nullopt, core::SimdIsa::Scalar};
  for (const std::optional<core::SimdIsa> simd : tiers) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      obs::Registry reg;
      std::uint64_t records = 0, cells = 0, fallbacks = 0, scans = 0;
      for (const seq::Sequence& q : queries) {
        host::ScanOptions opt;
        opt.top_k = 5;
        opt.threads = threads;
        opt.simd = simd;
        opt.metrics = &reg;
        const host::ScanResult r =
            host::scan_database_cpu(q, recs, align::Scoring::paper_default(), opt);
        records += r.records_scanned;
        cells += r.cell_updates;
        fallbacks += r.swar8_fallbacks;
        ++scans;
      }
      const obs::Snapshot snap = reg.snapshot();
      const std::string ctx =
          "simd=" + test::simd_label(simd) + " threads=" + std::to_string(threads);
      EXPECT_EQ(snap.counter("scan.records"), records) << ctx;
      EXPECT_EQ(snap.counter("scan.cells"), cells) << ctx;
      EXPECT_EQ(snap.counter("scan.simd.fallbacks"), fallbacks) << ctx;
      EXPECT_EQ(snap.counter("scan.scans"), scans) << ctx;
    }
  }
}

// Store-backed CPU scan: identical reconciliation through the mmap path.
TEST(MetricsReconcile, CpuEngineOverStore) {
  const std::vector<seq::Sequence> recs = reconcile_records();
  const std::string path = testing::TempDir() + "/reconcile_cpu.swdb";
  db::build_store(recs, path);

  obs::Registry reg;
  const db::Store store = db::Store::open(path, &reg);
  EXPECT_EQ(reg.snapshot().counter("db.opens"), 1u);

  std::uint64_t records = 0, cells = 0;
  for (const seq::Sequence& q : reconcile_queries()) {
    host::ScanOptions opt;
    opt.threads = 2;
    opt.metrics = &reg;
    const host::ScanResult r =
        host::scan_database_cpu(q, store, align::Scoring::paper_default(), opt);
    records += r.records_scanned;
    cells += r.cell_updates;
  }
  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("scan.records"), records);
  EXPECT_EQ(snap.counter("scan.cells"), cells);
  EXPECT_GT(snap.counter("db.bytes_mapped"), 0u);
}

// Board fleet: fleet.* counters reconcile across board and thread counts.
TEST(MetricsReconcile, FleetEngineAcrossBoardsAndThreads) {
  const std::vector<seq::Sequence> recs = reconcile_records();
  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q");
  const align::Scoring sc = align::Scoring::paper_default();

  for (const std::size_t boards : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      obs::Registry reg;
      core::BoardFleet fleet =
          core::make_board_fleet({.boards = boards, .pes_per_board = 32}, sc);
      host::ScanOptions opt;
      opt.threads = threads;
      opt.metrics = &reg;
      const host::ScanResult r = host::scan_database_fleet(fleet, query, recs, opt);
      const obs::Snapshot snap = reg.snapshot();
      const std::string ctx = "boards=" + std::to_string(boards) + " threads=" + std::to_string(threads);
      EXPECT_EQ(snap.counter("fleet.records"), r.records_scanned) << ctx;
      EXPECT_EQ(snap.counter("fleet.cells"), r.cell_updates) << ctx;
      EXPECT_EQ(snap.counter("fleet.scans"), 1u) << ctx;
    }
  }
}

// The scan service across executor mixes: svc.* counters must equal the
// sums over resolved responses — and per-chunk scan.* metrics must NOT
// leak into the registry (the service forces them off to avoid double
// counting).
TEST(MetricsReconcile, ServiceAcrossExecutorMixes) {
  const std::vector<seq::Sequence> recs = reconcile_records();
  const std::string path = testing::TempDir() + "/reconcile_svc.swdb";
  db::build_store(recs, path);
  const db::Store store = db::Store::open(path);
  const std::vector<seq::Sequence> queries = reconcile_queries();

  for (const std::size_t cpu_workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t boards : {std::size_t{0}, std::size_t{2}}) {
      obs::Registry reg;
      svc::ServiceConfig cfg;
      cfg.cpu_workers = cpu_workers;
      cfg.fleet.boards = boards;
      cfg.fleet.pes_per_board = 24;
      cfg.chunk_records = 7;
      cfg.metrics = &reg;

      std::uint64_t records = 0, cells = 0, fallbacks = 0, chunks = 0;
      {
        svc::ScanService service(store, cfg);
        std::vector<svc::Ticket> tickets;
        for (const seq::Sequence& q : queries) {
          host::ScanOptions opt;
          opt.top_k = 6;
          opt.metrics = &reg;  // the service must null this out per chunk
          tickets.push_back(service.submit(q, opt));
        }
        for (svc::Ticket& t : tickets) {
          const svc::ScanResponse resp = t.response.get();
          EXPECT_EQ(resp.status, svc::QueryStatus::Done);
          records += resp.result.records_scanned;
          cells += resp.result.cell_updates;
          fallbacks += resp.result.swar8_fallbacks;
        }
      }
      const obs::Snapshot snap = reg.snapshot();
      const std::string ctx =
          "cpu=" + std::to_string(cpu_workers) + " boards=" + std::to_string(boards);
      EXPECT_EQ(snap.counter("svc.records_scanned"), records) << ctx;
      EXPECT_EQ(snap.counter("svc.cells"), cells) << ctx;
      EXPECT_EQ(snap.counter("svc.swar8_fallbacks"), fallbacks) << ctx;
      EXPECT_EQ(snap.counter("svc.queries_done"), queries.size()) << ctx;
      // Every record was scanned exactly once per query, whatever the mix.
      EXPECT_EQ(records, queries.size() * recs.size()) << ctx;
      // No double counting: the per-chunk engine counters must be absent.
      EXPECT_EQ(snap.counter("scan.records"), 0u) << ctx;
      EXPECT_EQ(snap.counter("fleet.records"), 0u) << ctx;
      chunks = snap.counter("svc.chunks_cpu") + snap.counter("svc.chunks_board");
      EXPECT_GT(chunks, 0u) << ctx;
      if (boards == 0) {
        EXPECT_EQ(snap.counter("svc.chunks_board"), 0u) << ctx;
      }
    }
  }
}

// Disabled metrics stay disabled: a null registry pointer records nothing
// anywhere (and in particular never touches the global registry).
TEST(MetricsReconcile, NullRegistryRecordsNothing) {
  const std::vector<seq::Sequence> recs = reconcile_records();
  const seq::Sequence query = seq::Sequence::dna("ACGTACGT", "q");
  host::ScanOptions opt;  // metrics == nullptr
  const obs::Snapshot before = obs::global_registry().snapshot();
  const host::ScanResult r =
      host::scan_database_cpu(query, recs, align::Scoring::paper_default(), opt);
  EXPECT_GT(r.records_scanned, 0u);
  const obs::Snapshot after = obs::global_registry().snapshot();
  EXPECT_EQ(after.counter("scan.records"), before.counter("scan.records"));
  EXPECT_EQ(after.counters.size(), before.counters.size());
}

}  // namespace
