#include <gtest/gtest.h>

#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/fleet_scan.hpp"
#include "host/scan_engine.hpp"
#include "retrieve/topk.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::host;

const align::Scoring kSc = align::Scoring::paper_default();

struct Fixture {
  seq::Sequence query;
  std::vector<seq::Sequence> records;

  explicit Fixture(std::uint64_t seed) {
    seq::RandomSequenceGenerator gen(seed);
    query = gen.uniform(seq::dna(), 40, "q");
    for (int r = 0; r < 9; ++r) {
      seq::Sequence rec = gen.uniform(seq::dna(), 250, "rec" + std::to_string(r));
      if (r % 4 == 1) rec.append(seq::point_mutate(query, 0.03 * (r + 1), gen.engine()));
      records.push_back(std::move(rec));
    }
  }
};

TEST(FleetScan, HitsIdenticalToSingleBoardScan) {
  const Fixture fx(21);
  core::SmithWatermanAccelerator solo(core::xc2vp70(), 40, kSc);
  ScanOptions opt;
  opt.top_k = 4;
  opt.min_score = 15;
  const ScanResult single = scan_database(solo, fx.query, fx.records, opt);

  for (const std::size_t boards : {1u, 2u, 3u, 5u}) {
    core::BoardFleet fleet =
        core::make_board_fleet({.boards = boards, .pes_per_board = 40}, kSc);
    const ScanResult fr = scan_database_fleet(fleet, fx.query, fx.records, opt);
    ASSERT_EQ(fr.hits.size(), single.hits.size()) << boards << " boards";
    for (std::size_t k = 0; k < fr.hits.size(); ++k) {
      EXPECT_EQ(fr.hits[k].record, single.hits[k].record);
      EXPECT_EQ(fr.hits[k].result, single.hits[k].result);
    }
    EXPECT_EQ(fr.records_scanned, single.records_scanned);
    EXPECT_EQ(fr.cell_updates, single.cell_updates);
  }
}

TEST(FleetScan, ParallelTimeShrinksWithBoards) {
  const Fixture fx(22);
  ScanOptions opt;
  core::BoardFleet one = core::make_board_fleet({.boards = 1, .pes_per_board = 40}, kSc);
  core::BoardFleet three = core::make_board_fleet({.boards = 3, .pes_per_board = 40}, kSc);
  const double t1 = scan_database_fleet(one, fx.query, fx.records, opt).board_seconds;
  const double t3 = scan_database_fleet(three, fx.query, fx.records, opt).board_seconds;
  EXPECT_LT(t3, t1);
  EXPECT_GT(t3, t1 / 4.0);  // 3 boards can't beat 3x by much (uneven records)
}

// The deal this module used to ship: record r to board r % boards, in
// index order. Kept here as the parity baseline for the least-loaded deal.
ScanResult scan_round_robin(const seq::Sequence& query, const std::vector<seq::Sequence>& records,
                            std::size_t boards, std::size_t pes, const ScanOptions& opt,
                            double* busiest_out = nullptr) {
  std::vector<std::vector<std::uint32_t>> shares(boards);
  for (std::uint32_t r = 0; r < records.size(); ++r) shares[r % boards].push_back(r);

  ScanResult out;
  out.records_scanned = records.size();
  double busiest = 0.0;
  for (const auto& share : shares) {
    core::SmithWatermanAccelerator board(core::xc2vp70(), pes, kSc);
    std::vector<Hit> hits;
    double seconds = 0.0;
    for (const std::uint32_t r : share) {
      if (records[r].empty() || query.empty()) continue;
      const core::JobResult job = board.run(query, records[r]);
      out.cell_updates += job.stats.cell_updates;
      seconds += job.wall_seconds;
      if (job.best.score < opt.min_score) continue;
      Hit hit;
      hit.record = r;
      hit.result = job.best;
      retrieve::topk_insert(hits, std::move(hit), opt.top_k, hit_ranks_before);
    }
    busiest = std::max(busiest, seconds);
    retrieve::topk_union(out.hits, std::move(hits));
  }
  retrieve::topk_finalize(out.hits, opt.top_k, hit_ranks_before);
  if (busiest_out != nullptr) *busiest_out = busiest;
  return out;
}

TEST(FleetScan, LeastLoadedDealMatchesRoundRobinHits) {
  // The deal changed from index round-robin to least-loaded over the
  // length-descending schedule; the merge is a total order over the union,
  // so the reported hits must not move. Asserted, not assumed.
  const Fixture fx(31);
  ScanOptions opt;
  opt.top_k = 5;
  opt.min_score = 12;
  const ScanResult rr = scan_round_robin(fx.query, fx.records, 3, 40, opt);
  core::BoardFleet fleet = core::make_board_fleet({.boards = 3, .pes_per_board = 40}, kSc);
  const ScanResult ll = scan_database_fleet(fleet, fx.query, fx.records, opt);
  ASSERT_EQ(ll.hits.size(), rr.hits.size());
  for (std::size_t k = 0; k < ll.hits.size(); ++k) {
    EXPECT_EQ(ll.hits[k].record, rr.hits[k].record) << "rank " << k;
    EXPECT_EQ(ll.hits[k].result, rr.hits[k].result) << "rank " << k;
  }
  EXPECT_EQ(ll.cell_updates, rr.cell_updates);
}

TEST(FleetScan, LeastLoadedDealBalancesSkewedLengths) {
  // Adversarial workload for the old deal: record lengths arranged so
  // index round-robin piles the long records onto one board. The
  // least-loaded deal's busiest board must finish no later than the
  // round-robin deal's busiest board.
  seq::RandomSequenceGenerator gen(33);
  const seq::Sequence query = gen.uniform(seq::dna(), 30, "q");
  std::vector<seq::Sequence> records;
  for (int r = 0; r < 12; ++r) {
    // Boards = 3: indices 0,3,6,9 land on board 0 under round-robin, and
    // those are exactly the long ones.
    const std::size_t len = (r % 3 == 0) ? 1200 : 60;
    records.push_back(gen.uniform(seq::dna(), len, "rec" + std::to_string(r)));
  }
  ScanOptions opt;
  double rr_busiest = 0.0;
  const ScanResult rr = scan_round_robin(query, records, 3, 30, opt, &rr_busiest);
  core::BoardFleet fleet = core::make_board_fleet({.boards = 3, .pes_per_board = 30}, kSc);
  const ScanResult ll = scan_database_fleet(fleet, query, records, opt);
  EXPECT_LT(ll.board_seconds, rr_busiest * 0.75);  // materially better, not just equal
  ASSERT_EQ(ll.hits.size(), rr.hits.size());
  for (std::size_t k = 0; k < ll.hits.size(); ++k) {
    EXPECT_EQ(ll.hits[k].record, rr.hits[k].record);
  }
}

TEST(FleetScan, StoreScheduleOrderPathIsBitIdenticalToVector) {
  // Store sources hand the dealer their precomputed length-descending
  // schedule_order; vector sources sort one on the fly. Same records
  // either way -> same deal -> same everything.
  const Fixture fx(34);
  const std::string path = testing::TempDir() + "/fleet_deal.swdb";
  db::build_store(fx.records, path);
  const db::Store store = db::Store::open(path);

  ScanOptions opt;
  opt.top_k = 4;
  opt.min_score = 15;
  core::BoardFleet f1 = core::make_board_fleet({.boards = 3, .pes_per_board = 40}, kSc);
  core::BoardFleet f2 = core::make_board_fleet({.boards = 3, .pes_per_board = 40}, kSc);
  const ScanResult vec = scan_database_fleet(f1, fx.query, fx.records, opt);
  const ScanResult st = scan_database_fleet(f2, fx.query, store, opt);
  ASSERT_EQ(vec.hits.size(), st.hits.size());
  for (std::size_t k = 0; k < vec.hits.size(); ++k) {
    EXPECT_EQ(vec.hits[k].record, st.hits[k].record);
    EXPECT_EQ(vec.hits[k].result, st.hits[k].result);
  }
  EXPECT_EQ(vec.cell_updates, st.cell_updates);
  EXPECT_EQ(vec.board_cycles, st.board_cycles);
  EXPECT_GT(st.board_cycles, 0u);
}

TEST(FleetScan, ThreadedFleetMatchesSequentialAndCountsCycles) {
  const Fixture fx(35);
  ScanOptions seq_opt;
  seq_opt.top_k = 4;
  ScanOptions par_opt = seq_opt;
  par_opt.threads = 4;
  core::BoardFleet f1 = core::make_board_fleet({.boards = 4, .pes_per_board = 40}, kSc);
  core::BoardFleet f2 = core::make_board_fleet({.boards = 4, .pes_per_board = 40}, kSc);
  const ScanResult a = scan_database_fleet(f1, fx.query, fx.records, seq_opt);
  const ScanResult b = scan_database_fleet(f2, fx.query, fx.records, par_opt);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].record, b.hits[k].record);
    EXPECT_EQ(a.hits[k].result, b.hits[k].result);
  }
  EXPECT_EQ(a.board_cycles, b.board_cycles);
  EXPECT_NEAR(a.board_seconds, b.board_seconds, 1e-12);
}

TEST(FleetScan, BusModelAddsTransferTimeWithoutMovingHits) {
  // FleetOptions with model_bus: every job's wall time gains the DMA
  // double-buffered bus timeline; scores, coordinates and cycle counts
  // are untouched.
  const Fixture fx(36);
  ScanOptions opt;
  opt.top_k = 4;
  core::FleetOptions fo;
  fo.boards = 2;
  fo.pes_per_board = 40;
  core::BoardFleet compute_only = core::make_board_fleet(fo, kSc);
  fo.model_bus = true;
  core::BoardFleet with_bus = core::make_board_fleet(fo, kSc);
  const ScanResult a = scan_database_fleet(compute_only, fx.query, fx.records, opt);
  const ScanResult b = scan_database_fleet(with_bus, fx.query, fx.records, opt);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].record, b.hits[k].record);
    EXPECT_EQ(a.hits[k].result, b.hits[k].result);
  }
  EXPECT_EQ(a.board_cycles, b.board_cycles);
  EXPECT_GT(b.board_seconds, a.board_seconds);  // the bus costs real time
}

TEST(FleetMerge, MergedHitsKeepNoSpareCapacity) {
  // Four boards each return their own top 3; the merged list keeps 3
  // hits and no room for the other boards' lists.
  const Fixture fx(37);
  ScanOptions opt;
  opt.top_k = 3;
  opt.min_score = 1;
  core::BoardFleet fleet = core::make_board_fleet({.boards = 4, .pes_per_board = 40}, kSc);
  const ScanResult r = scan_database_fleet(fleet, fx.query, fx.records, opt);
  ASSERT_EQ(r.hits.size(), 3u);
  EXPECT_EQ(r.hits.capacity(), r.hits.size());
}

TEST(FleetOptions, CatalogAndValidation) {
  core::FleetOptions fo;
  fo.device = "nosuch-device";
  EXPECT_THROW((void)core::make_board_fleet(fo, kSc), std::invalid_argument);
  fo = core::FleetOptions{};
  fo.boards = 0;
  EXPECT_THROW(fo.validate(), std::invalid_argument);
  fo = core::FleetOptions{};
  fo.pes_per_board = 0;
  EXPECT_THROW(fo.validate(), std::invalid_argument);
  fo = core::FleetOptions{};
  fo.sched = hw::SchedMode::Dense;
  core::BoardFleet fleet = core::make_board_fleet(fo, kSc);
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0]->sched_mode(), hw::SchedMode::Dense);
  EXPECT_EQ(fleet[0]->bus(), nullptr);
}

TEST(FleetScan, Validation) {
  core::BoardFleet empty;
  const std::vector<seq::Sequence> none;
  EXPECT_THROW((void)scan_database_fleet(empty, seq::Sequence::dna("AC"), none, ScanOptions{}),
               std::invalid_argument);
  core::BoardFleet fleet = core::make_board_fleet({.boards = 1, .pes_per_board = 8}, kSc);
  const std::vector<seq::Sequence> mixed = {seq::Sequence::protein("AR")};
  EXPECT_THROW(
      (void)scan_database_fleet(fleet, seq::Sequence::dna("AC"), mixed, ScanOptions{}),
      std::invalid_argument);
  // Boards stream every record: a seeded scan is refused, as by
  // scan_database, never silently run exhaustively.
  ScanOptions seeded;
  seeded.filter = FilterMode::Seeded;
  const std::vector<seq::Sequence> dna = {seq::Sequence::dna("ACGTACGT")};
  EXPECT_THROW((void)scan_database_fleet(fleet, seq::Sequence::dna("AC"), dna, seeded),
               std::invalid_argument);
}

TEST(FleetScan, DustFilterMatchesSingleBoardAndCpu) {
  // The Scan.DustFilterSuppressesRepeatHits fixture: a poly-A-rich query
  // scores on a poly-A junk record, which DUST must suppress on every
  // engine, leaving the planted homolog in the clean record.
  seq::RandomSequenceGenerator gen(64);
  seq::Sequence query = seq::Sequence::dna(std::string(30, 'A'), "polyA_query");
  query.append(gen.uniform(seq::dna(), 40));
  std::vector<seq::Sequence> records;
  records.push_back(seq::Sequence::dna(std::string(400, 'A'), "junk_polyA"));
  seq::Sequence clean = gen.uniform(seq::dna(), 300, "clean_hit");
  clean.append(seq::point_mutate(query, 0.02, gen.engine()));
  records.push_back(std::move(clean));

  ScanOptions opt;
  opt.min_score = 20;
  opt.dust_filter = true;
  opt.dust_window = 16;
  core::SmithWatermanAccelerator solo(core::xc2vp70(), 50, kSc);
  const ScanResult single = scan_database(solo, query, records, opt);
  ASSERT_EQ(single.hits.size(), 1u);
  EXPECT_EQ(single.hits[0].record, 1u);

  const auto expect_same_hits = [&single](const ScanResult& got, const std::string& ctx) {
    ASSERT_EQ(got.hits.size(), single.hits.size()) << ctx;
    for (std::size_t k = 0; k < got.hits.size(); ++k) {
      EXPECT_EQ(got.hits[k].record, single.hits[k].record) << ctx;
      EXPECT_EQ(got.hits[k].result, single.hits[k].result) << ctx;
    }
  };
  expect_same_hits(scan_database_cpu(query, records, kSc, opt), "cpu");
  for (const std::size_t boards : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      core::BoardFleet fleet =
          core::make_board_fleet({.boards = boards, .pes_per_board = 50}, kSc);
      ScanOptions fopt = opt;
      fopt.threads = threads;
      expect_same_hits(scan_database_fleet(fleet, query, records, fopt),
                       std::to_string(boards) + " boards / " + std::to_string(threads) +
                           " threads");
    }
  }
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 0;
  cfg.fleet.boards = 2;
  cfg.fleet.pes_per_board = 50;
  cfg.chunk_records = 1;
  svc::ScanService service(records, cfg);
  const svc::ScanResponse resp = service.submit(query, opt).response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Done);
  expect_same_hits(resp.result, "service, 2 boards");
}

}  // namespace
