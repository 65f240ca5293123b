// .swdb round-trip, corruption rejection, and the acceptance invariant:
// scans of a store are bit-identical to scans of the FASTA records it was
// built from, for every engine, thread count and SIMD policy.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/multiboard.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/fleet_scan.hpp"
#include "host/scan_engine.hpp"
#include "seq/fasta.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

// Per-process leaves: ctest runs each test as its own process, and the
// SwdbCorruption fixture's shared leaf let one test rewrite the file
// another was reading.
std::string temp_path(const std::string& leaf) {
  return testing::TempDir() + "/" + test::unique_leaf(leaf);
}

std::vector<seq::Sequence> mixed_dna_records() {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 12; ++k) {
    seq::Sequence s = test::random_dna(5 + 41 * static_cast<std::size_t>(k % 7), 900 + k);
    s.set_name("rec" + std::to_string(k));
    recs.push_back(std::move(s));
  }
  recs.push_back(seq::Sequence::dna("", "empty"));
  recs.push_back(seq::Sequence::dna("ACGTACGTACGTACGT", "planted"));
  return recs;
}

void expect_same_hits(const host::ScanResult& a, const host::ScanResult& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].record, b.hits[k].record) << "hit " << k;
    EXPECT_EQ(a.hits[k].result.score, b.hits[k].result.score) << "hit " << k;
    EXPECT_EQ(a.hits[k].result.end.i, b.hits[k].result.end.i) << "hit " << k;
    EXPECT_EQ(a.hits[k].result.end.j, b.hits[k].result.end.j) << "hit " << k;
  }
  EXPECT_EQ(a.records_scanned, b.records_scanned);
  EXPECT_EQ(a.cell_updates, b.cell_updates);
}

void expect_round_trip(const std::vector<seq::Sequence>& recs, const db::Store& store) {
  ASSERT_EQ(store.size(), recs.size());
  std::vector<seq::Code> scratch;
  std::uint64_t residues = 0;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    EXPECT_EQ(store.length(r), recs[r].size()) << "record " << r;
    EXPECT_EQ(store.name(r), recs[r].name()) << "record " << r;
    const auto codes = store.codes(r, scratch);
    ASSERT_EQ(codes.size(), recs[r].size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(codes[i], recs[r].codes()[i]) << "record " << r << " pos " << i;
    }
    EXPECT_EQ(store.sequence(r), recs[r]);
    residues += recs[r].size();
  }
  EXPECT_EQ(store.total_residues(), residues);
  EXPECT_NO_THROW(store.verify_payload());
}

TEST(SwdbStore, RoundTripPacked2) {
  const auto recs = mixed_dna_records();
  const std::string path = temp_path("roundtrip_p2.swdb");
  const db::BuildStats st = db::build_store(recs, path);
  EXPECT_EQ(st.encoding, db::Encoding::Packed2);  // Auto: DNA packs
  EXPECT_EQ(st.records, recs.size());
  const db::Store store = db::Store::open(path);
  EXPECT_EQ(store.encoding(), db::Encoding::Packed2);
  EXPECT_EQ(&store.alphabet(), &seq::dna());
  expect_round_trip(recs, store);
}

TEST(SwdbStore, RoundTripRaw8) {
  const auto recs = mixed_dna_records();
  const std::string path = temp_path("roundtrip_r8.swdb");
  db::BuildOptions opt;
  opt.encoding = db::BuildOptions::Pick::Raw8;
  const db::BuildStats st = db::build_store(recs, path, opt);
  EXPECT_EQ(st.encoding, db::Encoding::Raw8);
  const db::Store store = db::Store::open(path);
  EXPECT_EQ(store.encoding(), db::Encoding::Raw8);
  expect_round_trip(recs, store);
}

TEST(SwdbStore, AutoPicksRaw8ForProtein) {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 4; ++k) {
    recs.push_back(test::random_protein(30 + static_cast<std::size_t>(k), 70 + k));
    recs.back().set_name("p" + std::to_string(k));
  }
  const std::string path = temp_path("protein.swdb");
  const db::BuildStats st = db::build_store(recs, path);
  EXPECT_EQ(st.encoding, db::Encoding::Raw8);
  const db::Store store = db::Store::open(path);
  EXPECT_EQ(&store.alphabet(), &seq::protein());
  expect_round_trip(recs, store);
}

TEST(SwdbStore, Packed2IsSmallerThanRaw8) {
  const auto recs = mixed_dna_records();
  db::BuildOptions raw;
  raw.encoding = db::BuildOptions::Pick::Raw8;
  const db::BuildStats r8 = db::build_store(recs, temp_path("size_r8.swdb"), raw);
  const db::BuildStats p2 = db::build_store(recs, temp_path("size_p2.swdb"));
  EXPECT_LT(p2.file_bytes, r8.file_bytes);
}

TEST(SwdbStore, EmptyDatabase) {
  const std::string path = temp_path("empty.swdb");
  db::build_store({}, path);
  const db::Store store = db::Store::open(path);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.total_residues(), 0u);
  EXPECT_NO_THROW(store.verify_payload());
}

TEST(SwdbStore, ScheduleOrderIsLengthSortedPermutation) {
  const auto recs = mixed_dna_records();
  const std::string path = temp_path("order.swdb");
  db::build_store(recs, path);
  const db::Store store = db::Store::open(path);
  const auto order = store.schedule_order();
  ASSERT_EQ(order.size(), recs.size());
  std::vector<bool> seen(recs.size(), false);
  for (std::size_t k = 0; k < order.size(); ++k) {
    ASSERT_LT(order[k], recs.size());
    EXPECT_FALSE(seen[order[k]]) << "duplicate id " << order[k];
    seen[order[k]] = true;
    if (k > 0) {
      const std::size_t prev = store.length(order[k - 1]);
      const std::size_t cur = store.length(order[k]);
      EXPECT_TRUE(prev > cur || (prev == cur && order[k - 1] < order[k]))
          << "order not length-descending at " << k;
    }
  }
}

TEST(SwdbStore, BucketsMatchLengths) {
  const auto recs = mixed_dna_records();
  const std::string path = temp_path("buckets.swdb");
  db::build_store(recs, path);
  const db::Store store = db::Store::open(path);
  for (std::size_t r = 0; r < store.size(); ++r) {
    EXPECT_EQ(store.bucket(r), db::length_bucket(store.length(r)));
  }
}

// The acceptance invariant: build-from-FASTA -> mmap-read -> scan is
// bit-identical to the direct FASTA path for every engine, thread count
// and SIMD policy.
TEST(SwdbStore, ScanParityEveryEngine) {
  const auto recs = mixed_dna_records();
  const std::string fasta = temp_path("parity.fa");
  seq::write_fasta_file(fasta, recs);
  const std::string path = temp_path("parity.swdb");
  db::build_store_from_fasta(fasta, path, seq::dna());
  const db::Store store = db::Store::open(path);

  const seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGT", "q");
  const align::Scoring sc = align::Scoring::paper_default();

  const std::optional<core::SimdIsa> tiers[] = {std::nullopt, core::SimdIsa::Scalar};
  for (const std::optional<core::SimdIsa> simd : tiers) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      host::ScanOptions opt;
      opt.top_k = 6;
      opt.threads = threads;
      opt.simd = simd;
      const host::ScanResult direct = host::scan_database_cpu(query, recs, sc, opt);
      const host::ScanResult mapped = host::scan_database_cpu(query, store, sc, opt);
      SCOPED_TRACE("simd=" + test::simd_label(simd) +
                   " threads=" + std::to_string(threads));
      expect_same_hits(direct, mapped);
      EXPECT_EQ(direct.swar8_fallbacks, mapped.swar8_fallbacks);
    }
  }

  host::ScanOptions opt;
  opt.top_k = 6;
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 32, sc);
  expect_same_hits(host::scan_database(acc, query, recs, opt),
                   host::scan_database(acc, query, store, opt));

  core::BoardFleet fleet = core::make_board_fleet(core::xc2vp70(), 3, 32, sc);
  expect_same_hits(host::scan_database_fleet(fleet, query, recs, opt),
                   host::scan_database_fleet(fleet, query, store, opt));
}

// ---- corruption rejection ------------------------------------------------

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class SwdbCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("corrupt.swdb");
    db::build_store(mixed_dna_records(), path_);
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 64u);
  }
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SwdbCorruption, BadMagicRejected) {
  bytes_[0] ^= 0x40;
  spit(path_, bytes_);
  EXPECT_THROW((void)db::Store::open(path_), db::StoreError);
}

TEST_F(SwdbCorruption, HeaderFlipRejected) {
  bytes_[12] ^= 0x01;  // inside the hashed 56 bytes
  spit(path_, bytes_);
  EXPECT_THROW((void)db::Store::open(path_), db::StoreError);
}

TEST_F(SwdbCorruption, TruncatedHeaderRejected) {
  bytes_.resize(32);
  spit(path_, bytes_);
  EXPECT_THROW((void)db::Store::open(path_), db::StoreError);
}

TEST_F(SwdbCorruption, TruncatedPayloadRejected) {
  bytes_.resize(bytes_.size() - 8);
  spit(path_, bytes_);
  EXPECT_THROW((void)db::Store::open(path_), db::StoreError);
}

TEST_F(SwdbCorruption, PayloadFlipCaughtByVerify) {
  bytes_.back() = static_cast<char>(bytes_.back() ^ 0x01);
  spit(path_, bytes_);
  const db::Store store = db::Store::open(path_);  // open stays O(1): no payload hash
  EXPECT_THROW(store.verify_payload(), db::StoreError);
}

TEST_F(SwdbCorruption, MissingFileRejected) {
  EXPECT_THROW((void)db::Store::open(temp_path("does_not_exist.swdb")), db::StoreError);
}

// ---- schedule / length-distribution stats (swdb info) --------------------

TEST(SwdbScheduleStats, KnownLengthsProduceExactStats) {
  std::vector<seq::Sequence> recs;
  for (const std::size_t len : {std::size_t{10}, std::size_t{30}, std::size_t{20}}) {
    recs.push_back(test::random_dna(len, 700 + len));
  }
  const std::string path = temp_path("sched_known.swdb");
  db::build_store(recs, path);
  const db::ScheduleStats st = db::schedule_stats(db::Store::open(path));
  EXPECT_EQ(st.min_length, 10u);
  EXPECT_EQ(st.median_length, 20u);  // middle of the length-sorted order
  EXPECT_EQ(st.max_length, 30u);
  // Greedy lane assignment: three lanes loaded 30/20/10, makespan 30,
  // useful residues 60 — occupancy 60/(30*L) exactly.
  EXPECT_DOUBLE_EQ(st.occupancy16, 60.0 / (30.0 * 16.0));
  EXPECT_DOUBLE_EQ(st.occupancy32, 60.0 / (30.0 * 32.0));
}

TEST(SwdbScheduleStats, EmptyStoreAndEmptyRecordsHandled) {
  const std::string empty_path = temp_path("sched_empty.swdb");
  db::build_store({}, empty_path);
  const db::ScheduleStats none = db::schedule_stats(db::Store::open(empty_path));
  EXPECT_EQ(none.max_length, 0u);
  EXPECT_DOUBLE_EQ(none.occupancy16, 0.0);

  // Empty records count in the length distribution (min 0) but never
  // enter a lane, so they do not drag occupancy down.
  std::vector<seq::Sequence> recs = {seq::Sequence::dna("", "e"),
                                     test::random_dna(50, 808)};
  const std::string path = temp_path("sched_mixed.swdb");
  db::build_store(recs, path);
  const db::ScheduleStats st = db::schedule_stats(db::Store::open(path));
  EXPECT_EQ(st.min_length, 0u);
  EXPECT_EQ(st.max_length, 50u);
  EXPECT_DOUBLE_EQ(st.occupancy16, 50.0 / (50.0 * 16.0));
}

TEST(SwdbScheduleStats, EqualLengthsFillEveryLane) {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 32; ++k) recs.push_back(test::random_dna(64, 900 + k));
  const std::string path = temp_path("sched_full.swdb");
  db::build_store(recs, path);
  const db::ScheduleStats st = db::schedule_stats(db::Store::open(path));
  EXPECT_DOUBLE_EQ(st.occupancy16, 1.0);
  EXPECT_DOUBLE_EQ(st.occupancy32, 1.0);
}

}  // namespace
