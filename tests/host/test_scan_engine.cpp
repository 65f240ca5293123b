// The parallel sharded CPU scan engine: bit-identical output to the
// sequential accelerator scan for every thread count and SIMD tier.
#include <gtest/gtest.h>

#include <random>

#include "align/sw_linear.hpp"
#include "core/cpu_features.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/fleet_scan.hpp"
#include "host/scan_engine.hpp"
#include "obs/metrics.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::host;
using test::kSimdRequests;
using test::leads_with_bytes;
using test::simd_label;

const align::Scoring kSc = align::Scoring::paper_default();

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
void expect_same_scan(const ScanResult& got, const ScanResult& want, const std::string& what) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << what;
  for (std::size_t k = 0; k < got.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].record, want.hits[k].record) << what << " hit " << k;
    EXPECT_EQ(got.hits[k].result, want.hits[k].result) << what << " hit " << k;
  }
  EXPECT_EQ(got.records_scanned, want.records_scanned) << what;
  EXPECT_EQ(got.cell_updates, want.cell_updates) << what;
}

// A randomized database with wildly varying record lengths (including
// empty records), several planted homologs, and enough records that every
// thread count actually shards.
struct RandomDb {
  seq::Sequence query;
  std::vector<seq::Sequence> records;

  explicit RandomDb(std::uint64_t seed, std::size_t n_records = 60) {
    seq::RandomSequenceGenerator gen(seed);
    std::mt19937_64 lens(seed * 31 + 5);
    std::uniform_int_distribution<std::size_t> len(0, 400);
    query = gen.uniform(seq::dna(), 50, "q");
    for (std::size_t r = 0; r < n_records; ++r) {
      seq::Sequence rec = gen.uniform(seq::dna(), len(lens), "rec" + std::to_string(r));
      if (r % 7 == 3) {
        rec.append(seq::point_mutate(query, 0.02 * static_cast<double>(r % 5 + 1), gen.engine()));
      }
      records.push_back(std::move(rec));
    }
  }
};

TEST(ScanEngine, BitIdenticalToAcceleratorScanAcrossThreadsAndPolicies) {
  for (const std::uint64_t seed : {101u, 202u}) {
    const RandomDb db(seed);
    core::SmithWatermanAccelerator acc(core::xc2vp70(), db.query.size(), kSc);
    ScanOptions opt;
    opt.top_k = 8;
    opt.min_score = 12;
    const ScanResult ref = scan_database(acc, db.query, db.records, opt);
    ASSERT_FALSE(ref.hits.empty());

    for (const std::size_t threads : kThreadCounts) {
      for (const std::optional<core::SimdIsa> simd : kSimdRequests) {
        ScanOptions copt = opt;
        copt.threads = threads;
        copt.simd = simd;
        const ScanResult got = scan_database_cpu(db.query, db.records, kSc, copt);
        expect_same_scan(got, ref,
                         "seed " + std::to_string(seed) + " threads " + std::to_string(threads) +
                             " simd " + simd_label(simd));
        EXPECT_EQ(got.board_seconds, 0.0);
      }
    }
  }
}

TEST(ScanEngine, HitsMatchPerRecordOracle) {
  const RandomDb db(7);
  ScanOptions opt;
  opt.top_k = 6;
  opt.threads = 2;
  const ScanResult r = scan_database_cpu(db.query, db.records, kSc, opt);
  for (const Hit& h : r.hits) {
    EXPECT_EQ(h.result, align::sw_linear(db.records[h.record], db.query, kSc))
        << "record " << h.record;
  }
}

TEST(ScanEngine, CellAccountingMatchesSequentialForEveryThreadCount) {
  const RandomDb db(9);
  std::uint64_t expect = 0;
  for (const seq::Sequence& rec : db.records) {
    if (rec.size() > 0) expect += static_cast<std::uint64_t>(rec.size()) * db.query.size();
  }
  for (const std::size_t threads : kThreadCounts) {
    ScanOptions opt;
    opt.threads = threads;
    const ScanResult r = scan_database_cpu(db.query, db.records, kSc, opt);
    EXPECT_EQ(r.cell_updates, expect) << threads << " threads";
    EXPECT_EQ(r.records_scanned, db.records.size());
  }
}

TEST(ScanEngine, DustFilterParityWithAcceleratorScan) {
  // Same construction as the batch-scan DUST test: junk poly-A record +
  // one clean planted homolog. Every engine/thread combination must agree.
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
  core::SmithWatermanAccelerator acc(core::xc2vp70(), query.size(), kSc);
  const ScanResult ref = scan_database(acc, query, records, opt);
  ASSERT_EQ(ref.hits.size(), 1u);
  EXPECT_EQ(ref.hits[0].record, 1u);
  for (const std::size_t threads : kThreadCounts) {
    ScanOptions copt = opt;
    copt.threads = threads;
    expect_same_scan(scan_database_cpu(query, records, kSc, copt), ref,
                     std::to_string(threads) + " threads");
  }
}

TEST(ScanEngine, EmptyInputs) {
  ScanOptions opt;
  opt.threads = 4;
  const std::vector<seq::Sequence> no_records;
  const ScanResult none = scan_database_cpu(seq::Sequence::dna("ACGT"), no_records, kSc, opt);
  EXPECT_TRUE(none.hits.empty());
  EXPECT_EQ(none.records_scanned, 0u);
  EXPECT_EQ(none.cell_updates, 0u);

  const std::vector<seq::Sequence> recs = {seq::Sequence::dna(""), seq::Sequence::dna("ACGT")};
  const ScanResult r = scan_database_cpu(seq::Sequence::dna("ACGT"), recs, kSc, opt);
  ASSERT_EQ(r.hits.size(), 1u);
  EXPECT_EQ(r.hits[0].record, 1u);
  EXPECT_EQ(r.records_scanned, 2u);
}

TEST(ScanEngine, MoreThreadsThanRecordsIsFine) {
  const std::vector<seq::Sequence> recs = {seq::Sequence::dna("ACGTACGT")};
  ScanOptions opt;
  opt.threads = 16;
  const ScanResult r = scan_database_cpu(seq::Sequence::dna("ACGT"), recs, kSc, opt);
  ASSERT_EQ(r.hits.size(), 1u);
  EXPECT_EQ(r.hits[0].result, align::sw_linear(recs[0], seq::Sequence::dna("ACGT"), kSc));
}

// A record holding an exact copy of a 300-residue query scores 300 — past
// the 8-bit lanes' 255 ceiling — so every tier that resolves to an 8-bit
// kernel must count exactly one lazy 16-bit re-run in
// ScanResult::swar8_fallbacks, the scalar tier none, and the count must be
// thread-count invariant (it is a per-record property).
TEST(ScanEngine, Swar8FallbackCountSurfaced) {
  seq::RandomSequenceGenerator gen(4242);
  const seq::Sequence query = gen.uniform(seq::dna(), 300, "q");
  std::vector<seq::Sequence> records;
  for (int r = 0; r < 6; ++r) {
    records.push_back(gen.uniform(seq::dna(), 120, "bg" + std::to_string(r)));
  }
  seq::Sequence hot = gen.uniform(seq::dna(), 30, "hot");
  hot.append(query);
  records.push_back(std::move(hot));

  for (const std::size_t threads : kThreadCounts) {
    ScanOptions opt;
    opt.threads = threads;
    for (const std::optional<core::SimdIsa> simd : kSimdRequests) {
      opt.simd = simd;
      const ScanResult r = scan_database_cpu(query, records, kSc, opt);
      // The count follows the resolved tier: an unsupported striped
      // request (or an SWR_SIMD=scalar override of auto) degrades to the
      // scalar kernel, which is exact without a re-run.
      EXPECT_EQ(r.swar8_fallbacks, leads_with_bytes(simd) ? 1u : 0u)
          << "simd " << simd_label(simd) << ", " << threads << " threads";
      ASSERT_FALSE(r.hits.empty());
      EXPECT_EQ(r.hits[0].result.score, 300);  // the re-run still scores exactly
    }
  }
}

TEST(ScanEngine, Validation) {
  const std::vector<seq::Sequence> no_records;
  ScanOptions bad;
  bad.threads = 0;
  EXPECT_THROW((void)scan_database_cpu(seq::Sequence::dna("AC"), no_records, kSc, bad),
               std::invalid_argument);
  bad = ScanOptions{};
  bad.top_k = 0;
  EXPECT_THROW((void)scan_database_cpu(seq::Sequence::dna("AC"), no_records, kSc, bad),
               std::invalid_argument);
  const std::vector<seq::Sequence> mixed = {seq::Sequence::protein("AR")};
  for (const std::size_t threads : kThreadCounts) {
    ScanOptions opt;
    opt.threads = threads;
    EXPECT_THROW((void)scan_database_cpu(seq::Sequence::dna("AC"), mixed, kSc, opt),
                 std::invalid_argument)
        << threads << " threads";
  }
}

// ---- Kernel shape (striped vs inter-sequence) parity -----------------
//
// The inter-sequence kernel must be invisible in every output field:
// hits (and their ranks), records_scanned, cell_updates AND
// swar8_fallbacks must match the striped shape for the same tier, for
// every thread count, on both database representations. Where interseq
// cannot run (scalar tier, unsupported machine) it degrades to striped,
// so these sweeps are safe everywhere.

constexpr KernelShape kShapes[] = {KernelShape::Auto, KernelShape::Striped,
                                   KernelShape::InterSeq};

void expect_same_scan_and_fallbacks(const ScanResult& got, const ScanResult& want,
                                    const std::string& what) {
  expect_same_scan(got, want, what);
  EXPECT_EQ(got.swar8_fallbacks, want.swar8_fallbacks) << what;
}

TEST(ScanEngineKernelShape, VectorScanBitIdenticalAcrossShapesThreadsAndPolicies) {
  for (const std::uint64_t seed : {311u, 422u}) {
    const RandomDb db(seed);
    ScanOptions opt;
    opt.top_k = 8;
    opt.min_score = 12;
    for (const std::optional<core::SimdIsa> simd : kSimdRequests) {
      ScanOptions sopt = opt;
      sopt.simd = simd;
      sopt.kernel = KernelShape::Striped;
      const ScanResult ref = scan_database_cpu(db.query, db.records, kSc, sopt);
      for (const std::size_t threads : kThreadCounts) {
        for (const KernelShape shape : kShapes) {
          ScanOptions copt = sopt;
          copt.threads = threads;
          copt.kernel = shape;
          const ScanResult got = scan_database_cpu(db.query, db.records, kSc, copt);
          expect_same_scan_and_fallbacks(
              got, ref,
              "seed " + std::to_string(seed) + " simd " + simd_label(simd) + " threads " +
                  std::to_string(threads) + " shape " + core::kernel_shape_name(shape));
        }
      }
    }
  }
}

TEST(ScanEngineKernelShape, StoreScanParityAndAutoSelectsInterseq) {
  const RandomDb db(533);
  const std::string path = testing::TempDir() + "/kernel_shape_scan.swdb";
  db::build_store(db.records, path);
  const db::Store store = db::Store::open(path);

  ScanOptions opt;
  opt.top_k = 8;
  opt.min_score = 12;
  opt.kernel = KernelShape::Striped;
  const ScanResult ref = scan_database_cpu(db.query, db.records, kSc, opt);
  ASSERT_FALSE(ref.hits.empty());

  for (const std::size_t threads : kThreadCounts) {
    for (const KernelShape shape : kShapes) {
      ScanOptions copt = opt;
      copt.threads = threads;
      copt.kernel = shape;
      const ScanResult got = scan_database_cpu(db.query, store, kSc, copt);
      expect_same_scan_and_fallbacks(got, ref,
                                     "store scan threads " + std::to_string(threads) +
                                         " shape " + core::kernel_shape_name(shape));
    }
  }

  // Auto on a store-backed scan picks the inter-sequence shape whenever
  // the resolved tier can run it — visible through the scan.interseq.*
  // counters (SWR_SIMD/SWR_KERNEL overrides legitimately change this, so
  // gate on the resolved tier like the engine does).
  const core::SimdIsa isa = core::auto_simd_isa();
  const bool interseq_expected =
      (isa == core::SimdIsa::Sse41 || isa == core::SimdIsa::Avx2) &&
      core::kernel_shape_env_override().value_or(KernelShape::Auto) != KernelShape::Striped;
  obs::Registry reg;
  ScanOptions mopt = opt;
  mopt.kernel = KernelShape::Auto;
  mopt.metrics = &reg;
  const ScanResult got = scan_database_cpu(db.query, store, kSc, mopt);
  expect_same_scan(got, ref, "metered auto store scan");
  if (interseq_expected) {
    EXPECT_GT(reg.counter("scan.interseq.batches").value(), 0u);
    EXPECT_GT(reg.counter("scan.interseq.records").value(), 0u);
  } else {
    EXPECT_EQ(reg.counter("scan.interseq.batches").value(), 0u);
  }
}

// The fallback count must stay "records whose true score > 255" under the
// inter-sequence shape too: the planted 300-scoring record is the only
// lane that saturates, for every thread count.
TEST(ScanEngineKernelShape, InterseqFallbackCountExact) {
  seq::RandomSequenceGenerator gen(4242);
  const seq::Sequence query = gen.uniform(seq::dna(), 300, "q");
  std::vector<seq::Sequence> records;
  for (int r = 0; r < 20; ++r) {
    records.push_back(gen.uniform(seq::dna(), 120, "bg" + std::to_string(r)));
  }
  seq::Sequence hot = gen.uniform(seq::dna(), 30, "hot");
  hot.append(query);
  records.push_back(std::move(hot));

  for (const std::size_t threads : kThreadCounts) {
    for (const core::SimdIsa simd : {core::SimdIsa::Sse41, core::SimdIsa::Avx2}) {
      ScanOptions opt;
      opt.threads = threads;
      opt.simd = simd;
      opt.kernel = KernelShape::InterSeq;
      const ScanResult r = scan_database_cpu(query, records, kSc, opt);
      EXPECT_EQ(r.swar8_fallbacks, leads_with_bytes(simd) ? 1u : 0u)
          << "simd " << simd_label(simd) << ", " << threads << " threads";
      ASSERT_FALSE(r.hits.empty());
      EXPECT_EQ(r.hits[0].result.score, 300);
    }
  }
}

TEST(ScanEngineKernelShape, ChunkScanParityAcrossShapes) {
  const RandomDb db(644);
  const RecordSource src(db.records);
  std::vector<std::uint32_t> ids;
  for (std::uint32_t r = 0; r < db.records.size(); r += 2) ids.push_back(r);

  ScanOptions opt;
  opt.top_k = 6;
  opt.min_score = 12;
  opt.kernel = KernelShape::Striped;
  const ScanResult ref = scan_records_cpu(db.query, src, ids, kSc, opt);
  for (const KernelShape shape : kShapes) {
    ScanOptions copt = opt;
    copt.kernel = shape;
    const ScanResult got = scan_records_cpu(db.query, src, ids, kSc, copt);
    expect_same_scan_and_fallbacks(got, ref,
                                   std::string("chunk shape ") + core::kernel_shape_name(shape));
  }
}

TEST(FleetScanParallel, ThreadedFleetIdenticalToSequentialFleet) {
  const RandomDb db(33, 24);
  ScanOptions opt;
  opt.top_k = 5;
  opt.min_score = 12;
  for (const std::size_t boards : {1u, 3u}) {
    core::BoardFleet seq_fleet = core::make_board_fleet(core::xc2vp70(), boards, db.query.size(), kSc);
    const ScanResult ref = scan_database_fleet(seq_fleet, db.query, db.records, opt);
    for (const std::size_t threads : {2u, 8u}) {
      core::BoardFleet par_fleet =
          core::make_board_fleet(core::xc2vp70(), boards, db.query.size(), kSc);
      ScanOptions popt = opt;
      popt.threads = threads;
      const ScanResult got = scan_database_fleet(par_fleet, db.query, db.records, popt);
      expect_same_scan(got, ref,
                       std::to_string(boards) + " boards / " + std::to_string(threads) +
                           " threads");
      EXPECT_DOUBLE_EQ(got.board_seconds, ref.board_seconds);
    }
  }
}

}  // namespace
