// Alignment-retrieval parity suite (ISSUE acceptance): with --align on,
// the ranked hits AND the retrieved transcripts must be bit-identical
// across kernel shapes x SIMD policies x thread counts x engines
// (CPU / accelerator model / board fleet / chunked record scans), every
// replayed transcript must reproduce the kernel score, and --max-hits
// must cap traceback work without perturbing the ranking. The CI
// alignment-parity leg drives these suites by name (AlignParity*), and
// the filter matrix picks up the seeded-vs-exact aligned parity
// (FilterParityAligned*).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/cigar.hpp"
#include "align/scoring.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/device.hpp"
#include "core/multiboard.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/fleet_scan.hpp"
#include "host/record_source.hpp"
#include "host/scan_engine.hpp"
#include "retrieve/topk.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::host;

std::string temp_path(const std::string& leaf) { return testing::TempDir() + "/" + leaf; }

db::Store build_open(const std::vector<seq::Sequence>& recs, const std::string& leaf,
                     bool index = true) {
  const std::string path = temp_path(leaf);
  db::BuildOptions opt;
  opt.kmer_index = index;
  db::build_store(recs, path, opt);
  return db::Store::open(path);
}

// Random DNA background with homologs planted across a divergence ladder,
// plus the degenerate records every engine must skip identically.
struct SeededDb {
  seq::Sequence query;
  std::vector<seq::Sequence> records;

  explicit SeededDb(std::uint64_t seed, std::size_t n_records = 60) {
    seq::RandomSequenceGenerator gen(seed);
    query = gen.uniform(seq::dna(), 110, "q");
    for (std::size_t r = 0; r < n_records; ++r) {
      seq::Sequence rec = gen.uniform(seq::dna(), 55 + 41 * (r % 8), "rec" + std::to_string(r));
      if (r % 8 == 3) {
        const double rate = 0.02 + 0.03 * static_cast<double>(r % 6);
        rec.append(seq::point_mutate(query, rate, gen.engine()));
      }
      records.push_back(std::move(rec));
    }
    records.push_back(seq::Sequence::dna("", "empty"));
    records.push_back(seq::Sequence::dna("ACGT", "tiny"));
  }
};

void expect_same_hits(const ScanResult& got, const ScanResult& want, const std::string& what) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << what;
  for (std::size_t k = 0; k < got.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].record, want.hits[k].record) << what << " hit " << k;
    EXPECT_EQ(got.hits[k].result, want.hits[k].result) << what << " hit " << k;
  }
}

// Bit-identical transcripts, not just equal scores: the CIGAR string, the
// window coordinates and the path choice must all agree.
void expect_same_alignments(const ScanResult& got, const ScanResult& want,
                            const std::string& what) {
  ASSERT_EQ(got.alignments.size(), want.alignments.size()) << what;
  for (std::size_t k = 0; k < got.alignments.size(); ++k) {
    const retrieve::Traceback& g = got.alignments[k];
    const retrieve::Traceback& w = want.alignments[k];
    EXPECT_EQ(g.alignment.score, w.alignment.score) << what << " alignment " << k;
    EXPECT_EQ(g.alignment.begin, w.alignment.begin) << what << " alignment " << k;
    EXPECT_EQ(g.alignment.end, w.alignment.end) << what << " alignment " << k;
    EXPECT_EQ(g.alignment.cigar.to_string(), w.alignment.cigar.to_string())
        << what << " alignment " << k;
    EXPECT_EQ(g.banded, w.banded) << what << " alignment " << k;
    EXPECT_DOUBLE_EQ(g.identity, w.identity) << what << " alignment " << k;
    EXPECT_DOUBLE_EQ(g.query_coverage, w.query_coverage) << what << " alignment " << k;
  }
}

// Independent replay: alignments[k] belongs to hits[k] and its transcript
// reproduces the kernel score from the residues alone.
void expect_replay(const ScanResult& r, const seq::Sequence& query,
                   const std::vector<seq::Sequence>& records, const align::Scoring& sc,
                   const std::string& what) {
  ASSERT_LE(r.alignments.size(), r.hits.size()) << what;
  for (std::size_t k = 0; k < r.alignments.size(); ++k) {
    const retrieve::Traceback& tb = r.alignments[k];
    const Hit& h = r.hits[k];
    EXPECT_EQ(tb.alignment.score, h.result.score) << what << " hit " << k;
    EXPECT_EQ(align::score_of(tb.alignment.cigar, records[h.record], query, tb.alignment.begin, sc),
              h.result.score)
        << what << " hit " << k << " record " << h.record;
  }
}

TEST(AlignParity, BitIdenticalAcrossShapesPoliciesThreads) {
  const SeededDb db(2101);
  const db::Store store = build_open(db.records, "align_parity.swdb");
  const align::Scoring sc;

  ScanOptions opt;
  opt.top_k = 12;
  opt.min_score = 40;
  opt.align = true;
  const ScanResult base = scan_database_cpu(db.query, store, sc, opt);
  ASSERT_GE(base.hits.size(), 5u);
  ASSERT_EQ(base.alignments.size(), base.hits.size());
  expect_replay(base, db.query, db.records, sc, "baseline");

  for (const KernelShape shape : {KernelShape::Auto, KernelShape::Striped, KernelShape::InterSeq}) {
    const std::optional<core::SimdIsa> tiers[] = {std::nullopt, core::SimdIsa::Scalar,
                                                  core::SimdIsa::Avx2};
    for (const std::optional<core::SimdIsa> simd : tiers) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ScanOptions sopt = opt;
        sopt.kernel = shape;
        sopt.simd = simd;
        sopt.threads = threads;
        const ScanResult got = scan_database_cpu(db.query, store, sc, sopt);
        const std::string what = std::string("shape ") + core::kernel_shape_name(shape) +
                                 " simd " + test::simd_label(simd) +
                                 " threads " + std::to_string(threads);
        expect_same_hits(got, base, what);
        expect_same_alignments(got, base, what);
      }
    }
  }
}

TEST(AlignParity, AlignOnDoesNotPerturbTheRanking) {
  const SeededDb db(2102);
  const db::Store store = build_open(db.records, "align_rank.swdb");
  ScanOptions off;
  off.top_k = 10;
  off.min_score = 40;
  ScanOptions on = off;
  on.align = true;

  const ScanResult without = scan_database_cpu(db.query, store, align::Scoring{}, off);
  const ScanResult with = scan_database_cpu(db.query, store, align::Scoring{}, on);
  expect_same_hits(with, without, "align on vs off");
  EXPECT_TRUE(without.alignments.empty());
  EXPECT_EQ(with.alignments.size(), with.hits.size());
}

TEST(AlignParity, AcceleratorAndFleetMatchTheCpuEngine) {
  const SeededDb db(2103, 40);
  const db::Store store = build_open(db.records, "align_accel.swdb");
  const align::Scoring sc;
  ScanOptions opt;
  opt.top_k = 8;
  opt.min_score = 40;
  opt.align = true;
  const ScanResult cpu = scan_database_cpu(db.query, store, sc, opt);
  ASSERT_FALSE(cpu.hits.empty());

  core::SmithWatermanAccelerator acc(core::xc2vp70(), 64, sc);
  const ScanResult accel = scan_database(acc, db.query, store, opt);
  expect_same_hits(accel, cpu, "accelerator");
  expect_same_alignments(accel, cpu, "accelerator");

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    core::BoardFleet fleet = core::make_board_fleet(core::xc2vp70(), 3, 40, sc);
    ScanOptions fopt = opt;
    fopt.threads = threads;
    const ScanResult fr = scan_database_fleet(fleet, db.query, db.records, fopt);
    expect_same_hits(fr, cpu, "fleet threads " + std::to_string(threads));
    expect_same_alignments(fr, cpu, "fleet threads " + std::to_string(threads));
  }
}

TEST(AlignParity, ChunkedRecordScansComposeToTheSameAlignments) {
  // The service's dispatch discipline, replayed by hand: chunks scan
  // score-only, the union is finalized under the total order, and the
  // retrieval phase runs once on the merged ranking — reproducing the
  // direct scan exactly for every chunk size.
  const SeededDb db(2104);
  const db::Store store = build_open(db.records, "align_chunk.swdb");
  const RecordSource src(store);
  const align::Scoring sc;
  ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 40;
  opt.align = true;
  const ScanResult base = scan_database_cpu(db.query, store, sc, opt);

  for (const std::size_t chunk : {std::size_t{7}, std::size_t{31}, std::size_t{1000}}) {
    ScanOptions chunk_opt = opt;
    chunk_opt.align = false;  // chunks never retrieve; the merge does
    ScanResult merged;
    for (std::size_t lo = 0; lo < src.size(); lo += chunk) {
      std::vector<std::uint32_t> ids;
      for (std::size_t r = lo; r < std::min(lo + chunk, src.size()); ++r) {
        ids.push_back(static_cast<std::uint32_t>(r));
      }
      ScanResult part = scan_records_cpu(db.query, src, ids, sc, chunk_opt);
      retrieve::topk_union(merged.hits, std::move(part.hits));
    }
    retrieve::topk_finalize(merged.hits, opt.top_k, hit_ranks_before);
    retrieve_alignments(db.query, src, sc, opt, merged);

    const std::string what = "chunk " + std::to_string(chunk);
    expect_same_hits(merged, base, what);
    expect_same_alignments(merged, base, what);
  }
}

TEST(AlignParity, ServiceChunkSizesProduceIdenticalAlignments) {
  const SeededDb db(2105);
  const db::Store store = build_open(db.records, "align_svc.swdb");
  ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 40;
  opt.align = true;
  const ScanResult base = scan_database_cpu(db.query, store, align::Scoring{}, opt);

  for (const std::size_t chunk : {std::size_t{5}, std::size_t{24}, std::size_t{1000}}) {
    svc::ServiceConfig cfg;
    cfg.cpu_workers = 3;
    cfg.chunk_records = chunk;
    svc::ScanService service(store, cfg);
    const svc::ScanResponse resp = service.submit(db.query, opt).response.get();
    ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
    const std::string what = "service chunk " + std::to_string(chunk);
    expect_same_hits(resp.result, base, what);
    expect_same_alignments(resp.result, base, what);
  }
}

TEST(AlignParity, MaxHitsCapsTracebackNotRanking) {
  const SeededDb db(2106);
  const db::Store store = build_open(db.records, "align_cap.swdb");
  const align::Scoring sc;
  ScanOptions opt;
  opt.top_k = 12;
  opt.min_score = 40;
  opt.align = true;
  const ScanResult full = scan_database_cpu(db.query, store, sc, opt);
  ASSERT_GE(full.hits.size(), 4u);

  ScanOptions capped = opt;
  capped.max_hits = 3;
  const ScanResult got = scan_database_cpu(db.query, store, sc, capped);
  expect_same_hits(got, full, "capped");  // ranking is untouched
  ASSERT_EQ(got.alignments.size(), 3u);
  // The capped alignments are exactly the head of the uncapped list.
  ScanResult head = full;
  head.alignments.resize(3);
  expect_same_alignments(got, head, "capped head");
  expect_replay(got, db.query, db.records, sc, "capped");
}

TEST(AlignParity, VectorAndStoreSourcesAgree) {
  const SeededDb db(2107, 30);
  const db::Store store = build_open(db.records, "align_src.swdb");
  ScanOptions opt;
  opt.top_k = 8;
  opt.min_score = 40;
  opt.align = true;
  const ScanResult vec = scan_database_cpu(db.query, db.records, align::Scoring{}, opt);
  const ScanResult mapped = scan_database_cpu(db.query, store, align::Scoring{}, opt);
  expect_same_hits(mapped, vec, "store vs vector");
  expect_same_alignments(mapped, vec, "store vs vector");
}

TEST(FilterParityAligned, SeededTopKAlignsTheSameSet) {
  // Satellite: under --filter seeded, --max-hits counts post-rescore hits
  // — the traceback set is the head of the final merged ranking, so a
  // seeded scan aligns exactly what the exact scan aligns.
  const SeededDb db(2108);
  const db::Store store = build_open(db.records, "align_seeded.swdb");
  const align::Scoring sc;
  ScanOptions opt;
  opt.top_k = 12;
  opt.min_score = 40;
  opt.align = true;
  const ScanResult exact = scan_database_cpu(db.query, store, sc, opt);
  ASSERT_GE(exact.hits.size(), 4u);

  for (const std::size_t max_hits : {std::size_t{0}, std::size_t{3}}) {
    ScanOptions sopt = opt;
    sopt.filter = FilterMode::Seeded;
    sopt.max_hits = max_hits;
    const ScanResult seeded = scan_database_cpu(db.query, store, sc, sopt);
    const std::string what = "seeded max_hits " + std::to_string(max_hits);
    expect_same_hits(seeded, exact, what);
    const std::size_t expect_aligned =
        max_hits == 0 ? exact.hits.size() : std::min(max_hits, exact.hits.size());
    ASSERT_EQ(seeded.alignments.size(), expect_aligned) << what;
    ScanResult head = exact;
    head.alignments.resize(expect_aligned);
    expect_same_alignments(seeded, head, what);
    expect_replay(seeded, db.query, db.records, sc, what);
  }
}

TEST(FilterParityAligned, SeededAlignmentsSurviveShapeAndThreadSweeps) {
  const SeededDb db(2109);
  const db::Store store = build_open(db.records, "align_seeded_sweep.swdb");
  const align::Scoring sc;
  ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 40;
  opt.align = true;
  opt.max_hits = 4;
  opt.filter = FilterMode::Seeded;
  const ScanResult base = scan_database_cpu(db.query, store, sc, opt);
  ASSERT_EQ(base.alignments.size(), 4u);

  for (const KernelShape shape : {KernelShape::Striped, KernelShape::InterSeq}) {
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      ScanOptions sopt = opt;
      sopt.kernel = shape;
      sopt.threads = threads;
      const ScanResult got = scan_database_cpu(db.query, store, sc, sopt);
      const std::string what = std::string("seeded shape ") + core::kernel_shape_name(shape) +
                               " threads " + std::to_string(threads);
      expect_same_hits(got, base, what);
      expect_same_alignments(got, base, what);
    }
  }
}

}  // namespace
