// Unit suite for the retrieval layer: the top-K primitives every scan
// engine shares (deterministic under any sharding) and the §2.3 per-hit
// traceback (kernel coordinates -> verified CIGAR in O(m + n) space).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "align/banded.hpp"
#include "align/cigar.hpp"
#include "align/gotoh.hpp"
#include "align/nw.hpp"
#include "align/sw_linear.hpp"
#include "core/accelerator.hpp"
#include "host/pipeline.hpp"
#include "obs/metrics.hpp"
#include "par/zalign.hpp"
#include "retrieve/topk.hpp"
#include "retrieve/traceback.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

// ---------------------------------------------------------------- top-K

// The reference semantics: sort everything, keep the first k.
std::vector<int> sorted_prefix(std::vector<int> v, std::size_t k) {
  std::sort(v.begin(), v.end());
  if (k != 0 && v.size() > k) v.resize(k);
  return v;
}

TEST(TopK, InsertMatchesSortForEveryK) {
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> dist(0, 30);  // duplicates on purpose
  std::vector<int> items;
  for (int n = 0; n < 200; ++n) items.push_back(dist(rng));

  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{500}}) {
    std::vector<int> top;
    for (const int x : items) retrieve::topk_insert(top, x, k, std::less<int>{});
    EXPECT_EQ(top, sorted_prefix(items, k)) << "k=" << k;
  }
}

TEST(TopK, UnionFinalizeIsShardInvariant) {
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<int> dist(0, 50);
  std::vector<int> items;
  for (int n = 0; n < 300; ++n) items.push_back(dist(rng));
  const std::vector<int> want = sorted_prefix(items, 12);

  // Any way of splitting the stream into shards must merge to the same
  // prefix — the property the per-worker / per-board / per-chunk folds
  // lean on.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    std::vector<std::vector<int>> partial(shards);
    for (std::size_t n = 0; n < items.size(); ++n) {
      retrieve::topk_insert(partial[n % shards], items[n], 12, std::less<int>{});
    }
    std::vector<int> merged;
    for (std::vector<int>& p : partial) retrieve::topk_union(merged, std::move(p));
    retrieve::topk_finalize(merged, 12, std::less<int>{});
    EXPECT_EQ(merged, want) << shards << " shards";
  }
}

TEST(TopK, FinalizeReleasesUnionCapacity) {
  // Four shards of ten unioned, then trimmed to ten: the sealed list must
  // not keep the union's forty slots.
  std::vector<int> merged;
  for (int shard = 0; shard < 4; ++shard) {
    std::vector<int> part;
    for (int x = 0; x < 10; ++x) part.push_back(shard * 10 + x);
    retrieve::topk_union(merged, std::move(part));
  }
  ASSERT_GE(merged.capacity(), 40u);
  retrieve::topk_finalize(merged, 10, std::less<int>{});
  EXPECT_EQ(merged.size(), 10u);
  EXPECT_EQ(merged.capacity(), merged.size());
  EXPECT_EQ(merged.front(), 0);
}

TEST(TopK, ZeroKeepsEverything) {
  std::vector<int> top;
  for (const int x : {5, 3, 9, 3, 1}) retrieve::topk_insert(top, x, 0, std::less<int>{});
  EXPECT_EQ(top, (std::vector<int>{1, 3, 3, 5, 9}));
}

// -------------------------------------------------------- band_from_score

TEST(BandFromScore, ContainsTheOptimalGlobalAlignment) {
  const align::Scoring sc;
  seq::RandomSequenceGenerator gen(1309);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t len = 20 + static_cast<std::size_t>(iter) * 3;
    const seq::Sequence a = gen.uniform(seq::dna(), len);
    const seq::Sequence b = seq::point_mutate(a, 0.02 + 0.01 * (iter % 8), gen.engine());
    const align::Score g = align::nw_score(a.codes(), b.codes(), sc);
    if (g <= 0) continue;  // the bound is only claimed for positive scores

    const std::size_t band = retrieve::band_from_score(a.size(), b.size(), g, sc);
    const std::size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    EXPECT_GE(band, diff);
    EXPECT_LE(band, std::max(a.size(), b.size()));
    // The proof obligation: an alignment scoring g exists, so it must fit.
    EXPECT_EQ(align::banded_nw_score(a.codes(), b.codes(), band, sc), g) << "iter " << iter;
  }
}

TEST(BandFromScore, NonPositiveMatrixFallsBackToFullBand) {
  align::Scoring sc;
  sc.match = 1;
  const align::SubstitutionMatrix zeroish(seq::dna(), 0, -1);
  sc.matrix = &zeroish;
  EXPECT_EQ(retrieve::band_from_score(30, 20, 5, sc), 30u);
}

// ----------------------------------------------------------- traceback_hit

struct PlantedHit {
  seq::Sequence query;
  seq::Sequence rec;
  align::LocalScoreResult kernel;
};

PlantedHit plant(std::uint64_t seed, double rate, std::size_t qlen = 90) {
  PlantedHit p;
  seq::RandomSequenceGenerator gen(seed);
  p.query = gen.uniform(seq::dna(), qlen, "q");
  seq::Sequence rec = gen.uniform(seq::dna(), 40, "r");
  rec.append(seq::point_mutate(p.query, rate, gen.engine()));
  rec.append(gen.uniform(seq::dna(), 25));
  p.rec = std::move(rec);
  p.kernel = align::sw_linear_codes(p.rec.codes(), p.query.codes(), align::Scoring{});
  return p;
}

TEST(TracebackHit, ReplaysTheKernelScoreExactly) {
  const align::Scoring sc;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const PlantedHit p = plant(seed, 0.01 * static_cast<double>(seed));
    ASSERT_GT(p.kernel.score, 0);
    const retrieve::Traceback tb =
        retrieve::traceback_hit(p.rec.codes(), p.query.codes(), p.kernel, sc);

    EXPECT_EQ(tb.alignment.score, p.kernel.score);
    // The transcript must replay to the kernel score from the residues
    // alone, through the independent Sequence-level scorer.
    EXPECT_EQ(align::score_of(tb.alignment.cigar, p.rec, p.query, tb.alignment.begin, sc),
              p.kernel.score)
        << "seed " << seed;
    // Coordinates and transcript agree on the window extent.
    EXPECT_EQ(tb.alignment.cigar.consumed_i(), tb.alignment.end.i - tb.alignment.begin.i + 1);
    EXPECT_EQ(tb.alignment.cigar.consumed_j(), tb.alignment.end.j - tb.alignment.begin.j + 1);
    EXPECT_GT(tb.identity, 0.0);
    EXPECT_LE(tb.identity, 1.0);
    EXPECT_GT(tb.query_coverage, 0.0);
    EXPECT_LE(tb.query_coverage, 1.0);
    EXPECT_GT(tb.dp_cells, 0u);
    EXPECT_GT(tb.peak_cells, 0u);
  }
}

TEST(TracebackHit, HighIdentityHitTakesTheBandedPath) {
  const PlantedHit p = plant(33, 0.02);
  const retrieve::Traceback tb =
      retrieve::traceback_hit(p.rec.codes(), p.query.codes(), p.kernel, align::Scoring{});
  EXPECT_TRUE(tb.banded);
  EXPECT_GT(tb.identity, 0.85);
}

TEST(TracebackHit, HirschbergFallbackAgreesWithBanded) {
  const align::Scoring sc;
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const PlantedHit p = plant(seed, 0.05);
    const retrieve::Traceback banded =
        retrieve::traceback_hit(p.rec.codes(), p.query.codes(), p.kernel, sc);
    retrieve::TracebackOptions no_band;
    no_band.band_cell_budget = 0;  // force the divide-and-conquer path
    const retrieve::Traceback hirsch =
        retrieve::traceback_hit(p.rec.codes(), p.query.codes(), p.kernel, sc, no_band);

    EXPECT_FALSE(hirsch.banded);
    // Both routes end at the same window with the same verified score;
    // co-optimal transcripts may differ, the invariants may not.
    EXPECT_EQ(hirsch.alignment.score, banded.alignment.score);
    EXPECT_EQ(hirsch.alignment.begin, banded.alignment.begin);
    EXPECT_EQ(hirsch.alignment.end, banded.alignment.end);
    EXPECT_EQ(align::score_of(hirsch.alignment.cigar, p.rec, p.query, hirsch.alignment.begin, sc),
              p.kernel.score);
  }
}

TEST(TracebackHit, PeakMemoryIsLinearInTheWindow) {
  // The acceptance bound: peak score cells stay O(m + n) while the full-DP
  // matrix grows with the product. Forcing Hirschberg makes the bound
  // unconditional (the banded path already stores fewer cells whenever it
  // is chosen over full DP).
  retrieve::TracebackOptions no_band;
  no_band.band_cell_budget = 0;
  for (const std::size_t qlen : {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
    const PlantedHit p = plant(5000 + qlen, 0.04, qlen);
    ASSERT_GT(p.kernel.score, 0);
    const retrieve::Traceback tb =
        retrieve::traceback_hit(p.rec.codes(), p.query.codes(), p.kernel, align::Scoring{}, no_band);
    const std::uint64_t linear_bound = 4 * (p.rec.size() + p.query.size());
    const std::uint64_t full_dp = static_cast<std::uint64_t>(p.rec.size() + 1) *
                                  static_cast<std::uint64_t>(p.query.size() + 1);
    EXPECT_LE(tb.peak_cells, linear_bound) << "qlen " << qlen;
    EXPECT_LT(tb.peak_cells, full_dp / 8) << "qlen " << qlen;
  }
}

TEST(TracebackHit, RejectsImpossibleKernelResults) {
  const seq::Sequence a = test::random_dna(30, 7);
  const seq::Sequence b = test::random_dna(30, 8);
  const align::Scoring sc;

  align::LocalScoreResult bad;
  bad.score = 0;  // non-positive score: nothing to retrieve
  bad.end = {1, 1};
  EXPECT_THROW((void)retrieve::traceback_hit(a.codes(), b.codes(), bad, sc),
               std::invalid_argument);

  bad.score = 5;
  bad.end = {0, 1};  // 0 is the empty-prefix corner, not a residue
  EXPECT_THROW((void)retrieve::traceback_hit(a.codes(), b.codes(), bad, sc),
               std::invalid_argument);

  bad.end = {a.size() + 1, 1};  // off the end of the record
  EXPECT_THROW((void)retrieve::traceback_hit(a.codes(), b.codes(), bad, sc),
               std::invalid_argument);
}

TEST(TracebackHit, ForgedScoreIsCaughtLoudly) {
  // A kernel result whose score no alignment can reach must die in the
  // reverse pass, never escape as a CIGAR.
  const PlantedHit p = plant(99, 0.03);
  align::LocalScoreResult forged = p.kernel;
  forged.score += 7;
  EXPECT_THROW(
      (void)retrieve::traceback_hit(p.rec.codes(), p.query.codes(), forged, align::Scoring{}),
      std::logic_error);
}

// ------------------------------------------------ affine gaps + the band

const align::AffineScoring kAffine{2, -1, -2, -1, nullptr};

PlantedHit plant_affine(std::uint64_t seed, double rate) {
  PlantedHit p = plant(seed, rate);
  p.kernel = align::gotoh_local_score(p.rec.codes(), p.query.codes(), kAffine);
  return p;
}

TEST(TracebackHit, AffineReplaysTheKernelScoreExactly) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const PlantedHit p = plant_affine(seed, 0.01 * static_cast<double>(seed));
    ASSERT_GT(p.kernel.score, 0);
    const retrieve::Traceback tb =
        retrieve::traceback_hit(p.rec.codes(), p.query.codes(), p.kernel, kAffine);
    const align::Cell b = tb.alignment.begin;
    const align::Cell e = tb.alignment.end;

    EXPECT_EQ(tb.alignment.score, p.kernel.score);
    EXPECT_EQ(align::affine_score_of(tb.alignment.cigar, p.rec.codes().subspan(b.i - 1),
                                     p.query.codes().subspan(b.j - 1), kAffine),
              p.kernel.score)
        << "seed " << seed;
    EXPECT_EQ(tb.alignment.cigar.consumed_i(), e.i - b.i + 1);
    EXPECT_EQ(tb.alignment.cigar.consumed_j(), e.j - b.j + 1);
    EXPECT_FALSE(tb.banded);  // affine windows go to Myers-Miller
    EXPECT_EQ(tb.band, 0u);
    EXPECT_GT(tb.identity, 0.0);
    EXPECT_LE(tb.identity, 1.0);
    EXPECT_GT(tb.query_coverage, 0.0);
    EXPECT_LE(tb.query_coverage, 1.0);
    EXPECT_GT(tb.dp_cells, 0u);
    // Myers-Miller's split holds four rows of the window.
    EXPECT_GE(tb.peak_cells, 4 * (e.j - b.j + 2));
  }
}

TEST(TracebackHit, AffineForgedScoreIsCaughtLoudly) {
  const PlantedHit p = plant_affine(99, 0.03);
  align::LocalScoreResult forged = p.kernel;
  forged.score += 7;
  EXPECT_THROW((void)retrieve::traceback_hit(p.rec.codes(), p.query.codes(), forged, kAffine),
               std::logic_error);
}

TEST(TracebackHit, BandIsDoubledUpToTheProvenCap) {
  // The window band starts at max(|m-n|, 1) and doubles while the banded
  // score falls short of the kernel score, capped at band_from_score.
  const align::Scoring sc;
  std::vector<PlantedHit> hits;
  seq::MutationModel mm;
  mm.substitution_rate = 0.05;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    mm.insertion_rate = mm.deletion_rate = 0.005 * static_cast<double>(seed % 6);
    seq::RandomSequenceGenerator gen(7000 + seed);
    PlantedHit& p = hits.emplace_back();
    p.query = gen.uniform(seq::dna(), 200, "q");
    p.rec = gen.uniform(seq::dna(), 30, "r");
    p.rec.append(seq::mutate(p.query, mm, gen.engine()));
    p.rec.append(gen.uniform(seq::dna(), 30));
  }
  {
    // A 12-residue deletion, then a 3-residue insertion: the window is 9
    // rows longer than the query and drifts 12 diagonals, so doubling
    // from 9 would reach 18 where the score proves 15 suffice.
    seq::RandomSequenceGenerator gen(7100);
    PlantedHit& p = hits.emplace_back();
    p.query = gen.uniform(seq::dna(), 300, "q");
    p.rec = p.query.subsequence(0, 150);
    p.rec.append(gen.uniform(seq::dna(), 12));
    p.rec.append(p.query.subsequence(150, 100));
    p.rec.append(p.query.subsequence(253, 47));
  }

  int doubled = 0;
  int capped = 0;
  for (std::size_t k = 0; k < hits.size(); ++k) {
    const PlantedHit& p = hits[k];
    const align::LocalScoreResult kernel =
        align::sw_linear_codes(p.rec.codes(), p.query.codes(), sc);
    const retrieve::Traceback tb =
        retrieve::traceback_hit(p.rec.codes(), p.query.codes(), kernel, sc);
    ASSERT_TRUE(tb.banded) << "pair " << k;

    const align::Cell b = tb.alignment.begin;
    const align::Cell e = tb.alignment.end;
    const auto wa = p.rec.codes().subspan(b.i - 1, e.i - b.i + 1);
    const auto wb = p.query.codes().subspan(b.j - 1, e.j - b.j + 1);
    const std::size_t cap = retrieve::band_from_score(wa.size(), wb.size(), kernel.score, sc);
    EXPECT_LE(align::required_band(tb.alignment.cigar, align::Cell{1, 1}), tb.band)
        << "pair " << k;
    EXPECT_LE(tb.band, cap) << "pair " << k;

    const std::size_t diff = wa.size() > wb.size() ? wa.size() - wb.size() : wb.size() - wa.size();
    const std::size_t start = std::max<std::size_t>(diff, 1);
    if (tb.band < cap && tb.band / 2 >= start) {
      // Not capped and not the first step: the previous step fell short.
      EXPECT_LT(align::banded_nw_score(wa, wb, tb.band / 2, sc), kernel.score) << "pair " << k;
      ++doubled;
    }
    if (tb.band == cap && tb.band > start) ++capped;
  }
  // The sweep must exercise both the doubling and the cap.
  EXPECT_GT(doubled, 0);
  EXPECT_GT(capped, 0);
}

// -------------------------------------- one transcript per hit, everywhere

TEST(TracebackAgreement, EveryEntryPointReturnsTheSameAlignment) {
  // Scan hits, the software pairwise entry, the accelerator pipeline and
  // Z-align all come out of traceback_hit, so on pairs whose band fits
  // every default budget they agree on (score, begin, end, cigar).
  const align::Scoring sc;
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 32, sc);
  host::HostPipeline pipe(acc, host::PciConfig{});
  par::ZAlignOptions zopt;
  zopt.wavefront.threads = 2;
  zopt.wavefront.row_block = 64;

  seq::MutationModel mm;
  mm.substitution_rate = 0.06;
  mm.insertion_rate = 0.01;
  mm.deletion_rate = 0.01;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    seq::RandomSequenceGenerator gen(8800 + seed);
    const seq::Sequence query = gen.uniform(seq::dna(), 60 + 10 * seed, "q");
    seq::Sequence rec = gen.uniform(seq::dna(), 150, "r");
    if (seed % 3 != 0) {  // two in three homologs, the rest random pairs
      rec.append(seq::mutate(query, mm, gen.engine()));
      rec.append(gen.uniform(seq::dna(), 40));
    }
    const align::LocalScoreResult kernel = align::sw_linear_codes(rec.codes(), query.codes(), sc);
    ASSERT_GT(kernel.score, 0);

    const align::LocalAlignment want =
        retrieve::traceback_hit(rec.codes(), query.codes(), kernel, sc).alignment;
    const align::LocalAlignment pair = retrieve::local_align_linear(rec, query, sc);
    const align::LocalAlignment hw = pipe.align(query, rec).alignment;
    const align::LocalAlignment z = par::zalign(rec, query, sc, zopt).alignment;
    for (const align::LocalAlignment* got : {&pair, &hw, &z}) {
      EXPECT_EQ(got->score, want.score) << "seed " << seed;
      EXPECT_EQ(got->begin, want.begin) << "seed " << seed;
      EXPECT_EQ(got->end, want.end) << "seed " << seed;
      EXPECT_EQ(got->cigar, want.cigar) << "seed " << seed;
    }
  }
}

TEST(TracebackMetrics, RecordsPerHitAccounting) {
  obs::Registry reg;
  const retrieve::TracebackMetrics metrics(&reg);
  const PlantedHit p = plant(123, 0.02);
  const retrieve::Traceback tb =
      retrieve::traceback_hit(p.rec.codes(), p.query.codes(), p.kernel, align::Scoring{});
  metrics.observe(tb, 1e-4);
  metrics.observe(tb, 2e-4);

  EXPECT_EQ(reg.counter("retrieve.hits").value(), 2u);
  EXPECT_EQ(reg.counter("retrieve.banded").value() + reg.counter("retrieve.hirschberg").value(),
            2u);
  EXPECT_EQ(reg.counter("retrieve.cells").value(), 2 * tb.dp_cells);
  EXPECT_EQ(reg.histogram("retrieve.traceback_us").count(), 2u);
}

TEST(TracebackMetrics, NullRegistryIsANoOp) {
  const retrieve::TracebackMetrics metrics(nullptr);
  metrics.observe(retrieve::Traceback{}, 0.0);  // must not crash
  EXPECT_EQ(metrics.hits, nullptr);
}

}  // namespace
