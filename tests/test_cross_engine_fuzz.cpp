// Cross-engine fuzz: the library's central invariant, hammered.
//
// For a batch of randomized workloads (sizes, seeds, scoring schemes,
// array widths, thread counts), every engine that claims to compute the
// best local score + canonical coordinates must agree exactly:
//
//   sw_full  (quadratic oracle)
//   sw_linear
//   sw_linear_profiled
//   wavefront_sw
//   ArrayController<ScorePe>  (cycle-accurate hardware model)
//   multiboard_run            (partitioned fleet)
//
// and the affine pair gotoh_local_score == ArrayController<AffinePe>.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "align/banded.hpp"
#include "align/gotoh.hpp"
#include "align/sw_antidiag.hpp"
#include "align/sw_antidiag8.hpp"
#include "align/sw_full.hpp"
#include "align/sw_interseq.hpp"
#include "align/sw_linear.hpp"
#include "align/sw_profile.hpp"
#include "align/sw_striped.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/multibase.hpp"
#include "core/multiboard.hpp"
#include "host/batch.hpp"
#include "host/scan_engine.hpp"
#include "par/wavefront.hpp"
#include "seq/random.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

struct FuzzCase {
  std::size_t m;         // db rows
  std::size_t n;         // query cols
  align::Scoring sc;
  std::size_t npes;
  std::size_t threads;
  std::size_t boards;
  std::uint64_t seed;
};

FuzzCase draw_case(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> msize(1, 220);
  std::uniform_int_distribution<std::size_t> nsize(1, 70);
  std::uniform_int_distribution<int> match(1, 5);
  std::uniform_int_distribution<int> mism(-5, 0);
  std::uniform_int_distribution<int> gap(-6, -1);
  std::uniform_int_distribution<std::size_t> pes(1, 24);
  std::uniform_int_distribution<std::size_t> thr(1, 4);
  std::uniform_int_distribution<std::size_t> brd(1, 4);
  FuzzCase c;
  c.m = msize(rng);
  c.n = nsize(rng);
  c.sc.match = match(rng);
  c.sc.mismatch = std::min(mism(rng), c.sc.match - 1);
  c.sc.gap = gap(rng);
  c.npes = pes(rng);
  c.threads = thr(rng);
  c.boards = brd(rng);
  c.seed = rng();
  return c;
}

class CrossEngineFuzz : public testing::TestWithParam<int> {};

TEST_P(CrossEngineFuzz, AllEnginesAgree) {
  std::mt19937_64 rng(0xF00D + static_cast<unsigned>(GetParam()));
  for (int iter = 0; iter < 8; ++iter) {
    const FuzzCase c = draw_case(rng);
    seq::RandomSequenceGenerator gen(c.seed);
    const seq::Sequence db = gen.uniform(seq::dna(), c.m);
    const seq::Sequence query = gen.uniform(seq::dna(), c.n);

    const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(db, query, c.sc));
    const std::string ctx = "case m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
                            " match=" + std::to_string(c.sc.match) +
                            " mism=" + std::to_string(c.sc.mismatch) +
                            " gap=" + std::to_string(c.sc.gap) +
                            " pes=" + std::to_string(c.npes) + " seed=" + std::to_string(c.seed);

    EXPECT_EQ(align::sw_linear(db, query, c.sc), oracle) << "sw_linear " << ctx;
    EXPECT_EQ(align::sw_linear_profiled(db, query, c.sc), oracle) << "profiled " << ctx;
    EXPECT_EQ(align::sw_linear_antidiag(db, query, c.sc), oracle) << "antidiag " << ctx;

    par::WavefrontConfig wf;
    wf.threads = c.threads;
    wf.row_block = 1 + c.m / 3;
    EXPECT_EQ(par::wavefront_sw(db, query, c.sc, wf), oracle) << "wavefront " << ctx;

    core::ArrayController<core::ScorePe> ctl(c.npes, 16, c.sc, 8u << 20, true);
    EXPECT_EQ(ctl.run(query, db), oracle) << "systolic " << ctx;

    core::BoardFleet fleet = core::make_board_fleet(
        {.boards = c.boards, .pes_per_board = std::min<std::size_t>(c.n, 150) + 1}, c.sc);
    EXPECT_EQ(core::multiboard_run(fleet, query, db).best, oracle) << "multiboard " << ctx;

    core::MultiBaseController mb(std::max<std::size_t>(c.npes / 2, 1), 1 + c.seed % 4, 16, c.sc,
                                 8u << 20, true);
    EXPECT_EQ(mb.run(query, db), oracle) << "multibase " << ctx;
  }
}

TEST_P(CrossEngineFuzz, AffineEnginesAgree) {
  std::mt19937_64 rng(0xBEEF + static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<std::size_t> msize(1, 150);
  std::uniform_int_distribution<std::size_t> nsize(1, 50);
  std::uniform_int_distribution<int> open(-6, 0);
  std::uniform_int_distribution<int> ext(-4, -1);
  std::uniform_int_distribution<std::size_t> pes(1, 16);
  for (int iter = 0; iter < 6; ++iter) {
    align::AffineScoring sc;
    sc.match = 2;
    sc.mismatch = -1;
    sc.gap_open = open(rng);
    sc.gap_extend = ext(rng);
    const std::size_t m = msize(rng);
    const std::size_t n = nsize(rng);
    const std::size_t npes = pes(rng);
    seq::RandomSequenceGenerator gen(rng());
    const seq::Sequence db = gen.uniform(seq::dna(), m);
    const seq::Sequence query = gen.uniform(seq::dna(), n);

    const align::LocalScoreResult oracle =
        align::gotoh_local_score(db.codes(), query.codes(), sc);
    core::ArrayController<core::AffinePe> ctl(npes, 16, sc, 8u << 20, true);
    EXPECT_EQ(ctl.run(query, db), oracle)
        << "affine m=" << m << " n=" << n << " npes=" << npes << " open=" << sc.gap_open
        << " ext=" << sc.gap_extend;
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, CrossEngineFuzz, testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Degenerate-input sweep: the inputs randomized fuzzing almost never draws —
// empty and 1-residue sequences, single-letter and two-letter "alphabets",
// all-same runs long enough to saturate 8-bit lanes. Every engine must
// still agree bit-for-bit with the quadratic oracle.
// ---------------------------------------------------------------------------

std::string repeat(char c, std::size_t n) { return std::string(n, c); }

std::string alternate(const char* two, std::size_t n) {
  std::string s;
  s.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s += two[i % 2];
  return s;
}

// The deterministic degenerate menagerie (DNA).
std::vector<seq::Sequence> degenerate_dna() {
  return {
      seq::Sequence::dna("", "empty"),
      seq::Sequence::dna("A", "one"),
      seq::Sequence::dna("G", "one_other"),
      seq::Sequence::dna(repeat('A', 7), "same7"),
      seq::Sequence::dna(repeat('A', 64), "same64"),
      seq::Sequence::dna(repeat('C', 300), "same300"),  // 255-straddler at match=1
      seq::Sequence::dna(alternate("AC", 33), "alt33"),
      seq::Sequence::dna(alternate("GT", 48), "alt48"),
      seq::Sequence::dna("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT", "period4"),
  };
}

// Striped lane widths this machine can execute (empty off x86).
std::vector<unsigned> striped_lane_widths() {
  std::vector<unsigned> widths;
  if (core::cpu_supports(core::SimdIsa::Sse41)) widths.push_back(16);
  if (core::cpu_supports(core::SimdIsa::Avx2)) widths.push_back(32);
  if (core::cpu_supports(core::SimdIsa::Avx512)) widths.push_back(64);
  return widths;
}

void check_all_engines(const seq::Sequence& db, const seq::Sequence& query,
                       const align::Scoring& sc, const std::string& ctx) {
  const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(db, query, sc));

  EXPECT_EQ(align::sw_linear(db, query, sc), oracle) << "sw_linear " << ctx;
  EXPECT_EQ(align::sw_linear_profiled(db, query, sc), oracle) << "profiled " << ctx;
  EXPECT_EQ(align::sw_linear_antidiag(db, query, sc), oracle) << "swar16 " << ctx;
  EXPECT_EQ(align::sw_linear_antidiag8(db, query, sc), oracle) << "swar8 " << ctx;
  for (const unsigned lanes : striped_lane_widths()) {
    EXPECT_EQ(align::sw_linear_striped(db, query, sc, lanes), oracle)
        << "striped" << lanes << " " << ctx;
    // Inter-sequence kernel, one-record batch: exact when the score fits
    // the 8-bit lanes, a declared fallback (inner nullopt) when not.
    const auto batch = align::sw_interseq_batch({db}, query, sc, lanes);
    if (batch.has_value()) {
      ASSERT_EQ(batch->size(), 1u) << "interseq" << lanes << " " << ctx;
      if (oracle.score > 255) {
        EXPECT_FALSE((*batch)[0].has_value()) << "interseq" << lanes << " " << ctx;
      } else {
        ASSERT_TRUE((*batch)[0].has_value()) << "interseq" << lanes << " " << ctx;
        EXPECT_EQ(*(*batch)[0], oracle) << "interseq" << lanes << " " << ctx;
      }
    }
  }

  // A band wide enough to cover any divergence makes banded_sw exact.
  const std::size_t full_band = db.size() + query.size() + 1;
  EXPECT_EQ(align::banded_sw(db.codes(), query.codes(), full_band, sc), oracle)
      << "banded " << ctx;

  core::ArrayController<core::ScorePe> ctl(5, 16, sc, 8u << 20, true);
  EXPECT_EQ(ctl.run(query, db), oracle) << "systolic " << ctx;

  // Long queries are partitioned across boards; size the fleet so each
  // board's slice fits the xc2vp70 PE budget.
  const std::size_t boards = 2 + query.size() / 100;
  core::BoardFleet fleet =
      core::make_board_fleet({.boards = boards, .pes_per_board = query.size() / boards + 2}, sc);
  EXPECT_EQ(core::multiboard_run(fleet, query, db).best, oracle) << "multiboard " << ctx;
}

TEST(CrossEngineDegenerate, DnaSweepAllEnginesAgree) {
  const std::vector<seq::Sequence> pool = degenerate_dna();
  const std::vector<align::Scoring> schemes = [] {
    align::Scoring a;  // paper-style
    a.match = 1; a.mismatch = -1; a.gap = -2;
    align::Scoring b;  // large magnitudes: saturates 8-bit lanes quickly
    b.match = 5; b.mismatch = -4; b.gap = -6;
    align::Scoring c;  // free mismatch: maximal ties, stress tie-breaking
    c.match = 2; c.mismatch = 0; c.gap = -1;
    return std::vector<align::Scoring>{a, b, c};
  }();

  for (const align::Scoring& sc : schemes) {
    for (const seq::Sequence& db : pool) {
      for (const seq::Sequence& query : pool) {
        const std::string ctx = "db=" + db.name() + " q=" + query.name() +
                                " match=" + std::to_string(sc.match) +
                                " mism=" + std::to_string(sc.mismatch) +
                                " gap=" + std::to_string(sc.gap);
        check_all_engines(db, query, sc, ctx);
      }
    }
  }
}

TEST(CrossEngineDegenerate, SingleLetterProteinAgrees) {
  // A one-letter "protein alphabet": every comparison is pure match/gap
  // structure, and the wider code space must not perturb any engine.
  align::Scoring sc;
  sc.match = 3;
  sc.mismatch = -2;
  sc.gap = -4;
  const std::vector<seq::Sequence> pool = {
      seq::Sequence::protein("", "empty"),
      seq::Sequence::protein("W", "one"),
      seq::Sequence::protein(repeat('W', 19), "same19"),
      seq::Sequence::protein(repeat('L', 90), "same90"),  // 270 > 255 at match=3
      seq::Sequence::protein(alternate("WL", 25), "alt25"),
  };
  for (const seq::Sequence& db : pool) {
    for (const seq::Sequence& query : pool) {
      check_all_engines(db, query, sc, "protein db=" + db.name() + " q=" + query.name());
    }
  }
}

// The 8-bit SWAR saturation boundary, pinned exactly: identical all-same
// sequences score length*match, so lengths around 255/match straddle the
// lane range. sw_antidiag8_try must return a value iff the true score
// fits 255 (255 itself included), and that value must be exact.
TEST(CrossEngineDegenerate, Swar8SaturationBoundaryExact) {
  struct Case {
    int match;
    std::size_t len;
  };
  const std::vector<Case> cases = {
      {5, 50}, {5, 51}, {5, 52},             // 250 | 255 | 260
      {3, 84}, {3, 85}, {3, 86},             // 252 | 255 | 258
      {1, 254}, {1, 255}, {1, 256}, {1, 300} // straddle at unit score
  };
  for (const Case& c : cases) {
    align::Scoring sc;
    sc.match = c.match;
    sc.mismatch = -c.match;
    sc.gap = -c.match - 1;
    const seq::Sequence s = seq::Sequence::dna(repeat('A', c.len), "sat");
    const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(s, s, sc));
    ASSERT_EQ(oracle.score, static_cast<align::Score>(c.match * static_cast<int>(c.len)));

    align::Antidiag8Workspace ws;
    const std::optional<align::LocalScoreResult> attempt =
        align::sw_antidiag8_try(s.codes(), s.codes(), sc, ws);
    const std::string ctx = "match=" + std::to_string(c.match) + " len=" + std::to_string(c.len);
    if (oracle.score <= 255) {
      ASSERT_TRUE(attempt.has_value()) << ctx;
      EXPECT_EQ(*attempt, oracle) << ctx;
    } else {
      EXPECT_FALSE(attempt.has_value()) << ctx;
    }
    // The transparent-fallback wrapper is exact on both sides of the line.
    EXPECT_EQ(align::sw_linear_antidiag8(s, s, sc), oracle) << ctx;
  }
}

// The same boundary for the striped kernels: the 8-bit attempt must
// succeed iff the true score (sw_linear) fits 255 — 255 itself included —
// at every lane width, or the engine's swar8_fallbacks accounting would
// depend on which 8-bit kernel ran; the ladder must count exactly one
// fallback past the line, and every returned value must be the oracle's.
TEST(CrossEngineDegenerate, StripedSaturationBoundaryExact) {
  struct Case {
    int match;
    std::size_t len;
  };
  const std::vector<Case> cases = {
      {5, 50}, {5, 51}, {5, 52},             // 250 | 255 | 260
      {3, 84}, {3, 85}, {3, 86},             // 252 | 255 | 258
      {1, 254}, {1, 255}, {1, 256}, {1, 300} // straddle at unit score
  };
  for (const Case& c : cases) {
    align::Scoring sc;
    sc.match = c.match;
    sc.mismatch = -c.match;
    sc.gap = -c.match - 1;
    const seq::Sequence s = seq::Sequence::dna(repeat('A', c.len), "sat");
    const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(s, s, sc));
    ASSERT_EQ(oracle.score, static_cast<align::Score>(c.match * static_cast<int>(c.len)));
    const bool fits8 = align::sw_linear(s, s, sc).score <= 255;

    for (const unsigned lanes : striped_lane_widths()) {
      const std::string ctx = "match=" + std::to_string(c.match) +
                              " len=" + std::to_string(c.len) + " lanes=" + std::to_string(lanes);
      const align::StripedProfile profile(s, sc, lanes);
      align::StripedWorkspace ws;
      const std::optional<align::LocalScoreResult> attempt =
          align::sw_striped8_try(s.codes(), profile, ws);
      EXPECT_EQ(attempt.has_value(), fits8) << ctx;  // predicate parity with sw_linear
      if (attempt.has_value()) {
        EXPECT_EQ(*attempt, oracle) << ctx;
      }

      std::uint64_t fallbacks = 0;
      EXPECT_EQ(align::sw_linear_striped(s, s, sc, lanes, &fallbacks), oracle) << ctx;
      EXPECT_EQ(fallbacks, oracle.score > 255 ? 1u : 0u) << ctx;
    }
  }
}

// ---------------------------------------------------------------------------
// Scan-level parity on the degenerate database: every SIMD tier, thread
// count, and the accelerator engine must report identical hits, and the
// 8-bit fallback count must equal exactly the number of records whose best
// score exceeds 255 — independent of threads.
// ---------------------------------------------------------------------------

void expect_same_scan_hits(const host::ScanResult& a, const host::ScanResult& b,
                           const std::string& ctx) {
  ASSERT_EQ(a.hits.size(), b.hits.size()) << ctx;
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].record, b.hits[k].record) << ctx << " hit " << k;
    EXPECT_EQ(a.hits[k].result.score, b.hits[k].result.score) << ctx << " hit " << k;
    EXPECT_EQ(a.hits[k].result.end.i, b.hits[k].result.end.i) << ctx << " hit " << k;
    EXPECT_EQ(a.hits[k].result.end.j, b.hits[k].result.end.j) << ctx << " hit " << k;
  }
}

TEST(CrossEngineDegenerate, ScanParityAcrossPoliciesThreadsAndBoard) {
  align::Scoring sc;
  sc.match = 1;
  sc.mismatch = -1;
  sc.gap = -2;
  std::vector<seq::Sequence> records = degenerate_dna();
  seq::RandomSequenceGenerator gen(0xDEAD);
  records.push_back(gen.uniform(seq::dna(), 120, "rand120"));
  records.push_back(gen.uniform(seq::dna(), 77, "rand77"));

  const std::vector<seq::Sequence> queries = {
      seq::Sequence::dna(repeat('A', 20), "same_q"),
      seq::Sequence::dna(repeat('C', 280), "sat_q"),  // straddles 255 vs same300
      seq::Sequence::dna("ACGTACGTACGTACGTACGT", "period_q"),
  };

  for (const seq::Sequence& query : queries) {
    host::ScanOptions base;
    base.top_k = 16;
    base.min_score = 1;
    const host::ScanResult reference = host::scan_database_cpu(query, records, sc, base);

    std::uint64_t saturated = 0;
    for (const seq::Sequence& rec : records) {
      if (align::sw_linear(rec, query, sc).score > 255) ++saturated;
    }

    for (const std::optional<core::SimdIsa> simd : test::kSimdRequests) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        // The kernel shape joins the sweep: the inter-sequence kernel
        // (one record per 8-bit lane) must be output-identical to the
        // striped shape for every tier and thread count, fallback
        // accounting included; where it cannot run it degrades to
        // striped, which keeps this sweep valid on every machine.
        for (const host::KernelShape shape :
             {host::KernelShape::Auto, host::KernelShape::Striped,
              host::KernelShape::InterSeq}) {
          host::ScanOptions opt = base;
          opt.simd = simd;
          opt.threads = threads;
          opt.kernel = shape;
          const host::ScanResult r = host::scan_database_cpu(query, records, sc, opt);
          const std::string ctx = "q=" + query.name() +
                                  " simd=" + test::simd_label(simd) +
                                  " threads=" + std::to_string(threads) +
                                  " kernel=" + core::kernel_shape_name(shape);
          expect_same_scan_hits(reference, r, ctx);
          EXPECT_EQ(r.records_scanned, records.size()) << ctx;
          EXPECT_EQ(r.cell_updates, reference.cell_updates) << ctx;
          // The vector tiers lead with an 8-bit kernel (striped or
          // inter-sequence — identical saturation predicate): exactly one
          // lazy 16-bit re-run per saturating record, thread-, kernel-
          // and shape-invariant. The count follows the resolved tier: an
          // unsupported striped request, an SWR_SIMD override of auto,
          // or the scalar tier runs the exact scalar kernel and counts
          // none.
          EXPECT_EQ(r.swar8_fallbacks, test::leads_with_bytes(simd) ? saturated : 0u) << ctx;
        }
      }
    }

    // The cycle-accurate accelerator model reports the same hits.
    core::SmithWatermanAccelerator acc(core::xc2vp70(), 25, sc);
    const host::ScanResult board = host::scan_database(acc, query, records, base);
    expect_same_scan_hits(reference, board, "q=" + query.name() + " board");
  }
}

}  // namespace
