// Striped (Farrar) native-SIMD kernels: profile layout, padding
// neutrality, bit-identity vs sw_linear, and the exact saturation /
// lazy 16-bit re-run boundary — per available lane width.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "align/sw_antidiag8.hpp"
#include "align/sw_linear.hpp"
#include "align/sw_striped.hpp"
#include "core/cpu_features.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::align;

const Scoring kSc = Scoring::paper_default();

// Lane widths the machine running the tests can actually execute; empty
// on non-x86 builds, where every kernel test degenerates to a skip.
std::vector<unsigned> supported_lane_widths() {
  std::vector<unsigned> widths;
  if (core::cpu_supports(core::SimdIsa::Sse41)) widths.push_back(16);
  if (core::cpu_supports(core::SimdIsa::Avx2)) widths.push_back(32);
  if (core::cpu_supports(core::SimdIsa::Avx512)) widths.push_back(64);
  return widths;
}

TEST(StripedProfile, RejectsUnsupportedLaneCount) {
  const seq::Sequence q = seq::Sequence::dna("ACGT");
  EXPECT_THROW(StripedProfile(q, kSc, 8), std::invalid_argument);
  EXPECT_THROW(StripedProfile(q, kSc, 0), std::invalid_argument);
}

TEST(StripedProfile, StripeInterleaveRoundTrip) {
  // Every query position must land in exactly one (stripe, lane) slot and
  // carry the scalar substitution score split into its pos/neg halves;
  // inverting slot -> j = lane * stripes + stripe must round-trip.
  const seq::Sequence q = swr::test::random_dna(37, 71);
  for (const unsigned lanes : {16u, 32u, 64u}) {
    const StripedProfile p(q, kSc, lanes);
    ASSERT_TRUE(p.fits8());
    const std::size_t t8 = p.stripes8();
    EXPECT_EQ(t8, (q.size() + lanes - 1) / lanes);
    for (seq::Code c = 0; c < q.alphabet().size(); ++c) {
      for (std::size_t j = 0; j < q.size(); ++j) {
        const Score s = kSc.substitution(c, q.codes()[j]);
        const std::size_t stripe = StripedProfile::stripe_of(j, t8);
        const std::size_t lane = StripedProfile::lane_of(j, t8);
        EXPECT_EQ(lane * t8 + stripe, j);  // the inverse mapping
        const std::size_t slot = stripe * lanes + lane;
        EXPECT_EQ(p.pos8(c)[slot], s > 0 ? s : 0) << "c=" << int(c) << " j=" << j;
        EXPECT_EQ(p.neg8(c)[slot], s < 0 ? -s : 0) << "c=" << int(c) << " j=" << j;
      }
      // 16-bit layout, half the lanes.
      const std::size_t t16 = p.stripes16();
      for (std::size_t j = 0; j < q.size(); ++j) {
        const Score s = kSc.substitution(c, q.codes()[j]);
        const std::size_t slot =
            StripedProfile::stripe_of(j, t16) * p.lanes16() + StripedProfile::lane_of(j, t16);
        EXPECT_EQ(p.pos16(c)[slot], s > 0 ? s : 0);
        EXPECT_EQ(p.neg16(c)[slot], s < 0 ? -s : 0);
      }
    }
  }
}

TEST(StripedProfile, PaddingSlotsAreScoreNeutral) {
  // Slots past the query length must hold pos 0 / neg max: their diagonal
  // recurrence is clamp(h + 0 - max) = 0 every row, so they can never
  // contribute a score or a false saturation.
  const seq::Sequence q = swr::test::random_dna(17, 72);  // 17 % 16 != 0: padding in every lane width
  for (const unsigned lanes : {16u, 32u, 64u}) {
    const StripedProfile p(q, kSc, lanes);
    const std::size_t t8 = p.stripes8();
    std::vector<bool> real(t8 * lanes, false);
    for (std::size_t j = 0; j < q.size(); ++j) {
      real[StripedProfile::stripe_of(j, t8) * lanes + StripedProfile::lane_of(j, t8)] = true;
    }
    for (seq::Code c = 0; c < q.alphabet().size(); ++c) {
      for (std::size_t slot = 0; slot < t8 * lanes; ++slot) {
        if (real[slot]) continue;
        EXPECT_EQ(p.pos8(c)[slot], 0) << "slot " << slot;
        EXPECT_EQ(p.neg8(c)[slot], 0xFF) << "slot " << slot;
      }
    }
    const std::size_t t16 = p.stripes16();
    std::vector<bool> real16(t16 * p.lanes16(), false);
    for (std::size_t j = 0; j < q.size(); ++j) {
      real16[StripedProfile::stripe_of(j, t16) * p.lanes16() +
             StripedProfile::lane_of(j, t16)] = true;
    }
    for (seq::Code c = 0; c < q.alphabet().size(); ++c) {
      for (std::size_t slot = 0; slot < t16 * p.lanes16(); ++slot) {
        if (real16[slot]) continue;
        EXPECT_EQ(p.pos16(c)[slot], 0);
        EXPECT_EQ(p.neg16(c)[slot], 0xFFFF);
      }
    }
  }
}

// ---- kernel equivalence ---------------------------------------------------

class StripedEquivalence
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t, int>> {};

TEST_P(StripedEquivalence, MatchesReferenceKernel) {
  const auto [m, n, seed, scheme] = GetParam();
  Scoring sc = kSc;
  if (scheme == 1) {
    sc.match = 4;
    sc.mismatch = -3;
    sc.gap = -5;
  }
  const seq::Sequence a = swr::test::random_dna(m, seed * 3 + 177);
  const seq::Sequence b = swr::test::random_dna(n, seed * 5 + 188);
  const LocalScoreResult ref = sw_linear(a, b, sc);
  for (const unsigned lanes : supported_lane_widths()) {
    EXPECT_EQ(sw_linear_striped(a, b, sc, lanes), ref) << "lanes=" << lanes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StripedEquivalence,
    testing::Combine(testing::Values<std::size_t>(1, 2, 3, 7, 15, 16, 17, 31, 32, 33, 41, 250),
                     testing::Values<std::size_t>(1, 2, 7, 15, 16, 17, 32, 33, 180),
                     testing::Values<std::uint64_t>(1, 2), testing::Values(0, 1)));

TEST(Striped, TieBreakCanonical) {
  const seq::Sequence a = seq::Sequence::dna("TACGTTTTTTGGA");
  const seq::Sequence b = seq::Sequence::dna("GGACG");
  const LocalScoreResult ref = sw_linear(a, b, kSc);
  ASSERT_EQ(ref.end, (Cell{13, 3}));
  for (const unsigned lanes : supported_lane_widths()) {
    EXPECT_EQ(sw_linear_striped(a, b, kSc, lanes), ref) << "lanes=" << lanes;
  }
}

// The canonical cell when a row's maximum sits in several lanes and in
// several stripes of one lane. The record is eight G's; the query carries
// runs of eight G's in A filler ending at query positions t + 8 and
// t + 18 (lane 1, stripes 8 and 18) and 3t + 10 (lane 3), plus a run of
// seven ending in lane 0, where t is the stripe count of the lane width
// under test and the query length is not a multiple of it. Row 8 scores 8
// at each full run's end; sw_linear ends at the first, so a rescan that
// took a later stripe or a later lane holding the maximum ends elsewhere.
TEST(Striped, RowMaximumInSeveralLanesAndStripesEndsAtTheFirst) {
  const seq::Sequence rec = seq::Sequence::dna(std::string(8, 'G'));
  const auto query_for = [](unsigned lanes) {
    const std::size_t t = 21;
    std::string text(20 * lanes + 3, 'A');  // ceil(n / lanes) == t
    const auto run = [&](std::size_t end, std::size_t len) {
      text.replace(end + 1 - len, len, std::string(len, 'G'));
    };
    run(10, 7);
    run(t + 8, 8);
    run(t + 18, 8);
    run(3 * t + 10, 8);
    return seq::Sequence::dna(text);
  };
  for (const unsigned lanes8 : supported_lane_widths()) {
    // 8-bit lanes run `lanes8` wide, 16-bit lanes half that.
    for (const unsigned lanes : {lanes8, lanes8 / 2}) {
      const seq::Sequence q = query_for(lanes);
      const LocalScoreResult ref = sw_linear(rec, q, kSc);
      ASSERT_EQ(ref.score, 8);
      ASSERT_EQ(ref.end, (Cell{8, 21 + 8 + 1}));
      const bool k8 = lanes == lanes8;
      const StripedProfile p(q, kSc, k8 ? lanes : 2 * lanes);
      ASSERT_EQ(k8 ? p.stripes8() : p.stripes16(), 21u);
      StripedWorkspace ws;
      const auto got =
          k8 ? sw_striped8_try(rec.codes(), p, ws) : sw_striped16_try(rec.codes(), p, ws);
      ASSERT_TRUE(got.has_value()) << lanes << " lanes";
      EXPECT_EQ(*got, ref) << lanes << (k8 ? " 8-bit" : " 16-bit") << " lanes";
    }
  }
}

TEST(Striped, ProteinMatrixScoring) {
  Scoring sc;
  sc.matrix = &blosum62();
  sc.gap = -8;
  const seq::Sequence a = swr::test::random_protein(130, 15);
  const seq::Sequence b = swr::test::random_protein(90, 16);
  const LocalScoreResult ref = sw_linear(a, b, sc);
  for (const unsigned lanes : supported_lane_widths()) {
    EXPECT_EQ(sw_linear_striped(a, b, sc, lanes), ref) << "lanes=" << lanes;
  }
}

TEST(Striped, OverflowBoundaryExactly255Succeeds) {
  // Best cell EXACTLY 255 — the last representable 8-bit value. No add
  // ever exceeds the lane, so the 8-bit pass must succeed and be exact.
  const seq::Sequence s = seq::Sequence::dna(std::string(255, 'A'));
  for (const unsigned lanes : supported_lane_widths()) {
    const StripedProfile p(s, kSc, lanes);
    StripedWorkspace ws;
    const auto r = sw_striped8_try(s.codes(), p, ws);
    ASSERT_TRUE(r.has_value()) << "lanes=" << lanes;
    EXPECT_EQ(r->score, 255);
    EXPECT_EQ(*r, sw_linear(s, s, kSc));
  }
}

TEST(Striped, OverflowBoundaryExactly256FallsBackOnce) {
  // One base longer: best score 256. The 8-bit pass must detect the clamp
  // and bail; the 16-bit striped re-run must produce the exact result;
  // the ladder counts exactly one fallback — the swar8_fallbacks rule.
  const seq::Sequence s = seq::Sequence::dna(std::string(256, 'A'));
  const LocalScoreResult ref = sw_linear(s, s, kSc);
  ASSERT_EQ(ref.score, 256);
  for (const unsigned lanes : supported_lane_widths()) {
    const StripedProfile p(s, kSc, lanes);
    StripedWorkspace ws;
    EXPECT_FALSE(sw_striped8_try(s.codes(), p, ws).has_value()) << "lanes=" << lanes;
    const auto r16 = sw_striped16_try(s.codes(), p, ws);
    ASSERT_TRUE(r16.has_value()) << "lanes=" << lanes;
    EXPECT_EQ(*r16, ref);
    std::uint64_t fallbacks = 0;
    EXPECT_EQ(sw_linear_striped(s, s, kSc, lanes, &fallbacks), ref);
    EXPECT_EQ(fallbacks, 1u) << "lanes=" << lanes;
  }
}

TEST(Striped, SixteenBitOverflowFallsThroughToScalar) {
  // match=250 fits both lane widths, but 263 identical bases push the
  // best cell to 65750 > 0xFFFF: the 16-bit pass must ALSO bail and the
  // ladder must land on the scalar kernel, still exact.
  Scoring sc = kSc;
  sc.match = 250;
  sc.mismatch = -250;
  sc.gap = -250;
  const seq::Sequence s = seq::Sequence::dna(std::string(263, 'A'));
  const LocalScoreResult ref = sw_linear(s, s, sc);
  ASSERT_GT(ref.score, 0xFFFF);
  for (const unsigned lanes : supported_lane_widths()) {
    const StripedProfile p(s, sc, lanes);
    StripedWorkspace ws;
    EXPECT_FALSE(sw_striped8_try(s.codes(), p, ws).has_value());
    EXPECT_FALSE(sw_striped16_try(s.codes(), p, ws).has_value());
    std::uint64_t fallbacks = 0;
    EXPECT_EQ(sw_linear_striped(s, s, sc, lanes, &fallbacks), ref);
    EXPECT_EQ(fallbacks, 1u);
  }
}

TEST(Striped, SchemeMagnitudesBeyondOneByteAreRejected) {
  Scoring sc = kSc;
  sc.match = 300;
  sc.mismatch = -1;
  const seq::Sequence s = swr::test::random_dna(20, 19);
  for (const unsigned lanes : supported_lane_widths()) {
    const StripedProfile p(s, sc, lanes);
    EXPECT_FALSE(p.fits8());
    EXPECT_TRUE(p.fits16());
    StripedWorkspace ws;
    EXPECT_FALSE(sw_striped8_try(s.codes(), p, ws).has_value());
    EXPECT_EQ(sw_linear_striped(s, s, sc, lanes), sw_linear(s, s, sc));
  }
}

TEST(Striped, WorkspaceReuseAcrossRecordsIsExact) {
  // The scan engine reuses one workspace for every record a thread
  // claims; growing and shrinking records must not leak state.
  for (const unsigned lanes : supported_lane_widths()) {
    const seq::Sequence q = swr::test::random_dna(33, 4242);
    const StripedProfile p(q, kSc, lanes);
    StripedWorkspace ws;
    for (const std::size_t len : {40u, 200u, 8u, 97u, 3u, 250u}) {
      const seq::Sequence a = swr::test::random_dna(len, 1000 + len);
      const auto r = sw_striped8_try(a.codes(), p, ws);
      ASSERT_TRUE(r.has_value()) << len;
      EXPECT_EQ(*r, sw_linear(a, q, kSc)) << len;
    }
  }
}

TEST(Striped, RescanRowsCountsTriggeredRows) {
  // A record equal to the query raises the best cell on every row (row i
  // holds the diagonal score i; no cell of row i - 1 exceeds i - 1), so
  // every row's max reaches the threshold and runs the query-order rescan.
  const std::vector<unsigned> widths = supported_lane_widths();
  if (widths.empty()) GTEST_SKIP() << "no striped kernel runs on this CPU";
  const seq::Sequence q = swr::test::random_dna(200, 404);
  for (const unsigned lanes : widths) {
    const StripedProfile p(q, kSc, lanes);
    StripedWorkspace ws;
    ASSERT_TRUE(sw_striped8_try(q.codes(), p, ws).has_value()) << lanes;
    EXPECT_EQ(ws.rescan_rows, q.size()) << lanes << " lanes, 8-bit";
    ASSERT_TRUE(sw_striped16_try(q.codes(), p, ws).has_value()) << lanes;
    EXPECT_EQ(ws.rescan_rows, 2 * q.size()) << lanes << " lanes, 16-bit";
  }
}

TEST(Striped, EmptyAndMismatch) {
  for (const unsigned lanes : supported_lane_widths()) {
    EXPECT_EQ(
        sw_linear_striped(seq::Sequence::dna(""), seq::Sequence::dna("ACG"), kSc, lanes).score, 0);
    EXPECT_EQ(
        sw_linear_striped(seq::Sequence::dna("ACG"), seq::Sequence::dna(""), kSc, lanes).score, 0);
    EXPECT_THROW((void)sw_linear_striped(seq::Sequence::dna("ACGT"),
                                         seq::Sequence::protein("ARND"), kSc, lanes),
                 std::invalid_argument);
  }
}

TEST(Striped, DegenerateRecords) {
  // The fuzz pool's degenerate shapes, checked directly at the kernel
  // boundary: 1-residue, all-same, periodic.
  const std::vector<std::string> pool = {"A", "T", std::string(100, 'A'), std::string(64, 'C'),
                                         "ACACACACACACACACACAC", "ACGTACGTACGTACGTACGT"};
  for (const unsigned lanes : supported_lane_widths()) {
    for (const std::string& qs : pool) {
      const seq::Sequence q = seq::Sequence::dna(qs);
      const StripedProfile p(q, kSc, lanes);
      StripedWorkspace ws;
      for (const std::string& rs : pool) {
        const seq::Sequence r = seq::Sequence::dna(rs);
        const auto got = sw_striped8_try(r.codes(), p, ws);
        ASSERT_TRUE(got.has_value()) << qs << " vs " << rs;
        EXPECT_EQ(*got, sw_linear(r, q, kSc)) << qs << " vs " << rs;
      }
    }
  }
}

TEST(Striped, HomologPairStress) {
  seq::MutationModel mm;
  mm.substitution_rate = 0.30;  // score may or may not fit 8 bits; ladder must be exact either way
  mm.insertion_rate = 0.05;
  mm.deletion_rate = 0.05;
  const auto pair = seq::make_homolog_pair(1500, mm, 23);
  const LocalScoreResult ref = sw_linear(pair.a, pair.b, kSc);
  for (const unsigned lanes : supported_lane_widths()) {
    EXPECT_EQ(sw_linear_striped(pair.a, pair.b, kSc, lanes), ref) << "lanes=" << lanes;
  }
}

TEST(Striped, SaturationPredicateMatchesSwar8Exactly) {
  // The engine's fallback accounting requires the striped 8-bit kernel to
  // overflow on EXACTLY the records whose true score (sw_linear) exceeds
  // 255 — the predicate the inter-sequence kernel and the swar8
  // anti-diagonal kernel share. Randomized homolog pairs near the
  // boundary exercise both sides of it.
  std::mt19937_64 rng(97);
  for (int iter = 0; iter < 60; ++iter) {
    const std::size_t len = 40 + static_cast<std::size_t>(rng() % 80);
    seq::MutationModel mm;
    mm.substitution_rate = 0.05 + 0.001 * static_cast<double>(rng() % 50);
    const auto pair = seq::make_homolog_pair(len, mm, rng());
    const LocalScoreResult ref = sw_linear(pair.a, pair.b, kSc);
    const bool overflows = ref.score > 0xFF;
    Antidiag8Workspace ws8;
    EXPECT_EQ(sw_antidiag8_try(pair.a.codes(), pair.b.codes(), kSc, ws8).has_value(), !overflows)
        << "swar8 score=" << ref.score;
    for (const unsigned lanes : supported_lane_widths()) {
      const StripedProfile p(pair.b, kSc, lanes);
      StripedWorkspace ws;
      const auto got = sw_striped8_try(pair.a.codes(), p, ws);
      EXPECT_EQ(got.has_value(), !overflows)
          << "lanes=" << lanes << " score=" << ref.score;
      if (got.has_value()) {
        EXPECT_EQ(*got, ref);
      }
    }
  }
}

}  // namespace
