// Eight-lane SWAR primitives + the 8-bit anti-diagonal kernel, including
// the saturation-detect / lazy 16-bit re-run boundary.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "align/sw_antidiag8.hpp"
#include "align/sw_linear.hpp"
#include "align/swar8.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::align;
using namespace swr::align::swar;

TEST(Swar8, BroadcastAndLanes) {
  const std::uint64_t v = broadcast8(0xAB);
  for (unsigned k = 0; k < 8; ++k) EXPECT_EQ(lane8(v, k), 0xAB);
  const std::uint64_t w = set_lane8(v, 5, 0xFF);
  EXPECT_EQ(lane8(w, 5), 0xFF);
  EXPECT_EQ(lane8(w, 4), 0xAB);
}

TEST(Swar8, RandomizedFullRangeLaneOpsMatchScalar) {
  // Property check over the FULL 0..255 range — unlike the 16-bit lanes
  // there is no no-high-bit precondition here.
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::uint32_t> val(0, 0xFF);
  for (int iter = 0; iter < 4000; ++iter) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::uint8_t xs[8];
    std::uint8_t ys[8];
    for (unsigned k = 0; k < 8; ++k) {
      xs[k] = static_cast<std::uint8_t>(val(rng));
      ys[k] = static_cast<std::uint8_t>(val(rng));
      x = set_lane8(x, k, xs[k]);
      y = set_lane8(y, k, ys[k]);
    }
    std::uint64_t ovf = 0;
    const std::uint64_t wrap = add8_wrap(x, y);
    const std::uint64_t sat = add8_sat(x, y, ovf);
    const std::uint64_t mx = max8(x, y);
    const std::uint64_t ss = sats8(x, y);
    const std::uint64_t ge = ge_mask8(x, y);
    for (unsigned k = 0; k < 8; ++k) {
      const int sum = xs[k] + ys[k];
      EXPECT_EQ(lane8(wrap, k), static_cast<std::uint8_t>(sum));
      EXPECT_EQ(lane8(sat, k), sum > 0xFF ? 0xFF : sum);
      EXPECT_EQ((ovf >> (8 * k)) & 0x80, sum > 0xFF ? 0x80u : 0u) << "overflow lane " << k;
      EXPECT_EQ(lane8(mx, k), std::max(xs[k], ys[k]));
      EXPECT_EQ(lane8(ss, k), xs[k] >= ys[k] ? xs[k] - ys[k] : 0);
      EXPECT_EQ(lane8(ge, k), xs[k] >= ys[k] ? 0xFF : 0x00);
    }
  }
}

TEST(Swar8, EqMaskOnSmallValues) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  for (unsigned k = 0; k < 8; ++k) {
    x = set_lane8(x, k, static_cast<std::uint8_t>(k));
    y = set_lane8(y, k, static_cast<std::uint8_t>(k % 2 == 0 ? k : k + 1));
  }
  const std::uint64_t eq = eq_mask8_small(x, y);
  for (unsigned k = 0; k < 8; ++k) {
    EXPECT_EQ(lane8(eq, k), k % 2 == 0 ? 0xFF : 0x00);
  }
}

TEST(Swar8, HmaxFindsLaneMaximum) {
  std::uint64_t v = 0;
  v = set_lane8(v, 0, 10);
  v = set_lane8(v, 3, 254);
  v = set_lane8(v, 7, 253);
  EXPECT_EQ(hmax8(v), 254);
  EXPECT_EQ(hmax8(0), 0);
}

// ---- the 8-bit anti-diagonal kernel -------------------------------------

const Scoring kSc = Scoring::paper_default();

TEST(AntiDiag8, Figure2Example) {
  const seq::Sequence s = seq::Sequence::dna("TAGTGACT");
  const seq::Sequence t = seq::Sequence::dna("TATGGAC");
  EXPECT_EQ(sw_linear_antidiag8(s, t, kSc), sw_linear(s, t, kSc));
}

class AntiDiag8Equivalence
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t, int>> {};

TEST_P(AntiDiag8Equivalence, MatchesReferenceKernel) {
  const auto [m, n, seed, scheme] = GetParam();
  Scoring sc = kSc;
  if (scheme == 1) {
    sc.match = 4;
    sc.mismatch = -3;
    sc.gap = -5;
  }
  const seq::Sequence a = swr::test::random_dna(m, seed * 3 + 177);
  const seq::Sequence b = swr::test::random_dna(n, seed * 5 + 188);
  EXPECT_EQ(sw_linear_antidiag8(a, b, sc), sw_linear(a, b, sc));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AntiDiag8Equivalence,
    testing::Combine(testing::Values<std::size_t>(1, 2, 3, 7, 8, 9, 15, 16, 17, 41, 250),
                     testing::Values<std::size_t>(1, 2, 7, 8, 9, 16, 23, 180),
                     testing::Values<std::uint64_t>(1, 2), testing::Values(0, 1)));

TEST(AntiDiag8, ProteinMatrixScoring) {
  Scoring sc;
  sc.matrix = &blosum62();
  sc.gap = -8;
  const seq::Sequence a = swr::test::random_protein(130, 15);
  const seq::Sequence b = swr::test::random_protein(90, 16);
  EXPECT_EQ(sw_linear_antidiag8(a, b, sc), sw_linear(a, b, sc));
}

TEST(AntiDiag8, TieBreakCanonical) {
  const seq::Sequence a = seq::Sequence::dna("TACGTTTTTTGGA");
  const seq::Sequence b = seq::Sequence::dna("GGACG");
  const LocalScoreResult ref = sw_linear(a, b, kSc);
  ASSERT_EQ(ref.end, (Cell{13, 3}));
  EXPECT_EQ(sw_linear_antidiag8(a, b, kSc), ref);
}

TEST(AntiDiag8, OverflowBoundaryExactly255Succeeds) {
  // 255 identical bases vs themselves: the best cell is EXACTLY 255 —
  // the last representable lane value. No add ever carries (254 + 1 =
  // 255), so the 8-bit pass must succeed and be exact.
  const seq::Sequence s = seq::Sequence::dna(std::string(255, 'A'));
  Antidiag8Workspace ws;
  const auto r = sw_antidiag8_try(s.codes(), s.codes(), kSc, ws);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->score, 255);
  EXPECT_EQ(*r, sw_linear(s, s, kSc));
}

TEST(AntiDiag8, OverflowBoundaryExactly256FallsBack) {
  // One base longer: the best score is 256, one beyond the lane range.
  // The saturating add carries (255 + 1), the kernel must report overflow,
  // and the convenience wrapper must still return the exact result via the
  // 16-bit re-run.
  const seq::Sequence s = seq::Sequence::dna(std::string(256, 'A'));
  Antidiag8Workspace ws;
  EXPECT_FALSE(sw_antidiag8_try(s.codes(), s.codes(), kSc, ws).has_value());
  const LocalScoreResult ref = sw_linear(s, s, kSc);
  ASSERT_EQ(ref.score, 256);
  EXPECT_EQ(sw_linear_antidiag8(s, s, kSc), ref);
}

TEST(AntiDiag8, GuaranteedBound) {
  EXPECT_TRUE(antidiag8_guaranteed(100, 1'000'000, kSc));   // min side 100
  EXPECT_TRUE(antidiag8_guaranteed(255, 255, kSc));
  EXPECT_FALSE(antidiag8_guaranteed(256, 256, kSc));
  Scoring big = kSc;
  big.match = 300;  // constants alone exceed a lane
  EXPECT_FALSE(antidiag8_guaranteed(4, 4, big));
}

TEST(AntiDiag8, SchemeMagnitudesBeyondOneByteAreRejected) {
  Scoring sc = kSc;
  sc.match = 300;
  sc.mismatch = -1;
  Antidiag8Workspace ws;
  const seq::Sequence s = swr::test::random_dna(20, 19);
  EXPECT_FALSE(sw_antidiag8_try(s.codes(), s.codes(), sc, ws).has_value());
  EXPECT_EQ(sw_linear_antidiag8(s, s, sc), sw_linear(s, s, sc));
}

TEST(AntiDiag8, WorkspaceReuseAcrossRecordsIsExact) {
  // One workspace serves every record of a multi-record comparison;
  // growing and shrinking records must not leak state.
  Antidiag8Workspace ws;
  for (const std::size_t len : {40u, 200u, 8u, 97u, 3u, 250u}) {
    const seq::Sequence a = swr::test::random_dna(len, 1000 + len);
    const seq::Sequence b = swr::test::random_dna(33, 2000 + len);
    const auto r = sw_antidiag8_try(a.codes(), b.codes(), kSc, ws);
    ASSERT_TRUE(r.has_value()) << len;
    EXPECT_EQ(*r, sw_linear(a, b, kSc)) << len;
  }
}

TEST(AntiDiag8, EmptyAndMismatch) {
  EXPECT_EQ(sw_linear_antidiag8(seq::Sequence::dna(""), seq::Sequence::dna("ACG"), kSc).score, 0);
  EXPECT_THROW(
      (void)sw_linear_antidiag8(seq::Sequence::dna("ACGT"), seq::Sequence::protein("ARND"), kSc),
      std::invalid_argument);
}

TEST(AntiDiag8, HomologPairStress) {
  seq::MutationModel mm;
  mm.substitution_rate = 0.30;  // score may or may not fit 8 bits; wrapper must be exact either way
  mm.insertion_rate = 0.05;
  mm.deletion_rate = 0.05;
  const auto pair = seq::make_homolog_pair(1500, mm, 23);
  EXPECT_EQ(sw_linear_antidiag8(pair.a, pair.b, kSc), sw_linear(pair.a, pair.b, kSc));
}

}  // namespace
