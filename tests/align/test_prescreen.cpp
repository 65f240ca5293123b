// UngappedPrescreen: the SWAR blockwise Kadane must equal a naive scalar
// reference on every diagonal, for uniform and matrix schemes alike — the
// seeded filter's recall contract stands on this kernel being exact.
#include <gtest/gtest.h>

#include <limits>

#include "align/prescreen.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using align::Score;
using align::Scoring;
using align::UngappedPrescreen;

// Direct Kadane over the diagonal overlap — the definition the kernel
// must reproduce.
Score naive_diag(const seq::Sequence& q, const seq::Sequence& rec, std::ptrdiff_t diag,
                 const Scoring& sc) {
  Score best = 0;
  Score run = 0;
  for (std::size_t t = 0;; ++t) {
    const std::ptrdiff_t qi = static_cast<std::ptrdiff_t>(t) + (diag < 0 ? -diag : 0);
    const std::ptrdiff_t ri = static_cast<std::ptrdiff_t>(t) + (diag > 0 ? diag : 0);
    if (qi >= static_cast<std::ptrdiff_t>(q.size()) ||
        ri >= static_cast<std::ptrdiff_t>(rec.size())) {
      break;
    }
    run = std::max<Score>(0, run + sc.substitution(q[static_cast<std::size_t>(qi)],
                                                   rec[static_cast<std::size_t>(ri)]));
    best = std::max(best, run);
  }
  return best;
}

void expect_all_diagonals_match(const seq::Sequence& q, const seq::Sequence& rec,
                                const Scoring& sc) {
  const UngappedPrescreen ps(q, sc);
  const auto lo = -static_cast<std::ptrdiff_t>(q.size()) - 2;
  const auto hi = static_cast<std::ptrdiff_t>(rec.size()) + 2;
  for (std::ptrdiff_t d = lo; d <= hi; ++d) {
    EXPECT_EQ(ps.best_on_diagonal(rec.codes(), d), naive_diag(q, rec, d, sc)) << "diag " << d;
  }
}

TEST(Prescreen, SwarMatchesNaiveOnEveryDiagonal) {
  // Odd lengths so the 8-wide blocks leave scalar tails on most diagonals.
  const seq::Sequence q = test::random_dna(57, 11);
  const seq::Sequence rec = test::random_dna(91, 22);
  const Scoring sc = Scoring::paper_default();
  EXPECT_TRUE(UngappedPrescreen(q, sc).swar());
  expect_all_diagonals_match(q, rec, sc);
}

TEST(Prescreen, SwarMatchesNaiveAcrossSchemes) {
  const seq::Sequence q = test::random_dna(40, 33);
  const seq::Sequence rec = test::random_dna(64, 44);
  for (const auto& [match, mismatch] : {std::pair{1, -1}, {2, -3}, {5, -4}}) {
    Scoring sc;
    sc.match = match;
    sc.mismatch = mismatch;
    expect_all_diagonals_match(q, rec, sc);
  }
}

TEST(Prescreen, MatrixPathMatchesNaive) {
  const seq::Sequence q = test::random_protein(45, 55);
  const seq::Sequence rec = test::random_protein(70, 66);
  Scoring sc;
  sc.matrix = &align::blosum62();
  EXPECT_FALSE(UngappedPrescreen(q, sc).swar());
  expect_all_diagonals_match(q, rec, sc);
}

TEST(Prescreen, UniformMatrixEqualsSwarPath) {
  // A uniform scheme expressed as a matrix forces the scalar path; both
  // paths must report the same score everywhere.
  const seq::Sequence q = test::random_dna(50, 77);
  const seq::Sequence rec = test::random_dna(80, 88);
  Scoring uniform;
  uniform.match = 2;
  uniform.mismatch = -3;
  const align::SubstitutionMatrix m(seq::dna(), 2, -3);
  Scoring matrix = uniform;
  matrix.matrix = &m;
  const UngappedPrescreen fast(q, uniform);
  const UngappedPrescreen slow(q, matrix);
  EXPECT_TRUE(fast.swar());
  EXPECT_FALSE(slow.swar());
  for (std::ptrdiff_t d = -static_cast<std::ptrdiff_t>(q.size());
       d <= static_cast<std::ptrdiff_t>(rec.size()); ++d) {
    EXPECT_EQ(fast.best_on_diagonal(rec.codes(), d), slow.best_on_diagonal(rec.codes(), d))
        << "diag " << d;
  }
}

TEST(Prescreen, PerfectDiagonalScoresFullLength) {
  const seq::Sequence q = test::random_dna(37, 99);
  const UngappedPrescreen ps(q, Scoring::paper_default());
  EXPECT_EQ(ps.best_on_diagonal(q.codes(), 0), static_cast<Score>(q.size()));
}

TEST(Prescreen, StopAtReturnsEarlyWithThresholdMet) {
  const seq::Sequence q = test::random_dna(64, 123);
  const UngappedPrescreen ps(q, Scoring::paper_default());
  // Full self-match scores 64; any stop_at below that must still report a
  // value that clears the bar.
  for (const Score bar : {1, 5, 30, 64}) {
    EXPECT_GE(ps.best_on_diagonal(q.codes(), 0, bar), bar);
  }
  // An unreachable bar degrades to the exact best.
  EXPECT_EQ(ps.best_on_diagonal(q.codes(), 0, std::numeric_limits<Score>::max()),
            static_cast<Score>(q.size()));
}

TEST(Prescreen, OutOfRangeDiagonalsScoreZero) {
  const seq::Sequence q = test::random_dna(20, 7);
  const seq::Sequence rec = test::random_dna(30, 8);
  const UngappedPrescreen ps(q, Scoring::paper_default());
  EXPECT_EQ(ps.best_on_diagonal(rec.codes(), static_cast<std::ptrdiff_t>(rec.size())), 0);
  EXPECT_EQ(ps.best_on_diagonal(rec.codes(), -static_cast<std::ptrdiff_t>(q.size())), 0);
  EXPECT_EQ(ps.best_on_diagonal({}, 0), 0);  // empty record
}

}  // namespace
