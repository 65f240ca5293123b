#include <gtest/gtest.h>

#include <span>
#include <tuple>

#include "align/local_linear.hpp"
#include "align/sw_full.hpp"
#include "align/sw_linear.hpp"
#include "retrieve/traceback.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::align;

const Scoring kSc = Scoring::paper_default();

TEST(LocalLinear, Figure2Example) {
  const seq::Sequence s = seq::Sequence::dna("TATGGAC");
  const seq::Sequence t = seq::Sequence::dna("TAGTGACT");
  const LocalAlignment lin = retrieve::local_align_linear(s, t, kSc);
  const LocalAlignment full = sw_align(s, t, kSc);
  EXPECT_EQ(lin.score, full.score);
  EXPECT_EQ(lin.begin, full.begin);
  EXPECT_EQ(lin.end, full.end);
  EXPECT_EQ(lin.cigar, full.cigar);
}

TEST(LocalLinear, NoPositiveAlignment) {
  const LocalAlignment al =
      retrieve::local_align_linear(seq::Sequence::dna("AAAA"), seq::Sequence::dna("TTTT"), kSc);
  EXPECT_EQ(al.score, 0);
  EXPECT_TRUE(al.cigar.empty());
}

// Core correctness property of the whole §2.3 recipe: same score as the
// full-matrix oracle, transcript really scores that much, window bounds
// consistent. (The transcript may legitimately differ from the oracle's
// when co-optimal alignments exist.)
class LocalLinearProperty
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(LocalLinearProperty, MatchesOracleScore) {
  const auto [m, n, seed] = GetParam();
  const seq::Sequence a = swr::test::random_dna(m, seed * 31 + 1);
  const seq::Sequence b = swr::test::random_dna(n, seed * 37 + 2);
  const LocalAlignment lin = retrieve::local_align_linear(a, b, kSc);
  const LocalAlignment full = sw_align(a, b, kSc);
  ASSERT_EQ(lin.score, full.score);
  if (lin.score > 0) {
    EXPECT_EQ(score_of(lin.cigar, a, b, lin.begin, kSc), lin.score);
    EXPECT_EQ(lin.begin.i + lin.cigar.consumed_i() - 1, lin.end.i);
    EXPECT_EQ(lin.begin.j + lin.cigar.consumed_j() - 1, lin.end.j);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LocalLinearProperty,
                         testing::Combine(testing::Values<std::size_t>(1, 5, 30, 90, 160),
                                          testing::Values<std::size_t>(1, 8, 40, 120),
                                          testing::Values<std::uint64_t>(1, 2, 3, 4)));

TEST(LocalLinear, HomologPairRecoversAlignment) {
  seq::MutationModel mm;
  mm.substitution_rate = 0.04;
  mm.insertion_rate = 0.02;
  mm.deletion_rate = 0.02;
  const auto pair = seq::make_homolog_pair(800, mm, 55);
  const LocalAlignment lin = retrieve::local_align_linear(pair.a, pair.b, kSc);
  const LocalAlignment full = sw_align(pair.a, pair.b, kSc);
  EXPECT_EQ(lin.score, full.score);
  EXPECT_GT(cigar_identity(lin.cigar), 0.85);
}

TEST(LocalLinear, CustomPassEngineIsUsed) {
  // Plug a counting wrapper as the pass engine; the pipeline must call it
  // exactly twice (forward + reverse).
  int calls = 0;
  const retrieve::ScorePass pass = [&calls](std::span<const seq::Code> x,
                                            std::span<const seq::Code> y) {
    ++calls;
    return sw_linear_codes(x, y, kSc);
  };
  const seq::Sequence a = swr::test::random_dna(64, 91);
  const seq::Sequence b = swr::test::random_dna(64, 92);
  const LocalAlignment lin = retrieve::local_align_linear(a, b, kSc, pass);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(lin.score, sw_align(a, b, kSc).score);
}

TEST(AnchoredBestEnd, FindsAnchoredOptimum) {
  //     b: A C G T
  // a = ACGT; anchored at (1,1) the best end is the full diagonal.
  const seq::Sequence s = seq::Sequence::dna("ACGT");
  const LocalScoreResult r = anchored_best_end(s, s, Cell{1, 1}, 4, 4, kSc);
  EXPECT_EQ(r.score, 4);
  EXPECT_EQ(r.end, (Cell{4, 4}));
}

TEST(AnchoredBestEnd, AnchorForcesStart) {
  // Anchoring at (2,1) on mismatching first bases: best path must start
  // with a[2], not restart elsewhere.
  const seq::Sequence a = seq::Sequence::dna("TACG");
  const seq::Sequence b = seq::Sequence::dna("ACGT");
  const LocalScoreResult r = anchored_best_end(a, b, Cell{2, 1}, 4, 4, kSc);
  EXPECT_EQ(r.score, 3);  // ACG aligned
  EXPECT_EQ(r.end, (Cell{4, 3}));
}

TEST(AnchoredBestEnd, RejectsBadWindows) {
  const seq::Sequence s = seq::Sequence::dna("ACGT");
  EXPECT_THROW((void)anchored_best_end(s, s, Cell{0, 1}, 4, 4, kSc), std::invalid_argument);
  EXPECT_THROW((void)anchored_best_end(s, s, Cell{3, 1}, 2, 4, kSc), std::invalid_argument);
  EXPECT_THROW((void)anchored_best_end(s, s, Cell{1, 1}, 5, 4, kSc), std::invalid_argument);
}

TEST(LocalLinear, AlphabetMismatchRejected) {
  EXPECT_THROW((void)retrieve::local_align_linear(seq::Sequence::dna("ACGT"),
                                                 seq::Sequence::protein("ARND"), kSc),
               std::invalid_argument);
}

}  // namespace
