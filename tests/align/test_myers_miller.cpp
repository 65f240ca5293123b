#include <gtest/gtest.h>

#include <tuple>

#include "align/gotoh.hpp"
#include "align/myers_miller.hpp"
#include "retrieve/traceback.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::align;

AffineScoring default_affine() {
  AffineScoring sc;
  sc.match = 2;
  sc.mismatch = -1;
  sc.gap_open = -2;
  sc.gap_extend = -1;
  return sc;
}

// Affine score of a transcript (gap runs cost open + len*extend).
Score affine_score_of(const Cigar& cg, const seq::Sequence& a, const seq::Sequence& b,
                      Cell begin, const AffineScoring& sc) {
  Score total = 0;
  std::size_t i = begin.i;
  std::size_t j = begin.j;
  for (const EditRun& r : cg.runs()) {
    switch (r.op) {
      case EditOp::Match:
      case EditOp::Mismatch:
        for (std::size_t k = 0; k < r.len; ++k) {
          total += sc.substitution(a[i - 1], b[j - 1]);
          ++i;
          ++j;
        }
        break;
      case EditOp::Insert:
        total += sc.gap_open + static_cast<Score>(r.len) * sc.gap_extend;
        j += r.len;
        break;
      case EditOp::Delete:
        total += sc.gap_open + static_cast<Score>(r.len) * sc.gap_extend;
        i += r.len;
        break;
    }
  }
  return total;
}

TEST(MyersMiller, IdenticalSequences) {
  const seq::Sequence s = seq::Sequence::dna("ACGTACGT");
  const LocalAlignment al = myers_miller_align(s, s, default_affine());
  EXPECT_EQ(al.score, 16);
  EXPECT_EQ(al.cigar.to_string(), "8M");
}

TEST(MyersMiller, EmptyCases) {
  const AffineScoring sc = default_affine();
  const seq::Sequence e = seq::Sequence::dna("");
  const seq::Sequence s = seq::Sequence::dna("ACGT");
  EXPECT_EQ(myers_miller_cigar(e.codes(), s.codes(), sc).to_string(), "4I");
  EXPECT_EQ(myers_miller_cigar(s.codes(), e.codes(), sc).to_string(), "4D");
  EXPECT_TRUE(myers_miller_cigar(e.codes(), e.codes(), sc).empty());
}

TEST(MyersMiller, LongGapSpansTheSplit) {
  // Deletion of 6 rows right in the middle: the recursion must carry the
  // gap across its split row without double-charging the open.
  AffineScoring sc;
  sc.match = 3;
  sc.mismatch = -3;
  sc.gap_open = -8;
  sc.gap_extend = -1;
  const seq::Sequence a = seq::Sequence::dna("ACGTACCCCCCGTACGT");  // 17
  const seq::Sequence b = seq::Sequence::dna("ACGTAGTACGT");        // 11 = 17 - 6
  const Cigar cg = myers_miller_cigar(a.codes(), b.codes(), sc);
  EXPECT_EQ(affine_score_of(cg, a, b, Cell{1, 1}, sc),
            gotoh_global_score(a.codes(), b.codes(), sc));
  EXPECT_EQ(cg.consumed_i(), a.size());
  EXPECT_EQ(cg.consumed_j(), b.size());
  // The optimum is one 6-long deletion: exactly one gap run.
  std::size_t del_runs = 0;
  for (const EditRun& r : cg.runs()) {
    if (r.op == EditOp::Delete) ++del_runs;
  }
  EXPECT_EQ(del_runs, 1u);
}

// The central property: the MM transcript's affine score equals Gotoh's
// optimal global score, across shapes, seeds and gap parameters.
class MmEquivalence
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t, int>> {};

TEST_P(MmEquivalence, TranscriptIsAffineOptimal) {
  const auto [m, n, seed, scheme] = GetParam();
  AffineScoring sc = default_affine();
  if (scheme == 1) {
    sc.gap_open = -10;
    sc.gap_extend = -1;
  } else if (scheme == 2) {
    sc.gap_open = 0;  // degenerates to linear gaps
    sc.gap_extend = -3;
  } else if (scheme == 3) {
    sc.match = 5;
    sc.mismatch = -4;
    sc.gap_open = -6;
    sc.gap_extend = -2;
  }
  const seq::Sequence a = swr::test::random_dna(m, seed * 11 + 300);
  const seq::Sequence b = swr::test::random_dna(n, seed * 13 + 400);
  const Cigar cg = myers_miller_cigar(a.codes(), b.codes(), sc);
  EXPECT_EQ(cg.consumed_i(), a.size());
  EXPECT_EQ(cg.consumed_j(), b.size());
  if (m > 0 || n > 0) {
    EXPECT_EQ(affine_score_of(cg, a, b, Cell{1, 1}, sc),
              gotoh_global_score(a.codes(), b.codes(), sc));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MmEquivalence,
                         testing::Combine(testing::Values<std::size_t>(0, 1, 2, 3, 9, 33, 80),
                                          testing::Values<std::size_t>(0, 1, 2, 10, 41, 77),
                                          testing::Values<std::uint64_t>(1, 2, 3),
                                          testing::Values(0, 1, 2, 3)));

TEST(MyersMiller, HomologsWithIndels) {
  seq::MutationModel mm;
  mm.substitution_rate = 0.05;
  mm.insertion_rate = 0.03;
  mm.deletion_rate = 0.03;
  const auto pair = seq::make_homolog_pair(900, mm, 42);
  AffineScoring sc;
  sc.match = 2;
  sc.mismatch = -2;
  sc.gap_open = -6;
  sc.gap_extend = -1;
  const Cigar cg = myers_miller_cigar(pair.a.codes(), pair.b.codes(), sc);
  EXPECT_EQ(affine_score_of(cg, pair.a, pair.b, Cell{1, 1}, sc),
            gotoh_global_score(pair.a.codes(), pair.b.codes(), sc));
}

// Affine local retrieval pipeline vs the quadratic Gotoh traceback oracle.
class AffineLocalLinear
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(AffineLocalLinear, MatchesGotohOracleScore) {
  const auto [m, n, seed] = GetParam();
  const AffineScoring sc = default_affine();
  const seq::Sequence a = swr::test::random_dna(m, seed * 17 + 500);
  const seq::Sequence b = swr::test::random_dna(n, seed * 19 + 600);
  const LocalAlignment lin = retrieve::local_align_linear(a, b, sc);
  const LocalAlignment full = gotoh_local_align(a, b, sc);
  ASSERT_EQ(lin.score, full.score);
  if (lin.score > 0) {
    EXPECT_EQ(affine_score_of(lin.cigar, a, b, lin.begin, sc), lin.score);
    EXPECT_EQ(lin.begin.i + lin.cigar.consumed_i() - 1, lin.end.i);
    EXPECT_EQ(lin.begin.j + lin.cigar.consumed_j() - 1, lin.end.j);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AffineLocalLinear,
                         testing::Combine(testing::Values<std::size_t>(1, 20, 60, 140),
                                          testing::Values<std::size_t>(1, 15, 70),
                                          testing::Values<std::uint64_t>(1, 2, 3, 4)));

TEST(AffineLocalLinear, NoPositiveAlignment) {
  const LocalAlignment al = retrieve::local_align_linear(
      seq::Sequence::dna("AAAA"), seq::Sequence::dna("TTTT"), default_affine());
  EXPECT_EQ(al.score, 0);
  EXPECT_TRUE(al.cigar.empty());
}

TEST(AffineLocalLinear, AlphabetMismatchRejected) {
  EXPECT_THROW((void)retrieve::local_align_linear(seq::Sequence::dna("ACGT"),
                                                 seq::Sequence::protein("ARND"), default_affine()),
               std::invalid_argument);
}

}  // namespace
