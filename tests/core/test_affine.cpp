// The affine-gap PE/array extension against the Gotoh software oracle.
#include <gtest/gtest.h>

#include <tuple>

#include "align/gotoh.hpp"
#include "core/accelerator.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

align::AffineScoring default_affine() {
  align::AffineScoring sc;
  sc.match = 2;
  sc.mismatch = -1;
  sc.gap_open = -2;
  sc.gap_extend = -1;
  return sc;
}

TEST(AffineController, SmallExample) {
  ArrayController<AffinePe> ctl(8, 16, default_affine(), 1 << 20, true);
  const seq::Sequence q = seq::Sequence::dna("ACGTCC");
  const seq::Sequence db = seq::Sequence::dna("ACGTACGT");
  const align::LocalScoreResult hw = ctl.run(q, db);
  EXPECT_EQ(hw, align::gotoh_local_score(db.codes(), q.codes(), default_affine()));
}

class AffineEquivalence
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, std::uint64_t>> {
};

TEST_P(AffineEquivalence, MatchesGotohOracle) {
  const auto [m, n, npes, seed] = GetParam();
  const seq::Sequence query = swr::test::random_dna(m, seed * 13 + 3);
  const seq::Sequence db = swr::test::random_dna(n, seed * 17 + 4);
  ArrayController<AffinePe> ctl(npes, 16, default_affine(), 4 << 20, true);
  const align::LocalScoreResult hw = ctl.run(query, db);
  const align::LocalScoreResult sw =
      align::gotoh_local_score(db.codes(), query.codes(), default_affine());
  EXPECT_EQ(hw, sw) << "m=" << m << " n=" << n << " npes=" << npes;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AffineEquivalence,
    testing::Combine(testing::Values<std::size_t>(1, 4, 9, 16, 30),
                     testing::Values<std::size_t>(1, 10, 45, 100),
                     testing::Values<std::size_t>(1, 4, 8),
                     testing::Values<std::uint64_t>(1, 2)));

TEST(AffineController, PartitionedLongGapAcrossChunkBoundary) {
  // A deletion spanning the chunk boundary is the case that requires the
  // E-layer boundary values in SRAM: verify against Gotoh with a crafted
  // gap right at the boundary of a 4-PE array.
  align::AffineScoring sc;
  sc.match = 3;
  sc.mismatch = -3;
  sc.gap_open = -4;
  sc.gap_extend = -1;
  // query = ACGT|TGCA (chunks of 4), database missing nothing but the
  // alignment must carry E across column 4.
  const seq::Sequence q = seq::Sequence::dna("ACGTTGCA");
  const seq::Sequence db = seq::Sequence::dna("ACGTGGTTGCA");
  ArrayController<AffinePe> ctl(4, 16, sc, 1 << 20, true);
  EXPECT_EQ(ctl.run(q, db), align::gotoh_local_score(db.codes(), q.codes(), sc));
  EXPECT_EQ(ctl.run_stats().passes, 2u);
}

TEST(AffineController, ProteinBlosum62) {
  align::AffineScoring sc;
  sc.matrix = &align::blosum62();
  sc.gap_open = -10;
  sc.gap_extend = -1;
  const seq::Sequence q = swr::test::random_protein(24, 7);
  const seq::Sequence db = swr::test::random_protein(90, 8);
  ArrayController<AffinePe> ctl(10, 16, sc, 1 << 20, true);  // 3 passes
  EXPECT_EQ(ctl.run(q, db), align::gotoh_local_score(db.codes(), q.codes(), sc));
}

TEST(AffineAcceleratorFacade, UsesAffineResourceCosting) {
  AffineAccelerator acc(xc2vp70(), 50, default_affine());
  EXPECT_TRUE(acc.features().affine);
  // The affine PE is strictly bigger than the linear PE.
  const PeFeatures lin{16, 32, true, false};
  const PeFeatures aff{16, 32, true, true};
  EXPECT_GT(pe_flipflops(aff), pe_flipflops(lin));
  EXPECT_GT(pe_luts(aff), pe_luts(lin));
}

}  // namespace
