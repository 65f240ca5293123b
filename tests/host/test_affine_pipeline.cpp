// AffineHostPipeline: the affine accelerator + Myers-Miller retrieval.
#include <gtest/gtest.h>

#include "align/gotoh.hpp"
#include "core/accelerator.hpp"
#include "host/pipeline.hpp"
#include "retrieve/traceback.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

align::AffineScoring default_affine() {
  align::AffineScoring sc;
  sc.match = 2;
  sc.mismatch = -1;
  sc.gap_open = -2;
  sc.gap_extend = -1;
  return sc;
}

align::Score affine_score_of(const align::Cigar& cg, const seq::Sequence& a,
                             const seq::Sequence& b, align::Cell begin,
                             const align::AffineScoring& sc) {
  align::Score total = 0;
  std::size_t i = begin.i;
  std::size_t j = begin.j;
  for (const align::EditRun& r : cg.runs()) {
    switch (r.op) {
      case align::EditOp::Match:
      case align::EditOp::Mismatch:
        for (std::size_t k = 0; k < r.len; ++k) {
          total += sc.substitution(a[i - 1], b[j - 1]);
          ++i;
          ++j;
        }
        break;
      case align::EditOp::Insert:
        total += sc.gap_open + static_cast<align::Score>(r.len) * sc.gap_extend;
        j += r.len;
        break;
      case align::EditOp::Delete:
        total += sc.gap_open + static_cast<align::Score>(r.len) * sc.gap_extend;
        i += r.len;
        break;
    }
  }
  return total;
}

TEST(AffinePipeline, MatchesSoftwareAffinePipeline) {
  const align::AffineScoring sc = default_affine();
  core::AffineAccelerator acc(core::xc2vp70(), 24, sc);
  host::AffineHostPipeline pipe(acc, host::PciConfig{});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const seq::Sequence q = swr::test::random_dna(40, seed * 7);
    const seq::Sequence db = swr::test::random_dna(180, seed * 9);
    const host::PipelineResult hw = pipe.align(q, db);
    const align::LocalAlignment sw = retrieve::local_align_linear(db, q, sc);
    EXPECT_EQ(hw.alignment.score, sw.score) << "seed " << seed;
    EXPECT_EQ(hw.alignment.begin, sw.begin) << "seed " << seed;
    EXPECT_EQ(hw.alignment.end, sw.end) << "seed " << seed;
    EXPECT_EQ(hw.alignment.cigar, sw.cigar) << "seed " << seed;
  }
}

TEST(AffinePipeline, TranscriptScoresAsReported) {
  const align::AffineScoring sc = default_affine();
  core::AffineAccelerator acc(core::xc2vp70(), 30, sc);
  host::AffineHostPipeline pipe(acc, host::PciConfig{});
  seq::RandomSequenceGenerator gen(12);
  const seq::Sequence q = gen.uniform(seq::dna(), 60, "q");
  seq::Sequence db = gen.uniform(seq::dna(), 800);
  db.append(seq::point_mutate(q, 0.06, gen.engine()));
  db.append(gen.uniform(seq::dna(), 800));
  const host::PipelineResult r = pipe.align(q, db);
  ASSERT_GT(r.alignment.score, 0);
  EXPECT_EQ(affine_score_of(r.alignment.cigar, db, q, r.alignment.begin, sc),
            r.alignment.score);
  // Gotoh quadratic oracle score agreement.
  EXPECT_EQ(r.alignment.score, align::gotoh_local_align(db, q, sc).score);
  // Timing/traffic plumbing mirrors the linear pipeline.
  EXPECT_GT(r.timing.fpga_seconds, 0.0);
  EXPECT_EQ(r.bytes_from_board, 40u);
  EXPECT_GT(r.forward_stats.total_cycles, r.reverse_stats.total_cycles);
}

TEST(AffinePipeline, NoHitAndValidation) {
  const align::AffineScoring sc = default_affine();
  core::AffineAccelerator acc(core::xc2vp70(), 8, sc);
  host::AffineHostPipeline pipe(acc, host::PciConfig{});
  EXPECT_EQ(pipe.align(seq::Sequence::dna("AAAA"), seq::Sequence::dna("TTTT")).alignment.score,
            0);
  EXPECT_THROW((void)pipe.align(seq::Sequence::dna("ACGT"), seq::Sequence::protein("ARND")),
               std::invalid_argument);
}

}  // namespace
