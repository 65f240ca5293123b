// The complete host+board pipeline against the pure-software references.
#include <gtest/gtest.h>

#include "align/sw_full.hpp"
#include "core/accelerator.hpp"
#include "host/pipeline.hpp"
#include "retrieve/traceback.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

const align::Scoring kSc = align::Scoring::paper_default();

TEST(HostPipeline, Figure2EndToEnd) {
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 8, kSc);
  host::HostPipeline pipe(acc, host::PciConfig{});
  const seq::Sequence q = seq::Sequence::dna("TATGGAC");
  const seq::Sequence db = seq::Sequence::dna("TAGTGACT");
  const host::PipelineResult r = pipe.align(q, db);
  // Coordinates are (i = db, j = query): the GAC/GAC alignment.
  EXPECT_EQ(r.alignment.score, 3);
  EXPECT_EQ(r.alignment.begin, (align::Cell{5, 5}));
  EXPECT_EQ(r.alignment.end, (align::Cell{7, 7}));
  EXPECT_EQ(r.alignment.cigar.to_string(), "3M");
}

TEST(HostPipeline, MatchesSoftwarePipelineExactly) {
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 16, kSc);
  host::HostPipeline pipe(acc, host::PciConfig{});
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const seq::Sequence q = swr::test::random_dna(40, seed);
    const seq::Sequence db = swr::test::random_dna(150, seed + 100);
    const host::PipelineResult hw = pipe.align(q, db);
    const align::LocalAlignment sw = retrieve::local_align_linear(db, q, kSc);
    EXPECT_EQ(hw.alignment.score, sw.score) << "seed " << seed;
    EXPECT_EQ(hw.alignment.begin, sw.begin) << "seed " << seed;
    EXPECT_EQ(hw.alignment.end, sw.end) << "seed " << seed;
    EXPECT_EQ(hw.alignment.cigar, sw.cigar) << "seed " << seed;
  }
}

TEST(HostPipeline, TranscriptScoreEqualsReportedScore) {
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 12, kSc);
  host::HostPipeline pipe(acc, host::PciConfig{});
  seq::PlantedWorkloadSpec spec;
  spec.query_len = 50;
  spec.database_len = 1200;
  spec.plant_offset = 600;
  spec.seed = 3;
  const seq::PlantedWorkload wl = seq::make_planted_workload(spec);
  const host::PipelineResult r = pipe.align(wl.query, wl.database);
  ASSERT_GT(r.alignment.score, 0);
  EXPECT_EQ(align::score_of(r.alignment.cigar, wl.database, wl.query, r.alignment.begin, kSc),
            r.alignment.score);
  // Alignment must land on the planted homolog.
  EXPECT_GE(r.alignment.end.i, wl.plant_begin);
  EXPECT_LE(r.alignment.end.i, wl.plant_end + 5);
}

TEST(HostPipeline, TimingAndTrafficBreakdown) {
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 16, kSc);
  host::HostPipeline pipe(acc, host::PciConfig{});
  const seq::Sequence q = swr::test::random_dna(32, 11);
  const seq::Sequence db = swr::test::random_dna(400, 12);
  const host::PipelineResult r = pipe.align(q, db);
  EXPECT_GT(r.timing.fpga_seconds, 0.0);
  EXPECT_GT(r.timing.transfer_seconds, 0.0);
  EXPECT_GE(r.timing.host_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.timing.total(),
                   r.timing.fpga_seconds + r.timing.transfer_seconds + r.timing.host_seconds);
  // Sequences in, two tiny result records out.
  EXPECT_EQ(r.bytes_to_board, q.size() + db.size());
  EXPECT_EQ(r.bytes_from_board, 40u);
  EXPECT_GT(r.forward_stats.total_cycles, 0u);
  EXPECT_GT(r.reverse_stats.total_cycles, 0u);
  // Forward pass covers the whole matrix; reverse only the prefix window.
  EXPECT_GE(r.forward_stats.cell_updates, r.reverse_stats.cell_updates);
}

TEST(HostPipeline, NoHitReturnsEmptyAlignment) {
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 8, kSc);
  host::HostPipeline pipe(acc, host::PciConfig{});
  const host::PipelineResult r =
      pipe.align(seq::Sequence::dna("AAAA"), seq::Sequence::dna("TTTTTTTT"));
  EXPECT_EQ(r.alignment.score, 0);
  EXPECT_TRUE(r.alignment.cigar.empty());
}

TEST(HostPipeline, AlphabetMismatchRejected) {
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 8, kSc);
  host::HostPipeline pipe(acc, host::PciConfig{});
  EXPECT_THROW((void)pipe.align(seq::Sequence::dna("ACGT"), seq::Sequence::protein("ARND")),
               std::invalid_argument);
}

}  // namespace
