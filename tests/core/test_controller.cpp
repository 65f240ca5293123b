// Controller-level functional equivalence: the cycle-accurate accelerator
// against the software oracle, across sizes, partitioning, evaluation
// order, widths and scoring schemes.
#include <gtest/gtest.h>

#include <tuple>

#include "align/sw_full.hpp"
#include "align/sw_linear.hpp"
#include "core/accelerator.hpp"
#include "core/performance_model.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

const align::Scoring kSc = align::Scoring::paper_default();

TEST(Controller, Figure2Example) {
  ArrayController<ScorePe> ctl(7, 16, kSc, 1 << 20, true);
  const seq::Sequence query = seq::Sequence::dna("TATGGAC");
  const seq::Sequence db = seq::Sequence::dna("TAGTGACT");
  const align::LocalScoreResult hw = ctl.run(query, db);
  EXPECT_EQ(hw, align::sw_linear(db, query, kSc));
}

TEST(Controller, EmptyInputs) {
  ArrayController<ScorePe> ctl(4, 16, kSc, 1 << 20, true);
  EXPECT_EQ(ctl.run(seq::Sequence::dna(""), seq::Sequence::dna("ACGT")).score, 0);
  EXPECT_EQ(ctl.run(seq::Sequence::dna("ACGT"), seq::Sequence::dna("")).score, 0);
}

TEST(Controller, AlphabetMismatchRejected) {
  ArrayController<ScorePe> ctl(4, 16, kSc, 1 << 20, true);
  EXPECT_THROW((void)ctl.run(seq::Sequence::dna("ACGT"), seq::Sequence::protein("ARND")),
               std::invalid_argument);
}

// The central property: hardware == software, including coordinates, for
// every combination of query/database size and array size (exercising
// no-partitioning, exact-fit, and multi-pass with partial final chunks).
class ControllerEquivalence
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, std::uint64_t>> {
};

TEST_P(ControllerEquivalence, MatchesSoftwareOracle) {
  const auto [m, n, npes, seed] = GetParam();
  const seq::Sequence query = swr::test::random_dna(m, seed * 7 + 1);
  const seq::Sequence db = swr::test::random_dna(n, seed * 11 + 2);
  ArrayController<ScorePe> ctl(npes, 16, kSc, 4 << 20, true);
  const align::LocalScoreResult hw = ctl.run(query, db);
  const align::LocalScoreResult sw = align::sw_linear(db, query, kSc);
  EXPECT_EQ(hw, sw) << "m=" << m << " n=" << n << " npes=" << npes;
  EXPECT_EQ(ctl.run_stats().passes, (m + npes - 1) / npes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ControllerEquivalence,
    testing::Combine(testing::Values<std::size_t>(1, 3, 8, 16, 23, 64),
                     testing::Values<std::size_t>(1, 9, 40, 120),
                     testing::Values<std::size_t>(1, 4, 8, 16),
                     testing::Values<std::uint64_t>(1, 2)));

TEST(Controller, MeasuredCyclesMatchAnalyticModel) {
  for (const auto& [m, n, npes] : std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {5, 20, 8}, {8, 20, 8}, {17, 33, 8}, {100, 250, 32}}) {
    const seq::Sequence query = swr::test::random_dna(m, 50);
    const seq::Sequence db = swr::test::random_dna(n, 51);
    ArrayController<ScorePe> ctl(npes, 16, kSc, 4 << 20, true);
    (void)ctl.run(query, db);
    const RunStats& st = ctl.run_stats();
    const CyclePrediction p = predict_cycles(m, n, npes, true);
    EXPECT_EQ(st.passes, p.passes);
    EXPECT_EQ(st.load_cycles, p.load_cycles);
    EXPECT_EQ(st.compute_cycles, p.compute_cycles);
    EXPECT_EQ(st.drain_cycles, p.drain_cycles);
    EXPECT_EQ(st.total_cycles, p.total_cycles);
  }
}

TEST(Controller, RepeatedRunsAreIndependent) {
  // State from a previous job must not leak into the next.
  ArrayController<ScorePe> ctl(8, 16, kSc, 1 << 20, true);
  const seq::Sequence q1 = swr::test::random_dna(12, 60);
  const seq::Sequence d1 = swr::test::random_dna(40, 61);
  const seq::Sequence q2 = swr::test::random_dna(20, 62);
  const seq::Sequence d2 = swr::test::random_dna(33, 63);
  const align::LocalScoreResult first = ctl.run(q1, d1);
  (void)ctl.run(q2, d2);
  EXPECT_EQ(ctl.run(q1, d1), first);
}

TEST(Controller, NarrowWidthSaturatesAndReportsIt) {
  // A 4-bit datapath cannot represent the score of a 40-base perfect
  // match; the run must saturate (visible in stats) and pin at the rail.
  const seq::Sequence q = swr::test::random_dna(40, 70);
  ArrayController<ScorePe> ctl(40, 4, kSc, 1 << 20, true);
  const align::LocalScoreResult hw = ctl.run(q, q);
  EXPECT_EQ(hw.score, 7);  // 4-bit positive rail
  EXPECT_GT(ctl.run_stats().saturations, 0u);

  // The same workload at 16 bits is exact and saturation-free.
  ArrayController<ScorePe> wide(40, 16, kSc, 1 << 20, true);
  const align::LocalScoreResult exact = wide.run(q, q);
  EXPECT_EQ(exact.score, 40);
  EXPECT_EQ(wide.run_stats().saturations, 0u);
}

TEST(Controller, SramOverflowIsLoudForOversizedJobs) {
  // 1 KB board SRAM cannot hold a 4 KB database.
  ArrayController<ScorePe> ctl(8, 16, kSc, 1024, true);
  const seq::Sequence q = swr::test::random_dna(8, 80);
  const seq::Sequence db = swr::test::random_dna(4096, 81);
  EXPECT_THROW((void)ctl.run(q, db), std::length_error);
}

TEST(Controller, PartitionedRunUsesBoundarySram) {
  // Multi-pass jobs must allocate the boundary ping-pong buffers.
  ArrayController<ScorePe> ctl(8, 16, kSc, 1 << 20, true);
  const seq::Sequence q = swr::test::random_dna(20, 90);
  const seq::Sequence db = swr::test::random_dna(50, 91);
  (void)ctl.run(q, db);
  EXPECT_GT(ctl.run_stats().sram_peak_bytes, db.size());
  // Single-pass jobs only hold the database.
  const seq::Sequence q2 = swr::test::random_dna(8, 92);
  (void)ctl.run(q2, db);
  EXPECT_EQ(ctl.run_stats().sram_peak_bytes, db.size());
}

TEST(Controller, PlantedWorkloadCoordinatesAreGroundTruth) {
  seq::PlantedWorkloadSpec spec;
  spec.query_len = 64;
  spec.database_len = 3000;
  spec.plant_offset = 1200;
  spec.plant_substitution_rate = 0.03;
  spec.seed = 17;
  const seq::PlantedWorkload wl = seq::make_planted_workload(spec);
  ArrayController<ScorePe> ctl(32, 16, kSc, 1 << 20, true);  // forces 2 passes
  const align::LocalScoreResult hw = ctl.run(wl.query, wl.database);
  EXPECT_EQ(hw, align::sw_linear(wl.database, wl.query, kSc));
  EXPECT_GE(hw.end.i, wl.plant_begin);
  EXPECT_LE(hw.end.i, wl.plant_end + 5);
}

TEST(Controller, ProteinSubstitutionMatrixScoring) {
  // The PE's Co/Su mux generalised to a substitution table ([21] SAMBA
  // searched amino-acid databases): hardware must equal software under
  // BLOSUM62 too, including multi-pass partitioning.
  align::Scoring sc;
  sc.matrix = &align::blosum62();
  sc.gap = -8;
  const seq::Sequence query = swr::test::random_protein(37, 301);
  const seq::Sequence db = swr::test::random_protein(150, 302);
  ArrayController<ScorePe> ctl(16, 16, sc, 1 << 20, true);  // 3 passes
  EXPECT_EQ(ctl.run(query, db), align::sw_linear(db, query, sc));
}

TEST(Accelerator, FacadeChecksDeviceCapacity) {
  EXPECT_THROW(SmithWatermanAccelerator(xc2vp70(), 100000, kSc), std::invalid_argument);
  SmithWatermanAccelerator acc(xc2vp70(), 100, kSc);
  EXPECT_EQ(acc.num_pes(), 100u);
  EXPECT_GT(acc.freq_mhz(), 50.0);
  EXPECT_LT(acc.freq_mhz(), 200.0);
}

TEST(Accelerator, RunProducesTimingAndGcups) {
  SmithWatermanAccelerator acc(xc2vp70(), 16, kSc);
  const seq::Sequence q = swr::test::random_dna(16, 95);
  const seq::Sequence db = swr::test::random_dna(200, 96);
  const JobResult r = acc.run(q, db);
  EXPECT_EQ(r.best, align::sw_linear(db, q, kSc));
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.gcups, 0.0);
  EXPECT_NEAR(r.seconds, acc.predict_seconds(q.size(), db.size()), 1e-12);
}

TEST(Accelerator, ReversePassFindsBeginCoordinates) {
  SmithWatermanAccelerator acc(xc2vp70(), 16, kSc);
  const seq::Sequence q = seq::Sequence::dna("TATGGAC");
  const seq::Sequence db = seq::Sequence::dna("TAGTGACT");
  const JobResult fwd = acc.run(q, db);
  ASSERT_EQ(fwd.best.score, 3);
  const JobResult rev = acc.run_reverse(q, db, fwd.best.end);
  EXPECT_EQ(rev.best.score, fwd.best.score);
  // begin = end - rev.end + 1 => (5,5) for the GAC/GAC alignment.
  EXPECT_EQ(fwd.best.end.i - rev.best.end.i + 1, 5u);
  EXPECT_EQ(fwd.best.end.j - rev.best.end.j + 1, 5u);
}

}  // namespace
