// Query packing: several queries resident at once, one database pass.
#include <gtest/gtest.h>

#include "align/sw_linear.hpp"
#include "core/accelerator.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

const align::Scoring kSc = align::Scoring::paper_default();

TEST(QueryPacking, EachQueryMatchesItsSoloRun) {
  const seq::Sequence db = swr::test::random_dna(500, 1);
  std::vector<seq::Sequence> queries;
  for (std::uint64_t s = 0; s < 4; ++s) {
    queries.push_back(swr::test::random_dna(10 + 5 * s, 100 + s));
  }
  ArrayController<ScorePe> ctl(80, 16, kSc, 1 << 20, true);
  const auto batch = ctl.run_batch(queries, db);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t k = 0; k < queries.size(); ++k) {
    EXPECT_EQ(batch[k], align::sw_linear(db, queries[k], kSc)) << "query " << k;
  }
}

TEST(QueryPacking, BarriersIsolateNeighbours) {
  // Adjacent queries crafted so a path crossing the barrier would score
  // higher than either side alone: the barrier must prevent it.
  const seq::Sequence db = seq::Sequence::dna("ACGTACGTAC");
  const std::vector<seq::Sequence> queries = {seq::Sequence::dna("ACGTA"),
                                              seq::Sequence::dna("CGTAC")};
  ArrayController<ScorePe> ctl(16, 16, kSc, 1 << 20, true);
  const auto batch = ctl.run_batch(queries, db);
  EXPECT_EQ(batch[0], align::sw_linear(db, queries[0], kSc));
  EXPECT_EQ(batch[1], align::sw_linear(db, queries[1], kSc));
  EXPECT_EQ(batch[0].score, 5);
  EXPECT_EQ(batch[1].score, 5);
}

TEST(QueryPacking, OnePassForTheWholeBatch) {
  const seq::Sequence db = swr::test::random_dna(300, 2);
  std::vector<seq::Sequence> queries(5, swr::test::random_dna(8, 3));
  ArrayController<ScorePe> ctl(64, 16, kSc, 1 << 20, true);
  (void)ctl.run_batch(queries, db);
  EXPECT_EQ(ctl.run_stats().passes, 1u);

  // Versus solo runs: the batch streams the database once instead of 5x.
  std::uint64_t solo_cycles = 0;
  for (const seq::Sequence& q : queries) {
    (void)ctl.run(q, db);
    solo_cycles += ctl.run_stats().total_cycles;
  }
  (void)ctl.run_batch(queries, db);
  EXPECT_LT(ctl.run_stats().total_cycles, solo_cycles / 3);
}

// run() and run_batch() share one pass, so a one-query batch is a run:
// the same result, every RunStats field and the same PE evaluations, under
// both schedulers — a full-width load (|query| = N) and a 6-bit datapath
// that saturates included.
TEST(QueryPacking, SingleQueryBatchIsARun) {
  struct Shape {
    std::size_t m, n, npes;
    unsigned bits;
  };
  for (const hw::SchedMode sched : {hw::SchedMode::Dense, hw::SchedMode::Event}) {
    for (const Shape s : {Shape{1, 1, 4, 16}, Shape{7, 60, 16, 16}, Shape{16, 200, 16, 16},
                          Shape{30, 9, 64, 16}, Shape{40, 150, 50, 6}}) {
      const seq::Sequence db = swr::test::random_dna(s.n, 60 + s.n);
      // Long queries copy part of the record, so the 6-bit shape saturates.
      const seq::Sequence query = s.m <= s.n ? db.subsequence(s.n - s.m, s.m)
                                             : swr::test::random_dna(s.m, 40 + s.m);
      ArrayController<ScorePe> ctl(s.npes, s.bits, kSc, 1 << 20, true, sched);
      const std::uint64_t before = ctl.array().evaluations();
      const align::LocalScoreResult solo = ctl.run(query, db);
      const RunStats solo_stats = ctl.run_stats();
      const std::uint64_t solo_evals = ctl.array().evaluations() - before;
      const auto batch = ctl.run_batch({query}, db);
      const std::string shape = std::string(hw::sched_mode_name(sched)) + " m=" +
                                std::to_string(s.m) + " n=" + std::to_string(s.n);
      ASSERT_EQ(batch.size(), 1u) << shape;
      EXPECT_EQ(batch[0], solo) << shape;
      EXPECT_TRUE(ctl.run_stats() == solo_stats) << shape;
      EXPECT_EQ(ctl.array().evaluations() - before - solo_evals, solo_evals) << shape;
      if (s.bits == 6) {
        EXPECT_GT(solo_stats.saturations, 0u) << shape;
      }
    }
  }
}

TEST(QueryPacking, OverflowAndEmptyHandling) {
  ArrayController<ScorePe> ctl(10, 16, kSc, 1 << 20, true);
  const seq::Sequence db = swr::test::random_dna(50, 4);
  // 6 + 1 barrier + 6 = 13 > 10 PEs.
  const std::vector<seq::Sequence> too_big = {swr::test::random_dna(6, 5),
                                              swr::test::random_dna(6, 6)};
  EXPECT_THROW((void)ctl.run_batch(too_big, db), std::invalid_argument);
  EXPECT_TRUE(ctl.run_batch({}, db).empty());
  const auto vs_empty_db =
      ctl.run_batch({swr::test::random_dna(4, 7)}, seq::Sequence::dna(""));
  ASSERT_EQ(vs_empty_db.size(), 1u);
  EXPECT_EQ(vs_empty_db[0].score, 0);
}

TEST(QueryPacking, EmptyQueryInBatchIsHarmless) {
  const seq::Sequence db = swr::test::random_dna(100, 8);
  const std::vector<seq::Sequence> queries = {seq::Sequence::dna(""),
                                              swr::test::random_dna(12, 9)};
  ArrayController<ScorePe> ctl(20, 16, kSc, 1 << 20, true);
  const auto batch = ctl.run_batch(queries, db);
  EXPECT_EQ(batch[0].score, 0);
  EXPECT_EQ(batch[1], align::sw_linear(db, queries[1], kSc));
}

TEST(QueryPacking, PackedMixedSizesFuzz) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 10; ++iter) {
    std::uniform_int_distribution<std::size_t> qn(1, 5);
    std::uniform_int_distribution<std::size_t> qlen(1, 12);
    std::uniform_int_distribution<std::size_t> dblen(1, 150);
    std::vector<seq::Sequence> queries;
    const std::size_t nq = qn(rng);
    for (std::size_t k = 0; k < nq; ++k) {
      queries.push_back(swr::test::random_dna(qlen(rng), rng()));
    }
    const seq::Sequence db = swr::test::random_dna(dblen(rng), rng());
    ArrayController<ScorePe> ctl(80, 16, kSc, 1 << 20, true);
    const auto batch = ctl.run_batch(queries, db);
    for (std::size_t k = 0; k < nq; ++k) {
      EXPECT_EQ(batch[k], align::sw_linear(db, queries[k], kSc))
          << "iter " << iter << " query " << k;
    }
  }
}

}  // namespace
