#include <gtest/gtest.h>

#include "align/sw_linear.hpp"
#include "core/multiboard.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

const align::Scoring kSc = align::Scoring::paper_default();

TEST(MaxAlignmentRows, Bound) {
  // match 1, gap -2: at most m + m/2 rows.
  EXPECT_EQ(max_alignment_rows(100, kSc), 150u);
  align::Scoring heavy = kSc;
  heavy.match = 4;
  heavy.gap = -1;
  EXPECT_EQ(max_alignment_rows(10, heavy), 50u);
}

TEST(MultiBoard, MatchesSingleBoardAcrossFleetSizes) {
  const seq::Sequence q = swr::test::random_dna(24, 5);
  const seq::Sequence db = swr::test::random_dna(2000, 6);
  const align::LocalScoreResult oracle = align::sw_linear(db, q, kSc);
  for (const std::size_t nb : {1u, 2u, 3u, 5u, 8u}) {
    BoardFleet fleet = make_board_fleet({.boards = nb, .pes_per_board = 24}, kSc);
    const MultiBoardResult r = multiboard_run(fleet, q, db);
    EXPECT_EQ(r.best, oracle) << nb << " boards";
    EXPECT_EQ(r.board_jobs.size(), nb);
  }
}

TEST(MultiBoard, HitStraddlingASliceBoundaryIsStillFound) {
  // Plant the homolog right across the 2-board split point.
  const std::size_t db_len = 3000;
  seq::PlantedWorkloadSpec spec;
  spec.query_len = 80;
  spec.database_len = db_len;
  spec.plant_offset = db_len / 2 - 40;  // straddles the midpoint
  spec.plant_substitution_rate = 0.02;
  spec.seed = 8;
  const seq::PlantedWorkload wl = seq::make_planted_workload(spec);
  BoardFleet fleet = make_board_fleet({.boards = 2, .pes_per_board = 80}, kSc);
  const MultiBoardResult r = multiboard_run(fleet, wl.query, wl.database);
  EXPECT_EQ(r.best, align::sw_linear(wl.database, wl.query, kSc));
  EXPECT_GE(r.best.end.i, wl.plant_begin);
  EXPECT_LE(r.best.end.i, wl.plant_end + 5);
}

TEST(MultiBoard, ParallelTimeIsMaxNotSum) {
  const seq::Sequence q = swr::test::random_dna(16, 9);
  const seq::Sequence db = swr::test::random_dna(4000, 10);
  BoardFleet fleet = make_board_fleet({.boards = 4, .pes_per_board = 16}, kSc);
  const MultiBoardResult r = multiboard_run(fleet, q, db);
  double max_board = 0.0;
  double sum_board = 0.0;
  for (const JobResult& j : r.board_jobs) {
    max_board = std::max(max_board, j.seconds);
    sum_board += j.seconds;
  }
  EXPECT_DOUBLE_EQ(r.seconds, max_board);
  EXPECT_LT(r.seconds, sum_board);
  // Splitting the database shortens the (modelled) wall time.
  BoardFleet one = make_board_fleet({.boards = 1, .pes_per_board = 16}, kSc);
  const MultiBoardResult single = multiboard_run(one, q, db);
  EXPECT_LT(r.seconds, single.seconds);
}

TEST(MultiBoard, MoreBoardsThanRowsDegradesGracefully) {
  const seq::Sequence q = swr::test::random_dna(4, 11);
  const seq::Sequence db = swr::test::random_dna(3, 12);
  BoardFleet fleet = make_board_fleet({.boards = 8, .pes_per_board = 4}, kSc);
  const MultiBoardResult r = multiboard_run(fleet, q, db);
  EXPECT_EQ(r.best, align::sw_linear(db, q, kSc));
}

TEST(MultiBoard, EmptyInputsAndValidation) {
  BoardFleet fleet = make_board_fleet({.boards = 2, .pes_per_board = 8}, kSc);
  EXPECT_EQ(multiboard_run(fleet, seq::Sequence::dna(""), seq::Sequence::dna("ACG")).best.score,
            0);
  BoardFleet empty;
  EXPECT_THROW((void)multiboard_run(empty, seq::Sequence::dna("A"), seq::Sequence::dna("A")),
               std::invalid_argument);
  EXPECT_THROW((void)make_board_fleet({.boards = 0, .pes_per_board = 8}, kSc),
               std::invalid_argument);
  EXPECT_THROW(
      (void)multiboard_run(fleet, seq::Sequence::dna("AC"), seq::Sequence::protein("AR")),
      std::invalid_argument);
}

}  // namespace
