// Scheduler parity: the event-driven (activity-set) scheduler against the
// dense evaluate-all oracle, cycle by cycle on every architectural
// observation point — PE outputs, Bs/Bc/Cl registers, drain_out — plus
// results, RunStats and batch runs. Event mode earns its speedup by
// clocking fewer PEs; these tests pin down that it changes nothing the
// architecture can see.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "align/sw_linear.hpp"
#include "core/controller.hpp"
#include "hw/sched.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

const align::Scoring kSc = align::Scoring::paper_default();

// One probed clock edge: everything the VCD tracer and the schedule tests
// can observe about the array, flattened for comparison.
struct CycleProbe {
  std::uint64_t cycle = 0;
  std::vector<align::Score> out_score;
  std::vector<seq::Code> out_base;
  std::vector<bool> out_valid;
  std::vector<align::Score> bs;
  std::vector<std::uint64_t> bc;
  std::vector<std::uint64_t> cl;
  align::Score drain_bs = 0;
  std::uint64_t drain_bc = 0;

  friend bool operator==(const CycleProbe&, const CycleProbe&) = default;
};

template <typename Pe>
CycleProbe probe(const SystolicArray<Pe>& arr, std::uint64_t cycle) {
  CycleProbe p;
  p.cycle = cycle;
  for (std::size_t j = 0; j < arr.size(); ++j) {
    const Pe& pe = arr.pe(j);
    p.out_score.push_back(pe.out().score);
    p.out_base.push_back(pe.out().base);
    p.out_valid.push_back(pe.out().valid);
    p.bs.push_back(pe.reg_bs());
    p.bc.push_back(pe.reg_bc());
    if constexpr (std::is_same_v<Pe, ScorePe>) p.cl.push_back(pe.reg_cl());
  }
  p.drain_bs = arr.drain_out().bs;
  p.drain_bc = arr.drain_out().bc;
  return p;
}

template <typename Pe, typename Scoring>
struct Trace {
  align::LocalScoreResult best;
  RunStats stats;
  std::uint64_t evaluations = 0;
  std::vector<CycleProbe> probes;
};

template <typename Pe, typename Scoring>
Trace<Pe, Scoring> run_traced(hw::SchedMode sched, const Scoring& sc, std::size_t npes,
                              const seq::Sequence& query, const seq::Sequence& db) {
  ArrayController<Pe> ctl(npes, 16, sc, 4 << 20, /*charge_query_load=*/true, sched);
  Trace<Pe, Scoring> t;
  ctl.set_observer([&t](const SystolicArray<Pe>& arr, std::uint64_t cycle) {
    t.probes.push_back(probe(arr, cycle));
  });
  t.best = ctl.run(query, db);
  t.stats = ctl.run_stats();
  t.evaluations = ctl.array().evaluations();
  return t;
}

class SchedParity
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(SchedParity, CycleStreamsAreBitIdentical) {
  const auto [m, n, npes] = GetParam();
  const seq::Sequence query = swr::test::random_dna(m, m * 31 + n);
  const seq::Sequence db = swr::test::random_dna(n, n * 37 + npes);

  const auto dense = run_traced<ScorePe>(hw::SchedMode::Dense, kSc, npes, query, db);
  const auto event = run_traced<ScorePe>(hw::SchedMode::Event, kSc, npes, query, db);

  EXPECT_EQ(dense.best, event.best);
  EXPECT_EQ(dense.best, align::sw_linear(db, query, kSc));
  EXPECT_EQ(dense.stats.total_cycles, event.stats.total_cycles);
  EXPECT_EQ(dense.stats.compute_cycles, event.stats.compute_cycles);
  EXPECT_EQ(dense.stats.drain_cycles, event.stats.drain_cycles);
  EXPECT_EQ(dense.stats.load_cycles, event.stats.load_cycles);
  EXPECT_EQ(dense.stats.passes, event.stats.passes);
  EXPECT_EQ(dense.stats.saturations, event.stats.saturations);

  ASSERT_EQ(dense.probes.size(), event.probes.size());
  for (std::size_t i = 0; i < dense.probes.size(); ++i) {
    ASSERT_EQ(dense.probes[i], event.probes[i]) << "cycle index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedParity,
    testing::Values(
        // (m query, n database, N array): single-pass, exact fit, multi-pass
        // with a partial tail, short streams (n < N, the event win case),
        // degenerate 1-PE and 1-base shapes.
        std::make_tuple<std::size_t, std::size_t, std::size_t>(5, 5, 5),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(8, 40, 8),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(23, 17, 8),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(40, 3, 32),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(7, 50, 16),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(1, 12, 4),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(12, 1, 4),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(3, 9, 1),
        std::make_tuple<std::size_t, std::size_t, std::size_t>(64, 120, 16)));

TEST(SchedParity, AffineArrayMatchesToo) {
  align::AffineScoring sc;
  sc.match = 2;
  sc.mismatch = -1;
  sc.gap_open = -2;
  sc.gap_extend = -1;
  const seq::Sequence query = swr::test::random_dna(37, 401);
  const seq::Sequence db = swr::test::random_dna(90, 402);
  const auto dense = run_traced<AffinePe>(hw::SchedMode::Dense, sc, 16, query, db);
  const auto event = run_traced<AffinePe>(hw::SchedMode::Event, sc, 16, query, db);
  EXPECT_EQ(dense.best, event.best);
  EXPECT_EQ(dense.stats.total_cycles, event.stats.total_cycles);
  ASSERT_EQ(dense.probes.size(), event.probes.size());
  for (std::size_t i = 0; i < dense.probes.size(); ++i) {
    ASSERT_EQ(dense.probes[i], event.probes[i]) << "cycle index " << i;
  }
}

TEST(SchedParity, PackedBatchIsBitIdentical) {
  const seq::Sequence db = swr::test::random_dna(60, 410);
  std::vector<seq::Sequence> queries;
  for (std::size_t k = 0; k < 3; ++k) queries.push_back(swr::test::random_dna(6 + k, 411 + k));

  ArrayController<ScorePe> dense(24, 16, kSc, 1 << 20, true, hw::SchedMode::Dense);
  ArrayController<ScorePe> event(24, 16, kSc, 1 << 20, true, hw::SchedMode::Event);
  const auto dres = dense.run_batch(queries, db);
  const auto eres = event.run_batch(queries, db);
  ASSERT_EQ(dres.size(), eres.size());
  for (std::size_t k = 0; k < dres.size(); ++k) EXPECT_EQ(dres[k], eres[k]) << "query " << k;
  EXPECT_EQ(dense.run_stats().total_cycles, event.run_stats().total_cycles);
}

TEST(SchedParity, BackToBackJobsDoNotLeakSchedulerState) {
  // The event bookkeeping (active span, drain snapshot/cursor) must reset
  // with the array: replaying a job after a different one is identical.
  ArrayController<ScorePe> ctl(8, 16, kSc, 1 << 20, true, hw::SchedMode::Event);
  const seq::Sequence q1 = swr::test::random_dna(12, 420);
  const seq::Sequence d1 = swr::test::random_dna(40, 421);
  const seq::Sequence q2 = swr::test::random_dna(20, 422);
  const seq::Sequence d2 = swr::test::random_dna(5, 423);
  const align::LocalScoreResult first = ctl.run(q1, d1);
  const std::uint64_t cycles_first = ctl.run_stats().total_cycles;
  (void)ctl.run(q2, d2);
  EXPECT_EQ(ctl.run(q1, d1), first);
  EXPECT_EQ(ctl.run_stats().total_cycles, cycles_first);
}

TEST(SchedParity, EventDoesStrictlyLessWorkOnShortStreams) {
  // A 3-base stream through a 64-PE array keeps at most 3 PEs busy; the
  // event scheduler must clock far fewer PE-evaluations than dense while
  // the cycle COUNT (architectural time) stays identical.
  const seq::Sequence query = swr::test::random_dna(64, 430);
  const seq::Sequence db = swr::test::random_dna(3, 431);
  const auto dense = run_traced<ScorePe>(hw::SchedMode::Dense, kSc, 64, query, db);
  const auto event = run_traced<ScorePe>(hw::SchedMode::Event, kSc, 64, query, db);
  EXPECT_EQ(dense.stats.total_cycles, event.stats.total_cycles);
  EXPECT_LT(event.evaluations, dense.evaluations / 4);
}

TEST(SchedParity, SchedModeIsReported) {
  ArrayController<ScorePe> dense(4, 16, kSc, 1 << 20, true, hw::SchedMode::Dense);
  ArrayController<ScorePe> event(4, 16, kSc, 1 << 20, true, hw::SchedMode::Event);
  EXPECT_EQ(dense.sched_mode(), hw::SchedMode::Dense);
  EXPECT_EQ(event.sched_mode(), hw::SchedMode::Event);
}

TEST(SchedEnv, ParseAndNames) {
  EXPECT_EQ(hw::parse_sched_mode(""), std::nullopt);
  EXPECT_EQ(hw::parse_sched_mode("auto"), std::nullopt);
  EXPECT_EQ(hw::parse_sched_mode("dense"), hw::SchedMode::Dense);
  EXPECT_EQ(hw::parse_sched_mode("event"), hw::SchedMode::Event);
  EXPECT_THROW((void)hw::parse_sched_mode("bogus"), std::invalid_argument);
  EXPECT_STREQ(hw::sched_mode_name(hw::SchedMode::Dense), "dense");
  EXPECT_STREQ(hw::sched_mode_name(hw::SchedMode::Event), "event");
}

}  // namespace
