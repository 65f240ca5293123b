// Schedule tests: the anti-diagonal wavefront of figures 4-5 — which PE
// computes which matrix cell at which cycle — observed on the cycle-level
// model through the controller's per-cycle probe.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "align/sw_full.hpp"
#include "core/controller.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

struct Emission {
  std::uint64_t cycle;
  std::size_t pe;
  align::Score score;
};

TEST(SystolicSchedule, AntiDiagonalWavefront) {
  // Query ACGAT resident, database CTTAG streamed — the exact example of
  // figure 4. Record every PE output event.
  const seq::Sequence query = seq::Sequence::dna("ACGAT");
  const seq::Sequence db = seq::Sequence::dna("CTTAG");
  const align::Scoring sc = align::Scoring::paper_default();

  ArrayController<ScorePe> ctl(5, 16, sc, 1 << 20, /*charge_query_load=*/false);
  std::vector<Emission> emissions;
  ctl.set_observer([&](const SystolicArray<ScorePe>& arr, std::uint64_t cycle) {
    for (std::size_t j = 0; j < arr.size(); ++j) {
      if (arr.pe(j).out().valid) emissions.push_back({cycle, j, arr.pe(j).out().score});
    }
  });
  (void)ctl.run(query, db);

  // Every valid emission from PE j at (relative) cycle t corresponds to
  // cell (i = t - j, j+1); PEs on one anti-diagonal fire the same cycle.
  ASSERT_FALSE(emissions.empty());
  const std::uint64_t t0 = emissions.front().cycle;  // PE 0, row 1
  const align::SimilarityMatrix m = align::sw_matrix(db, query, sc);
  std::size_t checked = 0;
  for (const Emission& e : emissions) {
    const std::uint64_t rel = e.cycle - t0;
    ASSERT_GE(rel, e.pe);
    const std::size_t i = static_cast<std::size_t>(rel - e.pe) + 1;  // row
    if (i > db.size()) continue;  // pipeline flush bubbles
    EXPECT_EQ(e.score, m(i, e.pe + 1)) << "cycle " << e.cycle << " pe " << e.pe;
    ++checked;
  }
  EXPECT_EQ(checked, db.size() * query.size());  // every cell exactly once
}

TEST(SystolicSchedule, MaximumParallelismOnLongDiagonals) {
  // With |db| >= N, some cycle must have all N PEs emitting at once —
  // figure 3(c)'s full-parallelism phase.
  const seq::Sequence query = swr::test::random_dna(8, 1);
  const seq::Sequence db = swr::test::random_dna(32, 2);
  ArrayController<ScorePe> ctl(8, 16, align::Scoring::paper_default(), 1 << 20, false);
  std::size_t max_active = 0;
  ctl.set_observer([&](const SystolicArray<ScorePe>& arr, std::uint64_t) {
    std::size_t active = 0;
    for (std::size_t j = 0; j < arr.size(); ++j) {
      if (arr.pe(j).out().valid) ++active;
    }
    max_active = std::max(max_active, active);
  });
  (void)ctl.run(query, db);
  EXPECT_EQ(max_active, 8u);
}

TEST(SystolicSchedule, TotalValidEmissionsEqualCellCount) {
  const seq::Sequence query = swr::test::random_dna(6, 3);
  const seq::Sequence db = swr::test::random_dna(17, 4);
  ArrayController<ScorePe> ctl(6, 16, align::Scoring::paper_default(), 1 << 20, false);
  std::uint64_t emissions = 0;
  ctl.set_observer([&](const SystolicArray<ScorePe>& arr, std::uint64_t) {
    for (std::size_t j = 0; j < arr.size(); ++j) {
      if (arr.pe(j).out().valid) ++emissions;
    }
  });
  (void)ctl.run(query, db);
  EXPECT_EQ(emissions, static_cast<std::uint64_t>(query.size()) * db.size());
}

// Observable per-PE architectural state, for the active-set probe below.
struct PeState {
  align::Score score;
  seq::Code base;
  bool valid;
  align::Score bs;
  std::uint64_t bc, cl;
  friend bool operator==(const PeState&, const PeState&) = default;
};

TEST(SystolicSchedule, ActiveSetCoversEveryObservableStateChange) {
  // Generalisation of the old fixed-vs-shuffled order test: under the
  // event scheduler, any PE whose architectural state (output link,
  // Bs/Bc/Cl registers) changes across a clock edge must have been in
  // that edge's active set — evaluation may be SKIPPED only where state
  // provably holds. Probed over a full single-pass job so idle load,
  // compute, drain-load and drain-shift phases are all covered (the
  // inter-pass reset is a reset line, not a clock edge; multi-pass
  // equivalence is pinned by the SchedParity lockstep suite).
  const seq::Sequence query = swr::test::random_dna(7, 7);
  const seq::Sequence db = swr::test::random_dna(23, 8);
  ArrayController<ScorePe> ctl(8, 16, align::Scoring::paper_default(), 1 << 20, true,
                               hw::SchedMode::Event);

  const auto snap = [](const ScorePe& pe) {
    return PeState{pe.out().score, pe.out().base, pe.out().valid,
                   pe.reg_bs(),    pe.reg_bc(),   pe.reg_cl()};
  };

  std::vector<PeState> prev(8);
  bool have_prev = false;
  std::uint64_t changes = 0;
  ctl.set_observer([&](const SystolicArray<ScorePe>& arr, std::uint64_t cycle) {
    for (std::size_t j = 0; j < arr.size(); ++j) {
      const PeState now = snap(arr.pe(j));
      if (have_prev && !(now == prev[j])) {
        EXPECT_TRUE(arr.evaluated_last_cycle(j))
            << "pe " << j << " changed without evaluating at cycle " << cycle;
        ++changes;
      }
      prev[j] = now;
    }
    have_prev = true;
  });
  (void)ctl.run(query, db);
  EXPECT_GT(changes, 0u);  // the probe saw real activity
}

TEST(SystolicSchedule, EventSchedulerSkipsIdlePes) {
  // The flip side: on a short stream most PEs never wake up, and the
  // evaluation count must reflect that (the whole point of the event
  // scheduler). Dense charges N per clock by definition.
  const seq::Sequence query = swr::test::random_dna(32, 9);
  const seq::Sequence db = swr::test::random_dna(4, 10);
  ArrayController<ScorePe> ev(32, 16, align::Scoring::paper_default(), 1 << 20, false,
                              hw::SchedMode::Event);
  ArrayController<ScorePe> dn(32, 16, align::Scoring::paper_default(), 1 << 20, false,
                              hw::SchedMode::Dense);
  EXPECT_EQ(ev.run(query, db), dn.run(query, db));
  EXPECT_EQ(ev.run_stats().total_cycles, dn.run_stats().total_cycles);
  EXPECT_EQ(dn.array().evaluations(),
            32u * dn.run_stats().total_cycles);  // dense: N per clock
  EXPECT_LT(ev.array().evaluations(), dn.array().evaluations() / 2);
}

TEST(SystolicSchedule, BaseStreamPropagatesUnchanged) {
  // The database base must arrive at PE j exactly j cycles after PE 0,
  // unmodified (figure 4's flowing sequence).
  const seq::Sequence query = swr::test::random_dna(4, 5);
  const seq::Sequence db = swr::test::random_dna(10, 6);
  ArrayController<ScorePe> ctl(4, 16, align::Scoring::paper_default(), 1 << 20, false);
  std::map<std::size_t, std::vector<seq::Code>> seen;  // pe -> bases in order
  ctl.set_observer([&](const SystolicArray<ScorePe>& arr, std::uint64_t) {
    for (std::size_t j = 0; j < arr.size(); ++j) {
      if (arr.pe(j).out().valid) seen[j].push_back(arr.pe(j).out().base);
    }
  });
  (void)ctl.run(query, db);
  for (std::size_t j = 0; j < 4; ++j) {
    ASSERT_EQ(seen[j].size(), db.size()) << "pe " << j;
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(seen[j][i], db[i]) << "pe " << j << " pos " << i;
    }
  }
}

}  // namespace
