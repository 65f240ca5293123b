// Golden per-cycle digest of the systolic array. Randomly drawn jobs run
// under both schedulers, and every post-edge probe (each PE's out link,
// Bs, Bc and Cl, plus drain_out) is hashed together with the results,
// RunStats and evaluations(). The expected digests are inline: a change to
// the array's clocking that moves any observable value, including a
// saturation count, fails here. The draws cover 6- and 16-bit scores with
// planted copies (so saturation fires), 1-40 PEs, single and multi-pass
// runs, with and without the query-load charge, packed batches, protein
// scoring and the affine PE. Inputs come from raw mt19937_64 output (no
// std:: distributions), so they are the same on every standard library.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <random>
#include <span>
#include <sstream>
#include <type_traits>
#include <vector>

#include "core/controller.hpp"
#include "hw/sched.hpp"

namespace {

using namespace swr;
using namespace swr::core;

// Captured from the two-phase register model; a deliberate change to what
// the array can observe pastes the printed values.
constexpr std::uint64_t kGoldenDense = 0x943aa21bd4ed608cULL;
constexpr std::uint64_t kGoldenEvent = 0x8d75737aec4e9aa3ULL;

// FNV-1a over fixed-width (8-byte little-endian) values.
class Fnv1a {
 public:
  template <typename T>
  void add(T v) noexcept {
    auto u = static_cast<std::uint64_t>(v);
    for (int k = 0; k < 8; ++k, u >>= 8) {
      h_ ^= u & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Job {
  bool affine = false;
  bool packed = false;
  bool protein = false;
  unsigned bits = 16;
  bool charge_load = false;
  std::size_t npes = 1;
  std::vector<seq::Sequence> queries;  // one unless packed
  seq::Sequence db;
};

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  bool coin() { return below(2) == 1; }
  std::vector<seq::Code> codes(std::size_t n, unsigned alphabet) {
    std::vector<seq::Code> c(n);
    for (seq::Code& x : c) x = static_cast<seq::Code>(below(alphabet));
    return c;
  }

 private:
  std::mt19937_64 rng_;
};

Job draw_job(Draw& d) {
  Job job;
  job.affine = d.below(4) == 0;
  job.packed = !job.affine && d.below(4) == 0;
  job.protein = d.below(4) == 0;
  job.bits = d.coin() ? 16 : 6;
  job.charge_load = d.coin();
  job.npes = 1 + d.below(40);
  const seq::Alphabet& ab = job.protein ? seq::protein() : seq::dna();
  const auto letters = static_cast<unsigned>(ab.size());
  if (job.packed) {
    const std::size_t count = 1 + d.below(3);
    std::size_t cols = count - 1;  // barriers
    for (std::size_t k = 0; k < count; ++k) {
      job.queries.emplace_back(ab, d.codes(1 + d.below(12), letters));
      cols += job.queries.back().size();
    }
    if (job.npes < cols) job.npes = cols;
  } else {
    job.queries.emplace_back(ab, d.codes(1 + d.below(60), letters));
  }
  std::vector<seq::Code> db = d.codes(1 + d.below(80), letters);
  if (d.coin()) {  // a planted copy scores past a 6-bit register's 31
    const std::span<const seq::Code> q = job.queries.front().codes();
    db.insert(db.begin() + static_cast<std::ptrdiff_t>(d.below(db.size() + 1)), q.begin(),
              q.end());
  }
  job.db = seq::Sequence(ab, std::move(db));
  return job;
}

void add_result(Fnv1a& h, const align::LocalScoreResult& r) {
  h.add(r.score);
  h.add(r.end.i);
  h.add(r.end.j);
}

void add_stats(Fnv1a& h, const RunStats& s) {
  h.add(s.total_cycles);
  h.add(s.compute_cycles);
  h.add(s.drain_cycles);
  h.add(s.load_cycles);
  h.add(s.passes);
  h.add(s.cell_updates);
  h.add(s.pe_slots);
  h.add(s.saturations);
  h.add(s.sram_peak_bytes);
}

template <typename Pe, typename Scoring>
void run_job(Fnv1a& h, const Job& job, const Scoring& sc, hw::SchedMode sched,
             std::uint64_t& saturations) {
  ArrayController<Pe> ctl(job.npes, job.bits, sc, 1 << 20, job.charge_load, sched);
  ctl.set_observer([&h](const SystolicArray<Pe>& arr, std::uint64_t cycle) {
    h.add(cycle);
    for (std::size_t j = 0; j < arr.size(); ++j) {
      const Pe& pe = arr.pe(j);
      h.add(pe.out().base);
      h.add(pe.out().score);
      h.add(pe.out().escore);
      h.add(pe.out().valid);
      h.add(pe.reg_bs());
      h.add(pe.reg_bc());
      if constexpr (std::is_same_v<Pe, ScorePe>) h.add(pe.reg_cl());
    }
    h.add(arr.drain_out().bs);
    h.add(arr.drain_out().bc);
  });
  if constexpr (std::is_same_v<Pe, ScorePe>) {
    if (job.packed) {
      for (const align::LocalScoreResult& r : ctl.run_batch(job.queries, job.db)) {
        add_result(h, r);
      }
    } else {
      add_result(h, ctl.run(job.queries.front(), job.db));
    }
  } else {
    add_result(h, ctl.run(job.queries.front(), job.db));
  }
  add_stats(h, ctl.run_stats());
  h.add(ctl.array().evaluations());
  saturations += ctl.run_stats().saturations;
}

void run_job(Fnv1a& h, const Job& job, hw::SchedMode sched, std::uint64_t& saturations) {
  if (job.affine) {
    align::AffineScoring sc;
    if (job.protein) {
      sc.matrix = &align::blosum62();
      sc.gap_open = -10;
    }
    run_job<AffinePe>(h, job, sc, sched, saturations);
  } else {
    align::Scoring sc = align::Scoring::paper_default();
    if (job.protein) {
      sc.matrix = &align::blosum62();
      sc.gap = -8;
    }
    run_job<ScorePe>(h, job, sc, sched, saturations);
  }
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << "0x" << std::hex << v << "ULL";
  return s.str();
}

TEST(SchedParity, GoldenCycleDigest) {
  Draw d(20070326);
  Fnv1a dense;
  Fnv1a event;
  std::uint64_t dense_sats = 0;
  std::uint64_t event_sats = 0;
  for (int k = 0; k < 300; ++k) {
    const Job job = draw_job(d);
    run_job(dense, job, hw::SchedMode::Dense, dense_sats);
    run_job(event, job, hw::SchedMode::Event, event_sats);
  }
  EXPECT_GT(dense_sats, 0u);  // the narrow registers did saturate
  EXPECT_EQ(dense_sats, event_sats);
  EXPECT_EQ(dense.value(), kGoldenDense)
      << "constexpr std::uint64_t kGoldenDense = " << hex(dense.value()) << ";";
  EXPECT_EQ(event.value(), kGoldenEvent)
      << "constexpr std::uint64_t kGoldenEvent = " << hex(event.value()) << ";";
}

}  // namespace
