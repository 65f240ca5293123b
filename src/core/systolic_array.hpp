// The systolic array (paper figure 5): a chain of PEs plus the array-level
// mode and input registers. Templated over the PE type so the linear-gap
// design (ScorePe) and the affine extension (AffinePe) share one chassis.
//
// Two scheduling policies drive the chain (hw::SchedMode):
//
//   dense — the textbook two-phase stepper over reference ScorePe/AffinePe
//   objects: every PE stages every hw::Reg and commits it, every clock.
//   O(N) per cycle regardless of activity. It is the parity oracle, kept
//   naive on purpose: it shares nothing with the event chain but the cell
//   recurrence (Pe::cell), so the schedule tests compare two independent
//   clockings cycle by cycle.
//
//   event — the chain's registers as a flat register file: one array per
//   register (A, B, F, Cl, Bs, Bc, each field of the out link, the drain
//   slot), PE j at index j (its out link at j+1, behind the input wires).
//   A compute stream entering an N-element array only ever keeps a
//   contiguous wavefront of PEs busy: at stream cycle t the valid strobes
//   live in [max(0, t-|db|), min(t, N)), so that span (plus one element
//   to absorb the advancing edge) is all that is clocked. The clock edge
//   updates the span in place, right to left: PE j reads PE j-1's output
//   before j-1 is overwritten, so every PE sees its left neighbour's
//   pre-edge value exactly as the two-phase edge shows it, and its own
//   registers are read before it writes them. The result drain
//   is virtual: DrainLoad latches every column's (Bs, Bc) into its drain
//   slot, and each DrainShift clocks only the rightmost PE, fed the slot
//   the real chain would deliver straight from the Bs/Bc arrays (which
//   hold during a drain) — O(1) per drain cycle instead of O(N).
//
// Event mode is bit-identical to dense on every architectural observation
// point (PE outputs, Bs/Bc/Cl registers, drain_out, cycle and saturation
// counts — the signals the VCD tracer and the schedule tests probe). It
// rests on one invariant: a PE outside the clocked span has an invalid
// input and an invalid output, so the two-phase edge would leave all of
// its registers as they are. The one deliberate non-architectural
// divergence: during a drain, inner PEs' drain_slot() registers go stale
// (the chain is virtualised); only drain_out() — the port the controller
// samples — is maintained.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/pe.hpp"
#include "hw/satarith.hpp"
#include "hw/sched.hpp"

namespace swr::core {

namespace detail {
template <typename Pe>
struct PeTraits;

template <>
struct PeTraits<ScorePe> {
  using Scoring = align::Scoring;
  using Context = PeContext;
};

template <>
struct PeTraits<AffinePe> {
  using Scoring = align::AffineScoring;
  using Context = AffinePeContext;
};
}  // namespace detail

/// A chain of `n` PEs with a registered input link and a registered
/// array-wide mode. Every PE reads only pre-edge neighbour state, so the
/// chain behaves as if all PEs were clocked at once.
template <typename Pe>
class SystolicArray final {
 public:
  using Scoring = typename detail::PeTraits<Pe>::Scoring;
  using Context = typename detail::PeTraits<Pe>::Context;

  SystolicArray(std::size_t n, unsigned score_bits, Scoring scoring,
                hw::SchedMode sched = hw::default_sched_mode())
      : n_(n), sat_(score_bits), scoring_(scoring), sched_(sched) {
    if (n == 0) throw std::invalid_argument("SystolicArray: zero PEs");
    scoring_.validate();
    if (sched_ == hw::SchedMode::Dense) {
      pes_.resize(n);
    } else {
      regs_.resize(n);
    }
  }

  // One physical chain: the tracer's probes bind to it by address.
  SystolicArray(const SystolicArray&) = delete;
  SystolicArray& operator=(const SystolicArray&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] hw::SchedMode sched_mode() const noexcept { return sched_; }

  /// Loads a query chunk into the SP registers. Elements beyond the chunk
  /// are marked inactive (figure-7 padding). @throws std::invalid_argument
  /// if the chunk exceeds the array.
  void load_query(std::span<const seq::Code> chunk) {
    if (chunk.size() > n_) {
      throw std::invalid_argument("SystolicArray::load_query: chunk longer than array");
    }
    for (std::size_t j = 0; j < n_; ++j) {
      const bool active = j < chunk.size();
      load_column(j, active ? chunk[j] : seq::Code{0}, active, false);
    }
  }

  /// Query packing (ScorePe only): loads several queries separated by
  /// barrier columns, so one database pass serves them all. Total columns
  /// needed: sum of lengths + one barrier between consecutive queries.
  /// Returns the starting PE index of each query.
  /// @throws std::invalid_argument if the packing exceeds the array.
  std::vector<std::size_t> load_packed(const std::vector<std::span<const seq::Code>>& queries) {
    static_assert(std::is_same_v<Pe, ScorePe>,
                  "query packing requires the linear-gap ScorePe (barrier columns do not "
                  "isolate the affine E layer)");
    std::size_t need = queries.empty() ? 0 : queries.size() - 1;  // barriers
    for (const auto& q : queries) need += q.size();
    if (need > n_) {
      throw std::invalid_argument("SystolicArray::load_packed: queries do not fit the array");
    }
    std::vector<std::size_t> starts;
    starts.reserve(queries.size());
    std::size_t j = 0;
    for (std::size_t k = 0; k < queries.size(); ++k) {
      if (k > 0) load_column(j++, 0, false, true);
      starts.push_back(j);
      for (const seq::Code c : queries[k]) load_column(j++, c, true, false);
    }
    for (; j < n_; ++j) load_column(j, 0, false, false);
    return starts;
  }

  /// Drives the input wires for the current cycle (testbench style: set
  /// before the clock edge, latched by PE 0 at clock()).
  void drive_input(const PeLink& link) noexcept { in_ = link; }

  /// Drives the array mode wires for the current cycle (controller FSM
  /// output, combinationally visible to all PEs).
  void set_mode(ArrayMode mode) noexcept { mode_ = mode; }

  /// One clock edge with the input and mode wires as driven. Dense
  /// evaluates every reference PE against pre-edge state, then commits
  /// them all; event picks the span that can change (see the file comment)
  /// and clocks it in place, right to left.
  void clock() {
    if (sched_ == hw::SchedMode::Dense) {
      // PE 0 reads the input wires; PE j>0 reads PE j-1's registered
      // output. All register reads are pre-edge values.
      const Context ctx{sat_, scoring_};
      eval_lo_ = 0;
      eval_hi_ = n_;
      eval_head_ = false;
      evaluations_ += n_;
      pes_[0].evaluate(mode_, in_, kEmptySlot, ctx);
      for (std::size_t j = 1; j < n_; ++j) {
        pes_[j].evaluate(mode_, pes_[j - 1].out(), pes_[j - 1].drain_slot(), ctx);
      }
      for (Pe& pe : pes_) pe.commit();
      return;
    }

    // Event. act_[lo,hi) is the maintained invariant "every PE outside
    // this span has out().valid == false" — at the edge those PEs keep
    // every register, so skipping them is exact.
    Registers& r = regs_;
    eval_lo_ = eval_hi_ = 0;
    eval_head_ = false;
    switch (mode_) {
      case ArrayMode::Idle:
        // Only valid strobes need clearing; everything else holds.
        eval_lo_ = act_lo_;
        eval_hi_ = act_hi_;
        for (std::size_t j = eval_lo_; j < eval_hi_; ++j) r.valid[j + 1] = 0;
        act_lo_ = act_hi_ = 0;
        break;
      case ArrayMode::Compute: {
        if (act_lo_ < act_hi_) {
          // The span itself plus the PE the leading edge advances into.
          eval_lo_ = act_lo_;
          eval_hi_ = act_hi_ < n_ ? act_hi_ + 1 : n_;
        }
        // PE 0 consumes the input wires; cover it when the span does not.
        eval_head_ = in_.valid && (eval_lo_ > 0 || eval_lo_ >= eval_hi_);
        r.base[0] = in_.base;
        r.score[0] = in_.score;
        if constexpr (kAffine) r.escore[0] = in_.escore;
        r.valid[0] = in_.valid ? 1 : 0;
        clock_span(eval_lo_, eval_hi_);
        if (eval_head_) clock_span(0, 1);
        // Retighten the valid span: the strobes moved one PE right.
        std::size_t lo = eval_lo_;
        std::size_t hi = eval_hi_;
        while (lo < hi && r.valid[lo + 1] == 0) ++lo;
        while (hi > lo && r.valid[hi] == 0) --hi;
        if (eval_head_ && r.valid[1] != 0) {
          if (lo == hi) hi = 1;
          lo = 0;
        }
        act_lo_ = lo < hi ? lo : 0;
        act_hi_ = lo < hi ? hi : 0;
        break;
      }
      case ArrayMode::DrainLoad:
        // Every column latches (Bs, Bc) — inherently O(N), once per pass.
        eval_lo_ = 0;
        eval_hi_ = n_;
        for (std::size_t j = 0; j < n_; ++j) {
          r.drain[j] = DrainSlot{r.bs[j], r.bc[j]};
          r.valid[j + 1] = 0;
        }
        act_lo_ = act_hi_ = 0;
        drain_shifts_ = 0;
        break;
      case ArrayMode::DrainShift: {
        // Virtual shift: only the rightmost PE is clocked. It takes the
        // slot the real chain would deliver: column N-1-k's (Bs, Bc) after
        // k shifts, empty once the chain has fully run out (PE 0 shifts
        // empties in).
        eval_lo_ = n_ - 1;
        eval_hi_ = n_;
        const std::size_t k = ++drain_shifts_;
        r.drain[n_ - 1] = k < n_ ? DrainSlot{r.bs[n_ - 1 - k], r.bc[n_ - 1 - k]} : kEmptySlot;
        r.valid[n_] = 0;
        break;
      }
    }
    evaluations_ += eval_hi_ - eval_lo_ + (eval_head_ ? 1 : 0);
  }

  /// Per-pass reset of PE state without losing the loaded query: the wires
  /// and every register but SP, active and barrier.
  void reset() noexcept {
    in_ = PeLink{};
    mode_ = ArrayMode::Idle;
    if (sched_ == hw::SchedMode::Dense) {
      for (Pe& pe : pes_) pe.reset();
    } else {
      regs_.reset();
    }
    act_lo_ = act_hi_ = 0;
    eval_lo_ = eval_hi_ = 0;
    eval_head_ = false;
    drain_shifts_ = 0;
  }

  /// Output of the last PE: the boundary-column stream (figure 7).
  [[nodiscard]] PeLink boundary_out() const noexcept {
    return sched_ == hw::SchedMode::Dense ? pes_.back().out() : regs_.link(n_);
  }
  /// Drain chain output (valid during drain, one result per cycle).
  [[nodiscard]] const DrainSlot& drain_out() const noexcept {
    return sched_ == hw::SchedMode::Dense ? pes_.back().drain_slot() : regs_.drain[n_ - 1];
  }

  /// PE `j` with its post-edge registers: a copy of the reference PE under
  /// dense, a snapshot of the register arrays under event.
  /// @throws std::out_of_range if j >= size().
  [[nodiscard]] Pe pe(std::size_t j) const {
    if (sched_ == hw::SchedMode::Dense) return pes_.at(j);
    if (j >= n_) throw std::out_of_range("SystolicArray::pe: no such PE");
    const Registers& r = regs_;
    Pe pe;
    pe.sp_ = r.sp[j];
    pe.active_ = r.active[j] != 0;
    if constexpr (kAffine) {
      latch(pe.f_, r.f[j]);
    } else {
      pe.barrier_ = r.barrier[j] != 0;
    }
    latch(pe.a_, r.a[j]);
    latch(pe.b_, r.b[j]);
    latch(pe.cl_, r.cl[j]);
    latch(pe.bs_, r.bs[j]);
    latch(pe.bc_, r.bc[j]);
    latch(pe.out_, r.link(j + 1));
    latch(pe.drain_, r.drain[j]);
    return pe;
  }

  [[nodiscard]] const hw::SatArith& sat() const noexcept { return sat_; }
  [[nodiscard]] const Scoring& scoring() const noexcept { return scoring_; }

  /// Cumulative PE evaluations since construction — the work the scheduler
  /// actually did. Dense charges N per clock; event charges the clocked
  /// span, plus PE 0 when it is clocked on its own. The speedup benches and
  /// the activity tests read this.
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }

  /// Whether PE `j` was clocked by the most recent clock() — the
  /// active-set membership probe for the schedule tests.
  [[nodiscard]] bool evaluated_last_cycle(std::size_t j) const noexcept {
    return (eval_head_ && j == 0) || (j >= eval_lo_ && j < eval_hi_);
  }

 private:
  static constexpr bool kAffine = std::is_same_v<Pe, AffinePe>;
  static constexpr DrainSlot kEmptySlot{};

  // The event chain's register file, one array per register, PE j at [j].
  // The link arrays have N+1 slots: slot 0 carries the input wires, slot
  // j+1 PE j's registered output, so PE j reads slot j and writes j+1.
  struct Registers {
    std::vector<seq::Code> sp;
    std::vector<std::uint8_t> active, barrier;  // barrier: ScorePe only
    std::vector<align::Score> a, b, f, bs;      // f: AffinePe only
    std::vector<std::uint64_t> cl, bc;
    std::vector<DrainSlot> drain;
    std::vector<seq::Code> base;              // the link, N+1 slots
    std::vector<align::Score> score, escore;  // escore: AffinePe only
    std::vector<std::uint8_t> valid;

    void resize(std::size_t n) {
      sp.resize(n);
      active.resize(n);
      barrier.resize(n);
      a.resize(n);
      b.resize(n);
      f.resize(n);
      bs.resize(n);
      cl.resize(n);
      bc.resize(n);
      drain.resize(n);
      base.resize(n + 1);
      score.resize(n + 1);
      escore.resize(n + 1);
      valid.resize(n + 1);
      reset();
    }

    /// The per-pass reset values (SP, active and barrier survive).
    void reset() {
      std::fill(a.begin(), a.end(), 0);
      std::fill(b.begin(), b.end(), 0);
      std::fill(f.begin(), f.end(), align::kNegInf);
      std::fill(cl.begin(), cl.end(), 0);
      std::fill(bc.begin(), bc.end(), 0);
      std::fill(bs.begin(), bs.end(), 0);
      std::fill(base.begin(), base.end(), seq::Code{0});
      std::fill(score.begin(), score.end(), 0);
      std::fill(escore.begin(), escore.end(), 0);
      std::fill(valid.begin(), valid.end(), std::uint8_t{0});
      std::fill(drain.begin(), drain.end(), DrainSlot{});
    }

    [[nodiscard]] PeLink link(std::size_t slot) const noexcept {
      return PeLink{base[slot], score[slot], kAffine ? escore[slot] : 0, valid[slot] != 0};
    }
  };

  template <typename T>
  static void latch(hw::Reg<T>& reg, const T& value) noexcept {
    reg.set_next(value);
    reg.commit();
  }

  void load_column(std::size_t j, seq::Code sp, bool active, bool barrier) {
    if (sched_ == hw::SchedMode::Dense) {
      if constexpr (!kAffine) {
        if (barrier) {
          pes_[j].load_barrier();
          return;
        }
      }
      pes_[j].load_query_base(sp, active);
      return;
    }
    regs_.sp[j] = sp;
    regs_.active[j] = active ? 1 : 0;
    if constexpr (!kAffine) regs_.barrier[j] = barrier ? 1 : 0;
  }

  // One Compute edge for PEs [lo, hi), in place and right to left (see the
  // file comment). The array bases live in local restrict pointers, so a
  // store through a byte array does not force every other base to be
  // reloaded; saturations are counted in a local copy of the adder and
  // added to the array's once per call.
  void clock_span(std::size_t lo, std::size_t hi) {
    Registers& r = regs_;
    hw::SatArith sat = sat_;
    sat.reset_saturation_count();
    const Scoring sc = scoring_;
    const seq::Code* __restrict sp = r.sp.data();
    const std::uint8_t* __restrict barrier = r.barrier.data();
    align::Score* __restrict a = r.a.data();
    align::Score* __restrict b = r.b.data();
    align::Score* __restrict f = r.f.data();
    std::uint64_t* __restrict cl = r.cl.data();
    std::uint64_t* __restrict bc = r.bc.data();
    align::Score* __restrict bs = r.bs.data();
    seq::Code* __restrict base = r.base.data();
    align::Score* __restrict score = r.score.data();
    align::Score* __restrict escore = r.escore.data();
    std::uint8_t* __restrict valid = r.valid.data();
    for (std::size_t j = hi; j-- > lo;) {
      if (valid[j] == 0) {
        valid[j + 1] = 0;
        continue;
      }
      const seq::Code sb = base[j];
      const align::Score c = score[j];
      const std::uint64_t row = cl[j] + 1;  // 1-based row of this cell
      cl[j] = row;
      align::Score h = 0;
      if constexpr (kAffine) {
        const AffinePe::Cell cell =
            AffinePe::cell(a[j], b[j], f[j], c, escore[j], sc.substitution(sp[j], sb), sc, sat);
        h = cell.h;
        f[j] = cell.f;
        escore[j + 1] = cell.e;
      } else if (barrier[j] != 0) {
        // Forced-zero column: forwards the stream, zero borders both ways.
        a[j] = c;
        base[j + 1] = sb;
        score[j + 1] = 0;
        valid[j + 1] = 1;
        continue;
      } else {
        h = ScorePe::cell(a[j], b[j], c, sc.substitution(sp[j], sb), sc.gap, sat);
      }
      a[j] = c;
      b[j] = h;
      if (h > bs[j]) {
        bs[j] = h;
        bc[j] = row;
      }
      base[j + 1] = sb;
      score[j + 1] = h;
      valid[j + 1] = 1;
    }
    sat_.add_saturations(sat.saturation_count());
  }

  std::size_t n_;
  hw::SatArith sat_;
  Scoring scoring_;
  hw::SchedMode sched_;
  std::vector<Pe> pes_;  ///< dense: the reference PEs
  Registers regs_;       ///< event: the register file
  PeLink in_{};
  ArrayMode mode_ = ArrayMode::Idle;

  // Event-scheduler bookkeeping (never consulted in dense mode).
  std::size_t act_lo_ = 0, act_hi_ = 0;    ///< valid-strobe span invariant
  std::size_t eval_lo_ = 0, eval_hi_ = 0;  ///< span clocked this cycle
  bool eval_head_ = false;                 ///< PE 0 clocked separately
  std::size_t drain_shifts_ = 0;           ///< virtual shift cursor
  std::uint64_t evaluations_ = 0;
};

}  // namespace swr::core
