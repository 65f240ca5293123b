// Processing elements — the figure-6 datapath.
//
// Each PE owns one column of the similarity matrix. Per compute cycle it
// receives, from its left neighbour, the database base SB and the
// freshly-computed left-cell score C, and produces
//
//   D = max(0, A + (SP==SB ? Co : Su), max(B, C) + In/Re)
//
// where A (diagonal) and B (upper) are registers. The two fields that are
// the paper's contribution ride along: Bs, the best score this column has
// seen, and Bc, the value of the row counter Cl when Bs was last improved —
// enough to recover the *row* of the best cell after the fact; the column
// is the PE's position.
//
// All score arithmetic is funnelled through a fixed-width SatArith so the
// model saturates exactly like a synthesized datapath of that width.
#pragma once

#include <algorithm>
#include <cstdint>

#include "align/result.hpp"
#include "align/scoring.hpp"
#include "hw/reg.hpp"
#include "hw/satarith.hpp"
#include "seq/alphabet.hpp"

namespace swr::core {

/// The wire bundle between neighbouring PEs (and into PE 0).
struct PeLink {
  seq::Code base = 0;        ///< database base SB, travelling right
  align::Score score = 0;    ///< C: left neighbour's cell of the same row
  align::Score escore = 0;   ///< affine only: E layer value of the left cell
  bool valid = false;        ///< compute strobe (bubbles allowed)

  friend bool operator==(const PeLink&, const PeLink&) = default;
};

/// Array-wide control driven by the controller ("right part of the
/// circuit", figure 9).
enum class ArrayMode : std::uint8_t {
  Idle,        ///< hold all state
  Compute,     ///< stream: consume the input link
  DrainLoad,   ///< latch (Bs, Bc) into the result shift chain
  DrainShift,  ///< shift the result chain one PE to the right
};

/// Read-only per-cycle context shared by all PEs of an array.
struct PeContext {
  const hw::SatArith& sat;
  const align::Scoring& scoring;
};

struct AffinePeContext {
  const hw::SatArith& sat;
  const align::AffineScoring& scoring;
};

/// One entry of the result drain chain.
struct DrainSlot {
  align::Score bs = 0;
  std::uint64_t bc = 0;
};

/// Linear-gap PE (the paper's design).
class ScorePe {
 public:
  /// Loads the resident query base (SP register). Loading happens between
  /// passes; cycle cost is charged by the controller.
  void load_query_base(seq::Code sp, bool active) noexcept {
    sp_ = sp;
    active_ = active;
    barrier_ = false;
  }

  /// Configures this PE as a barrier column (query packing): its cell is
  /// forced to zero every cycle, which makes the columns left and right of
  /// it behave exactly like independent matrices — zero borders are what
  /// Smith-Waterman restarts on. Barrier PEs never record a best.
  void load_barrier() noexcept {
    sp_ = 0;
    active_ = false;
    barrier_ = true;
  }

  /// True when this PE holds a live query column this pass (pad PEs of a
  /// final partial chunk are inactive and masked out of the drain fold).
  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] bool barrier() const noexcept { return barrier_; }

  /// The figure-6 cell: D = max(0, A + s(SP,SB), max(B, C) + gap), every
  /// add through the datapath's saturating adder. The one copy of the
  /// recurrence: evaluate() and the array's in-place chain both call it.
  [[nodiscard]] static align::Score cell(align::Score a, align::Score b, align::Score c,
                                         align::Score sub, align::Score gap,
                                         const hw::SatArith& sat) noexcept {
    const align::Score diag = sat.add(a, sub);
    const align::Score gapped = sat.add(c > b ? c : b, gap);
    const align::Score d = diag > gapped ? diag : gapped;
    return d < 0 ? 0 : d;
  }

  /// Combinational phase.
  void evaluate(ArrayMode mode, const PeLink& in, const DrainSlot& drain_in,
                const PeContext& ctx) noexcept {
    // Default: hold everything.
    a_.set_next(a_.get());
    b_.set_next(b_.get());
    cl_.set_next(cl_.get());
    bs_.set_next(bs_.get());
    bc_.set_next(bc_.get());
    drain_.set_next(drain_.get());
    PeLink out = out_.get();
    out.valid = false;
    out_.set_next(out);

    switch (mode) {
      case ArrayMode::Idle:
        break;
      case ArrayMode::Compute: {
        if (!in.valid) break;
        if (barrier_) {
          // Forced-zero column: forwards the stream, contributes zero
          // borders to both neighbouring submatrices.
          a_.set_next(in.score);
          cl_.set_next(cl_.get() + 1);
          out_.set_next(PeLink{in.base, 0, 0, true});
          break;
        }
        const align::Score d = cell(a_.get(), b_.get(), in.score,
                                    ctx.scoring.substitution(sp_, in.base), ctx.scoring.gap,
                                    ctx.sat);
        a_.set_next(in.score);
        b_.set_next(d);
        const std::uint64_t row = cl_.get() + 1;  // 1-based row of this cell
        cl_.set_next(row);
        if (d > bs_.get()) {
          bs_.set_next(d);
          bc_.set_next(row);
        }
        out_.set_next(PeLink{in.base, d, 0, true});
        break;
      }
      case ArrayMode::DrainLoad:
        drain_.set_next(DrainSlot{bs_.get(), bc_.get()});
        break;
      case ArrayMode::DrainShift:
        drain_.set_next(drain_in);
        break;
    }
  }

  /// Clock edge.
  void commit() noexcept {
    a_.commit();
    b_.commit();
    cl_.commit();
    bs_.commit();
    bc_.commit();
    out_.commit();
    drain_.commit();
  }

  /// Per-pass reset (A, B, Cl, Bs, Bc back to zero; SP survives until the
  /// next load).
  void reset() noexcept {
    a_.reset();
    b_.reset();
    cl_.reset();
    bs_.reset();
    bc_.reset();
    out_.reset();
    drain_.reset();
  }

  // Observation points for traces and unit tests.
  [[nodiscard]] const PeLink& out() const noexcept { return out_.get(); }
  [[nodiscard]] const DrainSlot& drain_slot() const noexcept { return drain_.get(); }
  [[nodiscard]] align::Score reg_a() const noexcept { return a_.get(); }
  [[nodiscard]] align::Score reg_b() const noexcept { return b_.get(); }
  [[nodiscard]] align::Score reg_bs() const noexcept { return bs_.get(); }
  [[nodiscard]] std::uint64_t reg_bc() const noexcept { return bc_.get(); }
  [[nodiscard]] std::uint64_t reg_cl() const noexcept { return cl_.get(); }

 private:
  template <typename>
  friend class SystolicArray;  // builds pe(j) snapshots of its register arrays

  seq::Code sp_ = 0;
  bool active_ = false;
  bool barrier_ = false;
  hw::Reg<align::Score> a_{0};
  hw::Reg<align::Score> b_{0};
  hw::Reg<std::uint64_t> cl_{0};
  hw::Reg<align::Score> bs_{0};
  hw::Reg<std::uint64_t> bc_{0};
  hw::Reg<PeLink> out_{};
  hw::Reg<DrainSlot> drain_{};
};

/// Affine-gap PE: the [2]/[32] gap model grafted onto the same
/// coordinate-tracking skeleton. Three-layer recurrence (H/E/F): E (gap in
/// the database direction) travels on the link with H; F (gap in the query
/// direction) is a per-PE register.
class AffinePe {
 public:
  void load_query_base(seq::Code sp, bool active) noexcept {
    sp_ = sp;
    active_ = active;
  }
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// H and the two gap layers of one cell.
  struct Cell {
    align::Score h, e, f;
  };

  /// The three-layer cell from the diagonal A, the upper B and F, and the
  /// left cell's H (C) and E, every add through the saturating adder. The
  /// one copy of the recurrence: evaluate() and the array's in-place chain
  /// both call it.
  [[nodiscard]] static Cell cell(align::Score a, align::Score b, align::Score f, align::Score c,
                                 align::Score ce, align::Score sub,
                                 const align::AffineScoring& sc,
                                 const hw::SatArith& sat) noexcept {
    const align::Score open_ext = sc.gap_open + sc.gap_extend;
    // E(i,j): continue the left gap or open from the left H.
    const align::Score e = std::max(sat.add(ce, sc.gap_extend), sat.add(c, open_ext));
    // F(i,j): continue the upper gap or open from the upper H.
    const align::Score fn = std::max(sat.add(f, sc.gap_extend), sat.add(b, open_ext));
    const align::Score diag = sat.add(a, sub);
    align::Score h = diag > e ? diag : e;
    if (fn > h) h = fn;
    return {h < 0 ? 0 : h, e, fn};
  }

  void evaluate(ArrayMode mode, const PeLink& in, const DrainSlot& drain_in,
                const AffinePeContext& ctx) noexcept {
    a_.set_next(a_.get());
    b_.set_next(b_.get());
    f_.set_next(f_.get());
    cl_.set_next(cl_.get());
    bs_.set_next(bs_.get());
    bc_.set_next(bc_.get());
    drain_.set_next(drain_.get());
    PeLink out = out_.get();
    out.valid = false;
    out_.set_next(out);

    switch (mode) {
      case ArrayMode::Idle:
        break;
      case ArrayMode::Compute: {
        if (!in.valid) break;
        const Cell c = cell(a_.get(), b_.get(), f_.get(), in.score, in.escore,
                            ctx.scoring.substitution(sp_, in.base), ctx.scoring, ctx.sat);
        a_.set_next(in.score);
        b_.set_next(c.h);
        f_.set_next(c.f);
        const std::uint64_t row = cl_.get() + 1;
        cl_.set_next(row);
        if (c.h > bs_.get()) {
          bs_.set_next(c.h);
          bc_.set_next(row);
        }
        out_.set_next(PeLink{in.base, c.h, c.e, true});
        break;
      }
      case ArrayMode::DrainLoad:
        drain_.set_next(DrainSlot{bs_.get(), bc_.get()});
        break;
      case ArrayMode::DrainShift:
        drain_.set_next(drain_in);
        break;
    }
  }

  void commit() noexcept {
    a_.commit();
    b_.commit();
    f_.commit();
    cl_.commit();
    bs_.commit();
    bc_.commit();
    out_.commit();
    drain_.commit();
  }

  void reset() noexcept {
    a_.reset();
    b_.reset();
    f_.reset();
    cl_.reset();
    bs_.reset();
    bc_.reset();
    out_.reset();
    drain_.reset();
  }

  [[nodiscard]] const PeLink& out() const noexcept { return out_.get(); }
  [[nodiscard]] const DrainSlot& drain_slot() const noexcept { return drain_.get(); }
  [[nodiscard]] align::Score reg_bs() const noexcept { return bs_.get(); }
  [[nodiscard]] std::uint64_t reg_bc() const noexcept { return bc_.get(); }

 private:
  template <typename>
  friend class SystolicArray;  // builds pe(j) snapshots of its register arrays

  seq::Code sp_ = 0;
  bool active_ = false;
  hw::Reg<align::Score> a_{0};
  hw::Reg<align::Score> b_{0};
  hw::Reg<align::Score> f_{align::kNegInf};
  hw::Reg<std::uint64_t> cl_{0};
  hw::Reg<align::Score> bs_{0};
  hw::Reg<std::uint64_t> bc_{0};
  hw::Reg<PeLink> out_{};
  hw::Reg<DrainSlot> drain_{};
};

}  // namespace swr::core
