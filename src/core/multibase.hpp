// Multi-base processing elements — the [12] Kestrel-style design the paper
// discusses in §4: "Some designs avoid [partitioning] by putting many
// query bases on the same computing element. The drawback ... is that to
// put more bases at each cell requires more registers per element."
//
// Each MultiBasePe owns B consecutive query columns and walks them
// round-robin: a database base enters on phase 0, the PE spends B cycles
// carrying the row across its columns (the left-value chain is internal),
// then forwards base + last-column score to the next PE. Stream rate is
// one database base per B cycles; a pass covers N*B query columns.
//
// The drain differs from the single-base array: the per-column (Bs, Bc)
// results are sampled directly by the controller while the cycle budget
// charges the full N*B shift-out a hardware chain would take (the
// single-base array in core/pe.hpp demonstrates the physical chain; this
// model keeps the timing honest and the collection simple).
#pragma once

#include <cstdint>
#include <vector>

#include "align/result.hpp"
#include "align/scoring.hpp"
#include "core/pe.hpp"
#include "core/controller.hpp"
#include "core/performance_model.hpp"
#include "hw/reg.hpp"
#include "hw/satarith.hpp"
#include "hw/sram.hpp"
#include "seq/sequence.hpp"

namespace swr::core {

/// One time-multiplexed PE serving `bases` query columns.
class MultiBasePe {
 public:
  explicit MultiBasePe(std::size_t bases)
      : bases_(bases), sp_(bases, 0), active_(bases, false), a_(bases), b_(bases), bs_(bases),
        bc_(bases) {}

  [[nodiscard]] std::size_t bases() const noexcept { return bases_; }

  /// Loads this PE's column chunk ([0, bases) local columns).
  void load_columns(std::span<const seq::Code> chunk) {
    for (std::size_t c = 0; c < bases_; ++c) {
      const bool active = c < chunk.size();
      sp_[c] = active ? chunk[c] : seq::Code{0};
      active_[c] = active;
    }
  }

  void evaluate(ArrayMode mode, const PeLink& in, const PeContext& ctx) noexcept {
    for (std::size_t c = 0; c < bases_; ++c) {
      a_[c].set_next(a_[c].get());
      b_[c].set_next(b_[c].get());
      bs_[c].set_next(bs_[c].get());
      bc_[c].set_next(bc_[c].get());
    }
    phase_.set_next(phase_.get());
    cl_.set_next(cl_.get());
    held_.set_next(held_.get());
    carry_.set_next(carry_.get());
    PeLink out = out_.get();
    out.valid = false;
    out_.set_next(out);
    if (mode != ArrayMode::Compute) return;

    // Phase 0 with a valid input starts a new row walk; later phases run
    // regardless of the input wires.
    std::size_t phase = phase_.get();
    PeLink held = held_.get();
    align::Score left;
    if (phase == 0) {
      if (!in.valid) return;
      held = in;
      held_.set_next(held);
      cl_.set_next(cl_.get() + 1);
      left = in.score;
    } else {
      left = carry_.get();
    }

    const std::size_t c = phase;
    const align::Score sub = ctx.scoring.substitution(sp_[c], held.base);
    const align::Score diag = ctx.sat.add(a_[c].get(), sub);
    const align::Score upleft = left > b_[c].get() ? left : b_[c].get();
    const align::Score gap = ctx.sat.add(upleft, ctx.scoring.gap);
    align::Score d = diag > gap ? diag : gap;
    if (d < 0) d = 0;

    a_[c].set_next(left);
    b_[c].set_next(d);
    const std::uint64_t row = phase == 0 ? cl_.get() + 1 : cl_.get();
    if (d > bs_[c].get()) {
      bs_[c].set_next(d);
      bc_[c].set_next(row);
    }
    carry_.set_next(d);

    if (phase + 1 == bases_) {
      out_.set_next(PeLink{held.base, d, 0, true});
      phase_.set_next(0);
    } else {
      phase_.set_next(phase + 1);
    }
  }

  void commit() noexcept {
    for (std::size_t c = 0; c < bases_; ++c) {
      a_[c].commit();
      b_[c].commit();
      bs_[c].commit();
      bc_[c].commit();
    }
    phase_.commit();
    cl_.commit();
    held_.commit();
    carry_.commit();
    out_.commit();
  }

  void reset() noexcept {
    for (std::size_t c = 0; c < bases_; ++c) {
      a_[c].reset();
      b_[c].reset();
      bs_[c].reset();
      bc_[c].reset();
    }
    phase_.reset();
    cl_.reset();
    held_.reset();
    carry_.reset();
    out_.reset();
  }

  [[nodiscard]] const PeLink& out() const noexcept { return out_.get(); }
  [[nodiscard]] bool column_active(std::size_t c) const { return active_.at(c); }
  [[nodiscard]] align::Score column_bs(std::size_t c) const { return bs_.at(c).get(); }
  [[nodiscard]] std::uint64_t column_bc(std::size_t c) const { return bc_.at(c).get(); }

 private:
  std::size_t bases_;
  std::vector<seq::Code> sp_;
  std::vector<bool> active_;
  std::vector<hw::Reg<align::Score>> a_;
  std::vector<hw::Reg<align::Score>> b_;
  std::vector<hw::Reg<align::Score>> bs_;
  std::vector<hw::Reg<std::uint64_t>> bc_;
  hw::Reg<std::size_t> phase_{0};
  hw::Reg<std::uint64_t> cl_{0};
  hw::Reg<PeLink> held_{};
  hw::Reg<align::Score> carry_{0};
  hw::Reg<PeLink> out_{};
};

/// Array + controller for the multi-base design. Mirrors ArrayController's
/// contract: run() returns the best score + canonical cell, RunStats are
/// measured on the cycle-level model and match predict_cycles_multibase.
class MultiBaseController {
 public:
  MultiBaseController(std::size_t num_pes, std::size_t bases_per_pe, unsigned score_bits,
                      const align::Scoring& scoring, std::size_t sram_capacity_bytes,
                      bool charge_query_load);

  align::LocalScoreResult run(const seq::Sequence& query, const seq::Sequence& db);

  [[nodiscard]] const RunStats& run_stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t num_pes() const noexcept { return pes_.size(); }
  [[nodiscard]] std::size_t bases_per_pe() const noexcept { return bases_; }

 private:
  void step();

  std::size_t bases_;
  hw::SatArith sat_;
  align::Scoring scoring_;
  std::vector<MultiBasePe> pes_;
  PeLink in_{};
  hw::Sram sram_;
  bool charge_query_load_;
  std::uint64_t cycle_ = 0;
  RunStats stats_{};
};

}  // namespace swr::core
