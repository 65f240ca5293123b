// Array controller — the "right part of the circuit" (paper figure 9).
//
// Orchestrates a full comparison job cycle by cycle:
//   * loads the database into board SRAM (byte per residue),
//   * for each query chunk of at most N bases (figure-7 partitioning):
//       - loads the chunk into the SP registers (charged N cycles,
//         shifting through the chain as in [21]),
//       - streams the database through the array, feeding each row's
//         boundary-column score from the previous pass (SRAM ping-pong
//         buffers) and capturing this pass's boundary column,
//       - drains the per-column (Bs, Bc) results through the shift chain
//         and folds them into the global best under the canonical
//         tie-break,
//   * recovers coordinates: row = Bc (the Cl value latched with Bs),
//     column = pass offset + PE index + 1.
//
// Every cycle is a real hw::Simulator step — the cycle counts the
// performance model quotes are measured on this model, not assumed.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/systolic_array.hpp"
#include "hw/simulator.hpp"
#include "hw/sram.hpp"
#include "hw/stats.hpp"
#include "seq/sequence.hpp"

namespace swr::core {

/// Measured outcome of one accelerator job.
struct RunStats {
  std::uint64_t total_cycles = 0;    ///< simulator cycles, all phases
  std::uint64_t compute_cycles = 0;  ///< streaming + pipeline flush
  std::uint64_t drain_cycles = 0;    ///< result shift-out
  std::uint64_t load_cycles = 0;     ///< query (re)load between passes
  std::uint64_t passes = 0;          ///< figure-7 chunks
  std::uint64_t cell_updates = 0;    ///< useful cells: |query| * |db|
  std::uint64_t pe_slots = 0;        ///< raw PE-cycles incl. inactive pad PEs
  std::uint64_t saturations = 0;     ///< fixed-width overflow events
  std::size_t sram_peak_bytes = 0;   ///< board memory footprint of the job
};

/// Cycle-accurate controller for a SystolicArray<Pe>.
template <typename Pe>
class ArrayController {
 public:
  using Array = SystolicArray<Pe>;
  using Scoring = typename Array::Scoring;

  /// `charge_query_load` charges one idle cycle per element for shifting
  /// each query chunk into the SP registers, as in [21]'s SAMBA splicing.
  ArrayController(std::size_t num_pes, unsigned score_bits, const Scoring& scoring,
                  std::size_t sram_capacity_bytes, bool charge_query_load,
                  hw::SchedMode sched = hw::default_sched_mode())
      : array_(num_pes, score_bits, scoring, sched),
        sram_(sram_capacity_bytes),
        charge_query_load_(charge_query_load) {
    sim_.add(&array_);
  }

  /// The scheduling policy the array was built with.
  [[nodiscard]] hw::SchedMode sched_mode() const noexcept { return array_.sched_mode(); }

  /// Optional per-cycle probe (VCD tracing, schedule tests). Called after
  /// every clock edge with the post-edge array state and cycle number.
  void set_observer(std::function<void(const Array&, std::uint64_t)> obs) {
    observer_ = std::move(obs);
  }

  /// Runs a full comparison: query resident (columns), database streamed
  /// (rows). Returns the best local score and its cell (i = database
  /// position, j = query position; 1-based).
  /// @throws std::invalid_argument on alphabet mismatch;
  /// @throws std::length_error when the job does not fit board SRAM.
  align::LocalScoreResult run(const seq::Sequence& query, const seq::Sequence& db) {
    if (query.alphabet().id() != db.alphabet().id()) {
      throw std::invalid_argument("ArrayController::run: alphabet mismatch");
    }
    stats_ = RunStats{};
    sram_.clear();
    array_.sat().reset_saturation_count();
    sim_.reset();

    align::LocalScoreResult best;
    const std::size_t m = query.size();
    const std::size_t n = db.size();
    stats_.cell_updates = static_cast<std::uint64_t>(m) * n;
    if (m == 0 || n == 0) return best;

    // Database into board SRAM, one byte per residue.
    const std::size_t db_base = sram_.allocate(n, "database");
    for (std::size_t i = 0; i < n; ++i) {
      sram_.write8(db_base + i, db[i]);
    }

    const std::size_t npes = array_.size();
    const std::size_t passes = (m + npes - 1) / npes;
    stats_.passes = passes;

    // Boundary-column ping-pong buffers, only when partitioning is needed.
    // Each row stores the H score and (for the affine PE) the E-layer
    // value: 8 bytes per row.
    std::size_t bnd[2] = {0, 0};
    if (passes > 1) {
      bnd[0] = sram_.allocate(8 * (n + 1), "boundary column (ping)");
      bnd[1] = sram_.allocate(8 * (n + 1), "boundary column (pong)");
    }
    stats_.sram_peak_bytes = sram_.used_bytes();

    for (std::size_t pass = 0; pass < passes; ++pass) {
      const std::size_t q = pass * npes;  // column offset of this chunk
      const std::size_t chunk = std::min(npes, m - q);
      array_.reset_pass();
      array_.load_query(query.codes().subspan(q, chunk));

      // Query (re)load: one cycle per element, shifted through the chain.
      if (charge_query_load_) {
        array_.set_mode(ArrayMode::Idle);
        for (std::size_t k = 0; k < chunk; ++k) step();
        stats_.load_cycles += chunk;
      }

      const std::size_t rd = bnd[pass & 1];        // previous pass's boundary
      const std::size_t wr = bnd[(pass + 1) & 1];  // this pass's boundary
      const bool read_boundary = passes > 1 && pass > 0;
      const bool write_boundary = passes > 1 && pass + 1 < passes && chunk == npes;

      // Stream the database; capture the boundary column as it emerges.
      array_.set_mode(ArrayMode::Compute);
      std::size_t rows_out = 0;
      const std::uint64_t compute_start = sim_.cycle();
      for (std::size_t t = 0; t < n + npes - 1; ++t) {
        PeLink in;
        if (t < n) {
          in.base = sram_.read8(db_base + t);
          if (read_boundary) {
            in.score = static_cast<align::Score>(sram_.read32(rd + 8 * (t + 1)));
            in.escore = static_cast<align::Score>(sram_.read32(rd + 8 * (t + 1) + 4));
          } else {
            in.score = 0;
            in.escore = align::kNegInf;  // affine: no E layer left of column 0
          }
          in.valid = true;
        }
        array_.drive_input(in);
        step();
        if (array_.boundary_out().valid) {
          ++rows_out;
          if (write_boundary) {
            sram_.write32(wr + 8 * rows_out,
                          static_cast<std::uint32_t>(array_.boundary_out().score));
            sram_.write32(wr + 8 * rows_out + 4,
                          static_cast<std::uint32_t>(array_.boundary_out().escore));
          }
        }
      }
      if (rows_out != n) {
        throw std::logic_error("ArrayController: pipeline flush lost rows");
      }
      stats_.compute_cycles += sim_.cycle() - compute_start;
      stats_.pe_slots += static_cast<std::uint64_t>(npes) * (n + npes - 1);

      // Drain the (Bs, Bc) chain: one load edge, then N-1 shifts, sampling
      // the right end after every edge.
      const std::uint64_t drain_start = sim_.cycle();
      array_.drive_input(PeLink{});
      array_.set_mode(ArrayMode::DrainLoad);
      step();
      array_.set_mode(ArrayMode::DrainShift);
      for (std::size_t k = 0; k < npes; ++k) {
        const std::size_t pe_idx = npes - 1 - k;
        const DrainSlot& slot = array_.drain_out();
        if (pe_idx < chunk && slot.bs > 0) {
          align::fold_best(best, slot.bs,
                           align::Cell{static_cast<std::size_t>(slot.bc), q + pe_idx + 1});
        }
        if (k + 1 < npes) step();
      }
      stats_.drain_cycles += sim_.cycle() - drain_start;
    }

    stats_.total_cycles = sim_.cycle();
    stats_.saturations = array_.sat().saturation_count();
    return best;
  }

  /// Query packing (ScorePe arrays only): several queries resident at
  /// once, separated by barrier columns, all served by ONE database pass —
  /// the throughput play for short-query workloads (one array reload and
  /// one database stream amortised over the whole batch). Every query's
  /// result is exactly what a solo run() would return (tests enforce it).
  /// @throws std::invalid_argument if the packing exceeds the array or the
  /// alphabets mismatch; @throws std::length_error on SRAM overflow.
  std::vector<align::LocalScoreResult> run_batch(const std::vector<seq::Sequence>& queries,
                                                 const seq::Sequence& db) {
    for (const seq::Sequence& q : queries) {
      if (q.alphabet().id() != db.alphabet().id()) {
        throw std::invalid_argument("ArrayController::run_batch: alphabet mismatch");
      }
    }
    stats_ = RunStats{};
    sram_.clear();
    array_.sat().reset_saturation_count();
    sim_.reset();

    std::vector<align::LocalScoreResult> results(queries.size());
    const std::size_t n = db.size();
    std::size_t packed_cols = queries.empty() ? 0 : queries.size() - 1;
    for (const seq::Sequence& q : queries) {
      packed_cols += q.size();
      stats_.cell_updates += static_cast<std::uint64_t>(q.size()) * n;
    }
    if (queries.empty() || n == 0) return results;

    const std::size_t db_base = sram_.allocate(n, "database");
    for (std::size_t i = 0; i < n; ++i) sram_.write8(db_base + i, db[i]);
    stats_.sram_peak_bytes = sram_.used_bytes();
    stats_.passes = 1;

    array_.reset_pass();
    std::vector<std::span<const seq::Code>> spans;
    spans.reserve(queries.size());
    for (const seq::Sequence& q : queries) spans.push_back(q.codes());
    const std::vector<std::size_t> starts = array_.load_packed(spans);

    // Column -> (query index, in-query column) map for the drain fold.
    const std::size_t npes = array_.size();
    std::vector<std::size_t> owner(npes, queries.size());
    std::vector<std::size_t> local_col(npes, 0);
    for (std::size_t k = 0; k < queries.size(); ++k) {
      for (std::size_t c = 0; c < queries[k].size(); ++c) {
        owner[starts[k] + c] = k;
        local_col[starts[k] + c] = c + 1;
      }
    }

    if (charge_query_load_) {
      array_.set_mode(ArrayMode::Idle);
      for (std::size_t k = 0; k < packed_cols; ++k) step();
      stats_.load_cycles += packed_cols;
    }

    array_.set_mode(ArrayMode::Compute);
    const std::uint64_t compute_start = sim_.cycle();
    for (std::size_t t = 0; t < n + npes - 1; ++t) {
      PeLink in;
      if (t < n) {
        in.base = sram_.read8(db_base + t);
        in.valid = true;
      }
      array_.drive_input(in);
      step();
    }
    stats_.compute_cycles += sim_.cycle() - compute_start;
    stats_.pe_slots += static_cast<std::uint64_t>(npes) * (n + npes - 1);

    const std::uint64_t drain_start = sim_.cycle();
    array_.drive_input(PeLink{});
    array_.set_mode(ArrayMode::DrainLoad);
    step();
    array_.set_mode(ArrayMode::DrainShift);
    for (std::size_t k = 0; k < npes; ++k) {
      const std::size_t pe_idx = npes - 1 - k;
      const DrainSlot& slot = array_.drain_out();
      if (owner[pe_idx] < queries.size() && slot.bs > 0) {
        align::fold_best(results[owner[pe_idx]], slot.bs,
                         align::Cell{static_cast<std::size_t>(slot.bc), local_col[pe_idx]});
      }
      if (k + 1 < npes) step();
    }
    stats_.drain_cycles += sim_.cycle() - drain_start;
    stats_.total_cycles = sim_.cycle();
    stats_.saturations = array_.sat().saturation_count();
    return results;
  }

  [[nodiscard]] const RunStats& run_stats() const noexcept { return stats_; }
  [[nodiscard]] Array& array() noexcept { return array_; }
  [[nodiscard]] const Array& array() const noexcept { return array_; }
  [[nodiscard]] const hw::Sram& sram() const noexcept { return sram_; }

 private:
  void step() {
    sim_.step();
    if (observer_) observer_(array_, sim_.cycle());
  }

  Array array_;
  hw::Simulator sim_;
  hw::Sram sram_;
  bool charge_query_load_;
  RunStats stats_{};
  std::function<void(const Array&, std::uint64_t)> observer_;
};

}  // namespace swr::core
