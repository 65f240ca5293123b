// Array controller — the "right part of the circuit" (paper figure 9).
//
// Orchestrates a full comparison job cycle by cycle:
//   * reserves board SRAM for the database (byte per residue) and, when
//     the query is partitioned, the boundary-column ping-pong buffers,
//   * runs one pass per query chunk of at most N bases (figure-7
//     partitioning):
//       - loads the chunk into the SP registers (charged N cycles,
//         shifting through the chain as in [21]),
//       - streams the database through the array, feeding each row's
//         boundary-column score from the previous pass and capturing
//         this pass's boundary column,
//       - drains the per-column (Bs, Bc) results through the shift chain
//         and folds them into the global best under the canonical
//         tie-break,
//   * recovers coordinates: row = Bc (the Cl value latched with Bs),
//     column = pass offset + PE index + 1.
//
// run() and run_batch() (query packing) share that one pass routine and
// differ only in how they load the columns and fold the drain. Every cycle
// is one SystolicArray::clock() edge under either scheduler — the cycle
// counts the performance model quotes are measured on this model, not
// assumed.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/systolic_array.hpp"
#include "hw/sram.hpp"
#include "seq/sequence.hpp"

namespace swr::core {

/// Measured outcome of one accelerator job.
struct RunStats {
  std::uint64_t total_cycles = 0;    ///< clock edges, all phases
  std::uint64_t compute_cycles = 0;  ///< streaming + pipeline flush
  std::uint64_t drain_cycles = 0;    ///< result shift-out
  std::uint64_t load_cycles = 0;     ///< query (re)load between passes
  std::uint64_t passes = 0;          ///< figure-7 chunks
  std::uint64_t cell_updates = 0;    ///< useful cells: |query| * |db|
  std::uint64_t pe_slots = 0;        ///< raw PE-cycles incl. inactive pad PEs
  std::uint64_t saturations = 0;     ///< fixed-width overflow events
  std::size_t sram_peak_bytes = 0;   ///< board memory footprint of the job

  friend bool operator==(const RunStats&, const RunStats&) = default;
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
        charge_query_load_(charge_query_load) {}

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
    begin_job();
    align::LocalScoreResult best;
    const std::size_t m = query.size();
    const std::size_t n = db.size();
    stats_.cell_updates = static_cast<std::uint64_t>(m) * n;
    if (m == 0 || n == 0) return best;

    const std::size_t npes = array_.size();
    const std::size_t passes = (m + npes - 1) / npes;
    stats_.passes = passes;
    sram_.allocate(n, "database");
    // Boundary-column ping-pong buffers, only when partitioning is needed.
    // Each row stores the H score and (for the affine PE) the E-layer
    // value: 8 bytes per row.
    std::size_t bnd[2] = {kNoBoundary, kNoBoundary};
    if (passes > 1) {
      bnd[0] = sram_.allocate(8 * (n + 1), "boundary column (ping)");
      bnd[1] = sram_.allocate(8 * (n + 1), "boundary column (pong)");
    }
    stats_.sram_peak_bytes = sram_.used_bytes();

    for (std::size_t p = 0; p < passes; ++p) {
      const std::size_t q = p * npes;  // column offset of this chunk
      const std::size_t chunk = std::min(npes, m - q);
      array_.load_query(query.codes().subspan(q, chunk));
      pass(chunk, db.codes(), p > 0 ? bnd[p & 1] : kNoBoundary,
           p + 1 < passes ? bnd[(p + 1) & 1] : kNoBoundary,
           [&](std::size_t pe, const DrainSlot& slot) {
             if (pe < chunk) {
               align::fold_best(best, slot.bs,
                                align::Cell{static_cast<std::size_t>(slot.bc), q + pe + 1});
             }
           });
    }
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
    begin_job();
    std::vector<align::LocalScoreResult> results(queries.size());
    const std::size_t n = db.size();
    std::vector<std::span<const seq::Code>> spans;
    spans.reserve(queries.size());
    std::size_t packed_cols = queries.empty() ? 0 : queries.size() - 1;  // barriers
    for (const seq::Sequence& q : queries) {
      spans.push_back(q.codes());
      packed_cols += q.size();
      stats_.cell_updates += static_cast<std::uint64_t>(q.size()) * n;
    }
    if (queries.empty() || n == 0) return results;

    sram_.allocate(n, "database");
    stats_.sram_peak_bytes = sram_.used_bytes();
    stats_.passes = 1;
    const std::vector<std::size_t> starts = array_.load_packed(spans);

    // Column -> query for the drain fold; barrier and pad columns own none.
    std::vector<std::size_t> owner(array_.size(), queries.size());
    for (std::size_t k = 0; k < queries.size(); ++k) {
      std::fill_n(owner.begin() + static_cast<std::ptrdiff_t>(starts[k]), queries[k].size(), k);
    }
    pass(packed_cols, db.codes(), kNoBoundary, kNoBoundary,
         [&](std::size_t pe, const DrainSlot& slot) {
           const std::size_t k = owner[pe];
           if (k < queries.size()) {
             align::fold_best(results[k], slot.bs,
                              align::Cell{static_cast<std::size_t>(slot.bc), pe - starts[k] + 1});
           }
         });
    return results;
  }

  [[nodiscard]] const RunStats& run_stats() const noexcept { return stats_; }
  [[nodiscard]] Array& array() noexcept { return array_; }
  [[nodiscard]] const Array& array() const noexcept { return array_; }

 private:
  static constexpr std::size_t kNoBoundary = static_cast<std::size_t>(-1);

  void begin_job() {
    stats_ = RunStats{};
    sram_.clear();
    array_.reset();
    array_.sat().reset_saturation_count();
    cycle_ = 0;
  }

  // The one clock edge, under either scheduler.
  void clock() {
    array_.clock();
    ++cycle_;
    if (observer_) observer_(array_, cycle_);
  }

  // One pass over `record` with `cols` query columns loaded: charges their
  // shift-in, streams the record (the boundary column read from SRAM at
  // `rd` and written to `wr`, each unless kNoBoundary), checks the flush,
  // and drains the (Bs, Bc) chain, handing fold(pe, slot) every column
  // whose Bs is positive.
  template <typename Fold>
  void pass(std::size_t cols, std::span<const seq::Code> record, std::size_t rd, std::size_t wr,
            Fold&& fold) {
    const std::size_t n = record.size();
    const std::size_t npes = array_.size();
    array_.reset();
    if (charge_query_load_) {
      array_.set_mode(ArrayMode::Idle);
      for (std::size_t k = 0; k < cols; ++k) clock();
      stats_.load_cycles += cols;
    }

    array_.set_mode(ArrayMode::Compute);
    std::size_t rows_out = 0;
    const std::uint64_t compute_start = cycle_;
    for (std::size_t t = 0; t < n + npes - 1; ++t) {
      PeLink in;
      if (t < n) {
        in.base = record[t];
        in.escore = align::kNegInf;  // affine: no E layer left of column 0
        if (rd != kNoBoundary) {
          in.score = static_cast<align::Score>(sram_.read32(rd + 8 * (t + 1)));
          in.escore = static_cast<align::Score>(sram_.read32(rd + 8 * (t + 1) + 4));
        }
        in.valid = true;
      }
      array_.drive_input(in);
      clock();
      const PeLink out = array_.boundary_out();
      if (out.valid) {
        ++rows_out;
        if (wr != kNoBoundary) {
          sram_.write32(wr + 8 * rows_out, static_cast<std::uint32_t>(out.score));
          sram_.write32(wr + 8 * rows_out + 4, static_cast<std::uint32_t>(out.escore));
        }
      }
    }
    if (rows_out != n) {
      throw std::logic_error("ArrayController: pipeline flush lost rows");
    }
    stats_.compute_cycles += cycle_ - compute_start;
    stats_.pe_slots += static_cast<std::uint64_t>(npes) * (n + npes - 1);

    // Drain the (Bs, Bc) chain: one load edge, then N-1 shifts, sampling
    // the right end after every edge.
    const std::uint64_t drain_start = cycle_;
    array_.drive_input(PeLink{});
    array_.set_mode(ArrayMode::DrainLoad);
    clock();
    array_.set_mode(ArrayMode::DrainShift);
    for (std::size_t k = 0; k < npes; ++k) {
      const DrainSlot& slot = array_.drain_out();
      if (slot.bs > 0) fold(npes - 1 - k, slot);
      if (k + 1 < npes) clock();
    }
    stats_.drain_cycles += cycle_ - drain_start;
    stats_.total_cycles = cycle_;
    stats_.saturations = array_.sat().saturation_count();
  }

  Array array_;
  hw::Sram sram_;
  bool charge_query_load_;
  std::uint64_t cycle_ = 0;
  RunStats stats_{};
  std::function<void(const Array&, std::uint64_t)> observer_;
};

}  // namespace swr::core
