// Public facade of the reconfigurable accelerator.
//
// Bundles the cycle-level array + controller with the synthesis model for
// a chosen device: one object that behaves like the board the paper
// prototyped — run a comparison, get the best score, its coordinates, the
// measured cycle count and the modelled wall-clock time at the synthesized
// frequency.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/controller.hpp"
#include "core/device.hpp"
#include "core/performance_model.hpp"
#include "core/resource_model.hpp"
// host/pci.hpp is header-only, so the facade can model the bus without a
// core -> host link edge; the accelerator is where compute cycles and bus
// seconds meet, which is why the timeline lives here and not in the scan
// layers.
#include "host/pci.hpp"

namespace swr::core {

/// Bytes of the board's result record, the paper's "few bytes" read back
/// per job: score (4) + end row (8) + end column (4) + status (4).
inline constexpr std::size_t kResultBytes = 20;

/// Bus leg of one job, filled only when a bus model is attached
/// (attach_bus): the DMA double-buffer timeline for the database stream
/// plus the serialized query/result transactions around it.
struct JobBusTiming {
  bool modelled = false;                 ///< false = no bus attached, fields zero
  std::uint64_t bytes_to_board = 0;      ///< query + database payload
  std::uint64_t bytes_from_board = 0;    ///< the paper's "few bytes" of results
  double overlapped_seconds = 0.0;       ///< bus wall under double buffering
  double serialized_seconds = 0.0;       ///< bus wall if nothing overlapped
  double stall_seconds = 0.0;            ///< compute stalled on the stream
  std::uint64_t stall_cycles = 0;        ///< the stall at the board clock
};

/// Outcome of one accelerator job.
struct JobResult {
  align::LocalScoreResult best;  ///< score + end cell (i = db row, j = query column)
  RunStats stats;                ///< measured on the cycle-level model
  double seconds = 0.0;          ///< stats.total_cycles at the modelled clock
  double gcups = 0.0;            ///< useful cell updates per second / 1e9
  JobBusTiming bus;              ///< bus leg (attach_bus), zeroed otherwise
  /// Board wall-clock estimate: compute plus the overlapped bus timeline
  /// when a bus is modelled; equal to `seconds` otherwise. The scan
  /// layers report this as board_seconds.
  double wall_seconds = 0.0;
};

/// The accelerator, templated over the PE datapath (ScorePe = the paper's
/// design; AffinePe = the [2]/[32]-style extension).
template <typename Pe>
class BasicAccelerator {
 public:
  using Scoring = typename SystolicArray<Pe>::Scoring;

  /// The synthesized datapath: 16-bit saturating scores (SAMBA used 12
  /// [21]), 32-bit row counters (databases up to 4 GBP), and every query
  /// chunk shifted into the SP registers at one cycle per element — the
  /// configuration the performance model predicts. ArrayController takes
  /// all three as parameters for the white-box tests that vary them.
  static constexpr unsigned kScoreBits = 16;
  static constexpr unsigned kCycleBits = 32;
  static constexpr bool kChargeQueryLoad = true;

  /// Synthesizes (in the model) `num_pes` elements onto `dev`.
  /// @throws std::invalid_argument when the configuration does not fit the
  /// device — the model's equivalent of a failed place-and-route.
  BasicAccelerator(const FpgaDevice& dev, std::size_t num_pes, const Scoring& scoring,
                   hw::SchedMode sched = hw::default_sched_mode())
      : device_(dev),
        scoring_(scoring),
        features_{kScoreBits, kCycleBits, /*coordinate_tracking=*/true,
                  /*affine=*/std::is_same_v<Pe, AffinePe>},
        synth_(estimate_resources(dev, num_pes, features_)),
        controller_(num_pes, kScoreBits, scoring, dev.board_sram_bytes, kChargeQueryLoad,
                    sched) {
    if (!synth_.fits) {
      throw std::invalid_argument("BasicAccelerator: " + std::to_string(num_pes) +
                                  " elements do not fit device " + dev.name);
    }
  }

  /// Attaches a host<->board bus model: run() then charges the query
  /// shipment, streams the database through the two-slot DMA double
  /// buffer overlapped with the first pass's compute window, and reads
  /// the result words back — filling JobResult::bus and switching
  /// wall_seconds to the overlapped timeline. Without it (the default)
  /// the facade behaves exactly as before: compute-only timing.
  void attach_bus(const host::PciConfig& pci = {}, const host::DmaConfig& dma = {}) {
    pci.validate();
    dma.validate();
    bus_.emplace(pci);
    dma_ = dma;
  }

  /// Routes the attached bus's hw.pci.* metrics to `reg` (nullptr
  /// detaches; strict no-op when no bus is attached).
  void bind_bus_metrics(obs::Registry* reg) {
    if (bus_) bus_->bind_metrics(reg);
  }

  /// The attached bus model, or nullptr (white-box tests, fleet totals).
  [[nodiscard]] const host::PciModel* bus() const noexcept { return bus_ ? &*bus_ : nullptr; }
  [[nodiscard]] hw::SchedMode sched_mode() const noexcept { return controller_.sched_mode(); }

  /// Runs a comparison on the cycle-level model. Coordinates follow the
  /// library convention: i = database position, j = query position,
  /// 1-based; canonical tie-break.
  JobResult run(const seq::Sequence& query, const seq::Sequence& db) {
    JobResult r;
    r.best = controller_.run(query, db);
    r.stats = controller_.run_stats();
    r.seconds = cycles_to_seconds(r.stats.total_cycles, synth_.freq_mhz);
    r.gcups = r.stats.cell_updates == 0 ? 0.0 : core::gcups(r.stats.cell_updates, r.seconds);
    r.wall_seconds = r.seconds;
    if (bus_ && !query.empty() && !db.empty()) {
      // Query shipment and result readback are short serialized
      // transactions; the database stream double-buffers against the
      // first pass's compute window (later passes replay it from board
      // SRAM). The overlap can only hide the stream inside that window —
      // whatever sticks out is stall, charged on top of compute.
      const double query_s = bus_->transfer(query.size(), host::BusDirection::ToBoard);
      const double window =
          cycles_to_seconds(db.size() + num_pes() - 1, synth_.freq_mhz);
      const host::DmaTimeline dma =
          bus_->stream_overlapped(db.size(), window, dma_, synth_.freq_mhz);
      const double result_s = bus_->transfer(kResultBytes, host::BusDirection::FromBoard);
      // The stream timeline decomposes as overlapped = first_fill +
      // compute_window + stall; only first_fill and stall are bus time
      // the compute side actually waits for. bus.overlapped_seconds is
      // that exposed bus time (plus the serialized query/result legs), so
      // wall = compute + bus.overlapped_seconds by construction.
      const double first_fill =
          dma.overlapped_seconds - dma.compute_seconds - dma.stall_seconds;
      r.bus.modelled = true;
      r.bus.bytes_to_board = query.size() + db.size();
      r.bus.bytes_from_board = kResultBytes;
      r.bus.stall_seconds = dma.stall_seconds;
      r.bus.stall_cycles =
          static_cast<std::uint64_t>(dma.stall_seconds * synth_.freq_mhz * 1e6);
      r.bus.overlapped_seconds = query_s + first_fill + dma.stall_seconds + result_s;
      r.bus.serialized_seconds = query_s + dma.transfer_seconds + result_s;
      r.wall_seconds = r.seconds + r.bus.overlapped_seconds;
    }
    return r;
  }

  /// The reverse pass of the §2.3 recipe: re-runs over the reversed
  /// prefixes that end at `end`, locating where the best alignment begins.
  JobResult run_reverse(const seq::Sequence& query, const seq::Sequence& db,
                        const align::Cell& end) {
    if (end.i > db.size() || end.j > query.size() || end.i == 0 || end.j == 0) {
      throw std::invalid_argument("BasicAccelerator::run_reverse: end cell outside matrix");
    }
    const seq::Sequence rq = query.subsequence(0, end.j).reversed();
    const seq::Sequence rdb = db.subsequence(0, end.i).reversed();
    return run(rq, rdb);
  }

  /// Modelled synthesis outcome (Table-2 material).
  [[nodiscard]] const ResourceEstimate& synthesis() const noexcept { return synth_; }
  [[nodiscard]] const FpgaDevice& device() const noexcept { return device_; }
  [[nodiscard]] const PeFeatures& features() const noexcept { return features_; }
  /// The scoring scheme the array was synthesized with — what the host's
  /// retrieval passes must replay hits against.
  [[nodiscard]] const Scoring& scoring() const noexcept { return scoring_; }
  [[nodiscard]] double freq_mhz() const noexcept { return synth_.freq_mhz; }
  [[nodiscard]] std::size_t num_pes() const noexcept { return synth_.num_pes; }

  /// Direct access for traces and white-box tests.
  [[nodiscard]] ArrayController<Pe>& controller() noexcept { return controller_; }

  /// Analytic time (seconds) this accelerator would need for an
  /// (m x n) job — the verified extrapolation used for MBP-scale benches.
  [[nodiscard]] double predict_seconds(std::size_t query_len, std::size_t db_len) const {
    const CyclePrediction p = predict_cycles(query_len, db_len, num_pes(), kChargeQueryLoad);
    return cycles_to_seconds(p.total_cycles, synth_.freq_mhz);
  }

 private:
  FpgaDevice device_;
  Scoring scoring_;
  PeFeatures features_;
  ResourceEstimate synth_;
  ArrayController<Pe> controller_;
  std::optional<host::PciModel> bus_;
  host::DmaConfig dma_{};
};

/// The paper's accelerator: linear gaps, coordinate tracking.
using SmithWatermanAccelerator = BasicAccelerator<ScorePe>;
/// Affine-gap extension.
using AffineAccelerator = BasicAccelerator<AffinePe>;

}  // namespace swr::core
