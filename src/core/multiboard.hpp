// Multi-board database partitioning.
//
// The paper's conclusion points at integrating the accelerator with
// cluster strategies ([3], [7]): several boards, each scanning a slice of
// the database. The correctness subtlety is alignments that straddle a
// slice boundary; this scheduler gives each board an overlap margin large
// enough that every positive-scoring local alignment of an m-base query
// lies wholly inside at least one slice, so folding the per-board bests
// under the canonical tie-break is exact (tests prove equality with the
// single-board run).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/device.hpp"

namespace swr::core {

/// Upper bound on the database rows any positive-scoring local alignment
/// of an m-residue query can span: m matches can pay for at most
/// m*match/|gap| deletions (see multiboard.cpp for the derivation).
std::size_t max_alignment_rows(std::size_t query_len, const align::Scoring& sc);

/// Result of a partitioned scan.
struct MultiBoardResult {
  align::LocalScoreResult best;      ///< global coordinates, canonical tie-break
  std::vector<JobResult> board_jobs; ///< per-board outcomes (local coords)
  double seconds = 0.0;              ///< modelled wall time: max over boards
  std::uint64_t total_cycles = 0;    ///< sum over boards (energy-style metric)
};

/// A set of boards. Accelerators are neither copyable nor movable (an
/// array is one physical chain, and a tracer binds to it by address),
/// hence the unique_ptr fleet.
using BoardFleet = std::vector<std::unique_ptr<SmithWatermanAccelerator>>;

/// Runs `query` against `db` split across `boards` identical accelerators.
/// The boards are simulated sequentially but modelled as parallel: the
/// reported time is the slowest board's.
/// @throws std::invalid_argument on zero boards or alphabet mismatch.
MultiBoardResult multiboard_run(BoardFleet& boards, const seq::Sequence& query,
                                const seq::Sequence& db);

/// Catalog-driven fleet description: the device is named (resolved
/// through core::device_catalog()), the simulation scheduler is explicit,
/// and each board can carry its own DMA-modelled bus.
struct FleetOptions {
  std::string device = "xc2vp70";  ///< catalog name (device() resolves it)
  std::size_t boards = 1;
  std::size_t pes_per_board = 100;
  hw::SchedMode sched = hw::default_sched_mode();
  /// Attach a host::PciModel to every board so job wall-times use the DMA
  /// double-buffered timeline (JobResult::bus). Off keeps compute-only
  /// timing.
  bool model_bus = false;
  host::PciConfig pci{};
  host::DmaConfig dma{};

  /// @throws std::invalid_argument on zero boards/PEs or bad bus config.
  void validate() const;
};

/// Builds a fleet of identical boards from a catalog description — the
/// one fleet builder: the direct fleet scan, the scan service's board
/// executors and the CLI all go through it. @throws std::invalid_argument
/// on an unknown device name, an invalid option set, or a PE count that
/// does not fit the device.
BoardFleet make_board_fleet(const FleetOptions& opt, const align::Scoring& sc);

}  // namespace swr::core
