// The full hardware/software co-design pipeline the paper proposes:
//
//   host ──PCI──▶ board: query + database
//   board: forward pass  → best score + END coordinates    (accelerated)
//   board: reverse pass  → BEGIN coordinates               (accelerated)
//   board ──PCI──▶ host: a few bytes of score + coordinates
//   host:  anchored re-pair + window retrieval + replay    (software, §2.3)
//   result: the actual optimal local alignment, linear space end to end.
//
// The host half is retrieve::local_align_linear with the accelerator as
// its score pass, for either PE type.
//
// Timing is split three ways — modelled FPGA seconds (verified cycle
// counts at the synthesized clock), modelled PCI seconds, and *measured*
// host CPU seconds — so the benches can show where the time goes and why
// coordinate output (vs shipping the matrix) keeps the bus out of the
// critical path.
#pragma once

#include <cstdint>

#include "align/cigar.hpp"
#include "core/accelerator.hpp"
#include "host/pci.hpp"

namespace swr::host {

/// Where the time went for one pipeline run.
struct PipelineTiming {
  double fpga_seconds = 0.0;      ///< both accelerator passes, modelled
  double transfer_seconds = 0.0;  ///< PCI in + out, modelled
  double host_seconds = 0.0;      ///< anchored scan + window retrieval, measured

  [[nodiscard]] double total() const noexcept {
    return fpga_seconds + transfer_seconds + host_seconds;
  }
};

/// A retrieved alignment plus the cost breakdown.
struct PipelineResult {
  align::LocalAlignment alignment;  ///< i = database position, j = query position
  PipelineTiming timing;
  core::RunStats forward_stats;
  core::RunStats reverse_stats;
  std::uint64_t bytes_to_board = 0;
  std::uint64_t bytes_from_board = 0;
};

/// Drives a BasicAccelerator<Pe> through the complete §2.3 recipe.
template <typename Pe>
class BasicHostPipeline {
 public:
  /// The pipeline borrows the accelerator (one job at a time).
  BasicHostPipeline(core::BasicAccelerator<Pe>& accelerator, const PciConfig& pci);

  /// Aligns `query` against `db`, returning the optimal local alignment.
  /// @throws std::invalid_argument on alphabet mismatch.
  PipelineResult align(const seq::Sequence& query, const seq::Sequence& db);

  [[nodiscard]] const PciModel& pci() const noexcept { return pci_; }

 private:
  core::BasicAccelerator<Pe>& acc_;
  PciModel pci_;
};

/// The paper's pipeline: linear gaps.
using HostPipeline = BasicHostPipeline<core::ScorePe>;
/// The affine-gap twin: AffineAccelerator passes for the coordinates
/// ([2]/[32]'s gap model with this paper's Bs/Cl/Bc tracking).
using AffineHostPipeline = BasicHostPipeline<core::AffinePe>;

}  // namespace swr::host
