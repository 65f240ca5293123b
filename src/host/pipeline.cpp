#include "host/pipeline.hpp"

#include <chrono>
#include <stdexcept>
#include <vector>

#include "retrieve/traceback.hpp"

namespace swr::host {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

template <typename Pe>
BasicHostPipeline<Pe>::BasicHostPipeline(core::BasicAccelerator<Pe>& accelerator,
                                         const PciConfig& pci)
    : acc_(accelerator), pci_(pci) {}

template <typename Pe>
PipelineResult BasicHostPipeline<Pe>::align(const seq::Sequence& query, const seq::Sequence& db) {
  if (query.alphabet().id() != db.alphabet().id()) {
    throw std::invalid_argument("HostPipeline::align: alphabet mismatch");
  }

  PipelineResult out;

  // Ship the sequences to the board (one byte per residue, as stored in
  // the board SRAM model).
  out.bytes_to_board = query.size() + db.size();
  out.timing.transfer_seconds += pci_.transfer(query.size());
  out.timing.transfer_seconds += pci_.transfer(db.size());

  // The accelerator provides the two score+coordinate passes of the shared
  // §2.3 core, which works on (rows, cols); our convention is rows =
  // database, cols = query.
  bool forward_done = false;
  double sim_wall_seconds = 0.0;  // wall time spent *simulating* the board
  const seq::Alphabet& ab = query.alphabet();
  const retrieve::ScorePass pass = [&](std::span<const seq::Code> rows,
                                       std::span<const seq::Code> cols) {
    const auto p0 = std::chrono::steady_clock::now();
    const core::JobResult job =
        acc_.run(/*query=*/seq::Sequence(ab, std::vector<seq::Code>(cols.begin(), cols.end())),
                 /*db=*/seq::Sequence(ab, std::vector<seq::Code>(rows.begin(), rows.end())));
    sim_wall_seconds += seconds_since(p0);
    out.timing.fpga_seconds += job.seconds;
    (forward_done ? out.reverse_stats : out.forward_stats) = job.stats;
    forward_done = true;
    // Each pass ships its result record back to the host.
    out.bytes_from_board += core::kResultBytes;
    out.timing.transfer_seconds += pci_.transfer(core::kResultBytes, BusDirection::FromBoard);
    return job.best;
  };

  const auto t0 = std::chrono::steady_clock::now();
  out.alignment = retrieve::local_align_linear(db, query, acc_.scoring(), pass);
  // Host CPU seconds = measured wall time of the anchored scan + window
  // retrieval; the wall time burnt *simulating* the board is excluded
  // (the board contributes its modelled fpga_seconds instead).
  out.timing.host_seconds = seconds_since(t0) - sim_wall_seconds;
  return out;
}

template class BasicHostPipeline<core::ScorePe>;
template class BasicHostPipeline<core::AffinePe>;

}  // namespace swr::host
