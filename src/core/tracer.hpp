// ArrayTracer: attach VCD waveform probes to a running systolic array.
//
// Wires the standard per-PE signals (D output, valid strobe, Bs, Bc) plus
// the array-level input into a hw::VcdWriter and samples them through the
// controller's per-cycle observer — the library form of what an RTL
// simulation would dump, viewable in GTKWave.
#pragma once

#include <ostream>
#include <string>

#include "core/controller.hpp"
#include "hw/vcd.hpp"

namespace swr::core {

/// Traces a ScorePe array through an ArrayController.
/// Lifetime: the tracer must outlive the controller runs it observes; it
/// registers itself as the controller's observer on attach().
class ArrayTracer {
 public:
  /// @param out stream the VCD is written to (kept open by the caller)
  /// @param signal_limit probe at most this many PEs (VCD files for
  ///        hundreds of PEs get large; the leftmost PEs carry the example
  ///        traces the paper's figures show)
  explicit ArrayTracer(std::ostream& out, std::size_t signal_limit = 16)
      : vcd_(out, "systolic_array"), limit_(signal_limit) {}

  /// Registers probes for `ctl`'s array and installs the observer.
  /// @throws std::logic_error if attached twice.
  void attach(ArrayController<ScorePe>& ctl) {
    if (attached_) throw std::logic_error("ArrayTracer: already attached");
    attached_ = true;
    const SystolicArray<ScorePe>* arr = &ctl.array();
    const std::size_t n = std::min(arr->size(), limit_);
    for (std::size_t j = 0; j < n; ++j) {
      const std::string base = "pe" + std::to_string(j);
      vcd_.add_signal(base + "_D", 16, [arr, j] {
        return static_cast<std::uint64_t>(static_cast<std::uint16_t>(arr->pe(j).out().score));
      });
      vcd_.add_signal(base + "_valid", 1,
                      [arr, j] { return arr->pe(j).out().valid ? 1u : 0u; });
      vcd_.add_signal(base + "_Bs", 16, [arr, j] {
        return static_cast<std::uint64_t>(static_cast<std::uint16_t>(arr->pe(j).reg_bs()));
      });
      vcd_.add_signal(base + "_Bc", 32,
                      [arr, j] { return arr->pe(j).reg_bc() & 0xFFFFFFFFu; });
      vcd_.add_signal(base + "_Cl", 32,
                      [arr, j] { return arr->pe(j).reg_cl() & 0xFFFFFFFFu; });
    }
    // The controller restarts its cycle count with every job; the VCD
    // time base is this tracer's own monotonic counter, letting one
    // waveform span several runs (e.g. the pipeline's forward and reverse
    // passes back to back).
    ctl.set_observer([this](const SystolicArray<ScorePe>&, std::uint64_t) {
      vcd_.sample(++samples_);
    });
  }

  /// Cycles sampled so far.
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  hw::VcdWriter vcd_;
  std::size_t limit_;
  bool attached_ = false;
  std::uint64_t samples_ = 0;
};

}  // namespace swr::core
