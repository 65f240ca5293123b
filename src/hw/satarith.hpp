// Fixed-width saturating arithmetic.
//
// FPGA datapaths are built from fixed-width registers: SAMBA's PEs are 12
// bits wide [21], and any real synthesis of the paper's design must pick a
// width for the score and cycle registers. The software truth uses 32-bit
// scores; the hardware model funnels every arithmetic result through
// SatArith so that a too-narrow configuration saturates exactly as silicon
// would — and the tests can show when (and only when) that changes results.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace swr::hw {

/// Saturating signed arithmetic at a fixed bit width (two's complement).
class SatArith {
 public:
  /// @throws std::invalid_argument unless 2 <= bits <= 32.
  explicit SatArith(unsigned bits) : bits_(bits) {
    if (bits < 2 || bits > 32) throw std::invalid_argument("SatArith: bits must be in [2,32]");
    hi_ = static_cast<std::int32_t>((std::uint32_t{1} << (bits - 1)) - 1);
    lo_ = -hi_ - 1;
  }

  [[nodiscard]] unsigned bits() const noexcept { return bits_; }
  [[nodiscard]] std::int32_t min() const noexcept { return lo_; }
  [[nodiscard]] std::int32_t max() const noexcept { return hi_; }

  /// Clamps a wide value into the representable range.
  [[nodiscard]] std::int32_t clamp(std::int64_t v) const noexcept {
    if (v > hi_) {
      ++saturations_;
      return hi_;
    }
    if (v < lo_) {
      ++saturations_;
      return lo_;
    }
    return static_cast<std::int32_t>(v);
  }

  /// Saturating add.
  [[nodiscard]] std::int32_t add(std::int32_t a, std::int32_t b) const noexcept {
    return clamp(static_cast<std::int64_t>(a) + b);
  }

  /// True iff `v` is representable without saturation.
  [[nodiscard]] bool representable(std::int64_t v) const noexcept { return v >= lo_ && v <= hi_; }

  /// How many operations saturated since construction/reset. A nonzero
  /// count after a run means the configured width was too narrow for the
  /// workload — surfaced in accelerator stats.
  [[nodiscard]] std::uint64_t saturation_count() const noexcept { return saturations_; }
  void reset_saturation_count() const noexcept { saturations_ = 0; }
  void add_saturations(std::uint64_t n) const noexcept { saturations_ += n; }

 private:
  unsigned bits_;
  std::int32_t lo_;
  std::int32_t hi_;
  mutable std::uint64_t saturations_ = 0;
};

/// Width of an unsigned counter needed to represent `max_value`.
[[nodiscard]] constexpr unsigned counter_bits_for(std::uint64_t max_value) noexcept {
  unsigned bits = 1;
  while ((max_value >> bits) != 0) ++bits;
  return bits;
}

}  // namespace swr::hw
