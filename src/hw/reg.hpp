// The two-phase clocked register.
//
// The paper prototyped its design in SystemC before synthesis; this is the
// slice of SystemC the reference PEs need. A clock edge has two phases:
//
//   evaluate — combinational: read current register values and inputs,
//              stage next-state with set_next(); visible state is unchanged.
//   commit   — sequential: latch every staged value.
//
// Because every evaluate reads only pre-edge values, the order in which a
// chain of PEs is evaluated within a cycle cannot change behaviour — the
// property that makes a systolic array race-free by construction, and the
// reason the dense reference chain is the oracle for the in-place event
// chain (core/systolic_array.hpp).
#pragma once

namespace swr::hw {

/// A register with two-phase update semantics. Holds its current value
/// until commit() latches the staged next value.
template <typename T>
class Reg {
 public:
  Reg() = default;
  explicit Reg(T reset_value) : cur_(reset_value), nxt_(reset_value), reset_(reset_value) {}

  /// Current (pre-edge) value — what combinational logic reads.
  [[nodiscard]] const T& get() const noexcept { return cur_; }
  /// Stages the post-edge value.
  void set_next(const T& v) noexcept { nxt_ = v; }
  /// Latches. Called from the owning PE's commit().
  void commit() noexcept { cur_ = nxt_; }
  /// Back to the reset value.
  void reset() noexcept { cur_ = nxt_ = reset_; }

 private:
  T cur_{};
  T nxt_{};
  T reset_{};
};

}  // namespace swr::hw
