// Runtime CPU-feature detection and SIMD kernel-selection policy.
//
// The scan engine's kernel ladder spans lane widths from the portable
// scalar query-profile kernel up to the 64-lane AVX-512BW kernels
// (align/sw_striped.hpp, align/sw_interseq.hpp). Which rung is usable
// depends on the machine the binary LANDS on, not the one it was built on,
// so selection is a runtime decision: CPUID (via __builtin_cpu_supports)
// answers what the hardware can do, and this module turns that answer plus
// the operator's wishes (`SWR_SIMD` env, `--simd` CLI) into one effective
// ISA per scan.
//
// Policy, in order of precedence:
//   1. an explicit `--simd` value on the command line;
//   2. the `SWR_SIMD` environment variable (scalar|sse41|avx2|avx512|auto)
//      — the CI matrix pins each rung of the ladder with it;
//   3. auto: the widest ISA the CPU supports.
// A request the CPU cannot honour degrades to the widest supported rung
// below it (scalar at worst) with a one-time warning — it never crashes
// and never silently runs an illegal-instruction path. Unknown env values
// warn and fall back to auto; unknown CLI values are rejected with a
// listed-choices error at parse time (cli/commands.cpp).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace swr::core {

/// SIMD instruction tiers for the CPU scan kernels, ordered narrow to
/// wide by 8-bit lane count: 1, 16, 32, 64. The vector tiers run the 8-bit
/// striped (or inter-sequence) kernel first and lazily re-run a record
/// that saturates it in 16-bit striped lanes, then in the scalar kernel.
enum class SimdIsa : unsigned {
  Scalar = 0,  ///< query-profile scalar kernel (always available)
  Sse41 = 1,   ///< sixteen 8-bit lanes, striped (__m128i, needs SSE4.1)
  Avx2 = 2,    ///< thirty-two 8-bit lanes, striped (__m256i, needs AVX2)
  Avx512 = 3,  ///< sixty-four 8-bit lanes (__m512i, needs AVX-512BW and OS zmm state)
};

/// Canonical lower-case name ("scalar", "sse41", "avx2", "avx512").
const char* simd_isa_name(SimdIsa isa) noexcept;

/// The accepted spelling list, for error messages:
/// "auto|scalar|sse41|avx2|avx512".
const char* simd_isa_choices() noexcept;

/// Parses a policy name. "auto" and the empty string yield nullopt (= let
/// detection decide); unknown spellings throw.
/// @throws std::invalid_argument listing the accepted choices.
std::optional<SimdIsa> parse_simd_isa(std::string_view name);

/// True when this machine can execute `isa` (CPUID, cached after the
/// first call). Scalar is always true; the vector tiers require both x86
/// hardware support and a compiler that could build the striped kernels.
bool cpu_supports(SimdIsa isa) noexcept;

/// Widest ISA this machine supports (one-time CPUID, cached).
SimdIsa detected_simd_isa() noexcept;

/// Pure clamp: `requested` if `detected` can honour it, else `detected`.
/// When a degrade happens and `warning` is non-null, *warning receives a
/// one-line human-readable explanation (empty otherwise). No I/O — the
/// impure wrappers below own the stderr side effect.
SimdIsa clamp_simd_isa(SimdIsa requested, SimdIsa detected, std::string* warning = nullptr);

/// `requested` clamped against this machine, warning on stderr once per
/// process when the request degrades.
SimdIsa effective_simd_isa(SimdIsa requested);

/// The `SWR_SIMD` environment override, freshly read (not cached, so
/// tests can setenv between calls). nullopt when unset, empty, or "auto".
/// An unknown value warns on stderr once per process and yields nullopt
/// rather than throwing — a bad ambient variable must not kill a scan.
std::optional<SimdIsa> simd_isa_env_override();

/// The Auto policy, resolved: the SWR_SIMD override if set (clamped to
/// what the CPU supports, with a one-time stderr warning on degrade),
/// else the detected widest ISA.
SimdIsa auto_simd_isa();

/// The tier a scan runs for a `--simd` request: auto_simd_isa() for
/// nullopt (auto), else effective_simd_isa(*requested).
SimdIsa resolve_simd_isa(std::optional<SimdIsa> requested);

/// Scan kernel *shape* — orthogonal to the SimdIsa lane-width ladder.
/// The striped shape splits one record's query columns across lanes; the
/// inter-sequence shape packs a different database record into every lane
/// (align/sw_interseq.hpp). Only the native-vector tiers (Sse41, Avx2,
/// Avx512) have both shapes; the scalar tier is striped-shaped only.
enum class KernelShape : unsigned {
  Auto,      ///< inter-sequence for store-backed scans when usable, else striped
  Striped,   ///< one record at a time, query columns across lanes
  InterSeq,  ///< one record per lane, lanes batched by the length schedule
};

/// Canonical lower-case name ("auto", "striped", "interseq").
const char* kernel_shape_name(KernelShape shape) noexcept;

/// The accepted spelling list, for error messages: "auto|striped|interseq".
const char* kernel_shape_choices() noexcept;

/// Parses a kernel-shape name. "auto" and the empty string yield
/// KernelShape::Auto; unknown spellings throw.
/// @throws std::invalid_argument listing the accepted choices.
KernelShape parse_kernel_shape(std::string_view name);

/// The `SWR_KERNEL` environment override, freshly read. nullopt when
/// unset or empty. An unknown value warns on stderr once per process and
/// yields nullopt rather than throwing — same contract as
/// simd_isa_env_override(). It applies only when the caller's own request
/// is Auto (an explicit --kernel outranks the environment, mirroring the
/// SWR_SIMD precedence).
std::optional<KernelShape> kernel_shape_env_override();

}  // namespace swr::core
