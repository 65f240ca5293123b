#include "core/cpu_features.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace swr::core {

namespace {

// The SIMD kernels (align/simd_kernels.hpp) are compiled exactly under
// this condition; detection must never report an ISA the binary has no
// code for, so the same gate appears here.
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
constexpr bool kStripedCompiled = true;
bool hardware_supports(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Scalar:
      return true;
    case SimdIsa::Sse41:
      return __builtin_cpu_supports("sse4.1") != 0;
    case SimdIsa::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdIsa::Avx512:
      // libgcc reports avx512bw only when XGETBV shows the OS saves the
      // opmask and zmm state.
      return __builtin_cpu_supports("avx512bw") != 0;
  }
  return false;
}
#else
constexpr bool kStripedCompiled = false;
bool hardware_supports(SimdIsa isa) noexcept { return isa == SimdIsa::Scalar; }
#endif

// One warning per distinct degrade/bad-env situation per process: scans
// run millions of times, stderr must not.
std::atomic<bool> warned_degrade{false};
std::atomic<bool> warned_bad_env{false};
std::atomic<bool> warned_bad_kernel_env{false};

}  // namespace

const char* simd_isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::Scalar: return "scalar";
    case SimdIsa::Sse41: return "sse41";
    case SimdIsa::Avx2: return "avx2";
    case SimdIsa::Avx512: return "avx512";
  }
  return "unknown";
}

const char* simd_isa_choices() noexcept { return "auto|scalar|sse41|avx2|avx512"; }

std::optional<SimdIsa> parse_simd_isa(std::string_view name) {
  if (name.empty() || name == "auto") return std::nullopt;
  if (name == "scalar") return SimdIsa::Scalar;
  if (name == "sse41") return SimdIsa::Sse41;
  if (name == "avx2") return SimdIsa::Avx2;
  if (name == "avx512") return SimdIsa::Avx512;
  throw std::invalid_argument("unknown simd policy '" + std::string(name) +
                              "' (choices: " + simd_isa_choices() + ")");
}

bool cpu_supports(SimdIsa isa) noexcept {
  if (isa != SimdIsa::Scalar && !kStripedCompiled) return false;
  // __builtin_cpu_supports resolves against a cached model after libgcc's
  // one-time cpuid; caching again here would buy nothing.
  return hardware_supports(isa);
}

SimdIsa detected_simd_isa() noexcept {
  static const SimdIsa widest = [] {
    if (cpu_supports(SimdIsa::Avx512)) return SimdIsa::Avx512;
    if (cpu_supports(SimdIsa::Avx2)) return SimdIsa::Avx2;
    if (cpu_supports(SimdIsa::Sse41)) return SimdIsa::Sse41;
    return SimdIsa::Scalar;
  }();
  return widest;
}

SimdIsa clamp_simd_isa(SimdIsa requested, SimdIsa detected, std::string* warning) {
  if (warning != nullptr) warning->clear();
  if (static_cast<unsigned>(requested) <= static_cast<unsigned>(detected)) return requested;
  if (warning != nullptr) {
    *warning = std::string("SWR: requested simd '") + simd_isa_name(requested) +
               "' is not supported on this CPU; degrading to '" + simd_isa_name(detected) + "'";
  }
  return detected;
}

SimdIsa effective_simd_isa(SimdIsa requested) {
  std::string warning;
  const SimdIsa granted = clamp_simd_isa(requested, detected_simd_isa(), &warning);
  if (!warning.empty() && !warned_degrade.exchange(true)) {
    std::fprintf(stderr, "%s\n", warning.c_str());
  }
  return granted;
}

std::optional<SimdIsa> simd_isa_env_override() {
  const char* raw = std::getenv("SWR_SIMD");
  if (raw == nullptr) return std::nullopt;
  try {
    return parse_simd_isa(raw);
  } catch (const std::invalid_argument& e) {
    if (!warned_bad_env.exchange(true)) {
      std::fprintf(stderr, "SWR: ignoring SWR_SIMD: %s\n", e.what());
    }
    return std::nullopt;
  }
}

SimdIsa auto_simd_isa() {
  if (const std::optional<SimdIsa> env = simd_isa_env_override()) {
    return effective_simd_isa(*env);
  }
  return detected_simd_isa();
}

SimdIsa resolve_simd_isa(std::optional<SimdIsa> requested) {
  return requested.has_value() ? effective_simd_isa(*requested) : auto_simd_isa();
}

const char* kernel_shape_name(KernelShape shape) noexcept {
  switch (shape) {
    case KernelShape::Auto: return "auto";
    case KernelShape::Striped: return "striped";
    case KernelShape::InterSeq: return "interseq";
  }
  return "unknown";
}

const char* kernel_shape_choices() noexcept { return "auto|striped|interseq"; }

KernelShape parse_kernel_shape(std::string_view name) {
  if (name.empty() || name == "auto") return KernelShape::Auto;
  if (name == "striped") return KernelShape::Striped;
  if (name == "interseq") return KernelShape::InterSeq;
  throw std::invalid_argument("unknown kernel shape '" + std::string(name) +
                              "' (choices: " + kernel_shape_choices() + ")");
}

std::optional<KernelShape> kernel_shape_env_override() {
  const char* raw = std::getenv("SWR_KERNEL");
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  try {
    const KernelShape shape = parse_kernel_shape(raw);
    if (shape == KernelShape::Auto) return std::nullopt;  // "auto" = no override
    return shape;
  } catch (const std::invalid_argument& e) {
    if (!warned_bad_kernel_env.exchange(true)) {
      std::fprintf(stderr, "SWR: ignoring SWR_KERNEL: %s\n", e.what());
    }
    return std::nullopt;
  }
}

}  // namespace swr::core
