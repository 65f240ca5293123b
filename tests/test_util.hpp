// Shared helpers for the test suite.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "core/cpu_features.hpp"
#include "seq/random.hpp"
#include "seq/sequence.hpp"

namespace swr::test {

/// Temp-file leaf made unique per process. gtest_discover_tests runs
/// every TEST as its own process, so a fixture naming a fixed leaf under
/// testing::TempDir() collides when `ctest -j` schedules two tests of the
/// same suite together — one process's build_store truncates the .swdb
/// another process has mmap'd mid-scan (SIGBUS).
inline std::string unique_leaf(const std::string& leaf) {
#if defined(__linux__)
  return std::to_string(::getpid()) + "_" + leaf;
#else
  return leaf;
#endif
}

/// Every ScanOptions::simd request: auto (nullopt) and each tier. A tier
/// the machine lacks degrades (one-time warning), so sweeps over this list
/// run everywhere.
inline constexpr std::optional<core::SimdIsa> kSimdRequests[] = {
    std::nullopt, core::SimdIsa::Scalar, core::SimdIsa::Sse41, core::SimdIsa::Avx2};

/// The `--simd` spelling of a request, for failure messages.
inline std::string simd_label(std::optional<core::SimdIsa> simd) {
  return simd.has_value() ? core::simd_isa_name(*simd) : "auto";
}

/// Whether a scan requesting `simd` runs an 8-bit kernel first on this
/// host, and so counts swar8_fallbacks. It resolves the request the way
/// the engine does (SWR_SIMD override, degrade of an unsupported tier):
/// every vector tier leads with 8-bit lanes, scalar never does.
inline bool leads_with_bytes(std::optional<core::SimdIsa> simd) {
  return core::resolve_simd_isa(simd) != core::SimdIsa::Scalar;
}

/// Deterministic random DNA of length n.
inline seq::Sequence random_dna(std::size_t n, std::uint64_t seed) {
  seq::RandomSequenceGenerator gen(seed);
  return gen.uniform(seq::dna(), n);
}

/// Deterministic random protein of length n.
inline seq::Sequence random_protein(std::size_t n, std::uint64_t seed) {
  seq::RandomSequenceGenerator gen(seed);
  return gen.uniform(seq::protein(), n);
}

/// Whole-file read and overwrite, for tests that corrupt a file's bytes.
inline std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace swr::test
