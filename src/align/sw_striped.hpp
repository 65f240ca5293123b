// Striped (Farrar-layout) native-SIMD Smith-Waterman — the widest rung of
// the CPU scan-kernel ladder.
//
// The paper's systolic array wins by updating many anti-diagonal cells per
// clock; in software the analogue is lane count: 16 8-bit lanes with
// SSE4.1 (__m128i) and 32 with AVX2 (__m256i). The array gets each
// neighbour's cell from its wiring for free, but a CPU anti-diagonal
// layout pays for the same data movement in per-diagonal residue gathers
// and lane shuffles, which eat the win — so these kernels use Farrar's
// *striped* layout instead: the query is split into `lanes` equal
// segments of `stripes = ceil(n / lanes)` positions, vector s holds query
// positions {s, s+stripes, s+2*stripes, ...}, and one row of the DP
// matrix is computed per database residue with the horizontal-gap
// dependency resolved by the classic lazy-F fixup loop (at most `lanes`
// wraps; in practice it exits after one or two stripes).
//
// Exactness contract (shared with align/sw_interseq.hpp):
//   * positive and negative substitution contributions are applied as a
//     saturating add then a saturating subtract, so cell values carry no
//     bias — the full 0..255 (0..65535) range is usable, and a score of
//     exactly 255 (65535) is still exact;
//   * saturation is detected exactly: the 8-bit kernel compares each
//     saturating add against its wrapping twin and returns nullopt the
//     row any lane clamps — the caller lazily re-runs the record with the
//     16-bit striped kernel, and beyond that the scalar profile kernel.
//     A record overflows the 8-bit kernel iff some true cell value > 255
//     or the scheme's magnitudes do not fit a lane — the same predicate
//     at every lane width and for the inter-sequence kernel, so the
//     `swar8_fallbacks` re-run count and cross-engine bit-identity do not
//     depend on which 8-bit kernel ran;
//   * results are bit-identical to sw_linear (score + canonical cell
//     under the (j, i)-lexicographic tie-break) whenever a value is
//     returned. Tests enforce all of it.
//
// The profile (per-residue striped score rows) is built once per query
// per lane width and reused for every record — the scan engine builds one
// per scan (host/profile_cache.hpp), next to the scalar QueryProfile.
//
// Availability: the kernels are compiled on x86 GCC/Clang only (per-
// function target attributes, no global -mavx2 — the binary stays
// portable) and guarded by CPUID at runtime. Off x86 every *_try returns
// nullopt and sw_striped_compiled() is false; core/cpu_features.hpp turns
// that plus SWR_SIMD/--simd into the per-scan dispatch decision.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "align/result.hpp"
#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace swr::align {

/// True when this binary contains the striped kernels (x86 + GCC/Clang).
bool sw_striped_compiled() noexcept;

/// Striped query profile for one (query, scoring, lane-width) triple:
/// for every database residue code the positive and negative substitution
/// magnitudes, laid out stripe-major so kernel stripe `s` is one aligned
/// vector load. Both the 8-bit and the (lazy-re-run) 16-bit layouts are
/// built, the 16-bit one at half the lane count so it rides the same
/// vector width.
class StripedProfile {
 public:
  /// `lanes8` is the 8-bit lane count: 16 (SSE4.1) or 32 (AVX2).
  /// @throws std::invalid_argument on invalid scoring or lane count.
  StripedProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8);

  /// As above over raw codes; `alphabet_size` bounds the residue codes
  /// records may present.
  StripedProfile(std::span<const seq::Code> query, const Scoring& sc, unsigned lanes8,
                 std::size_t alphabet_size);

  [[nodiscard]] std::size_t query_len() const noexcept { return n_; }
  [[nodiscard]] unsigned lanes8() const noexcept { return lanes8_; }
  [[nodiscard]] unsigned lanes16() const noexcept { return lanes8_ / 2; }
  /// Segment length = vectors per row = ceil(n / lanes); 0 when n == 0.
  [[nodiscard]] std::size_t stripes8() const noexcept { return stripes8_; }
  [[nodiscard]] std::size_t stripes16() const noexcept { return stripes16_; }

  /// Whether the scheme's per-update magnitudes fit the lane width at all
  /// (largest substitution magnitude and -gap <= 0xFF / 0xFFFF). When
  /// false the corresponding kernel is structurally unusable and returns
  /// nullopt immediately, reported as an overflow like a saturated row.
  [[nodiscard]] bool fits8() const noexcept { return fits8_; }
  [[nodiscard]] bool fits16() const noexcept { return fits16_; }

  [[nodiscard]] std::uint8_t gap8() const noexcept { return gap8_; }
  [[nodiscard]] std::uint16_t gap16() const noexcept { return gap16_; }

  /// Striped positive/negative substitution rows for database residue
  /// code `c` (unchecked): stripes8()*lanes8() bytes, vector `s` at
  /// offset s*lanes8(). Padding slots (query position >= n) hold pos 0 /
  /// neg 0xFF, which pins their diagonal path to zero — score-neutral.
  [[nodiscard]] const std::uint8_t* pos8(seq::Code c) const noexcept {
    return pos8_.data() + static_cast<std::size_t>(c) * stripes8_ * lanes8_;
  }
  [[nodiscard]] const std::uint8_t* neg8(seq::Code c) const noexcept {
    return neg8_.data() + static_cast<std::size_t>(c) * stripes8_ * lanes8_;
  }
  [[nodiscard]] const std::uint16_t* pos16(seq::Code c) const noexcept {
    return pos16_.data() + static_cast<std::size_t>(c) * stripes16_ * lanes16();
  }
  [[nodiscard]] const std::uint16_t* neg16(seq::Code c) const noexcept {
    return neg16_.data() + static_cast<std::size_t>(c) * stripes16_ * lanes16();
  }

  /// The (stripe, lane) slot holding query position `j` under `stripes`
  /// segments: stripe = j % stripes, lane = j / stripes. Exposed for the
  /// layout round-trip tests.
  [[nodiscard]] static std::size_t stripe_of(std::size_t j, std::size_t stripes) noexcept {
    return j % stripes;
  }
  [[nodiscard]] static std::size_t lane_of(std::size_t j, std::size_t stripes) noexcept {
    return j / stripes;
  }

 private:
  std::size_t n_;
  unsigned lanes8_;
  std::size_t stripes8_ = 0;
  std::size_t stripes16_ = 0;
  bool fits8_ = false;
  bool fits16_ = false;
  std::uint8_t gap8_ = 0;
  std::uint16_t gap16_ = 0;
  std::vector<std::uint8_t> pos8_, neg8_;
  std::vector<std::uint16_t> pos16_, neg16_;
};

/// Reusable per-thread scratch: one striped H row per precision. A scan
/// allocates these once per worker, not once per record.
struct StripedWorkspace {
  std::vector<std::uint8_t> h8;
  std::vector<std::uint16_t> h16;
};

/// 8-bit striped kernel over rec (rows) vs the profile's query (columns).
/// Dispatches SSE4.1 / AVX2 on profile.lanes8(). Returns the exact
/// sw_linear result, or nullopt when any lane saturated (some true cell
/// value > 255), the scheme does not fit 8 bits, or the required ISA is
/// unavailable — the caller should re-run one precision down.
std::optional<LocalScoreResult> sw_striped8_try(std::span<const seq::Code> rec,
                                                const StripedProfile& profile,
                                                StripedWorkspace& ws);

/// 16-bit striped re-run for records that saturate the 8-bit lanes.
/// nullopt when a true cell value exceeds 65535 (fall back to scalar),
/// the scheme does not fit 16 bits, or the ISA is unavailable.
std::optional<LocalScoreResult> sw_striped16_try(std::span<const seq::Code> rec,
                                                 const StripedProfile& profile,
                                                 StripedWorkspace& ws);

/// Convenience ladder for tests and one-off callers: striped 8-bit, then
/// striped 16-bit, then exact scalar — always the sw_linear result.
/// `fallbacks8`, when non-null, is incremented once if the 8-bit pass
/// saturated (the ScanResult::swar8_fallbacks accounting rule).
/// @throws std::invalid_argument on alphabet mismatch / invalid scoring
/// / unsupported lane count.
LocalScoreResult sw_linear_striped(const seq::Sequence& a, const seq::Sequence& b,
                                   const Scoring& sc, unsigned lanes8,
                                   std::uint64_t* fallbacks8 = nullptr);

}  // namespace swr::align
