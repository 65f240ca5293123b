#include "align/sw_striped.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/simd_kernels.hpp"
#include "align/sw_linear.hpp"

namespace swr::align {

bool sw_striped_compiled() noexcept { return SWR_SIMD_X86 != 0; }

StripedProfile::StripedProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8)
    : StripedProfile(query.codes(), sc, lanes8, query.alphabet().size()) {}

StripedProfile::StripedProfile(std::span<const seq::Code> query, const Scoring& sc,
                               unsigned lanes8, std::size_t alphabet_size)
    : n_(query.size()), lanes8_(lanes8) {
  sc.validate();
  if (lanes8 != 16 && lanes8 != 32 && lanes8 != 64) {
    throw std::invalid_argument(
        "StripedProfile: lane count must be 16 (SSE4.1), 32 (AVX2) or 64 (AVX-512BW)");
  }
  const simd::Magnitudes m = simd::scheme_magnitudes(sc);
  fits8_ = m.fit(0xFF);
  fits16_ = m.fit(0xFFFF);
  gap8_ = static_cast<std::uint8_t>(std::min<Score>(m.gap_mag, 0xFF));
  gap16_ = static_cast<std::uint16_t>(std::min<Score>(m.gap_mag, 0xFFFF));
  if (n_ == 0) return;

  stripes8_ = (n_ + lanes8_ - 1) / lanes8_;
  const unsigned l16 = lanes16();
  stripes16_ = (n_ + l16 - 1) / l16;

  // Padding slots (query position >= n) stay at pos 0 / neg max: their
  // diagonal path saturates to zero every row, so they can never beat a
  // real cell nor leak a false overflow (adding 0 cannot carry).
  if (fits8_) {
    pos8_.assign(alphabet_size * stripes8_ * lanes8_, 0);
    neg8_.assign(alphabet_size * stripes8_ * lanes8_, 0xFF);
    for (std::size_t c = 0; c < alphabet_size; ++c) {
      std::uint8_t* pos = pos8_.data() + c * stripes8_ * lanes8_;
      std::uint8_t* neg = neg8_.data() + c * stripes8_ * lanes8_;
      for (std::size_t j = 0; j < n_; ++j) {
        const Score s = sc.substitution(static_cast<seq::Code>(c), query[j]);
        const std::size_t slot = stripe_of(j, stripes8_) * lanes8_ + lane_of(j, stripes8_);
        pos[slot] = static_cast<std::uint8_t>(s > 0 ? s : 0);
        neg[slot] = static_cast<std::uint8_t>(s < 0 ? -s : 0);
      }
    }
  }
  if (fits16_) {
    pos16_.assign(alphabet_size * stripes16_ * l16, 0);
    neg16_.assign(alphabet_size * stripes16_ * l16, 0xFFFF);
    for (std::size_t c = 0; c < alphabet_size; ++c) {
      std::uint16_t* pos = pos16_.data() + c * stripes16_ * l16;
      std::uint16_t* neg = neg16_.data() + c * stripes16_ * l16;
      for (std::size_t j = 0; j < n_; ++j) {
        const Score s = sc.substitution(static_cast<seq::Code>(c), query[j]);
        const std::size_t slot = stripe_of(j, stripes16_) * l16 + lane_of(j, stripes16_);
        pos[slot] = static_cast<std::uint16_t>(s > 0 ? s : 0);
        neg[slot] = static_cast<std::uint16_t>(s < 0 ? -s : 0);
      }
    }
  }
}

std::optional<LocalScoreResult> sw_striped8_try(std::span<const seq::Code> rec,
                                                const StripedProfile& profile,
                                                StripedWorkspace& ws) {
#if SWR_SIMD_X86
  // A scheme that cannot fit the lanes is reported as overflow (the
  // caller's fallback accounting depends on every 8-bit kernel sharing
  // that predicate); only then the trivial cases.
  if (!profile.fits8()) return std::nullopt;
  if (rec.empty() || profile.query_len() == 0) return LocalScoreResult{};
  if (simd::max_lanes8() < profile.lanes8()) return std::nullopt;
  switch (profile.lanes8()) {
    case 64: return simd::avx512::striped<simd::avx512::U8>(rec, profile, ws);
    case 32: return simd::avx2::striped<simd::avx2::U8>(rec, profile, ws);
    default: return simd::sse41::striped<simd::sse41::U8>(rec, profile, ws);
  }
#else
  (void)rec;
  (void)profile;
  (void)ws;
  return std::nullopt;
#endif
}

std::optional<LocalScoreResult> sw_striped16_try(std::span<const seq::Code> rec,
                                                 const StripedProfile& profile,
                                                 StripedWorkspace& ws) {
#if SWR_SIMD_X86
  if (!profile.fits16()) return std::nullopt;
  if (rec.empty() || profile.query_len() == 0) return LocalScoreResult{};
  if (simd::max_lanes8() < profile.lanes8()) return std::nullopt;
  switch (profile.lanes8()) {
    case 64: return simd::avx512::striped<simd::avx512::U16>(rec, profile, ws);
    case 32: return simd::avx2::striped<simd::avx2::U16>(rec, profile, ws);
    default: return simd::sse41::striped<simd::sse41::U16>(rec, profile, ws);
  }
#else
  (void)rec;
  (void)profile;
  (void)ws;
  return std::nullopt;
#endif
}

LocalScoreResult sw_linear_striped(const seq::Sequence& a, const seq::Sequence& b,
                                   const Scoring& sc, unsigned lanes8,
                                   std::uint64_t* fallbacks8) {
  if (a.alphabet().id() != b.alphabet().id()) {
    throw std::invalid_argument("sw_linear_striped: alphabet mismatch");
  }
  const StripedProfile profile(b, sc, lanes8);
  StripedWorkspace ws;
  if (const auto r = sw_striped8_try(a.codes(), profile, ws)) return *r;
  if (fallbacks8 != nullptr) ++*fallbacks8;
  if (const auto r = sw_striped16_try(a.codes(), profile, ws)) return *r;
  return sw_linear(a, b, sc);
}

}  // namespace swr::align
