#include "align/sw_striped.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/sw_linear.hpp"

// The kernels use per-function target attributes so this translation unit
// builds with the portable baseline flags and the binary never executes a
// wide instruction unless CPUID said it may (core/cpu_features.hpp gates
// dispatch; the *_try entry points re-check defensively).
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SWR_STRIPED_X86 1
#include <immintrin.h>
#else
#define SWR_STRIPED_X86 0
#endif

namespace swr::align {

namespace {

struct Magnitudes {
  Score max_sub = 0;
  Score min_sub = 0;
  Score gap_mag = 0;
};

Magnitudes scheme_magnitudes(const Scoring& sc) {
  Magnitudes m;
  if (sc.matrix != nullptr) {
    m.max_sub = sc.matrix->max_entry();
    m.min_sub = sc.matrix->min_entry();
  } else {
    m.max_sub = sc.match;
    m.min_sub = std::min(sc.mismatch, sc.match);
  }
  m.gap_mag = -sc.gap;
  return m;
}

}  // namespace

bool sw_striped_compiled() noexcept { return SWR_STRIPED_X86 != 0; }

StripedProfile::StripedProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8)
    : StripedProfile(query.codes(), sc, lanes8, query.alphabet().size()) {}

StripedProfile::StripedProfile(std::span<const seq::Code> query, const Scoring& sc,
                               unsigned lanes8, std::size_t alphabet_size)
    : n_(query.size()), lanes8_(lanes8) {
  sc.validate();
  if (lanes8 != 16 && lanes8 != 32) {
    throw std::invalid_argument("StripedProfile: lane count must be 16 (SSE4.1) or 32 (AVX2)");
  }
  const Magnitudes m = scheme_magnitudes(sc);
  fits8_ = m.max_sub <= 0xFF && -m.min_sub <= 0xFF && m.gap_mag <= 0xFF;
  fits16_ = m.max_sub <= 0xFFFF && -m.min_sub <= 0xFFFF && m.gap_mag <= 0xFFFF;
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

#if SWR_STRIPED_X86

namespace {

// --- SSE4.1, 16 x 8-bit lanes ---------------------------------------------

// One row of the striped recurrence per database residue. Saturation is
// detected exactly by xor-ing each saturating add against its wrapping
// twin (they differ iff the true sum exceeded the lane), accumulated per
// row and checked once — a clamped 255 is discarded before it can
// propagate into a returned result. The best cell is tracked as in
// sw_linear_profiled: a vector row-max against a broadcast threshold
// triggers a rare scalar rescan in query order, which reproduces the
// canonical (j, i)-lexicographic tie-break bit-for-bit.
__attribute__((target("sse4.1"))) std::optional<LocalScoreResult> striped8_sse41(
    std::span<const seq::Code> rec, const StripedProfile& p, StripedWorkspace& ws) {
  constexpr unsigned V = 16;
  const std::size_t m = rec.size();
  const std::size_t n = p.query_len();
  const std::size_t t = p.stripes8();
  LocalScoreResult best;
  ws.h8.assign(t * V, 0);
  std::uint8_t* H = ws.h8.data();
  const __m128i vGap = _mm_set1_epi8(static_cast<char>(p.gap8()));
  std::uint8_t thresh = 1;

  for (std::size_t i = 1; i <= m; ++i) {
    const std::uint8_t* pos = p.pos8(rec[i - 1]);
    const std::uint8_t* neg = p.neg8(rec[i - 1]);
    // Diagonal feed for stripe 0: the previous row's last stripe, lanes
    // shifted up one (query position -1 per lane), zero into lane 0 (the
    // matrix border).
    __m128i vDiag =
        _mm_slli_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(H + (t - 1) * V)), 1);
    __m128i vF = _mm_setzero_si128();
    __m128i vMax = _mm_setzero_si128();
    __m128i vOvf = _mm_setzero_si128();

    for (std::size_t s = 0; s < t; ++s) {
      const __m128i vLoad = _mm_loadu_si128(reinterpret_cast<const __m128i*>(H + s * V));
      const __m128i vPos = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pos + s * V));
      const __m128i vNeg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(neg + s * V));
      const __m128i vSat = _mm_adds_epu8(vDiag, vPos);
      vOvf = _mm_or_si128(vOvf, _mm_xor_si128(vSat, _mm_add_epi8(vDiag, vPos)));
      __m128i vH = _mm_subs_epu8(vSat, vNeg);             // diagonal path, clamped at 0
      vH = _mm_max_epu8(vH, _mm_subs_epu8(vLoad, vGap));  // vertical gap (prev row)
      vH = _mm_max_epu8(vH, vF);                          // horizontal gap, first pass
      _mm_storeu_si128(reinterpret_cast<__m128i*>(H + s * V), vH);
      vMax = _mm_max_epu8(vMax, vH);
      vF = _mm_subs_epu8(vH, vGap);
      vDiag = vLoad;
    }

    // Lazy-F fixup: carry the horizontal chain across segment boundaries
    // (one lane shift per wrap) until no lane can improve a stored cell.
    for (unsigned wrap = 0; wrap < V; ++wrap) {
      vF = _mm_slli_si128(vF, 1);
      bool settled = false;
      for (std::size_t s = 0; s < t; ++s) {
        __m128i vH = _mm_loadu_si128(reinterpret_cast<const __m128i*>(H + s * V));
        if (_mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(vF, vH), vH)) == 0xFFFF) {
          settled = true;  // vF <= H everywhere: every later chain is dominated
          break;
        }
        vH = _mm_max_epu8(vH, vF);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(H + s * V), vH);
        vMax = _mm_max_epu8(vMax, vH);
        vF = _mm_subs_epu8(vF, vGap);
      }
      if (settled) break;
    }

    if (!_mm_testz_si128(vOvf, vOvf)) return std::nullopt;  // true cell > 255 somewhere

    const __m128i vTh = _mm_set1_epi8(static_cast<char>(thresh));
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(_mm_max_epu8(vMax, vTh), vMax)) != 0) {
      for (std::size_t j = 0; j < n; ++j) {
        fold_best(best, static_cast<Score>(H[(j % t) * V + j / t]), Cell{i, j + 1});
      }
      thresh = static_cast<std::uint8_t>(best.score > 0 ? best.score : 1);
    }
  }
  return best;
}

// --- SSE4.1, 8 x 16-bit lanes (lazy re-run tier) --------------------------

__attribute__((target("sse4.1"))) std::optional<LocalScoreResult> striped16_sse41(
    std::span<const seq::Code> rec, const StripedProfile& p, StripedWorkspace& ws) {
  constexpr unsigned V = 8;
  const std::size_t m = rec.size();
  const std::size_t n = p.query_len();
  const std::size_t t = p.stripes16();
  LocalScoreResult best;
  ws.h16.assign(t * V, 0);
  std::uint16_t* H = ws.h16.data();
  const __m128i vGap = _mm_set1_epi16(static_cast<short>(p.gap16()));
  std::uint16_t thresh = 1;

  for (std::size_t i = 1; i <= m; ++i) {
    const std::uint16_t* pos = p.pos16(rec[i - 1]);
    const std::uint16_t* neg = p.neg16(rec[i - 1]);
    __m128i vDiag =
        _mm_slli_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(H + (t - 1) * V)), 2);
    __m128i vF = _mm_setzero_si128();
    __m128i vMax = _mm_setzero_si128();
    __m128i vOvf = _mm_setzero_si128();

    for (std::size_t s = 0; s < t; ++s) {
      const __m128i vLoad = _mm_loadu_si128(reinterpret_cast<const __m128i*>(H + s * V));
      const __m128i vPos = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pos + s * V));
      const __m128i vNeg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(neg + s * V));
      const __m128i vSat = _mm_adds_epu16(vDiag, vPos);
      vOvf = _mm_or_si128(vOvf, _mm_xor_si128(vSat, _mm_add_epi16(vDiag, vPos)));
      __m128i vH = _mm_subs_epu16(vSat, vNeg);
      vH = _mm_max_epu16(vH, _mm_subs_epu16(vLoad, vGap));
      vH = _mm_max_epu16(vH, vF);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(H + s * V), vH);
      vMax = _mm_max_epu16(vMax, vH);
      vF = _mm_subs_epu16(vH, vGap);
      vDiag = vLoad;
    }

    for (unsigned wrap = 0; wrap < V; ++wrap) {
      vF = _mm_slli_si128(vF, 2);
      bool settled = false;
      for (std::size_t s = 0; s < t; ++s) {
        __m128i vH = _mm_loadu_si128(reinterpret_cast<const __m128i*>(H + s * V));
        if (_mm_movemask_epi8(_mm_cmpeq_epi16(_mm_max_epu16(vF, vH), vH)) == 0xFFFF) {
          settled = true;
          break;
        }
        vH = _mm_max_epu16(vH, vF);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(H + s * V), vH);
        vMax = _mm_max_epu16(vMax, vH);
        vF = _mm_subs_epu16(vF, vGap);
      }
      if (settled) break;
    }

    if (!_mm_testz_si128(vOvf, vOvf)) return std::nullopt;  // true cell > 65535

    const __m128i vTh = _mm_set1_epi16(static_cast<short>(thresh));
    if (_mm_movemask_epi8(_mm_cmpeq_epi16(_mm_max_epu16(vMax, vTh), vMax)) != 0) {
      for (std::size_t j = 0; j < n; ++j) {
        fold_best(best, static_cast<Score>(H[(j % t) * V + j / t]), Cell{i, j + 1});
      }
      thresh = static_cast<std::uint16_t>(best.score > 0 ? best.score : 1);
    }
  }
  return best;
}

// --- AVX2 helpers: byte shifts across the 128-bit lane boundary -----------

// Shift the whole 256-bit register left by one byte / one 16-bit lane,
// zero-filling byte 0 (alignr works per 128-bit lane, so the low lane's
// top byte is carried into the high lane through a permute).
__attribute__((target("avx2"))) inline __m256i shl_byte_256(__m256i v) {
  const __m256i carry = _mm256_permute2x128_si256(v, v, 0x08);  // [zero, v_low]
  return _mm256_alignr_epi8(v, carry, 15);
}

__attribute__((target("avx2"))) inline __m256i shl_word_256(__m256i v) {
  const __m256i carry = _mm256_permute2x128_si256(v, v, 0x08);
  return _mm256_alignr_epi8(v, carry, 14);
}

// --- AVX2, 32 x 8-bit lanes -----------------------------------------------

__attribute__((target("avx2"))) std::optional<LocalScoreResult> striped8_avx2(
    std::span<const seq::Code> rec, const StripedProfile& p, StripedWorkspace& ws) {
  constexpr unsigned V = 32;
  const std::size_t m = rec.size();
  const std::size_t n = p.query_len();
  const std::size_t t = p.stripes8();
  LocalScoreResult best;
  ws.h8.assign(t * V, 0);
  std::uint8_t* H = ws.h8.data();
  const __m256i vGap = _mm256_set1_epi8(static_cast<char>(p.gap8()));
  std::uint8_t thresh = 1;

  for (std::size_t i = 1; i <= m; ++i) {
    const std::uint8_t* pos = p.pos8(rec[i - 1]);
    const std::uint8_t* neg = p.neg8(rec[i - 1]);
    __m256i vDiag =
        shl_byte_256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(H + (t - 1) * V)));
    __m256i vF = _mm256_setzero_si256();
    __m256i vMax = _mm256_setzero_si256();
    __m256i vOvf = _mm256_setzero_si256();

    for (std::size_t s = 0; s < t; ++s) {
      const __m256i vLoad = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(H + s * V));
      const __m256i vPos = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + s * V));
      const __m256i vNeg = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(neg + s * V));
      const __m256i vSat = _mm256_adds_epu8(vDiag, vPos);
      vOvf = _mm256_or_si256(vOvf, _mm256_xor_si256(vSat, _mm256_add_epi8(vDiag, vPos)));
      __m256i vH = _mm256_subs_epu8(vSat, vNeg);
      vH = _mm256_max_epu8(vH, _mm256_subs_epu8(vLoad, vGap));
      vH = _mm256_max_epu8(vH, vF);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(H + s * V), vH);
      vMax = _mm256_max_epu8(vMax, vH);
      vF = _mm256_subs_epu8(vH, vGap);
      vDiag = vLoad;
    }

    for (unsigned wrap = 0; wrap < V; ++wrap) {
      vF = shl_byte_256(vF);
      bool settled = false;
      for (std::size_t s = 0; s < t; ++s) {
        __m256i vH = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(H + s * V));
        const unsigned dominated = static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(vF, vH), vH)));
        if (dominated == 0xFFFFFFFFu) {
          settled = true;
          break;
        }
        vH = _mm256_max_epu8(vH, vF);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(H + s * V), vH);
        vMax = _mm256_max_epu8(vMax, vH);
        vF = _mm256_subs_epu8(vF, vGap);
      }
      if (settled) break;
    }

    if (!_mm256_testz_si256(vOvf, vOvf)) return std::nullopt;

    const __m256i vTh = _mm256_set1_epi8(static_cast<char>(thresh));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_max_epu8(vMax, vTh), vMax)) != 0) {
      for (std::size_t j = 0; j < n; ++j) {
        fold_best(best, static_cast<Score>(H[(j % t) * V + j / t]), Cell{i, j + 1});
      }
      thresh = static_cast<std::uint8_t>(best.score > 0 ? best.score : 1);
    }
  }
  return best;
}

// --- AVX2, 16 x 16-bit lanes ----------------------------------------------

__attribute__((target("avx2"))) std::optional<LocalScoreResult> striped16_avx2(
    std::span<const seq::Code> rec, const StripedProfile& p, StripedWorkspace& ws) {
  constexpr unsigned V = 16;
  const std::size_t m = rec.size();
  const std::size_t n = p.query_len();
  const std::size_t t = p.stripes16();
  LocalScoreResult best;
  ws.h16.assign(t * V, 0);
  std::uint16_t* H = ws.h16.data();
  const __m256i vGap = _mm256_set1_epi16(static_cast<short>(p.gap16()));
  std::uint16_t thresh = 1;

  for (std::size_t i = 1; i <= m; ++i) {
    const std::uint16_t* pos = p.pos16(rec[i - 1]);
    const std::uint16_t* neg = p.neg16(rec[i - 1]);
    __m256i vDiag =
        shl_word_256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(H + (t - 1) * V)));
    __m256i vF = _mm256_setzero_si256();
    __m256i vMax = _mm256_setzero_si256();
    __m256i vOvf = _mm256_setzero_si256();

    for (std::size_t s = 0; s < t; ++s) {
      const __m256i vLoad = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(H + s * V));
      const __m256i vPos = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + s * V));
      const __m256i vNeg = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(neg + s * V));
      const __m256i vSat = _mm256_adds_epu16(vDiag, vPos);
      vOvf = _mm256_or_si256(vOvf, _mm256_xor_si256(vSat, _mm256_add_epi16(vDiag, vPos)));
      __m256i vH = _mm256_subs_epu16(vSat, vNeg);
      vH = _mm256_max_epu16(vH, _mm256_subs_epu16(vLoad, vGap));
      vH = _mm256_max_epu16(vH, vF);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(H + s * V), vH);
      vMax = _mm256_max_epu16(vMax, vH);
      vF = _mm256_subs_epu16(vH, vGap);
      vDiag = vLoad;
    }

    for (unsigned wrap = 0; wrap < V; ++wrap) {
      vF = shl_word_256(vF);
      bool settled = false;
      for (std::size_t s = 0; s < t; ++s) {
        __m256i vH = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(H + s * V));
        const unsigned dominated = static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi16(_mm256_max_epu16(vF, vH), vH)));
        if (dominated == 0xFFFFFFFFu) {
          settled = true;
          break;
        }
        vH = _mm256_max_epu16(vH, vF);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(H + s * V), vH);
        vMax = _mm256_max_epu16(vMax, vH);
        vF = _mm256_subs_epu16(vF, vGap);
      }
      if (settled) break;
    }

    if (!_mm256_testz_si256(vOvf, vOvf)) return std::nullopt;

    const __m256i vTh = _mm256_set1_epi16(static_cast<short>(thresh));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi16(_mm256_max_epu16(vMax, vTh), vMax)) != 0) {
      for (std::size_t j = 0; j < n; ++j) {
        fold_best(best, static_cast<Score>(H[(j % t) * V + j / t]), Cell{i, j + 1});
      }
      thresh = static_cast<std::uint16_t>(best.score > 0 ? best.score : 1);
    }
  }
  return best;
}

bool runtime_supports(unsigned lanes8) {
  return lanes8 == 32 ? __builtin_cpu_supports("avx2") != 0
                      : __builtin_cpu_supports("sse4.1") != 0;
}

}  // namespace

#endif  // SWR_STRIPED_X86

std::optional<LocalScoreResult> sw_striped8_try(std::span<const seq::Code> rec,
                                                const StripedProfile& profile,
                                                StripedWorkspace& ws) {
#if SWR_STRIPED_X86
  // A scheme that cannot fit the lanes is reported as overflow (the
  // caller's fallback accounting depends on every 8-bit kernel sharing
  // that predicate); only then the trivial cases.
  if (!profile.fits8()) return std::nullopt;
  if (rec.empty() || profile.query_len() == 0) return LocalScoreResult{};
  if (!runtime_supports(profile.lanes8())) return std::nullopt;
  return profile.lanes8() == 32 ? striped8_avx2(rec, profile, ws)
                                : striped8_sse41(rec, profile, ws);
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
#if SWR_STRIPED_X86
  if (!profile.fits16()) return std::nullopt;
  if (rec.empty() || profile.query_len() == 0) return LocalScoreResult{};
  if (!runtime_supports(profile.lanes8())) return std::nullopt;
  return profile.lanes8() == 32 ? striped16_avx2(rec, profile, ws)
                                : striped16_sse41(rec, profile, ws);
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
