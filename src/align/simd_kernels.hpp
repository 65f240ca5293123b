// Internals shared by the two native-SIMD kernel translation units
// (sw_striped.cpp, sw_interseq.cpp): the x86 build gate, the scoring
// scheme's per-update magnitudes, the CPUID lane check, the per-ISA op
// sets, and the inter-sequence kernel's scalar lane bookkeeping.
//
// The kernel bodies live once, in simd_kernels.inc, written against an
// *op set*: a struct of always-inline, target-attributed static wrappers
// around the intrinsics of one ISA at one lane width —
//   sse41::U8  (16 x u8)    sse41::U16  (8 x u16)    128-bit, SSE4.1
//   avx2::U8   (32 x u8)    avx2::U16   (16 x u16)   256-bit, AVX2
//   avx512::U8 (64 x u8)    avx512::U16 (32 x u16)   512-bit, AVX-512BW
// Each ISA namespace below defines its op sets and then includes
// simd_kernels.inc with SWR_SIMD_TARGET set to its target attribute, so
// every instantiation is compiled for exactly its ISA while the TUs keep
// the portable baseline flags (tests/check_isa.py holds that line).
// Adding an ISA is one more such namespace plus a dispatch arm in each
// kernel TU; movemask may return up to 64 bits (one per byte lane).
//
// Not part of the public API: include only from the kernel TUs.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "align/scoring.hpp"
#include "align/sw_interseq.hpp"
#include "align/sw_striped.hpp"

// Per-function target attributes keep every kernel TU buildable with the
// portable baseline flags; the binary never executes a wide instruction
// unless CPUID said it may (core/cpu_features.hpp gates dispatch; the
// kernel entry points re-check with max_lanes8()).
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SWR_SIMD_X86 1
#include <immintrin.h>
#else
#define SWR_SIMD_X86 0
#endif

namespace swr::align::simd {

/// The scheme's largest substitution, smallest substitution and gap
/// magnitude: what decides whether a lane width can hold one update.
struct Magnitudes {
  Score max_sub = 0;
  Score min_sub = 0;
  Score gap_mag = 0;

  /// Every per-update magnitude fits a lane whose largest value is `top`
  /// — the one fit predicate every kernel and lane width shares.
  [[nodiscard]] bool fit(Score top) const noexcept {
    return max_sub <= top && -min_sub <= top && gap_mag <= top;
  }
};

inline Magnitudes scheme_magnitudes(const Scoring& sc) {
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

/// Widest 8-bit lane count this CPU can run: 64 (AVX-512BW), 32 (AVX2),
/// 16 (SSE4.1) or 0. libgcc reports avx512bw only when the OS also saves
/// the zmm and mask-register state.
inline unsigned max_lanes8() noexcept {
#if SWR_SIMD_X86
  if (__builtin_cpu_supports("avx512bw")) return 64;
  if (__builtin_cpu_supports("avx2")) return 32;
  if (__builtin_cpu_supports("sse4.1")) return 16;
#endif
  return 0;
}

// Query columns per block maximum the inter-sequence sweep keeps for the
// tie-break.
inline constexpr std::size_t kInterSeqBlockCols = 16;

// --- inter-sequence lane bookkeeping (scalar, every ISA) -------------------

// Transposes rows [from, from + rows) of every lane into ws.tile. Live
// lanes hold at least that many residues (sw_interseq_scan advances by
// the shortest remainder); dead lanes feed the neutral code.
template <unsigned L>
void load_tile(InterSeqWorkspace& ws, std::size_t from, std::size_t rows, std::uint8_t neutral) {
  for (unsigned l = 0; l < L; ++l) {
    const seq::Code* src = ws.cur[l];
    for (std::size_t t = 0; t < rows; ++t) {
      ws.tile[t * L + l] = src != nullptr ? src[from + t] : neutral;
    }
  }
}

// The canonical tie-break for the lanes whose row max reached their best.
// fold_best keeps the maximum under a strict total order (score
// descending, then j ascending, then i ascending), so folding the row's
// canonical maximum — the row max at the first column reaching it — once
// leaves the same best as folding the whole row in query order. The
// sweep's block maxima locate that column: the first block holding the
// row max, then the first column inside it. `row_max` is indexed by lane;
// `step` is the row's 1-based offset within the current advance call.
template <unsigned L>
void fold_row_max(std::uint64_t trig, const std::uint8_t* row_max, std::size_t step,
                  InterSeqWorkspace& ws) {
  for (; trig != 0; trig &= trig - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(trig));
    const std::uint8_t m = row_max[l];
    std::size_t b = 0;
    while (ws.bmax[b * L + l] != m) ++b;
    std::size_t j = b * kInterSeqBlockCols + 1;
    while (ws.h[j * L + l] != m) ++j;
    fold_best(ws.best[l], m, Cell{static_cast<std::size_t>(ws.row[l]) + step, j});
  }
}

// Moves every live lane `steps` rows on once the kernel has computed them.
template <unsigned L>
void consume_rows(InterSeqWorkspace& ws, std::size_t steps) {
  for (unsigned l = 0; l < L; ++l) {
    if (ws.cur[l] != nullptr) {
      ws.cur[l] += steps;
      ws.row[l] += steps;
    }
  }
}

#if SWR_SIMD_X86

// --- op sets ---------------------------------------------------------------
//
// Common to every op set: V (the register type), T (the lane type) and
// kLanes; load/store (unaligned), zero, set1; lane-wise adds/subs
// (unsigned saturating), add (wrapping) and max (unsigned); bitwise or_,
// xor_, and_, andnot (~a & b); testz (v == 0); movemask (one bit per
// byte, up to 64 bits); shl1, the whole register shifted up one lane with
// zero into lane 0; all_eq / any_eq (every / some lane of a equals b's). The u8 sets add
// what the inter-sequence sweep needs: cmpeq, lookup (a 16-slot byte
// table indexed by each lane's code, pshufb), hi_select (a blendv mask
// choosing the upper half of a 32-slot table: code bit 4 moved to bit 7)
// and blendv.

namespace sse41 {

#define SWR_SIMD_TARGET __attribute__((target("sse4.1")))
#define SWR_OP SWR_SIMD_TARGET __attribute__((always_inline)) static

struct Vec {
  using V = __m128i;
  static constexpr std::uint32_t kAllBytes = 0xFFFFu;
  SWR_OP V load(const void* p) { return _mm_loadu_si128(static_cast<const __m128i*>(p)); }
  SWR_OP void store(void* p, V v) { _mm_storeu_si128(static_cast<__m128i*>(p), v); }
  SWR_OP V zero() { return _mm_setzero_si128(); }
  SWR_OP V or_(V a, V b) { return _mm_or_si128(a, b); }
  SWR_OP V xor_(V a, V b) { return _mm_xor_si128(a, b); }
  SWR_OP V and_(V a, V b) { return _mm_and_si128(a, b); }
  SWR_OP V andnot(V a, V b) { return _mm_andnot_si128(a, b); }
  SWR_OP bool testz(V v) { return _mm_testz_si128(v, v) != 0; }
  SWR_OP std::uint32_t movemask(V v) { return static_cast<std::uint32_t>(_mm_movemask_epi8(v)); }
};

struct U8 : Vec {
  using T = std::uint8_t;
  static constexpr unsigned kLanes = 16;
  SWR_OP V set1(T x) { return _mm_set1_epi8(static_cast<char>(x)); }
  SWR_OP V adds(V a, V b) { return _mm_adds_epu8(a, b); }
  SWR_OP V add(V a, V b) { return _mm_add_epi8(a, b); }
  SWR_OP V subs(V a, V b) { return _mm_subs_epu8(a, b); }
  SWR_OP V max(V a, V b) { return _mm_max_epu8(a, b); }
  SWR_OP V cmpeq(V a, V b) { return _mm_cmpeq_epi8(a, b); }
  SWR_OP V shl1(V v) { return _mm_slli_si128(v, 1); }
  SWR_OP bool all_eq(V a, V b) { return movemask(cmpeq(a, b)) == kAllBytes; }
  SWR_OP bool any_eq(V a, V b) { return movemask(cmpeq(a, b)) != 0; }
  SWR_OP V lookup(const std::uint8_t* tab, V idx) { return _mm_shuffle_epi8(load(tab), idx); }
  SWR_OP V hi_select(V codes) { return _mm_slli_epi16(codes, 3); }
  SWR_OP V blendv(V a, V b, V mask) { return _mm_blendv_epi8(a, b, mask); }
};

struct U16 : Vec {
  using T = std::uint16_t;
  static constexpr unsigned kLanes = 8;
  SWR_OP V set1(T x) { return _mm_set1_epi16(static_cast<short>(x)); }
  SWR_OP V adds(V a, V b) { return _mm_adds_epu16(a, b); }
  SWR_OP V add(V a, V b) { return _mm_add_epi16(a, b); }
  SWR_OP V subs(V a, V b) { return _mm_subs_epu16(a, b); }
  SWR_OP V max(V a, V b) { return _mm_max_epu16(a, b); }
  SWR_OP V shl1(V v) { return _mm_slli_si128(v, 2); }
  SWR_OP bool all_eq(V a, V b) { return movemask(_mm_cmpeq_epi16(a, b)) == kAllBytes; }
  SWR_OP bool any_eq(V a, V b) { return movemask(_mm_cmpeq_epi16(a, b)) != 0; }
};

#include "align/simd_kernels.inc"

#undef SWR_OP
#undef SWR_SIMD_TARGET

}  // namespace sse41

namespace avx2 {

#define SWR_SIMD_TARGET __attribute__((target("avx2")))
#define SWR_OP SWR_SIMD_TARGET __attribute__((always_inline)) static

struct Vec {
  using V = __m256i;
  static constexpr std::uint32_t kAllBytes = 0xFFFFFFFFu;
  SWR_OP V load(const void* p) { return _mm256_loadu_si256(static_cast<const __m256i*>(p)); }
  SWR_OP void store(void* p, V v) { _mm256_storeu_si256(static_cast<__m256i*>(p), v); }
  SWR_OP V zero() { return _mm256_setzero_si256(); }
  SWR_OP V or_(V a, V b) { return _mm256_or_si256(a, b); }
  SWR_OP V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
  SWR_OP V and_(V a, V b) { return _mm256_and_si256(a, b); }
  SWR_OP V andnot(V a, V b) { return _mm256_andnot_si256(a, b); }
  SWR_OP bool testz(V v) { return _mm256_testz_si256(v, v) != 0; }
  SWR_OP std::uint32_t movemask(V v) {
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(v));
  }
  // alignr shifts within each 128-bit half, so the low half's top bytes
  // are carried into the high half through a permute ([zero, v_low]).
  template <int kBytes>
  SWR_OP V shl_bytes(V v) {
    return _mm256_alignr_epi8(v, _mm256_permute2x128_si256(v, v, 0x08), 16 - kBytes);
  }
};

struct U8 : Vec {
  using T = std::uint8_t;
  static constexpr unsigned kLanes = 32;
  SWR_OP V set1(T x) { return _mm256_set1_epi8(static_cast<char>(x)); }
  SWR_OP V adds(V a, V b) { return _mm256_adds_epu8(a, b); }
  SWR_OP V add(V a, V b) { return _mm256_add_epi8(a, b); }
  SWR_OP V subs(V a, V b) { return _mm256_subs_epu8(a, b); }
  SWR_OP V max(V a, V b) { return _mm256_max_epu8(a, b); }
  SWR_OP V cmpeq(V a, V b) { return _mm256_cmpeq_epi8(a, b); }
  SWR_OP V shl1(V v) { return shl_bytes<1>(v); }
  SWR_OP bool all_eq(V a, V b) { return movemask(cmpeq(a, b)) == kAllBytes; }
  SWR_OP bool any_eq(V a, V b) { return movemask(cmpeq(a, b)) != 0; }
  // vpshufb shuffles within each 128-bit half, so the 16-byte table is
  // broadcast to both halves and each half's lanes index the same table.
  SWR_OP V lookup(const std::uint8_t* tab, V idx) {
    return _mm256_shuffle_epi8(
        _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(tab))), idx);
  }
  SWR_OP V hi_select(V codes) { return _mm256_slli_epi16(codes, 3); }
  SWR_OP V blendv(V a, V b, V mask) { return _mm256_blendv_epi8(a, b, mask); }
};

struct U16 : Vec {
  using T = std::uint16_t;
  static constexpr unsigned kLanes = 16;
  SWR_OP V set1(T x) { return _mm256_set1_epi16(static_cast<short>(x)); }
  SWR_OP V adds(V a, V b) { return _mm256_adds_epu16(a, b); }
  SWR_OP V add(V a, V b) { return _mm256_add_epi16(a, b); }
  SWR_OP V subs(V a, V b) { return _mm256_subs_epu16(a, b); }
  SWR_OP V max(V a, V b) { return _mm256_max_epu16(a, b); }
  SWR_OP V shl1(V v) { return shl_bytes<2>(v); }
  SWR_OP bool all_eq(V a, V b) { return movemask(_mm256_cmpeq_epi16(a, b)) == kAllBytes; }
  SWR_OP bool any_eq(V a, V b) { return movemask(_mm256_cmpeq_epi16(a, b)) != 0; }
};

#include "align/simd_kernels.inc"

#undef SWR_OP
#undef SWR_SIMD_TARGET

}  // namespace avx2

// AVX-512BW. Compares produce k-masks, so cmpeq widens its mask back into
// a byte vector (vpmovm2b) for the kernels' vector mask algebra, and
// movemask / blendv read a vector's byte sign bits into a k-mask
// (vpmovb2m). GCC 12 warns -Wmaybe-uninitialized inside the unmasked
// _mm512_broadcast_i32x4, _mm512_andnot_si512 and _mm512_alignr_epi64
// (their merge source is an undefined vector), so those ops use the
// maskz_ forms with an all-ones mask and vpternlog for and-not.
namespace avx512 {

#define SWR_SIMD_TARGET __attribute__((target("avx512f,avx512bw")))
#define SWR_OP SWR_SIMD_TARGET __attribute__((always_inline)) static

struct Vec {
  using V = __m512i;
  static constexpr std::uint64_t kAllBytes = ~std::uint64_t{0};
  SWR_OP V load(const void* p) { return _mm512_loadu_si512(p); }
  SWR_OP void store(void* p, V v) { _mm512_storeu_si512(p, v); }
  SWR_OP V zero() { return _mm512_setzero_si512(); }
  SWR_OP V or_(V a, V b) { return _mm512_or_si512(a, b); }
  SWR_OP V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
  SWR_OP V and_(V a, V b) { return _mm512_and_si512(a, b); }
  // Truth table 0x0C: bit (a, b, c) is set iff a == 0 and b == 1.
  SWR_OP V andnot(V a, V b) { return _mm512_ternarylogic_epi64(a, b, b, 0x0C); }
  SWR_OP bool testz(V v) { return _mm512_test_epi64_mask(v, v) == 0; }
  SWR_OP std::uint64_t movemask(V v) { return _mm512_movepi8_mask(v); }
  // alignr shifts within each 128-bit lane, so each lane's top bytes are
  // carried up from the lane below through a whole-lane shift
  // ([zero, v0, v1, v2]).
  template <int kBytes>
  SWR_OP V shl_bytes(V v) {
    const V below = _mm512_maskz_alignr_epi64(0xFF, v, _mm512_setzero_si512(), 6);
    return _mm512_alignr_epi8(v, below, 16 - kBytes);
  }
};

struct U8 : Vec {
  using T = std::uint8_t;
  static constexpr unsigned kLanes = 64;
  SWR_OP V set1(T x) { return _mm512_set1_epi8(static_cast<char>(x)); }
  SWR_OP V adds(V a, V b) { return _mm512_adds_epu8(a, b); }
  SWR_OP V add(V a, V b) { return _mm512_add_epi8(a, b); }
  SWR_OP V subs(V a, V b) { return _mm512_subs_epu8(a, b); }
  SWR_OP V max(V a, V b) { return _mm512_max_epu8(a, b); }
  SWR_OP V cmpeq(V a, V b) { return _mm512_movm_epi8(_mm512_cmpeq_epi8_mask(a, b)); }
  SWR_OP V shl1(V v) { return shl_bytes<1>(v); }
  SWR_OP bool all_eq(V a, V b) { return _mm512_cmpeq_epi8_mask(a, b) == kAllBytes; }
  SWR_OP bool any_eq(V a, V b) { return _mm512_cmpeq_epi8_mask(a, b) != 0; }
  // vpshufb shuffles within each 128-bit lane, so the 16-byte table is
  // broadcast to all four lanes.
  SWR_OP V lookup(const std::uint8_t* tab, V idx) {
    const __m128i t = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab));
    return _mm512_shuffle_epi8(_mm512_maskz_broadcast_i32x4(0xFFFF, t), idx);
  }
  SWR_OP V hi_select(V codes) { return _mm512_slli_epi16(codes, 3); }
  SWR_OP V blendv(V a, V b, V mask) {
    return _mm512_mask_blend_epi8(_mm512_movepi8_mask(mask), a, b);
  }
};

struct U16 : Vec {
  using T = std::uint16_t;
  static constexpr unsigned kLanes = 32;
  SWR_OP V set1(T x) { return _mm512_set1_epi16(static_cast<short>(x)); }
  SWR_OP V adds(V a, V b) { return _mm512_adds_epu16(a, b); }
  SWR_OP V add(V a, V b) { return _mm512_add_epi16(a, b); }
  SWR_OP V subs(V a, V b) { return _mm512_subs_epu16(a, b); }
  SWR_OP V max(V a, V b) { return _mm512_max_epu16(a, b); }
  SWR_OP V shl1(V v) { return shl_bytes<2>(v); }
  SWR_OP bool all_eq(V a, V b) { return _mm512_cmpeq_epi16_mask(a, b) == 0xFFFFFFFFu; }
  SWR_OP bool any_eq(V a, V b) { return _mm512_cmpeq_epi16_mask(a, b) != 0; }
};

#include "align/simd_kernels.inc"

#undef SWR_OP
#undef SWR_SIMD_TARGET

}  // namespace avx512

#endif  // SWR_SIMD_X86

}  // namespace swr::align::simd
