#include "align/sw_interseq.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

// Same availability gate as sw_striped.cpp: per-function target attributes
// keep the translation unit buildable with portable baseline flags, and the
// driver refuses to dispatch unless CPUID said the ISA is there.
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SWR_INTERSEQ_X86 1
#include <immintrin.h>
#else
#define SWR_INTERSEQ_X86 0
#endif

namespace swr::align {

namespace {

// Query columns per block maximum the sweep keeps for the tie-break.
constexpr std::size_t kInterSeqBlockCols = 16;

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

bool sw_interseq_compiled() noexcept { return SWR_INTERSEQ_X86 != 0; }

unsigned sw_interseq_max_lanes() noexcept {
#if SWR_INTERSEQ_X86
  if (__builtin_cpu_supports("avx2")) return 32;
  if (__builtin_cpu_supports("sse4.1")) return 16;
#endif
  return 0;
}

InterSeqProfile::InterSeqProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8)
    : InterSeqProfile(query.codes(), sc, lanes8, query.alphabet().size()) {}

InterSeqProfile::InterSeqProfile(std::span<const seq::Code> query, const Scoring& sc,
                                 unsigned lanes8, std::size_t alphabet_size)
    : n_(query.size()), lanes8_(lanes8), alphabet_size_(alphabet_size) {
  sc.validate();
  if (lanes8 != 16 && lanes8 != 32) {
    throw std::invalid_argument("InterSeqProfile: lane count must be 16 (SSE4.1) or 32 (AVX2)");
  }
  const Magnitudes m = scheme_magnitudes(sc);
  fits8_ = m.max_sub <= 0xFF && -m.min_sub <= 0xFF && m.gap_mag <= 0xFF;
  gap8_ = static_cast<std::uint8_t>(std::min<Score>(m.gap_mag, 0xFF));
  // One pshufb covers 16 slots, a lo/hi table pair covers 32 — both must
  // hold every record code plus the neutral code dead lanes feed.
  const std::size_t slots_needed = alphabet_size + 1;
  table_slots_ = slots_needed <= 16 ? 16u : (slots_needed <= 32 ? 32u : 0u);
  if (!usable() || n_ == 0) return;

  // Unwritten slots stay pos 0 / neg 0xFF: the neutral code saturates its
  // lane's diagonal path to zero every row without ever carrying —
  // score-neutral and overflow-neutral. Codes outside the table are NOT
  // neutral: pshufb reads slot `code & 15` (a 32-slot pair, `code & 31`)
  // for codes below 128 and 0 for codes >= 128, so records must present
  // codes below alphabet_size (unchecked .swdb bytes: ROADMAP item 3).
  pos_.assign(n_ * table_slots_, 0);
  neg_.assign(n_ * table_slots_, 0xFF);
  for (std::size_t j = 0; j < n_; ++j) {
    std::uint8_t* pos = pos_.data() + j * table_slots_;
    std::uint8_t* neg = neg_.data() + j * table_slots_;
    for (std::size_t c = 0; c < alphabet_size; ++c) {
      const Score s = sc.substitution(static_cast<seq::Code>(c), query[j]);
      pos[c] = static_cast<std::uint8_t>(s > 0 ? s : 0);
      neg[c] = static_cast<std::uint8_t>(s < 0 ? -s : 0);
    }
  }
  // Over every slot, so a code aliasing into another slot cannot exceed it.
  max_sub8_ = *std::max_element(pos_.begin(), pos_.end());
}

#if SWR_INTERSEQ_X86

namespace {

// Scalar per-lane bookkeeping shared by both ISA widths.

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
void fold_row_max(std::uint32_t trig, const std::uint8_t* row_max, std::size_t step,
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

// --- SSE4.1, 16 records x 8-bit lanes -------------------------------------

// One database row for all 16 lanes: vC holds each lane's residue code
// (loop-invariant across the columns of the row), and every query column
// is one vector — substitution magnitudes gathered by pshufb from the
// column's 16-slot table (or, kWide, a lo/hi pair selected on code bit 4
// via blendv for alphabets up to 31 residues). There is no lazy-F loop:
// lanes are independent records, so the horizontal-gap dependency is just
// the carried vLeft of the previous column, and since saturating
// subtraction is monotone one subtraction serves both gap moves. kCheck
// adds the striped kernels' exact sticky-XOR overflow test, accumulated
// per lane across the record's lifetime instead of aborting the vector.
// Writes each 16-column block's maxima to bmax and returns the row max.
template <bool kWide, bool kCheck>
__attribute__((target("sse4.1"))) inline __m128i sweep_sse41(const InterSeqProfile& p,
                                                             std::uint8_t* h, std::uint8_t* bmax,
                                                             __m128i vC, __m128i& vOvf) {
  constexpr unsigned L = 16;
  const std::size_t n = p.query_len();
  const std::size_t slots = p.table_slots();
  const std::uint8_t* pt = p.pos_tab(1);
  const std::uint8_t* nt = p.neg_tab(1);
  const __m128i vGap = _mm_set1_epi8(static_cast<char>(p.gap8()));
  // blendv selects on byte bit 7; codes stay < 32, so shifting bit 4 up
  // is safe within each 16-bit lane (a byte's own bit 4 lands in its own
  // bit 7).
  const __m128i vSel = _mm_slli_epi16(vC, 3);
  const __m128i vZero = _mm_setzero_si128();
  __m128i vDiag = vZero;  // column 0 is the all-zero local border
  __m128i vLeft = vZero;
  __m128i vMax = vZero;
  for (std::size_t j0 = 1; j0 <= n; j0 += kInterSeqBlockCols, bmax += L) {
    const std::size_t j1 = std::min(n, j0 + kInterSeqBlockCols - 1);
    __m128i vBlk = vZero;
    for (std::size_t j = j0; j <= j1; ++j, pt += slots, nt += slots) {
      __m128i vPos = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pt)), vC);
      __m128i vNeg = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(nt)), vC);
      if constexpr (kWide) {
        vPos = _mm_blendv_epi8(
            vPos,
            _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(pt + 16)), vC),
            vSel);
        vNeg = _mm_blendv_epi8(
            vNeg,
            _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(nt + 16)), vC),
            vSel);
      }
      const __m128i vUp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(h + j * L));
      const __m128i vSat = _mm_adds_epu8(vDiag, vPos);
      if constexpr (kCheck) {
        vOvf = _mm_or_si128(vOvf, _mm_xor_si128(vSat, _mm_add_epi8(vDiag, vPos)));
      }
      // Diagonal path clamped at 0, against the better gap move.
      const __m128i vH = _mm_max_epu8(_mm_subs_epu8(vSat, vNeg),
                                      _mm_subs_epu8(_mm_max_epu8(vUp, vLeft), vGap));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(h + j * L), vH);
      vBlk = _mm_max_epu8(vBlk, vH);
      vDiag = vUp;
      vLeft = vH;
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(bmax), vBlk);
    vMax = _mm_max_epu8(vMax, vBlk);
  }
  return vMax;
}

// Advances every lane `steps` rows. Per row, the exact overflow test runs
// only when some unflagged lane could carry: a row's max exceeds the
// previous row's by at most max_sub8(), so a lane whose previous-row max
// is <= 255 - max_sub8() cannot, and skipping the test there leaves the
// sticky flags exactly as running it would. The tie-break triggers on
// lanes whose row max reached their threshold (the best so far, or 1)
// and whose overflow flag is still clear — a saturated lane's result is
// discarded at retirement.
__attribute__((target("sse4.1"))) void advance_sse41(const InterSeqProfile& p,
                                                     InterSeqWorkspace& ws, std::size_t steps,
                                                     InterSeqStats& stats) {
  constexpr unsigned L = 16;
  const bool wide = p.table_slots() == 32;
  const std::uint8_t neutral = static_cast<std::uint8_t>(p.neutral_code());
  const __m128i vZero = _mm_setzero_si128();
  const __m128i vSafe = _mm_set1_epi8(static_cast<char>(0xFF - p.max_sub8()));
  __m128i vOvf = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ws.ovf.data()));
  __m128i vTh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ws.thresh.data()));
  __m128i vPrev = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ws.prev.data()));
  alignas(16) std::array<std::uint8_t, L> row_max{};

  for (std::size_t t0 = 0; t0 < steps; t0 += kInterSeqTileRows) {
    const std::size_t rows = std::min(kInterSeqTileRows, steps - t0);
    load_tile<L>(ws, t0, rows, neutral);
    for (std::size_t t = 0; t < rows; ++t) {
      const __m128i vC = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ws.tile.data() + t * L));
      const __m128i vFits = _mm_cmpeq_epi8(_mm_max_epu8(vPrev, vSafe), vSafe);
      const bool check =
          _mm_movemask_epi8(_mm_andnot_si128(vFits, _mm_cmpeq_epi8(vOvf, vZero))) != 0;
      if (check) ++stats.overflow_checked_rows;
      const __m128i vMax =
          check ? (wide ? sweep_sse41<true, true>(p, ws.h.data(), ws.bmax.data(), vC, vOvf)
                        : sweep_sse41<false, true>(p, ws.h.data(), ws.bmax.data(), vC, vOvf))
                : (wide ? sweep_sse41<true, false>(p, ws.h.data(), ws.bmax.data(), vC, vOvf)
                        : sweep_sse41<false, false>(p, ws.h.data(), ws.bmax.data(), vC, vOvf));
      const std::uint32_t trig = static_cast<std::uint32_t>(_mm_movemask_epi8(
          _mm_and_si128(_mm_cmpeq_epi8(_mm_max_epu8(vMax, vTh), vMax),
                        _mm_cmpeq_epi8(vOvf, vZero))));
      // A triggered lane's best becomes its row max; a flagged lane's
      // threshold no longer matters.
      vTh = _mm_max_epu8(vTh, vMax);
      vPrev = vMax;
      if (trig != 0) {
        ++stats.tiebreak_rows;
        stats.tiebreak_lanes += static_cast<unsigned>(std::popcount(trig));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(row_max.data()), vMax);
        fold_row_max<L>(trig, row_max.data(), t0 + t + 1, ws);
      }
    }
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ws.ovf.data()), vOvf);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ws.thresh.data()), vTh);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ws.prev.data()), vPrev);
  consume_rows<L>(ws, steps);
}

// --- AVX2, 32 records x 8-bit lanes ---------------------------------------

// vpshufb shuffles within each 128-bit half, so the 16-byte column tables
// are broadcast to both halves and each half's lanes index the same table.
__attribute__((target("avx2"))) inline __m256i tab256(const std::uint8_t* tab) {
  return _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(tab)));
}

// sweep_sse41 at 32 lanes.
template <bool kWide, bool kCheck>
__attribute__((target("avx2"))) inline __m256i sweep_avx2(const InterSeqProfile& p,
                                                          std::uint8_t* h, std::uint8_t* bmax,
                                                          __m256i vC, __m256i& vOvf) {
  constexpr unsigned L = 32;
  const std::size_t n = p.query_len();
  const std::size_t slots = p.table_slots();
  const std::uint8_t* pt = p.pos_tab(1);
  const std::uint8_t* nt = p.neg_tab(1);
  const __m256i vGap = _mm256_set1_epi8(static_cast<char>(p.gap8()));
  const __m256i vSel = _mm256_slli_epi16(vC, 3);
  const __m256i vZero = _mm256_setzero_si256();
  __m256i vDiag = vZero;
  __m256i vLeft = vZero;
  __m256i vMax = vZero;
  for (std::size_t j0 = 1; j0 <= n; j0 += kInterSeqBlockCols, bmax += L) {
    const std::size_t j1 = std::min(n, j0 + kInterSeqBlockCols - 1);
    __m256i vBlk = vZero;
    for (std::size_t j = j0; j <= j1; ++j, pt += slots, nt += slots) {
      __m256i vPos = _mm256_shuffle_epi8(tab256(pt), vC);
      __m256i vNeg = _mm256_shuffle_epi8(tab256(nt), vC);
      if constexpr (kWide) {
        vPos = _mm256_blendv_epi8(vPos, _mm256_shuffle_epi8(tab256(pt + 16), vC), vSel);
        vNeg = _mm256_blendv_epi8(vNeg, _mm256_shuffle_epi8(tab256(nt + 16), vC), vSel);
      }
      const __m256i vUp = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + j * L));
      const __m256i vSat = _mm256_adds_epu8(vDiag, vPos);
      if constexpr (kCheck) {
        vOvf = _mm256_or_si256(vOvf, _mm256_xor_si256(vSat, _mm256_add_epi8(vDiag, vPos)));
      }
      const __m256i vH = _mm256_max_epu8(_mm256_subs_epu8(vSat, vNeg),
                                         _mm256_subs_epu8(_mm256_max_epu8(vUp, vLeft), vGap));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(h + j * L), vH);
      vBlk = _mm256_max_epu8(vBlk, vH);
      vDiag = vUp;
      vLeft = vH;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bmax), vBlk);
    vMax = _mm256_max_epu8(vMax, vBlk);
  }
  return vMax;
}

// advance_sse41 at 32 lanes.
__attribute__((target("avx2"))) void advance_avx2(const InterSeqProfile& p,
                                                  InterSeqWorkspace& ws, std::size_t steps,
                                                  InterSeqStats& stats) {
  constexpr unsigned L = 32;
  const bool wide = p.table_slots() == 32;
  const std::uint8_t neutral = static_cast<std::uint8_t>(p.neutral_code());
  const __m256i vZero = _mm256_setzero_si256();
  const __m256i vSafe = _mm256_set1_epi8(static_cast<char>(0xFF - p.max_sub8()));
  __m256i vOvf = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws.ovf.data()));
  __m256i vTh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws.thresh.data()));
  __m256i vPrev = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws.prev.data()));
  alignas(32) std::array<std::uint8_t, L> row_max{};

  for (std::size_t t0 = 0; t0 < steps; t0 += kInterSeqTileRows) {
    const std::size_t rows = std::min(kInterSeqTileRows, steps - t0);
    load_tile<L>(ws, t0, rows, neutral);
    for (std::size_t t = 0; t < rows; ++t) {
      const __m256i vC =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ws.tile.data() + t * L));
      const __m256i vFits = _mm256_cmpeq_epi8(_mm256_max_epu8(vPrev, vSafe), vSafe);
      const bool check = _mm256_movemask_epi8(_mm256_andnot_si256(
                             vFits, _mm256_cmpeq_epi8(vOvf, vZero))) != 0;
      if (check) ++stats.overflow_checked_rows;
      const __m256i vMax =
          check ? (wide ? sweep_avx2<true, true>(p, ws.h.data(), ws.bmax.data(), vC, vOvf)
                        : sweep_avx2<false, true>(p, ws.h.data(), ws.bmax.data(), vC, vOvf))
                : (wide ? sweep_avx2<true, false>(p, ws.h.data(), ws.bmax.data(), vC, vOvf)
                        : sweep_avx2<false, false>(p, ws.h.data(), ws.bmax.data(), vC, vOvf));
      const std::uint32_t trig = static_cast<std::uint32_t>(_mm256_movemask_epi8(
          _mm256_and_si256(_mm256_cmpeq_epi8(_mm256_max_epu8(vMax, vTh), vMax),
                           _mm256_cmpeq_epi8(vOvf, vZero))));
      vTh = _mm256_max_epu8(vTh, vMax);
      vPrev = vMax;
      if (trig != 0) {
        ++stats.tiebreak_rows;
        stats.tiebreak_lanes += static_cast<unsigned>(std::popcount(trig));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(row_max.data()), vMax);
        fold_row_max<L>(trig, row_max.data(), t0 + t + 1, ws);
      }
    }
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(ws.ovf.data()), vOvf);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(ws.thresh.data()), vTh);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(ws.prev.data()), vPrev);
  consume_rows<L>(ws, steps);
}

}  // namespace

#endif  // SWR_INTERSEQ_X86

InterSeqStats sw_interseq_scan(const InterSeqProfile& profile, InterSeqWorkspace& ws,
                               const InterSeqFetch& fetch, const InterSeqDone& done) {
  InterSeqStats stats;
  const unsigned L = profile.lanes8();
  if (!profile.usable() || sw_interseq_max_lanes() < L) {
    throw std::logic_error(
        "sw_interseq_scan: kernel unusable here (check usable() and sw_interseq_max_lanes())");
  }
  const std::size_t n = profile.query_len();

  // An empty query scores every record 0 at the empty-prefix corner —
  // the same contract as sw_striped8_try — with no lane machinery.
  if (n == 0) {
    for (;;) {
      const std::optional<InterSeqRecord> got = fetch(0);
      if (!got) return stats;
      done(got->tag, got->codes, LocalScoreResult{});
    }
  }

  ws.h.assign((n + 1) * L, 0);
  ws.bmax.assign((n + kInterSeqBlockCols - 1) / kInterSeqBlockCols * L, 0);
  std::array<std::uint64_t, kInterSeqMaxLanes> tag{};
  std::array<std::span<const seq::Code>, kInterSeqMaxLanes> rec{};
  std::array<bool, kInterSeqMaxLanes> live{};

  const auto zero_column = [&](unsigned l) {
    for (std::size_t j = 1; j <= n; ++j) ws.h[j * L + l] = 0;
  };

  // Installs the next non-empty record into lane `l` (empty records
  // complete inline — they never occupy a lane step). Returns false when
  // fetch is drained: the lane goes dead and its column is pinned to zero
  // so the neutral feed stays score- and overflow-silent.
  const auto refill = [&](unsigned l, bool initial) -> bool {
    ws.thresh[l] = 1;
    ws.ovf[l] = 0;
    ws.prev[l] = 0;
    for (;;) {
      const std::optional<InterSeqRecord> got = fetch(l);
      if (!got) {
        ws.cur[l] = ws.end[l] = nullptr;
        if (!initial) zero_column(l);
        live[l] = false;
        return false;
      }
      if (got->codes.empty()) {
        done(got->tag, got->codes, LocalScoreResult{});
        continue;
      }
      tag[l] = got->tag;
      rec[l] = got->codes;
      ws.cur[l] = got->codes.data();
      ws.end[l] = got->codes.data() + got->codes.size();
      ws.row[l] = 0;
      ws.best[l] = LocalScoreResult{};
      if (!initial) {
        zero_column(l);
        ++stats.refills;
      }
      live[l] = true;
      return true;
    }
  };

  unsigned live_count = 0;
  for (unsigned l = 0; l < L; ++l) {
    if (refill(l, /*initial=*/true)) ++live_count;
  }

  while (live_count > 0) {
    // Advance by the shortest remaining record: every live lane survives
    // the whole call, and with length-sorted input the minimum is close
    // to everyone's remainder, so batches stay long.
    std::size_t steps = SIZE_MAX;
    for (unsigned l = 0; l < L; ++l) {
      if (live[l]) {
        steps = std::min(steps, static_cast<std::size_t>(ws.end[l] - ws.cur[l]));
      }
    }
    ++stats.batches;
    ++stats.occupancy[live_count];
#if SWR_INTERSEQ_X86
    if (L == 32) {
      advance_avx2(profile, ws, steps, stats);
    } else {
      advance_sse41(profile, ws, steps, stats);
    }
#else
    (void)steps;  // unreachable: the guard above threw
#endif
    for (unsigned l = 0; l < L; ++l) {
      if (live[l] && ws.cur[l] == ws.end[l]) {
        std::optional<LocalScoreResult> result;
        if (ws.ovf[l] == 0) {
          result = ws.best[l];
        } else {
          ++stats.fallbacks;  // true score > 255: caller re-runs one tier down
        }
        done(tag[l], rec[l], result);
        if (!refill(l, /*initial=*/false)) --live_count;
      }
    }
  }
  return stats;
}

std::optional<std::vector<std::optional<LocalScoreResult>>> sw_interseq_batch(
    const std::vector<seq::Sequence>& records, const seq::Sequence& query, const Scoring& sc,
    unsigned lanes8, InterSeqStats* stats) {
  for (const seq::Sequence& r : records) {
    if (r.alphabet().id() != query.alphabet().id()) {
      throw std::invalid_argument("sw_interseq_batch: alphabet mismatch");
    }
  }
  const InterSeqProfile profile(query, sc, lanes8);
  if (!profile.usable() || sw_interseq_max_lanes() < lanes8) return std::nullopt;

  std::vector<std::optional<LocalScoreResult>> out(records.size());
  InterSeqWorkspace ws;
  std::size_t next = 0;
  const InterSeqStats st = sw_interseq_scan(
      profile, ws,
      [&](unsigned) -> std::optional<InterSeqRecord> {
        if (next >= records.size()) return std::nullopt;
        const std::size_t r = next++;
        return InterSeqRecord{static_cast<std::uint64_t>(r), records[r].codes()};
      },
      [&](std::uint64_t done_tag, std::span<const seq::Code>,
          const std::optional<LocalScoreResult>& result) {
        out[static_cast<std::size_t>(done_tag)] = result;
      });
  if (stats != nullptr) *stats = st;
  return out;
}

}  // namespace swr::align
