#include "align/sw_interseq.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/simd_kernels.hpp"

namespace swr::align {

bool sw_interseq_compiled() noexcept { return SWR_SIMD_X86 != 0; }

unsigned sw_interseq_max_lanes() noexcept { return simd::max_lanes8(); }

InterSeqProfile::InterSeqProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8)
    : InterSeqProfile(query.codes(), sc, lanes8, query.alphabet().size()) {}

InterSeqProfile::InterSeqProfile(std::span<const seq::Code> query, const Scoring& sc,
                                 unsigned lanes8, std::size_t alphabet_size)
    : n_(query.size()), lanes8_(lanes8), alphabet_size_(alphabet_size) {
  sc.validate();
  if (lanes8 != 16 && lanes8 != 32 && lanes8 != 64) {
    throw std::invalid_argument(
        "InterSeqProfile: lane count must be 16 (SSE4.1), 32 (AVX2) or 64 (AVX-512BW)");
  }
  const simd::Magnitudes m = simd::scheme_magnitudes(sc);
  fits8_ = m.fit(0xFF);
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
  // codes below alphabet_size. Store-backed records do: db::Store::codes
  // range-checks raw8 bytes and throws a StoreError on a corrupt one.
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
  ws.bmax.assign((n + simd::kInterSeqBlockCols - 1) / simd::kInterSeqBlockCols * L, 0);
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
#if SWR_SIMD_X86
    if (L == 64) {
      simd::avx512::advance<simd::avx512::U8>(profile, ws, steps, stats);
    } else if (L == 32) {
      simd::avx2::advance<simd::avx2::U8>(profile, ws, steps, stats);
    } else {
      simd::sse41::advance<simd::sse41::U8>(profile, ws, steps, stats);
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
