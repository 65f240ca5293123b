// Inter-sequence (sequence-per-lane) native-SIMD Smith-Waterman — the
// database-scan analogue of the paper's systolic array streaming many
// independent subjects past one resident query.
//
// Where the striped kernels (align/sw_striped.hpp) split ONE record's
// query columns across lanes, this kernel packs 16 (SSE4.1), 32 (AVX2) or
// 64 (AVX-512BW) DIFFERENT database records into the 8-bit lanes of one
// vector and advances all of them one database row at a time: per step,
// lane l consumes the next residue of its own record and the whole vector
// sweeps the query columns left to right. The layout is vertical — the DP state
// is one H row per lane, stored column-major (`h[j * lanes + l]`) so each
// query column is a single vector — and lanes are completely independent,
// which removes the striped kernels' lazy-F correction loop entirely: the
// horizontal-gap dependency is just the carried register of the previous
// column. The per-column substitution scores are gathered with one or two
// pshufb table lookups (the per-lane residue codes are loop-invariant
// across the columns of a step; each advance call transposes them into
// a tile of up to 64 rows so a step loads them as one vector). A row
// step is vector work only.
//
// Lanes run different-length records, so the driver refills a lane the
// moment its record retires: `sw_interseq_scan` pulls records through a
// fetch callback (the scan engine feeds it the .swdb length-descending
// schedule_order, so co-resident lanes retire near-together) and reports
// each finished record through a done callback. A lane with no record
// left runs a neutral residue whose profile column is pos 0 / neg 0xFF,
// which pins its H values to zero — score-neutral and overflow-neutral.
//
// Exactness contract (identical to sw_striped):
//   * saturating add-then-subtract keeps cell values unbiased, the full
//     0..255 range is usable, and a score of exactly 255 is exact;
//   * overflow is detected exactly and per lane: each saturating add is
//     xor-ed against its wrapping twin and the disagreement or-ed into a
//     sticky per-lane byte. A lane's flag sets iff some true cell of ITS
//     record exceeds 255 — the same predicate as the 8-bit striped
//     kernel — so the caller re-runs exactly those records one tier down
//     and `swar8_fallbacks` stays bit-identical across every kernel shape
//     and tier. The test runs only on rows that can carry: a row's max
//     exceeds the previous row's by at most max_sub8(), so a row where
//     every unflagged lane's previous-row max is <= 255 - max_sub8()
//     skips it and the flags still come out identical;
//   * per-lane best tracking reproduces sw_linear's canonical tie-break
//     (higher score, then smaller j, then smaller i). When a lane's row
//     max reaches its best so far, the row's canonical maximum — the row
//     max at the first column reaching it, found through the sweep's
//     per-16-column block maxima — is folded once; fold_best is a max
//     under a strict total order, so that equals folding the whole row.
//
// Availability mirrors sw_striped: compiled on x86 GCC/Clang only
// (per-function target attributes; the binary stays portable), with the
// column sweep and row advance written once (align/simd_kernels.inc) over
// the same 8-bit op sets as the striped kernel, guarded by CPUID at
// runtime, and structurally unusable when the scoring magnitudes exceed
// a byte or the alphabet (plus the neutral code) does not fit the 32-slot
// pshufb table — host/scan_engine degrades to the striped shape in those
// cases.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "align/result.hpp"
#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace swr::align {

/// True when this binary contains the inter-sequence kernels (x86 +
/// GCC/Clang — the same gate as sw_striped_compiled()).
bool sw_interseq_compiled() noexcept;

/// Widest lane count the hardware can drive right now: 64 (AVX-512BW),
/// 32 (AVX2), 16 (SSE4.1) or 0 (no usable ISA / not compiled).
unsigned sw_interseq_max_lanes() noexcept;

/// Per-query lookup tables for the inter-sequence kernel: for every query
/// column a 16- or 32-slot pshufb table of positive and negative
/// substitution magnitudes indexed by database residue code. Slot
/// `alphabet_size` is the neutral code dead/exhausted lanes feed (pos 0,
/// neg 0xFF — pins the lane's cells to zero without ever carrying).
class InterSeqProfile {
 public:
  /// `lanes8` is 16 (SSE4.1), 32 (AVX2) or 64 (AVX-512BW).
  /// @throws std::invalid_argument on invalid scoring or lane count.
  InterSeqProfile(const seq::Sequence& query, const Scoring& sc, unsigned lanes8);

  /// As above over raw codes; `alphabet_size` bounds the residue codes
  /// records may present.
  InterSeqProfile(std::span<const seq::Code> query, const Scoring& sc, unsigned lanes8,
                  std::size_t alphabet_size);

  [[nodiscard]] std::size_t query_len() const noexcept { return n_; }
  [[nodiscard]] unsigned lanes8() const noexcept { return lanes8_; }
  [[nodiscard]] std::uint8_t gap8() const noexcept { return gap8_; }
  [[nodiscard]] std::size_t alphabet_size() const noexcept { return alphabet_size_; }

  /// The residue code exhausted/dead lanes feed: `alphabet_size()`.
  [[nodiscard]] seq::Code neutral_code() const noexcept {
    return static_cast<seq::Code>(alphabet_size_);
  }

  /// Whether the scheme's per-update magnitudes fit an 8-bit lane (same
  /// predicate as StripedProfile::fits8()).
  [[nodiscard]] bool fits8() const noexcept { return fits8_; }

  /// pshufb slots per column: 16 when alphabet+neutral fits one table, 32
  /// (lo/hi pair) up to 31 residues, 0 beyond that (kernel unusable).
  [[nodiscard]] unsigned table_slots() const noexcept { return table_slots_; }

  /// Largest positive substitution byte over every slot of every column
  /// table. A row's max exceeds the previous row's by at most this, so a
  /// lane whose previous-row max is <= 255 - max_sub8() cannot carry.
  [[nodiscard]] std::uint8_t max_sub8() const noexcept { return max_sub8_; }

  /// Structurally usable: scheme fits 8 bits and the alphabet fits the
  /// lookup tables. Runtime ISA support is checked separately
  /// (sw_interseq_max_lanes()).
  [[nodiscard]] bool usable() const noexcept { return fits8_ && table_slots_ != 0; }

  /// Positive/negative magnitude table for query column `j` (1-based,
  /// unchecked): table_slots() bytes, slot = database residue code.
  [[nodiscard]] const std::uint8_t* pos_tab(std::size_t j) const noexcept {
    return pos_.data() + (j - 1) * table_slots_;
  }
  [[nodiscard]] const std::uint8_t* neg_tab(std::size_t j) const noexcept {
    return neg_.data() + (j - 1) * table_slots_;
  }

 private:
  std::size_t n_;
  unsigned lanes8_;
  std::size_t alphabet_size_;
  bool fits8_ = false;
  unsigned table_slots_ = 0;
  std::uint8_t gap8_ = 0;
  std::uint8_t max_sub8_ = 0;
  std::vector<std::uint8_t> pos_, neg_;
};

/// Maximum lane count across ISAs — per-lane state arrays are fixed at
/// this size (the upper lanes idle at 16 and 32 lanes).
inline constexpr unsigned kInterSeqMaxLanes = 64;

/// Database rows one residue transpose covers.
inline constexpr std::size_t kInterSeqTileRows = 64;

/// Per-worker scratch + hot per-lane state for one in-flight lane batch.
/// The kernel reads/writes these directly; the driver owns lifecycle
/// (reset/refill). Reused across batches and scans — no per-record
/// allocation.
struct InterSeqWorkspace {
  std::vector<std::uint8_t> h;     ///< (n+1) * lanes, column-major: h[j*L + l]
  std::vector<std::uint8_t> bmax;  ///< current row's block maxima: bmax[b*L + l]
  /// Residue codes of up to kInterSeqTileRows rows, transposed row-major
  /// (tile[t*L + l]) so a row step loads all lanes' codes as one vector.
  alignas(64) std::array<std::uint8_t, kInterSeqTileRows * kInterSeqMaxLanes> tile{};
  alignas(64) std::array<std::uint8_t, kInterSeqMaxLanes> thresh{};  ///< tie-break trigger floor
  alignas(64) std::array<std::uint8_t, kInterSeqMaxLanes> ovf{};     ///< sticky overflow flags
  alignas(64) std::array<std::uint8_t, kInterSeqMaxLanes> prev{};    ///< previous row's max
  std::array<const seq::Code*, kInterSeqMaxLanes> cur{};  ///< next residue (null = dead lane)
  std::array<const seq::Code*, kInterSeqMaxLanes> end{};
  std::array<std::uint64_t, kInterSeqMaxLanes> row{};  ///< record rows computed so far
  std::array<LocalScoreResult, kInterSeqMaxLanes> best{};
};

/// Scan statistics the driver accumulates (host/scan_engine flushes them
/// into scan.interseq.* metrics).
struct InterSeqStats {
  std::uint64_t batches = 0;   ///< kernel advance calls
  std::uint64_t refills = 0;   ///< lane loads after the initial fill
  std::uint64_t fallbacks = 0; ///< lanes that saturated (result reported nullopt)
  /// Row steps (one database row of every lane) where at least one lane's
  /// row max reached its best and went through the canonical tie-break.
  std::uint64_t tiebreak_rows = 0;
  /// Lane rows that went through the tie-break. Depends only on each
  /// record and the query, so it is invariant under lane width, lane
  /// packing and thread count.
  std::uint64_t tiebreak_lanes = 0;
  /// Row steps that ran the exact sticky-XOR overflow test.
  std::uint64_t overflow_checked_rows = 0;
  /// Advance calls by live-lane count (index = lanes holding a record).
  std::array<std::uint64_t, kInterSeqMaxLanes + 1> occupancy{};

  InterSeqStats& operator+=(const InterSeqStats& o) noexcept {
    batches += o.batches;
    refills += o.refills;
    fallbacks += o.fallbacks;
    tiebreak_rows += o.tiebreak_rows;
    tiebreak_lanes += o.tiebreak_lanes;
    overflow_checked_rows += o.overflow_checked_rows;
    for (std::size_t i = 0; i < occupancy.size(); ++i) occupancy[i] += o.occupancy[i];
    return *this;
  }
};

/// A record handed to the driver: `tag` is echoed back through the done
/// callback; `codes` must stay valid until that done call returns.
struct InterSeqRecord {
  std::uint64_t tag = 0;
  std::span<const seq::Code> codes;
};

/// Pull the next record for `lane`, or nullopt when the input is drained.
using InterSeqFetch = std::function<std::optional<InterSeqRecord>(unsigned lane)>;

/// A record finished: `result` is the exact sw_linear(record, query)
/// outcome, or nullopt when the lane saturated (true score > 255) and the
/// caller must re-run the record one precision tier down.
using InterSeqDone =
    std::function<void(std::uint64_t tag, std::span<const seq::Code> codes,
                       const std::optional<LocalScoreResult>& result)>;

/// Streams records through the lane batch until `fetch` drains: fills all
/// lanes, advances every live lane min-remaining-rows per kernel call, and
/// refills a lane the moment its record retires. Empty records complete
/// immediately (LocalScoreResult{}) without occupying a lane step; an
/// empty query completes every record the same way.
/// @throws std::logic_error when the profile is unusable or the required
/// ISA is unavailable — callers must check usable() + sw_interseq_max_lanes().
InterSeqStats sw_interseq_scan(const InterSeqProfile& profile, InterSeqWorkspace& ws,
                               const InterSeqFetch& fetch, const InterSeqDone& done);

/// Convenience for tests and one-off callers: scores every record in
/// order. Outer nullopt when the kernel is unavailable at `lanes8` on this
/// machine or the (scoring, alphabet) pair is structurally unusable;
/// inner nullopt per record iff its true score > 255 (the caller's
/// fallback tier owns those). `stats`, when non-null, receives the
/// driver's batching statistics.
/// @throws std::invalid_argument on alphabet mismatch / invalid scoring.
std::optional<std::vector<std::optional<LocalScoreResult>>> sw_interseq_batch(
    const std::vector<seq::Sequence>& records, const seq::Sequence& query, const Scoring& sc,
    unsigned lanes8, InterSeqStats* stats = nullptr);

}  // namespace swr::align
