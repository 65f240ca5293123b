// Alignment retrieval from kernel coordinates — the paper's §2.3 recipe
// in reduced memory space, for scan hits, `swr align`, both host
// pipelines and Z-align alike.
//
// Every scan engine stops at (score, i, j): the accelerated forward pass.
// This module turns one such hit back into a full transcript without ever
// allocating the O(m*n) matrix:
//
//   1. reverse pass over the reversed prefixes ending at the kernel's end
//      cell -> the begin cell (O(n) row), on a pluggable ScorePass;
//   2. anchored window scan -> the end cell that pairs with that begin
//      (the kernel's end may belong to a different co-optimal alignment);
//   3. the window is now a global problem: banded NW in a band doubled
//      until its score reaches the kernel's (Z-align's user-restricted
//      memory, O(rows * band) cells) and capped at band_from_score's
//      proven band, falling back to Hirschberg (O(cols) rows) once a step
//      exceeds the caller's cell budget; Myers-Miller for affine gaps;
//   4. the transcript is replayed against the residues and must reproduce
//      the kernel score exactly — a corrupted traceback can never escape
//      as a plausible-looking CIGAR.
//
// Coordinates follow the scan-kernel convention: `.i` indexes the record
// (database side, rows), `.j` the query (columns). Peak working memory is
// O(m + n) score cells per hit; Traceback::peak_cells carries the exact
// accounting so benches can hold the bound against the full-DP baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "align/cigar.hpp"
#include "align/result.hpp"
#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace swr::obs {
class Registry;
class Counter;
class Histogram;
}  // namespace swr::obs

namespace swr::retrieve {

/// Score pass engine: best local score + end cell of `rows` (.i) vs
/// `cols` (.j), scoring bound in, under the canonical tie-break. Empty =
/// software SW/Gotoh; the accelerator model and the wavefront plug in here.
using ScorePass = std::function<align::LocalScoreResult(std::span<const seq::Code> rows,
                                                        std::span<const seq::Code> cols)>;

/// Traceback tuning. Defaults retrieve any hit; the budget only steers the
/// banded-vs-Hirschberg choice, never correctness.
struct TracebackOptions {
  /// Most score cells one banded window step may store; a step costing
  /// more (or no less than full DP) falls back to linear-space Hirschberg.
  /// 4 MiB of 32-bit cells by default. Affine windows ignore it.
  std::size_t band_cell_budget = std::size_t{1} << 20;
};

/// One retrieved alignment plus its cost accounting.
struct Traceback {
  /// begin/end are 1-based record (.i) / query (.j) coordinates; score is
  /// the kernel score, which the replayed transcript reproduced exactly.
  align::LocalAlignment alignment;
  double identity = 0.0;        ///< matches / transcript columns
  double query_coverage = 0.0;  ///< aligned query residues / |query|
  bool banded = false;          ///< window solved by banded NW (else Hirschberg/Myers-Miller)
  std::size_t band = 0;         ///< divergence band of the banded window (0 when not banded)
  std::uint64_t dp_cells = 0;   ///< score cells computed across all passes
  std::uint64_t peak_cells = 0; ///< max score cells stored at any instant
};

/// Smallest band that provably contains every alignment of an m x n window
/// scoring at least `score`: a path with p paired columns and g gap
/// columns has g = m + n - 2p and drifts at most g off the diagonal, and
/// score <= p * smax + g * gap bounds p from below. Clamped to
/// [|m - n|, max(m, n)] so the corner stays reachable. With a
/// non-positive smax no positive-scoring window exists; the full band is
/// returned (the caller's budget then routes to Hirschberg).
std::size_t band_from_score(std::size_t rows, std::size_t cols, align::Score score,
                            const align::Scoring& sc);

/// Retrieves the alignment behind one kernel hit: `rec` (rows) vs `query`
/// (columns), `kernel` the scan kernel's score + end cell, `pass` the
/// reverse pass.
/// @throws std::invalid_argument on a non-positive score or an end cell
/// outside the spans; std::logic_error when any pass disagrees with the
/// kernel score or the replayed transcript does not reproduce it (a
/// kernel/traceback divergence — never expected, always loud).
Traceback traceback_hit(std::span<const seq::Code> rec, std::span<const seq::Code> query,
                        const align::LocalScoreResult& kernel, const align::Scoring& sc,
                        const TracebackOptions& opt = {}, const ScorePass& pass = {});

/// Affine gaps: Gotoh passes, Myers-Miller window, affine replay.
Traceback traceback_hit(std::span<const seq::Code> rec, std::span<const seq::Code> query,
                        const align::LocalScoreResult& kernel, const align::AffineScoring& sc,
                        const TracebackOptions& opt = {}, const ScorePass& pass = {});

/// Full local alignment of a (rows) vs b (columns): the forward pass on
/// `pass`, then traceback_hit with it. Empty alignment for score <= 0.
/// @throws std::invalid_argument on alphabet mismatch or invalid scoring.
align::LocalAlignment local_align_linear(const seq::Sequence& a, const seq::Sequence& b,
                                         const align::Scoring& sc, const ScorePass& pass = {});

align::LocalAlignment local_align_linear(const seq::Sequence& a, const seq::Sequence& b,
                                         const align::AffineScoring& sc,
                                         const ScorePass& pass = {});

/// retrieve.* metric handles, fetched once per scan (registry lookups
/// lock; per-hit recording must not). All-null when `reg` is null — the
/// disabled path is one pointer test per retrieval batch.
struct TracebackMetrics {
  obs::Counter* hits = nullptr;        ///< retrieve.hits
  obs::Counter* banded = nullptr;      ///< retrieve.banded
  obs::Counter* hirschberg = nullptr;  ///< retrieve.hirschberg
  obs::Counter* cells = nullptr;       ///< retrieve.cells
  obs::Histogram* traceback_us = nullptr;  ///< retrieve.traceback_us

  TracebackMetrics() = default;
  explicit TracebackMetrics(obs::Registry* reg);

  /// Records one retrieved hit (no-op when disabled).
  void observe(const Traceback& tb, double seconds) const;
};

}  // namespace swr::retrieve
