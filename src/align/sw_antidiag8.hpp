// Eight-lane (8-bit) anti-diagonal SWAR Smith-Waterman.
//
// Eight 8-bit lanes per uint64_t update eight anti-diagonal cells at once
// (align/swar8.hpp), double the width of the 16-bit kernel
// (align/sw_antidiag.hpp). Database records mostly score small, so most
// fit the 0..255 lane range; the kernel detects per-lane saturation
// exactly (the carry-out of every add is accumulated and checked once per
// diagonal) and reports overflow instead of a result, at which point the
// caller lazily re-runs the record in 16-bit lanes — correctness never
// depends on an a priori score bound. Its overflow predicate ("some true
// cell value > 255") is the one the striped and inter-sequence 8-bit scan
// kernels share. Like the 16-bit kernel it is not a scan tier: operand
// routing between lanes costs more than the wider lanes save, and the
// scalar query-profile kernel beats it (EXPERIMENTS.md §K).
//
// Results are bit-identical to sw_linear (score + canonical cell) whenever
// a result is returned. Working memory is O(|a|) (three byte-wide
// anti-diagonal buffers), reusable across records via Antidiag8Workspace.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "align/result.hpp"
#include "seq/sequence.hpp"

namespace swr::align {

/// Scratch buffers for the 8-bit kernel, reusable across records so a
/// caller comparing many records allocates once, not once per record.
struct Antidiag8Workspace {
  std::vector<std::uint8_t> buf0, buf1, buf2;  ///< rotating anti-diagonals
  std::vector<seq::Code> rb;                   ///< reversed copy of b
};

/// True when no cell of an (a_len x b_len) comparison can exceed the 8-bit
/// lane range under `sc` — the kernel is then guaranteed to succeed.
bool antidiag8_guaranteed(std::size_t a_len, std::size_t b_len, const Scoring& sc);

/// Runs the 8-lane kernel over a (rows) vs b (columns). Returns the exact
/// result, or nullopt when any lane saturated (score somewhere > 255) or
/// the scheme's magnitudes do not fit 8 bits — the caller should re-run
/// with the 16-bit kernel. A score of exactly 255 is still exact.
std::optional<LocalScoreResult> sw_antidiag8_try(std::span<const seq::Code> a,
                                                 std::span<const seq::Code> b, const Scoring& sc,
                                                 Antidiag8Workspace& ws);

/// Convenience: 8-lane attempt with transparent 16-bit (and scalar)
/// fallback — always returns the exact sw_linear result.
LocalScoreResult sw_linear_antidiag8_codes(std::span<const seq::Code> a,
                                           std::span<const seq::Code> b, const Scoring& sc);

/// @throws std::invalid_argument on alphabet mismatch / invalid scoring.
LocalScoreResult sw_linear_antidiag8(const seq::Sequence& a, const seq::Sequence& b,
                                     const Scoring& sc);

}  // namespace swr::align
