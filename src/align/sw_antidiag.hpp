// Anti-diagonal SWAR Smith-Waterman.
//
// The paper's systolic array exploits one fact: all cells of an
// anti-diagonal are independent (figure 4). The same fact vectorises the
// software kernel without intrinsics — four 16-bit lanes per uint64_t
// update four anti-diagonal cells at once (align/swar.hpp). This is the
// software incarnation of the hardware's parallelism. It is not a scan
// tier: the array gets each neighbour's cell from its wiring, but here the
// same operand routing costs lane shuffles that eat the lane-arithmetic
// win, so the scalar query-profile kernel beats it (EXPERIMENTS.md §K,
// bench_kernels BM_SwAntiDiagSwar) and the scan engine uses the Farrar
// striped layout instead (align/sw_striped.hpp).
//
// Results are bit-identical to sw_linear (score + canonical cell); the
// kernel transparently falls back to the scalar path when the achievable
// score cannot be bounded inside the 16-bit lanes. Working memory is
// O(|a|) (three anti-diagonal buffers).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/result.hpp"
#include "seq/sequence.hpp"

namespace swr::align {

/// Scratch buffers for the 16-bit kernel, reusable across records so a
/// caller comparing many records allocates once, not once per record.
struct AntidiagWorkspace {
  std::vector<std::uint16_t> buf0, buf1, buf2;  ///< rotating anti-diagonals
  std::vector<seq::Code> rb;                    ///< reversed copy of b
};

/// Anti-diagonal SWAR SW over a (rows) vs b (columns).
/// @throws std::invalid_argument on alphabet mismatch / invalid scoring.
LocalScoreResult sw_linear_antidiag(const seq::Sequence& a, const seq::Sequence& b,
                                    const Scoring& sc);

/// Raw-span variant.
LocalScoreResult sw_linear_antidiag_codes(std::span<const seq::Code> a,
                                          std::span<const seq::Code> b, const Scoring& sc);

/// Raw-span variant with caller-owned scratch (identical results, no
/// per-record allocation).
LocalScoreResult sw_linear_antidiag_codes(std::span<const seq::Code> a,
                                          std::span<const seq::Code> b, const Scoring& sc,
                                          AntidiagWorkspace& ws);

/// True when the SWAR path can run for these shapes (16-bit score bound
/// holds); false means the functions above take the scalar fallback.
bool antidiag_swar_applicable(std::size_t a_len, std::size_t b_len, const Scoring& sc);

}  // namespace swr::align
