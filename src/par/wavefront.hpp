// Wavefront-parallel Smith-Waterman (paper §2.4, figure 3).
//
// The matrix is cut into column blocks — one per logical processor P1..Pp,
// exactly the figure's decomposition — and each column block advances in
// row blocks. Block (r, p) can run once (r-1, p) and (r, p-1) are done, so
// computation sweeps the matrix as an anti-diagonal wave: only P1 works at
// first, full parallelism in the middle, drain at the end. Border columns
// are handed from block to block just as the figure's processors exchange
// their border column values.
//
// The kernel inside each block is the identical linear-space recurrence
// used everywhere else, so the parallel result is bit-equal to
// sw_linear (tests enforce it), including the canonical tie-break.
#pragma once

#include <cstddef>
#include <span>

#include "align/result.hpp"
#include "seq/sequence.hpp"

namespace swr::par {

/// Decomposition parameters.
struct WavefrontConfig {
  std::size_t threads = 4;     ///< worker threads (the figure's P1..P4)
  std::size_t col_blocks = 0;  ///< column blocks; 0 = one per thread
  std::size_t row_block = 512; ///< rows per pipelining step

  /// @throws std::invalid_argument on zero threads/row_block.
  void validate() const;
};

/// Parallel linear-space SW: best score + canonical end cell.
/// @throws std::invalid_argument on alphabet mismatch / bad config.
align::LocalScoreResult wavefront_sw(const seq::Sequence& a, const seq::Sequence& b,
                                     const align::Scoring& sc, const WavefrontConfig& cfg);

/// Raw-span variant — the form Z-align plugs into the §2.3 retrieval core
/// as its reverse pass.
align::LocalScoreResult wavefront_sw(std::span<const seq::Code> a, std::span<const seq::Code> b,
                                     const align::Scoring& sc, const WavefrontConfig& cfg);

}  // namespace swr::par
