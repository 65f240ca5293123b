// Z-align-style exact alignment in user-restricted memory (paper [3],
// §2.4).
//
// The paper's accelerator is pitched as a drop-in for the compute-heavy
// phase of strategies like Z-align. This module implements the strategy's
// shape end to end on the CPU substrate:
//
//   phase 1  sequences distributed to the workers (the wavefront's column
//            blocks);
//   phase 2  the entire similarity matrix computed in linear space by the
//            parallel wavefront — forward for the end of the best
//            alignment, then over the *reversed* prefixes for its begin;
//   phase 3  workers' bests reduced to a single global best (the fold
//            inside wavefront_sw);
//   phase 4  the alignment retrieved inside a divergence band sized to a
//            user-supplied memory budget, Hirschberg (linear space, ~2x
//            time) as the fallback: retrieve::traceback_hit, with the
//            wavefront as its reverse pass.
#pragma once

#include <cstddef>

#include "align/cigar.hpp"
#include "par/wavefront.hpp"

namespace swr::par {

/// Memory/parallelism knobs for a Z-align run.
struct ZAlignOptions {
  WavefrontConfig wavefront{};        ///< phase-2 decomposition
  std::size_t max_retrieval_cells = 1u << 22;  ///< phase-4 budget (DP cells)

  void validate() const;
};

/// How phase 4 retrieved the transcript.
enum class RetrievalMode { Banded, Hirschberg, None };

struct ZAlignResult {
  align::LocalAlignment alignment;
  RetrievalMode mode = RetrievalMode::None;
  std::size_t band = 0;              ///< divergence band used (Banded mode)
  std::size_t retrieval_cells = 0;   ///< peak DP cells the retrieval stored
};

/// Exact best local alignment of a vs b with bounded retrieval memory.
/// @throws std::invalid_argument on alphabet mismatch / bad options.
ZAlignResult zalign(const seq::Sequence& a, const seq::Sequence& b, const align::Scoring& sc,
                    const ZAlignOptions& opt);

}  // namespace swr::par
