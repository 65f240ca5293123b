// The anchored re-pair step of the paper's §2.3 linear-space recipe: the
// begin cell the reverse pass finds may belong to a different co-optimal
// alignment than the forward pass's end, so an anchored scan from the
// begin locates the end that pairs with it. retrieve::traceback_hit runs
// the whole recipe for both gap models.
#pragma once

#include <span>

#include "align/cigar.hpp"
#include "align/result.hpp"
#include "seq/sequence.hpp"

namespace swr::align {

/// Step-3 primitive, exposed for tests: best cell of any local alignment
/// constrained to *start* at `begin` (1-based), searching the window up to
/// (end_limit_i, end_limit_j) inclusive. Runs in O(window columns) space.
LocalScoreResult anchored_best_end(const seq::Sequence& a, const seq::Sequence& b, Cell begin,
                                   std::size_t end_limit_i, std::size_t end_limit_j,
                                   const Scoring& sc);

/// Raw-span variant of the step-3 primitive — the form the retrieval
/// subsystem drives with record codes straight out of a scan database
/// (no Sequence materialization on the traceback path).
LocalScoreResult anchored_best_end(std::span<const seq::Code> a, std::span<const seq::Code> b,
                                   Cell begin, std::size_t end_limit_i, std::size_t end_limit_j,
                                   const Scoring& sc);

/// The affine (Gotoh) twin: two rows of O(window columns).
LocalScoreResult anchored_best_end(std::span<const seq::Code> a, std::span<const seq::Code> b,
                                   Cell begin, std::size_t end_limit_i, std::size_t end_limit_j,
                                   const AffineScoring& sc);

}  // namespace swr::align
