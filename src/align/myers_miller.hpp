// Myers & Miller's affine-gap global alignment in linear space
// (paper §1, reference [25]: "Optimal alignments in linear space").
//
// Hirschberg's divide-and-conquer assumes per-column gap costs; with
// affine gaps a deletion may *span the split row*, so the split must also
// decide whether it happens inside a gap. Myers & Miller extend the
// forward/backward rows with the Gotoh F-layer and thread two boundary
// flags (tb, te) through the recursion: the gap-open charge at the top and
// bottom boundary of each subproblem (zero when the parent split inside a
// running gap).
//
// This is the window step of the affine §2.3 recipe: the AffinePe array
// (or gotoh_local_score) produces score+coordinates, and
// retrieve::traceback_hit's affine overload re-pairs the window and calls
// myers_miller_cigar for the transcript — both in linear space, for the
// [2]/[32] gap model.
#pragma once

#include <span>

#include "align/cigar.hpp"
#include "align/result.hpp"
#include "seq/sequence.hpp"

namespace swr::align {

/// Affine global alignment transcript in O(|b|) space. The transcript's
/// affine score equals gotoh_global_score(a, b, sc) (tests enforce it).
Cigar myers_miller_cigar(std::span<const seq::Code> a, std::span<const seq::Code> b,
                         const AffineScoring& sc);

/// Wrapper with sequences and score computation.
/// @throws std::invalid_argument on alphabet mismatch.
LocalAlignment myers_miller_align(const seq::Sequence& a, const seq::Sequence& b,
                                  const AffineScoring& sc);

}  // namespace swr::align
