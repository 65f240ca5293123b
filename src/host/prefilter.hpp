// Seeded scan prefilter: k-mer index lookup + ungapped diagonal prescreen.
//
// The two-stage candidate funnel behind `scan --filter seeded`:
//
//   stage 1 (seeds):     walk the query's k-mers through the store's
//                        format-v3 index (db/format.hpp) — records sharing
//                        no k-mer with the query are dropped without ever
//                        touching their residues;
//   stage 2 (prescreen): for every distinct (record, diagonal) a seed
//                        suggested, run the exact ungapped Kadane kernel
//                        (align/prescreen.hpp) and keep the record iff
//                        some diagonal reaches the prescreen threshold.
//
// Survivors are rescored by the unchanged exact SIMD kernels, so every
// reported hit is an exact Smith-Waterman score — the filter decides
// which records are scored, never how.
//
// Recall contract (DESIGN.md §3h): records the filter cannot reason
// about — shorter than k, or any record when the query itself is shorter
// than k — are admitted unconditionally ("recall guards"). For the rest,
// parity with --filter exact above the threshold is an empirical
// contract enforced by the recall parity suite, not a structural
// guarantee: a gapped alignment can in principle dodge every length-k
// exact match. The thresholds the suite locks in leave orders of
// magnitude of margin on real scoring schemes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/scoring.hpp"
#include "db/store.hpp"
#include "seq/sequence.hpp"

namespace swr::host {

/// Prefilter configuration, derived from ScanOptions by the scan engine.
struct FilterOptions {
  /// The score the caller wants full recall above (--filter-threshold,
  /// else min_score). Must be >= 1.
  align::Score threshold = 1;

  /// Ungapped prescreen bar; 0 derives ceil(threshold / 2) — an ungapped
  /// segment carrying half the gapped score is a deliberately loose bar
  /// (see DESIGN.md §3h for the margin analysis).
  align::Score prescreen_threshold = 0;
};

/// Funnel accounting, surfaced through ScanResult and scan.filter.*.
struct FilterStats {
  std::uint64_t domain = 0;        ///< records the filter considered
  std::uint64_t candidates = 0;    ///< records with >= 1 seed (entered prescreen)
  std::uint64_t rescored = 0;      ///< survivors handed to the exact kernels
  std::uint64_t rejected = 0;      ///< domain - rescored
  std::uint64_t recall_guard = 0;  ///< unconditional admissions (see header)
  std::uint64_t postings = 0;      ///< index postings visited
  std::uint64_t diagonals = 0;     ///< distinct (record, diagonal) prescreened
};

/// Runs the funnel over `store` (or, when `subset` is non-empty, only the
/// listed record ids — the scan service's chunk path) and returns the
/// surviving record ids, ascending and unique. `stats` (optional)
/// receives the funnel accounting.
/// @throws db::StoreError when the store has no k-mer index section, or
/// when a posting it walks lies past the last residue (a corrupt index).
std::vector<std::uint32_t> filter_candidates(const db::Store& store, const seq::Sequence& query,
                                             const align::Scoring& sc, const FilterOptions& fo,
                                             std::span<const std::uint32_t> subset = {},
                                             FilterStats* stats = nullptr);

}  // namespace swr::host
