// Parallel sharded database-scan engine — the software twin of the
// SAMBA-style workload (paper Table 1) on host CPUs.
//
// scan_database (host/batch.hpp) streams records through the
// cycle-accurate accelerator model one at a time: faithful, but it
// exploits neither of the two multiplicative throughput levers a real
// database scan lives on — inter-record task parallelism and wider
// intra-record SIMD lanes. This engine exploits both:
//
//   * the record list is sharded into contiguous chunks handed to
//     par::ThreadPool workers through an atomic chunk cursor (dynamic
//     load balancing — record lengths vary wildly);
//   * the query profiles are built once per scan and shared read-only by
//     every worker; each worker owns only its kernel scratch buffers;
//   * per record, the SIMD tier ladder picks the widest exact kernel:
//     16 or 32 8-bit striped lanes with saturation-detect, lazily re-run
//     in 16-bit striped lanes on overflow, scalar query-profile beyond
//     that (or alone, on the scalar tier);
//   * every worker keeps its own top-k list; the partial lists are merged
//     deterministically under hit_ranks_before at the end.
//
// The result is BIT-IDENTICAL to the sequential scan for every thread
// count and SIMD tier — same hits in the same hit_ranks_before order,
// same cell_updates — because per-record results are engine-invariant
// (each kernel reproduces sw_linear exactly) and the merge is a total
// order. Tests enforce this for 1/2/8 threads and all tiers.
//
// The database reaches the engine either as an in-memory record vector
// (the FASTA path) or as a memory-mapped db::Store (.swdb) — both run the
// same loop via host::RecordSource, so their hits are bit-identical too.
// The three entry points below are one scan over an id domain: the whole
// source, or an explicit id list (a service chunk).
//
// ScanOptions::filter adds an optional candidate tier in front of the
// exact kernels: FilterMode::Seeded consults the store's k-mer index and
// the ungapped diagonal prescreen (host/prefilter.hpp) and scores only
// the surviving records — identical hits above the filter threshold, a
// fraction of the cell updates. Exact mode is the unchanged full scan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "align/scoring.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/record_source.hpp"
#include "seq/sequence.hpp"

namespace swr::host {

/// Scans `records` with `query` on the CPU engine. `opt.threads` workers,
/// `opt.simd` kernels. `cell_updates` counts |query| * |record|
/// per non-empty record — the same accounting as the accelerator scan.
/// `board_seconds` is 0: no board is involved.
/// @throws std::invalid_argument on bad options or alphabet mismatch.
ScanResult scan_database_cpu(const seq::Sequence& query, const std::vector<seq::Sequence>& records,
                             const align::Scoring& sc, const ScanOptions& opt);

/// Same engine over a memory-mapped .swdb store: no FASTA parse, records
/// stream straight out of the mapping. Hits are bit-identical to the
/// vector overload on the same records (tests enforce it).
ScanResult scan_database_cpu(const seq::Sequence& query, const db::Store& store,
                             const align::Scoring& sc, const ScanOptions& opt);

/// Single-threaded scan of an explicit record-id list — the dispatch unit
/// of svc::ScanService (one chunk of a query's work, typically a slice of
/// the store's schedule_order). `opt.threads` is ignored. Hits carry the
/// original record ids, so unioning chunk results and sorting under
/// hit_ranks_before reproduces the whole-database scan exactly.
/// @throws std::invalid_argument on bad options, alphabet mismatch, or an
/// id outside the source.
ScanResult scan_records_cpu(const seq::Sequence& query, const RecordSource& src,
                            std::span<const std::uint32_t> record_ids, const align::Scoring& sc,
                            const ScanOptions& opt);

}  // namespace swr::host
