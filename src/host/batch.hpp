// Batch database scanning — the SAMBA-style workload (paper Table 1:
// query vs a database of many sequences).
//
// Streams every record of a sequence database through one accelerator,
// keeping the top-k hits (score + record + coordinates). Optionally
// retrieves the full alignment for each reported hit through the §2.3
// pipeline. This is the layer a command-line search tool would sit on.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "align/cigar.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/topology.hpp"
#include "host/pipeline.hpp"
#include "retrieve/traceback.hpp"

namespace swr::db {
class Store;
}

namespace swr::obs {
class Registry;
}

namespace swr::host {

class RecordSource;
class ProfileCache;

/// One database hit.
struct Hit {
  std::size_t record = 0;            ///< index into the database vector
  align::LocalScoreResult result{};  ///< score + end cell within that record
  double board_seconds = 0.0;        ///< modelled accelerator time for the record
};

/// Hit ordering: higher score first; ties by record index, then canonical
/// cell order — fully deterministic.
bool hit_ranks_before(const Hit& x, const Hit& y);

/// Scan kernel shape (core/cpu_features.hpp), orthogonal to the SIMD tier:
/// striped splits one record's query across lanes; interseq scores one
/// record per lane with length-sorted lane batching. Every shape produces
/// bit-identical output to every tier — tests enforce it.
using KernelShape = core::KernelShape;

/// Candidate filtering tier for the CPU scan engine (scan --filter).
enum class FilterMode {
  Exact,   ///< score every record (the default; the only accelerator mode)
  Seeded,  ///< k-mer seed + ungapped prescreen funnel (host/prefilter.hpp),
           ///< exact SIMD rescore of survivors; needs a store built with
           ///< the format-v2 k-mer index section
};

/// Scan configuration.
struct ScanOptions {
  std::size_t top_k = 10;       ///< hits to keep
  align::Score min_score = 1;   ///< ignore records scoring below this

  /// DUST low-complexity filter (DNA records only): suppress hits whose
  /// end position lies inside a masked interval — the classic defence
  /// against poly-A/microsatellite junk hits flooding the top-k.
  bool dust_filter = false;
  std::size_t dust_window = 64;
  double dust_threshold = 2.0;

  /// Worker threads for the parallel engines (scan_database_cpu shards
  /// records across them; scan_database_fleet drives one board per
  /// worker). 1 = fully sequential. Results are bit-identical across
  /// thread counts — tests enforce it.
  std::size_t threads = 1;

  /// SIMD tier for scan_database_cpu (core/cpu_features.hpp). nullopt
  /// (auto, the default) picks the widest tier the machine supports,
  /// honouring the SWR_SIMD env override; an explicit tier the CPU cannot
  /// execute degrades to the widest supported one with a one-time
  /// warning. Every tier produces bit-identical hits; only throughput
  /// differs — tests enforce it.
  std::optional<core::SimdIsa> simd;

  /// Kernel shape for scan_database_cpu. Auto honours the SWR_KERNEL env
  /// override, then picks inter-sequence for store-backed scans whenever
  /// the resolved tier is a native-vector tier that can run it (scheme
  /// fits 8-bit lanes, alphabet fits the lookup tables), else striped. An
  /// explicit InterSeq request the machine/scheme cannot honour degrades
  /// to striped with a one-time warning.
  KernelShape kernel = KernelShape::Auto;

  /// Memory placement for scan_database_cpu (core/topology.hpp). Auto
  /// (the default) probes the machine and activates per-node shard
  /// ownership + worker affinity on multi-node boxes, degrading to Off on
  /// single-node machines with a one-time warning. Off reproduces the
  /// placement-blind engine exactly (strict no-op: no probe, no pinning,
  /// no scan.numa.* metrics). Fake runs the placement logic against
  /// NumaRequest::fake_spec — deterministically testable anywhere. Hits
  /// are bit-identical across every mode; the parity suite enforces it.
  core::NumaRequest numa;

  /// Candidate filter for scan_database_cpu / scan_records_cpu. Seeded
  /// requires an indexed .swdb source and preserves the exact hit set for
  /// records whose true score >= the filter threshold (the recall parity
  /// suite enforces it); hits for surviving records are bit-identical to
  /// exact across shapes, policies and thread counts.
  FilterMode filter = FilterMode::Exact;

  /// Score the seeded filter must keep full recall above; 0 uses
  /// min_score. Ignored under FilterMode::Exact.
  align::Score filter_threshold = 0;

  /// Retrieve the full alignment (§2.3 reverse pass + linear-space window
  /// retrieval, retrieve/traceback.hpp) for the ranked hits after the
  /// final merge. Off by default: scanning stays a score-only operation.
  bool align = false;

  /// Cap on how many ranked hits are traced back when `align` is on; 0
  /// (the default) aligns every reported hit. Ranking is unaffected —
  /// the cap trims the alignment work, not the hit list. Under
  /// FilterMode::Seeded the cap counts post-rescore hits: traceback runs
  /// on the final merged ranking, after the exact rescore of survivors.
  std::size_t max_hits = 0;

  /// Optional shared profile cache (host/profile_cache.hpp). nullptr (the
  /// default) builds the query profiles per scan exactly as before;
  /// non-null makes the engine acquire the scan's ProfileBundle from the
  /// cache, so repeated queries — and the scan service's many chunks of
  /// one query — skip the QueryProfile/StripedProfile/InterSeqProfile
  /// builds. Hits are bit-identical either way: the profiles are pure
  /// functions of (query, scoring, lane shape). The cache must outlive
  /// the scan call.
  ProfileCache* profile_cache = nullptr;

  /// Observability sink. nullptr (the default) is a strict no-op: the
  /// engines never form a metric name or touch an atomic — the disabled
  /// path costs one pointer test per scan (bench_kernels enforces the
  /// <2% bound). Non-null: the CPU engine records scan.* counters
  /// (records/cells/fallbacks, reconciling exactly with ScanResult) and a
  /// per-worker kernel-time histogram; the fleet engine records fleet.*.
  /// The registry must outlive the scan call.
  obs::Registry* metrics = nullptr;

  void validate() const;
};

/// True when `opt.dust_filter` suppresses a hit ending at `end` inside
/// `rec` — shared by every scan engine so filtering stays bit-identical.
bool dust_suppressed(const seq::Sequence& rec, const align::Cell& end, const ScanOptions& opt);

/// Outcome of a scan. The per-scan stats are surfaced here so the scan
/// service and the benches consume them instead of recomputing:
/// records_scanned counts every record seen (empty ones included), and
/// cell_updates the full |query| x |record| matrix work.
///
/// swar8_fallbacks counts the 8-bit overflow re-runs of the CPU engine's
/// striped and inter-sequence tiers: records whose 8-bit pass saturated
/// ("some true cell value > 255" — the same predicate for both shapes, so
/// the count does not depend on which one ran) and were lazily re-scored
/// in 16-bit striped lanes, or by the scalar kernel beyond that. It is 0
/// for the scalar tier and the accelerator engines. The name predates the
/// striped kernels; it stays because perfbench and the wire Done trailer
/// use it.
struct ScanResult {
  std::vector<Hit> hits;          ///< ranked best-first, size <= top_k
  std::size_t records_scanned = 0;
  std::uint64_t cell_updates = 0; ///< total matrix cells across records
  std::uint64_t swar8_fallbacks = 0; ///< 8-bit overflow re-runs
  double board_seconds = 0.0;     ///< modelled accelerator time, summed
  /// Total simulator cycles the accelerator engines measured (0 for the
  /// CPU engines) — the hook the fleet/service layers cross-validate
  /// against core/performance_model's analytic prediction.
  std::uint64_t board_cycles = 0;
  // Seeded-filter funnel (zeros under FilterMode::Exact). records_scanned
  // stays the full domain; cell_updates covers only rescored records —
  // the cells the filter saved are exactly the difference against an
  // exact scan.
  std::uint64_t filter_candidates = 0;   ///< records with >= 1 index seed
  std::uint64_t filter_rescored = 0;     ///< survivors scored exactly
  std::uint64_t filter_rejected = 0;     ///< records the funnel dropped
  std::uint64_t filter_recall_guard = 0; ///< unconditional admissions

  /// Retrieved alignments when ScanOptions::align is set: alignments[h]
  /// belongs to hits[h], for the first min(max_hits, hits.size()) hits
  /// (all of them when max_hits == 0). Empty when align is off or the
  /// retrieval phase was stopped early (service deadline/cancel).
  std::vector<retrieve::Traceback> alignments;
};

/// Scans `records` with `query` on `accelerator`.
/// @throws std::invalid_argument on bad options or alphabet mismatch.
ScanResult scan_database(core::SmithWatermanAccelerator& accelerator, const seq::Sequence& query,
                         const std::vector<seq::Sequence>& records, const ScanOptions& opt);

/// Accelerator scan over a memory-mapped .swdb store. Records are decoded
/// from the mapping one at a time (the board model consumes whole
/// sequences); hits are bit-identical to the vector overload.
ScanResult scan_database(core::SmithWatermanAccelerator& accelerator, const seq::Sequence& query,
                         const db::Store& store, const ScanOptions& opt);

/// Retrieval phase shared by every scan engine: traces back the first
/// min(opt.max_hits, hits) ranked hits of `inout` through
/// retrieve::traceback_hit, appending to `inout.alignments` in hit order.
/// No-op unless `opt.align` is set. `should_stop` (when non-empty) is
/// polled between hits so a service deadline or cancellation can abandon
/// the remainder — alignments retrieved so far are kept. Records opt's
/// retrieve.* metrics. @throws std::logic_error on kernel/traceback
/// divergence (a hit whose replayed transcript missed the kernel score).
void retrieve_alignments(const seq::Sequence& query, const RecordSource& src,
                         const align::Scoring& sc, const ScanOptions& opt, ScanResult& inout,
                         const std::function<bool()>& should_stop = {});

/// Retrieves the full alignment for one hit via the host pipeline.
PipelineResult retrieve_hit(core::SmithWatermanAccelerator& accelerator, const PciConfig& pci,
                            const seq::Sequence& query, const std::vector<seq::Sequence>& records,
                            const Hit& hit);

}  // namespace swr::host
