#include "host/scan_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include <chrono>

#include "align/sw_interseq.hpp"
#include "align/sw_profile.hpp"
#include "align/sw_striped.hpp"
#include "core/cpu_features.hpp"
#include "core/topology.hpp"
#include "host/prefilter.hpp"
#include "host/profile_cache.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "retrieve/topk.hpp"

namespace swr::host {
namespace {

// 8-bit lane width the scan's ProfileBundle must carry for `isa`: the
// native-vector tiers need the striped (and, where compiled, inter-seq)
// profiles at their lane count; the scalar tier needs only the scalar
// query profile.
unsigned bundle_lanes(core::SimdIsa isa) {
  switch (isa) {
    case core::SimdIsa::Avx2: return 32;
    case core::SimdIsa::Sse41: return 16;
    case core::SimdIsa::Scalar: break;
  }
  return 0;
}

std::atomic<bool> warned_interseq_degrade{false};

// One ProfileBundle per scan, shared read-only by every worker: from the
// cache when the caller wired one (repeated queries and service chunks
// skip the build entirely), otherwise built fresh.
std::shared_ptr<const ProfileBundle> acquire_bundle(const seq::Sequence& query,
                                                    const align::Scoring& sc, core::SimdIsa isa,
                                                    ProfileCache* cache) {
  const unsigned lanes = bundle_lanes(isa);
  if (cache != nullptr) return cache->acquire(query, sc, lanes);
  return std::make_shared<const ProfileBundle>(query, sc, lanes);
}

// Applies the SWR_KERNEL env override to an Auto kernel request.
KernelShape requested_shape_after_env(KernelShape requested) {
  if (requested == KernelShape::Auto) {
    if (const std::optional<KernelShape> env = core::kernel_shape_env_override()) {
      return *env;
    }
  }
  return requested;
}

// Everything the kernel-shape decision produced: the concrete shape
// (never Auto) and, for InterSeq, a pointer into the scan's shared
// bundle (read-only, so one instance serves every worker).
struct ShapePlan {
  KernelShape shape = KernelShape::Striped;
  const align::InterSeqProfile* iprofile = nullptr;
};

// Resolves the (env-resolved) requested kernel shape once per scan:
// inter-sequence is picked for store-backed scans whenever the bundle
// carries a usable inter-seq profile (kernel compiled, ISA present,
// scheme fits 8-bit lanes, alphabet + neutral code fits the pshufb
// tables); an explicit InterSeq request that cannot be honoured degrades
// to striped with a one-time warning — never an error, mirroring the
// SIMD-tier clamp.
ShapePlan resolve_kernel_shape(KernelShape requested, const ProfileBundle& bundle,
                               bool store_backed) {
  ShapePlan plan;
  if (requested == KernelShape::Striped) return plan;

  const bool interseq_ok = bundle.interseq.has_value() && bundle.interseq->usable();
  if (requested == KernelShape::InterSeq && !interseq_ok &&
      !warned_interseq_degrade.exchange(true)) {
    std::fprintf(stderr,
                 "SWR: requested kernel 'interseq' is unavailable for this scan "
                 "(needs an sse41/avx2 policy, a scheme that fits 8-bit lanes and an "
                 "alphabet of at most 31 residues); degrading to 'striped'\n");
  }
  const bool use_interseq =
      interseq_ok && (requested == KernelShape::InterSeq || store_backed);
  plan.shape = use_interseq ? KernelShape::InterSeq : KernelShape::Striped;
  if (use_interseq) plan.iprofile = &*bundle.interseq;
  return plan;
}

// Metric handles fetched once per scan (registry lookups take a lock; the
// record loop must not). All-null when opt.metrics is null, so the
// disabled path is a single pointer test per scan and one per worker.
struct ScanMetrics {
  obs::Counter* scans = nullptr;
  obs::Counter* records = nullptr;
  obs::Counter* cells = nullptr;
  obs::Counter* simd_selected = nullptr;
  obs::Counter* simd_fallbacks = nullptr;
  obs::Counter* simd_rec_scalar = nullptr;
  obs::Counter* simd_rec_striped8 = nullptr;
  obs::Counter* simd_rec_striped16 = nullptr;
  obs::Counter* decode_reuse = nullptr;
  // Interseq-shape handles, fetched only when that shape resolved so a
  // striped scan never pays the extra registry lookups.
  obs::Counter* interseq_batches = nullptr;
  obs::Counter* interseq_refills = nullptr;
  obs::Counter* interseq_fallbacks = nullptr;
  obs::Counter* interseq_records = nullptr;
  obs::Histogram* interseq_occupancy = nullptr;
  obs::Histogram* worker_kernel_us = nullptr;
  // Seeded-filter handles, fetched only when that mode is active so an
  // exact scan never pays the extra registry lookups.
  obs::Counter* filter_candidates = nullptr;
  obs::Counter* filter_rejected = nullptr;
  obs::Counter* filter_rescored = nullptr;
  obs::Counter* filter_recall_guard = nullptr;
  obs::Histogram* filter_candidate_ratio = nullptr;
  // Placement handles, fetched only when the NUMA plan resolved active so
  // a placement-off scan never pays the extra registry lookups.
  obs::Gauge* numa_nodes = nullptr;
  obs::Counter* numa_local_bytes = nullptr;
  obs::Counter* numa_remote_bytes = nullptr;
  obs::Counter* numa_prefault_pages = nullptr;
  obs::Gauge* numa_resident_pages = nullptr;

  ScanMetrics(obs::Registry* reg, core::SimdIsa isa, KernelShape shape, bool seeded,
              bool numa_active) {
    if (reg == nullptr) return;
    if (numa_active) {
      numa_nodes = &reg->gauge("scan.numa.nodes");
      numa_local_bytes = &reg->counter("scan.numa.local_bytes");
      numa_remote_bytes = &reg->counter("scan.numa.remote_bytes");
      numa_prefault_pages = &reg->counter("scan.numa.prefault_pages");
      numa_resident_pages = &reg->gauge("scan.numa.resident_pages");
    }
    if (seeded) {
      filter_candidates = &reg->counter("scan.filter.candidates");
      filter_rejected = &reg->counter("scan.filter.rejected");
      filter_rescored = &reg->counter("scan.filter.rescored");
      filter_recall_guard = &reg->counter("scan.filter.recall_guard");
      filter_candidate_ratio = &reg->histogram("scan.filter.candidate_ratio");
    }
    scans = &reg->counter("scan.scans");
    records = &reg->counter("scan.records");
    cells = &reg->counter("scan.cells");
    simd_selected = &reg->counter(std::string("scan.simd.selected.") + core::simd_isa_name(isa));
    simd_fallbacks = &reg->counter("scan.simd.fallbacks");
    simd_rec_scalar = &reg->counter("scan.simd.records.scalar");
    simd_rec_striped8 = &reg->counter("scan.simd.records.striped8");
    simd_rec_striped16 = &reg->counter("scan.simd.records.striped16");
    decode_reuse = &reg->counter("scan.db.decode_reuse");
    if (shape == KernelShape::InterSeq) {
      interseq_batches = &reg->counter("scan.interseq.batches");
      interseq_refills = &reg->counter("scan.interseq.refills");
      interseq_fallbacks = &reg->counter("scan.interseq.fallbacks");
      interseq_records = &reg->counter("scan.interseq.records");
      interseq_occupancy = &reg->histogram("scan.interseq.occupancy");
    }
    worker_kernel_us = &reg->histogram("scan.worker_kernel_us");
  }
};

// Everything one worker owns: kernel scratch and its private top-k, plus
// a read-only view of the scan's shared ProfileBundle. Built once per
// thread, reused for every record the thread claims — and the profiles
// themselves are built (or cache-fetched) once per *scan*, not per
// thread: the bundle's shared_ptr keeps a cache-evicted entry alive for
// the duration of the scan.
struct Worker {
  explicit Worker(std::shared_ptr<const ProfileBundle> b)
      : bundle(std::move(b)),
        profile(&bundle->profile),
        striped(bundle->striped.has_value() ? &*bundle->striped : nullptr) {}

  std::shared_ptr<const ProfileBundle> bundle;
  const align::QueryProfile* profile;    // scalar kernel + overflow ladder tail
  const align::StripedProfile* striped;  // Sse41/Avx2 tiers only
  std::vector<align::Score> row;  // scalar kernel DP row
  align::StripedWorkspace sws;
  std::vector<seq::Code> decode;  // Packed2-store record scratch
  // Reusable Sequence the DUST path materializes records into instead of
  // allocating one per filtered hit (scan.db.decode_reuse).
  seq::Sequence seq_buf;
  // Interseq lane state: each lane holds its record's codes until the lane
  // retires, so Packed2 decoding needs one scratch buffer per lane — a
  // ring reused for every record that passes through the lane.
  std::vector<std::vector<seq::Code>> lane_decode;
  align::InterSeqWorkspace iws;
  align::InterSeqStats istats;
  std::vector<Hit> hits;  // sorted by hit_ranks_before, size <= top_k
  std::uint64_t cell_updates = 0;
  std::uint64_t swar8_fallbacks = 0;
  // Records resolved by each kernel tier (scan.simd.records.* metrics).
  std::uint64_t rec_scalar = 0;
  std::uint64_t rec_striped8 = 0;
  std::uint64_t rec_striped16 = 0;
  std::uint64_t rec_interseq = 0;   // records whose score came out of a lane
  std::uint64_t decode_reused = 0;  // sequence_into calls that avoided a realloc
  // NUMA accounting (zeros unless a placement plan is active): encoded
  // payload bytes this worker scanned from shards its own node owns vs
  // shards it stole, and pages its first-touch pre-fault pass placed.
  std::uint64_t numa_local_bytes = 0;
  std::uint64_t numa_remote_bytes = 0;
  std::uint64_t numa_prefault_pages = 0;
};

// The per-scan memory-placement plan (core/topology.hpp). Inactive —
// opt.numa Off, or Auto on a single-node box — leaves every field empty
// and the engine byte-for-byte on its placement-blind path. Active: each
// worker is placed on a node (proportional to node cpu counts), the scan
// domain is split into one contiguous run per node (proportional to that
// node's worker count), and the payload byte-section is split the same
// way for the first-touch pre-fault pass.
struct NumaPlan {
  bool active = false;
  core::Topology topo;
  std::vector<core::WorkerPlacement> placement;  // size == threads
  std::vector<std::size_t> workers_per_node;     // size == nodes
  std::vector<std::size_t> node_lo;              // size nodes+1: domain run bounds
  std::vector<std::uint64_t> byte_lo;            // size nodes+1: payload byte bounds

  [[nodiscard]] std::size_t nodes() const noexcept { return topo.nodes.size(); }
  [[nodiscard]] unsigned node_of(std::size_t worker) const noexcept {
    return active ? placement[worker].node : 0u;
  }
};

NumaPlan make_numa_plan(const core::NumaRequest& req, std::size_t threads, std::size_t domain,
                        std::size_t payload_bytes) {
  NumaPlan plan;
  const std::optional<core::Topology> topo = core::resolve_numa_topology(req);
  if (!topo.has_value()) return plan;
  plan.active = true;
  plan.topo = *topo;
  plan.placement = core::place_workers(plan.topo, threads);
  plan.workers_per_node.assign(plan.nodes(), 0);
  for (const core::WorkerPlacement& p : plan.placement) ++plan.workers_per_node[p.node];
  const std::vector<std::size_t> runs = core::proportional_shares(domain, plan.workers_per_node);
  plan.node_lo.assign(plan.nodes() + 1, 0);
  for (std::size_t n = 0; n < runs.size(); ++n) plan.node_lo[n + 1] = plan.node_lo[n] + runs[n];
  const std::vector<std::size_t> bytes =
      core::proportional_shares(payload_bytes, plan.workers_per_node);
  plan.byte_lo.assign(plan.nodes() + 1, 0);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    plan.byte_lo[n + 1] = plan.byte_lo[n] + bytes[n];
  }
  return plan;
}

// Shard claiming for the worker loops. Placement off: one atomic cursor
// over [0, domain) — exactly the placement-blind engine. Placement on:
// one cursor per node over that node's contiguous run; a worker drains
// its own node's run first, then steals from the other nodes in id order
// — stolen shards are the scan.numa.remote_bytes the bench watches. The
// final merge re-sorts the union of per-worker top-k lists under the
// hit_ranks_before total order, so hits are bit-identical no matter which
// cursor handed out which shard.
class ShardDeck {
 public:
  ShardDeck(std::size_t domain, std::size_t threads, const NumaPlan& plan) {
    shard_ = std::max<std::size_t>(1, domain / (threads * 8));
    if (plan.active) {
      node_lo_ = plan.node_lo;
    } else {
      node_lo_ = {0, domain};
    }
    const std::size_t nodes = node_lo_.size() - 1;
    cursors_ = std::make_unique<std::atomic<std::size_t>[]>(nodes);
    shards_.resize(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      cursors_[n].store(0, std::memory_order_relaxed);
      shards_[n] = (node_lo_[n + 1] - node_lo_[n] + shard_ - 1) / shard_;
    }
  }

  struct Claim {
    std::size_t lo = 0;
    std::size_t hi = 0;
    bool local = true;  // owning node == the claiming worker's node
  };

  std::optional<Claim> next(unsigned my_node) noexcept {
    const std::size_t nodes = shards_.size();
    for (std::size_t k = 0; k < nodes; ++k) {
      const std::size_t n = (my_node + k) % nodes;
      const std::size_t s = cursors_[n].fetch_add(1, std::memory_order_relaxed);
      if (s >= shards_[n]) continue;
      Claim c;
      c.lo = node_lo_[n] + s * shard_;
      c.hi = std::min(node_lo_[n + 1], c.lo + shard_);
      c.local = k == 0;
      return c;
    }
    return std::nullopt;
  }

 private:
  std::size_t shard_ = 1;
  std::vector<std::size_t> node_lo_;  // nodes+1 domain bounds
  std::vector<std::size_t> shards_;   // shard count per node run
  std::unique_ptr<std::atomic<std::size_t>[]> cursors_;
};

std::atomic<bool> warned_hugepage_unavailable{false};

// The overflow re-run tail every 8-bit pass shares — score_record's
// striped8 attempt and scan_interseq's saturated lanes: a record whose
// 8-bit pass saturated (some true cell > 255) counts once in
// swar8_fallbacks and re-runs in 16-bit striped lanes, with the scalar
// profile kernel as the final rung (true cell > 65535, or a scheme too big
// for a lane).
align::LocalScoreResult rerun_overflowed(std::span<const seq::Code> rec, Worker& w) {
  ++w.swar8_fallbacks;
  if (const auto r = align::sw_striped16_try(rec, *w.striped, w.sws)) {
    ++w.rec_striped16;
    return *r;
  }
  ++w.rec_scalar;
  return align::sw_linear_profiled(rec, *w.profile, w.row);
}

// The striped ladder for one record: the widest 8-bit striped pass first,
// lazily re-run one tier down on saturation. The scalar tier runs the
// profile kernel alone.
align::LocalScoreResult score_record(std::span<const seq::Code> rec, core::SimdIsa isa,
                                     Worker& w) {
  if (isa == core::SimdIsa::Scalar) {
    ++w.rec_scalar;
    return align::sw_linear_profiled(rec, *w.profile, w.row);
  }
  if (const auto r = align::sw_striped8_try(rec, *w.striped, w.sws)) {
    ++w.rec_striped8;
    return *r;
  }
  return rerun_overflowed(rec, w);
}

// DUST check materializing record `r` through the worker's reusable
// Sequence buffer. Safe even when the caller's record span aliases
// w.decode (same record, same bytes, and the span is dead afterwards).
bool dust_suppressed_at(const RecordSource& src, std::size_t r, const align::Cell& end,
                        const ScanOptions& opt, Worker& w) {
  if (src.sequence_into(r, w.seq_buf, w.decode)) ++w.decode_reused;
  return dust_suppressed(w.seq_buf, end, opt);
}

// Folds record `r`'s best cell into the worker's top-k unless it misses
// min_score or DUST suppresses it — shared by both kernel shapes so they
// stay bit-identical per record.
void offer_hit(const RecordSource& src, std::size_t r, const align::LocalScoreResult& best,
               const ScanOptions& opt, Worker& w) {
  if (best.score < opt.min_score) return;
  if (opt.dust_filter && dust_suppressed_at(src, r, best.end, opt, w)) return;
  Hit hit;
  hit.record = r;
  hit.result = best;
  retrieve::topk_insert(w.hits, std::move(hit), opt.top_k, hit_ranks_before);
}

// Scores one record on the striped ladder and offers it to the top-k.
void scan_one(const RecordSource& src, std::size_t r, std::size_t query_len,
              const ScanOptions& opt, core::SimdIsa isa, Worker& w) {
  const std::span<const seq::Code> rec = src.codes(r, w.decode);
  if (rec.empty()) return;
  w.cell_updates += static_cast<std::uint64_t>(rec.size()) * query_len;
  offer_hit(src, r, score_record(rec, isa, w), opt, w);
}

// One worker's inter-sequence scan: `next_record` streams record ids in
// the scan's length-descending order; the kernel packs one record per
// 8-bit lane and this function folds every retired lane through EXACTLY
// the overflow tail score_record runs after a striped8 saturation, so
// hits, swar8_fallbacks and the tier counters stay bit-identical to the
// striped shape.
void scan_interseq(const RecordSource& src, const align::InterSeqProfile& prof,
                   std::size_t query_len, const ScanOptions& opt, Worker& w,
                   const std::function<std::optional<std::uint32_t>()>& next_record) {
  if (w.lane_decode.size() < prof.lanes8()) w.lane_decode.resize(prof.lanes8());
  const auto fetch = [&](unsigned lane) -> std::optional<align::InterSeqRecord> {
    for (;;) {
      const std::optional<std::uint32_t> r = next_record();
      if (!r) return std::nullopt;
      // Empty records contribute nothing (scan_one skips them the same
      // way); filtering here keeps lanes from parking on zero rows.
      const std::span<const seq::Code> codes = src.codes(*r, w.lane_decode[lane]);
      if (codes.empty()) continue;
      return align::InterSeqRecord{*r, codes};
    }
  };
  const auto done = [&](std::uint64_t tag, std::span<const seq::Code> rec,
                        const std::optional<align::LocalScoreResult>& in_lane) {
    w.cell_updates += static_cast<std::uint64_t>(rec.size()) * query_len;
    if (in_lane.has_value()) ++w.rec_interseq;
    // A saturated lane has the striped8 predicate ("some true cell >
    // 255"), so it takes the same re-run tail.
    const align::LocalScoreResult best = in_lane.has_value() ? *in_lane : rerun_overflowed(rec, w);
    offer_hit(src, static_cast<std::size_t>(tag), best, opt, w);
  };
  const align::InterSeqStats st = align::sw_interseq_scan(prof, w.iws, fetch, done);
  w.istats.batches += st.batches;
  w.istats.refills += st.refills;
  w.istats.fallbacks += st.fallbacks;
  for (std::size_t i = 0; i < w.istats.occupancy.size(); ++i) {
    w.istats.occupancy[i] += st.occupancy[i];
  }
}

// Folds the per-worker partials into one result. Deterministic merge:
// hit_ranks_before is a total order (score desc, record asc, canonical
// cell), so sorting the union of the per-worker top-k lists yields the
// same ranking no matter how records were sharded across threads —
// bit-identical to the sequential scan.
void merge_workers(std::vector<Worker>& workers, std::size_t top_k, ScanResult& out) {
  for (Worker& w : workers) {
    out.cell_updates += w.cell_updates;
    out.swar8_fallbacks += w.swar8_fallbacks;
    retrieve::topk_union(out.hits, std::move(w.hits));
  }
  retrieve::topk_finalize(out.hits, top_k, hit_ranks_before);
}

// Per-scan metric flush: the totals plus which kernel tier resolved each
// record. Counter adds of zero are skipped so a scalar-tier scan never
// touches the striped counters' cache lines.
void flush_scan_metrics(const ScanMetrics& metrics, const std::vector<Worker>& workers,
                        const ScanResult& out) {
  if (metrics.scans == nullptr) return;
  metrics.scans->add(1);
  metrics.records->add(out.records_scanned);
  metrics.cells->add(out.cell_updates);
  metrics.simd_selected->add(1);
  std::uint64_t scalar = 0;
  std::uint64_t striped8 = 0;
  std::uint64_t striped16 = 0;
  for (const Worker& w : workers) {
    scalar += w.rec_scalar;
    striped8 += w.rec_striped8;
    striped16 += w.rec_striped16;
  }
  if (out.swar8_fallbacks != 0) metrics.simd_fallbacks->add(out.swar8_fallbacks);
  if (scalar != 0) metrics.simd_rec_scalar->add(scalar);
  if (striped8 != 0) metrics.simd_rec_striped8->add(striped8);
  if (striped16 != 0) metrics.simd_rec_striped16->add(striped16);
  std::uint64_t reused = 0;
  for (const Worker& w : workers) reused += w.decode_reused;
  if (reused != 0) metrics.decode_reuse->add(reused);
  if (metrics.interseq_batches != nullptr) {
    align::InterSeqStats total;
    std::uint64_t interseq = 0;
    for (const Worker& w : workers) {
      interseq += w.rec_interseq;
      total.batches += w.istats.batches;
      total.refills += w.istats.refills;
      total.fallbacks += w.istats.fallbacks;
      for (std::size_t i = 0; i < total.occupancy.size(); ++i) {
        total.occupancy[i] += w.istats.occupancy[i];
      }
    }
    if (total.batches != 0) metrics.interseq_batches->add(total.batches);
    if (total.refills != 0) metrics.interseq_refills->add(total.refills);
    if (total.fallbacks != 0) metrics.interseq_fallbacks->add(total.fallbacks);
    if (interseq != 0) metrics.interseq_records->add(interseq);
    // One histogram sample per kernel advance, valued at its live-lane
    // count — the occupancy distribution the schedule is meant to keep
    // pinned at full width.
    for (std::size_t occ = 0; occ < total.occupancy.size(); ++occ) {
      for (std::uint64_t k = 0; k < total.occupancy[occ]; ++k) {
        metrics.interseq_occupancy->observe(occ);
      }
    }
  }
  if (metrics.numa_local_bytes != nullptr) {
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    std::uint64_t prefault = 0;
    for (const Worker& w : workers) {
      local += w.numa_local_bytes;
      remote += w.numa_remote_bytes;
      prefault += w.numa_prefault_pages;
    }
    // local + remote reconciles with the encoded payload bytes the scan
    // streamed (the parity suite enforces it).
    if (local != 0) metrics.numa_local_bytes->add(local);
    if (remote != 0) metrics.numa_remote_bytes->add(remote);
    if (prefault != 0) metrics.numa_prefault_pages->add(prefault);
  }
  if (metrics.filter_candidates != nullptr) {
    if (out.filter_candidates != 0) metrics.filter_candidates->add(out.filter_candidates);
    if (out.filter_rejected != 0) metrics.filter_rejected->add(out.filter_rejected);
    if (out.filter_rescored != 0) metrics.filter_rescored->add(out.filter_rescored);
    if (out.filter_recall_guard != 0) {
      metrics.filter_recall_guard->add(out.filter_recall_guard);
    }
    // One sample per scan: percent of the filter domain that survived to
    // exact rescoring (0 = everything rejected, 100 = filter was a no-op).
    const std::uint64_t domain = out.filter_rescored + out.filter_rejected;
    if (domain != 0) {
      metrics.filter_candidate_ratio->observe(out.filter_rescored * 100 / domain);
    }
  }
}

// Seeded prefilter entry: validates the source can support it (a store
// with a k-mer index — the v1-file case throws db::StoreError naming the
// rebuild), runs the funnel over `subset` (empty = whole store) and
// records the funnel accounting into `out`.
const db::Store& require_seeded_source(const RecordSource& src, const char* what) {
  const db::Store* store = src.store();
  if (store == nullptr) {
    throw std::invalid_argument(std::string(what) +
                                ": --filter seeded needs a .swdb database (in-memory record "
                                "vectors carry no k-mer index; build one with `swdb build`)");
  }
  (void)store->kmer_index();  // v1 file -> StoreError naming the rebuild
  return *store;
}

std::vector<std::uint32_t> run_prefilter(const seq::Sequence& query, const db::Store& store,
                                         const align::Scoring& sc, const ScanOptions& opt,
                                         std::span<const std::uint32_t> subset, ScanResult& out) {
  FilterOptions fo;
  fo.threshold = opt.filter_threshold > 0 ? opt.filter_threshold : opt.min_score;
  FilterStats fst;
  std::vector<std::uint32_t> ids = filter_candidates(store, query, sc, fo, subset, &fst);
  out.filter_candidates = fst.candidates;
  out.filter_rescored = fst.rescored;
  out.filter_rejected = fst.rejected;
  out.filter_recall_guard = fst.recall_guard;
  return ids;
}

// Sorts record ids length-descending, ties by id — the order a store's
// schedule_order precomputes, so co-resident interseq lanes retire
// near-together.
void sort_length_desc(const RecordSource& src, std::vector<std::uint32_t>& ids) {
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::size_t la = src.length(a);
    const std::size_t lb = src.length(b);
    if (la != lb) return la > lb;
    return a < b;
  });
}

// The one CPU scan, over an id domain: `chunk` nullopt scans every record
// of `src` (scan_database_cpu); an id list scans just those records
// (scan_records_cpu, the scan service's dispatch unit). A chunk runs on
// one worker with no placement plan and no streaming hints: the service
// executor that calls it already owns placement (the dispatcher hands
// node-local chunks to pinned executors), and a per-chunk topology probe
// or madvise would cost syscalls on every chunk. `what` names the entry
// point in error messages.
ScanResult scan_cpu(const seq::Sequence& query, const RecordSource& src,
                    std::optional<std::span<const std::uint32_t>> chunk,
                    const align::Scoring& sc, const ScanOptions& opt, const char* what) {
  opt.validate();
  sc.validate();
  src.check_alphabet(query, what);
  const bool seeded = opt.filter == FilterMode::Seeded;
  if (seeded) require_seeded_source(src, what);
  const bool whole = !chunk.has_value();
  const std::span<const std::uint32_t> chunk_ids = chunk.value_or(std::span<const std::uint32_t>{});
  for (const std::uint32_t r : chunk_ids) {
    if (r >= src.size()) {
      throw std::invalid_argument(std::string(what) + ": record id " + std::to_string(r) +
                                  " out of range");
    }
  }

  ScanResult out;
  out.records_scanned = whole ? src.size() : chunk_ids.size();
  if (query.empty() || out.records_scanned == 0) return out;

  // The ids to score: domain index i is record ids[i], or record i itself
  // while `ids` is empty (an exact whole-source scan, every record in
  // scope). The seeded filter resolves its candidate set once, up front,
  // over the whole store or just the chunk, so the exact kernels below
  // never see a rejected record.
  const bool every_record = whole && !seeded;
  std::vector<std::uint32_t> candidates;
  if (seeded) candidates = run_prefilter(query, *src.store(), sc, opt, chunk_ids, out);
  std::span<const std::uint32_t> ids = seeded ? std::span<const std::uint32_t>(candidates)
                                              : chunk_ids;
  const std::size_t domain = every_record ? src.size() : ids.size();

  const core::SimdIsa isa = core::resolve_simd_isa(opt.simd);
  const std::shared_ptr<const ProfileBundle> bundle =
      acquire_bundle(query, sc, isa, opt.profile_cache);
  const ShapePlan plan =
      resolve_kernel_shape(requested_shape_after_env(opt.kernel), *bundle, src.is_store());
  if (domain == 0) {
    // Everything rejected: still a completed scan — flush so the
    // scan.filter.* counters reconcile with ScanResult.
    flush_scan_metrics(ScanMetrics(opt.metrics, isa, plan.shape, seeded, false), {}, out);
    return out;
  }

  // Interseq lanes pull records length-descending so co-resident lanes
  // retire near-together: the store's precomputed schedule_order for an
  // exact whole-store scan, else a sorted copy of the domain (hits are
  // order-independent, so this is invisible in the output). Striped scans
  // walk the domain as given.
  std::vector<std::uint32_t> sorted;
  if (plan.shape == KernelShape::InterSeq) {
    if (every_record && src.is_store()) {
      ids = src.schedule_order();
    } else {
      if (every_record) {
        sorted.resize(domain);
        std::iota(sorted.begin(), sorted.end(), 0u);
      } else {
        sorted.assign(ids.begin(), ids.end());
      }
      sort_length_desc(src, sorted);
      ids = sorted;
    }
  }
  const auto record_for = [&](std::size_t i) -> std::uint32_t {
    return ids.empty() ? static_cast<std::uint32_t>(i) : ids[i];
  };

  const std::size_t threads = whole ? std::min(opt.threads, domain) : 1;
  const db::Store* store = src.store();
  const std::size_t payload_bytes = store != nullptr ? store->payload_bytes() : 0;
  const NumaPlan numa =
      whole ? make_numa_plan(opt.numa, threads, domain, payload_bytes) : NumaPlan{};
  const ScanMetrics metrics(opt.metrics, isa, plan.shape, seeded, numa.active);

  // Streaming hints, issued once per whole-store scan: WILLNEED always
  // (readahead runs ahead of the kernels), HUGEPAGE when a placement plan
  // is active (fewer TLB misses while streaming) — degrading with a
  // one-time note where THP is unavailable, never an error.
  if (whole && store != nullptr) {
    store->advise_payload_willneed(opt.metrics);
    if (numa.active && !store->advise_payload_hugepage(opt.metrics) &&
        !warned_hugepage_unavailable.exchange(true)) {
      std::fprintf(stderr,
                   "SWR: numa: transparent hugepages unavailable for the payload mapping; "
                   "continuing without\n");
    }
  }
  if (metrics.numa_nodes != nullptr) {
    metrics.numa_nodes->set(static_cast<std::int64_t>(numa.nodes()));
    if (store != nullptr) {
      metrics.numa_resident_pages->set(
          static_cast<std::int64_t>(store->payload_residency().pages_resident));
    }
  }

  // Contiguous shards claimed through atomic cursors (per node when a
  // placement plan is active, one global otherwise): cheap enough to keep
  // shards small (good balance against wildly varying record lengths),
  // coarse enough that the cursors are not contended.
  ShardDeck deck(domain, threads, numa);
  std::unique_ptr<std::atomic<bool>[]> prefaulted;
  if (numa.active && store != nullptr) {
    prefaulted = std::make_unique<std::atomic<bool>[]>(numa.nodes());
    for (std::size_t n = 0; n < numa.nodes(); ++n) {
      prefaulted[n].store(false, std::memory_order_relaxed);
    }
  }

  std::vector<Worker> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(bundle);

  // Shard-claim accounting: with an active plan, the claimed records'
  // encoded bytes are summed onto the worker's local/remote tally, so the
  // tallies reconcile with the payload bytes actually streamed.
  const auto account_claim = [&](const ShardDeck::Claim& c, Worker& w) {
    if (!numa.active) return;
    std::uint64_t bytes = 0;
    for (std::size_t i = c.lo; i < c.hi; ++i) bytes += src.payload_bytes(record_for(i));
    (c.local ? w.numa_local_bytes : w.numa_remote_bytes) += bytes;
  };
  const auto scan_shards = [&](Worker& w, unsigned my_node) {
    const auto start = std::chrono::steady_clock::now();
    // First worker to arrive per node pre-faults that node's payload byte
    // slice: one read per page from a thread pinned to the node, so
    // first-touch places the pages on the node whose workers will stream
    // them.
    if (prefaulted != nullptr && !prefaulted[my_node].exchange(true, std::memory_order_relaxed)) {
      w.numa_prefault_pages += store->prefault_payload(
          numa.byte_lo[my_node],
          static_cast<std::size_t>(numa.byte_lo[my_node + 1] - numa.byte_lo[my_node]));
    }
    // Streams the worker's record ids, claiming the next shard from the
    // deck whenever the current one runs dry.
    std::size_t idx = 0;
    std::size_t idx_end = 0;
    const auto next_record = [&]() -> std::optional<std::uint32_t> {
      while (idx == idx_end) {
        const std::optional<ShardDeck::Claim> c = deck.next(my_node);
        if (!c.has_value()) return std::nullopt;
        account_claim(*c, w);
        idx = c->lo;
        idx_end = c->hi;
      }
      return record_for(idx++);
    };
    if (plan.shape == KernelShape::InterSeq) {
      scan_interseq(src, *plan.iprofile, query.size(), opt, w, next_record);
    } else {
      while (const std::optional<std::uint32_t> r = next_record()) {
        scan_one(src, *r, query.size(), opt, isa, w);
      }
    }
    if (metrics.worker_kernel_us != nullptr) {
      metrics.worker_kernel_us->observe_seconds(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    }
  };

  if (threads == 1) {
    // Inline on the calling thread — never pinned: affinity is a property
    // of pool workers, not of whoever called the scan.
    scan_shards(workers[0], numa.node_of(0));
  } else {
    // A task throwing inside the pool would terminate the process; catch
    // per task, surface the first failure after the barrier.
    std::mutex err_mu;
    std::exception_ptr first_error;
    par::ThreadPoolOptions popts;
    popts.name_prefix = "swr-scan";
    if (numa.active) {
      popts.on_worker_start = [&numa](std::size_t t) {
        core::pin_current_thread(numa.placement[t].cpus);
      };
    }
    par::ThreadPool pool(threads, std::move(popts));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      Worker* w = &workers[t];
      const unsigned node = numa.node_of(t);
      tasks.emplace_back([&, w, node] {
        try {
          scan_shards(*w, node);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    pool.submit_bulk(std::move(tasks));
    pool.wait_idle();
    if (first_error) std::rethrow_exception(first_error);
  }

  merge_workers(workers, opt.top_k, out);
  flush_scan_metrics(metrics, workers, out);
  retrieve_alignments(query, src, sc, opt, out);
  return out;
}

}  // namespace

ScanResult scan_database_cpu(const seq::Sequence& query, const std::vector<seq::Sequence>& records,
                             const align::Scoring& sc, const ScanOptions& opt) {
  return scan_cpu(query, RecordSource(records), std::nullopt, sc, opt, "scan_database_cpu");
}

ScanResult scan_database_cpu(const seq::Sequence& query, const db::Store& store,
                             const align::Scoring& sc, const ScanOptions& opt) {
  return scan_cpu(query, RecordSource(store), std::nullopt, sc, opt, "scan_database_cpu");
}

ScanResult scan_records_cpu(const seq::Sequence& query, const RecordSource& src,
                            std::span<const std::uint32_t> record_ids, const align::Scoring& sc,
                            const ScanOptions& opt) {
  return scan_cpu(query, src, record_ids, sc, opt, "scan_records_cpu");
}

}  // namespace swr::host
