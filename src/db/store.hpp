// Zero-copy memory-mapped reader for .swdb sequence database stores.
//
// Store::open maps the file read-only, validates the header checksum and
// every structural bound (section sizes, record offsets, name ranges), and
// then serves records straight out of the mapping: opening a multi-MBP
// database costs microseconds instead of the FASTA parse's full pass over
// the text. Raw8 payloads are served as spans into the map (true
// zero-copy); Packed2 payloads decode into a caller-provided scratch
// buffer (no allocation when the buffer is reused, as the scan engines'
// per-worker scratch is).
//
// A Store is immutable and all accessors are const; concurrent reads from
// many scan workers need no synchronization.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/format.hpp"
#include "seq/sequence.hpp"

namespace swr::obs {
class Registry;
}

namespace swr::db {

/// Read-only view of a store's k-mer index section (format v3). Spans
/// point straight into the mapping (the residue-start table into the
/// Store); valid for the Store's lifetime.
class KmerIndexView {
 public:
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t bucket_count() const noexcept { return offsets_.size() - 1; }
  [[nodiscard]] std::uint64_t postings_count() const noexcept { return postings_.size(); }
  /// Section bytes: header, offsets and postings (format.hpp kmer_index_bytes).
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return kmer_index_bytes(bucket_count(), postings_count());
  }

  /// Postings of dense-coded k-mer `bucket`: global residue positions,
  /// ascending (so ascending by (record, pos) once located). Offsets are
  /// clamped to the postings array, so even an index whose arrays were
  /// corrupted after open (verify_payload would catch it) cannot produce
  /// an out-of-bounds span.
  [[nodiscard]] std::span<const std::uint32_t> postings_for(std::uint64_t bucket) const noexcept {
    if (bucket >= bucket_count()) return {};
    const std::uint64_t hi = std::min<std::uint64_t>(offsets_[bucket + 1], postings_.size());
    const std::uint64_t lo = std::min<std::uint64_t>(offsets_[bucket], hi);
    return postings_.subspan(lo, hi - lo);
  }

  /// Decodes a posting into (record, pos) through the residue-start table.
  /// @throws StoreError when the posting lies at or beyond the store's
  /// last residue (a corrupt index).
  [[nodiscard]] KmerPosting locate(std::uint32_t posting) const {
    if (starts_.empty() || posting >= starts_.back()) throw_past_end(posting);
    // Branch-free search for the last record starting at or before the
    // posting (an empty record shares its successor's start and loses to
    // it): a data-dependent branch here mispredicts about every other step.
    const std::uint32_t* first = starts_.data();
    for (std::size_t n = starts_.size(); n > 1;) {
      const std::size_t half = n / 2;
      first = first[half] <= posting ? first + half : first;
      n -= half;
    }
    return {static_cast<std::uint32_t>(first - starts_.data()), posting - *first};
  }

  /// Fraction of buckets with at least one posting — the `swdb info`
  /// occupancy figure. O(bucket_count).
  [[nodiscard]] double load_factor() const noexcept;

 private:
  friend class Store;
  [[noreturn]] void throw_past_end(std::uint32_t posting) const;

  std::size_t k_ = 0;
  std::span<const std::uint32_t> offsets_;  // bucket_count + 1
  std::span<const std::uint32_t> postings_;
  std::span<const std::uint32_t> starts_;   // record_count + 1 residue starts
};

/// Byte extent of one record's encoded payload within the payload
/// section (offset is payload-relative, not file-relative).
struct PayloadRange {
  std::uint64_t offset = 0;
  std::size_t bytes = 0;
};

/// mincore snapshot of the payload section — how much of the database a
/// scan would stream from RAM versus fault in from disk. Zeros on the
/// non-mmap fallback path (the owned buffer is trivially resident).
struct PayloadResidency {
  std::size_t pages_total = 0;
  std::size_t pages_resident = 0;
  [[nodiscard]] double fraction() const noexcept {
    return pages_total == 0 ? 0.0 : static_cast<double>(pages_resident) / pages_total;
  }
};

/// A read-only, memory-mapped .swdb database.
class Store {
 public:
  /// Maps and validates `path`. Header hash, section bounds and every
  /// record's offset/name range are checked up front; the residue payload
  /// is NOT hashed here (see verify_payload). With a non-null `metrics`
  /// registry, records db.opens / db.bytes_mapped counters and a
  /// db.open_us histogram (null = strict no-op). `populate` maps with
  /// MAP_POPULATE, pre-faulting the whole file into the page cache before
  /// open returns (trades open latency for no scan-time majors; ignored
  /// where unsupported). @throws StoreError.
  static Store open(const std::string& path, obs::Registry* metrics = nullptr,
                    bool populate = false);

  Store(Store&& other) noexcept;
  Store& operator=(Store&& other) noexcept;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  ~Store();

  /// Number of records.
  [[nodiscard]] std::size_t size() const noexcept { return meta_.size(); }
  [[nodiscard]] bool empty() const noexcept { return meta_.empty(); }

  [[nodiscard]] const seq::Alphabet& alphabet() const noexcept { return *alphabet_; }
  [[nodiscard]] Encoding encoding() const noexcept { return static_cast<Encoding>(header_.encoding); }
  [[nodiscard]] std::uint64_t total_residues() const noexcept { return header_.total_residues; }
  [[nodiscard]] const FileHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Content-addressed generation stamp: fnv1a chained over the header's
  /// payload_hash then header_hash, then the index header's header_hash
  /// (which carries index_hash) when there is an index. Any rebuild that
  /// changes the store's content (records, encoding, index section, format
  /// version) changes it, while byte-identical rebuilds keep it — exactly
  /// the invalidation granularity result caches want: results from equal
  /// generations are interchangeable, results across generations never are.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    std::uint64_t g = fnv1a(&header_.payload_hash, sizeof header_.payload_hash);
    g = fnv1a(&header_.header_hash, sizeof header_.header_hash, g);
    if (!has_kmer_index()) return g;
    return fnv1a(&index_header_.header_hash, sizeof index_header_.header_hash, g);
  }

  /// Length (residues) of record `r`. @throws std::out_of_range.
  [[nodiscard]] std::size_t length(std::size_t r) const { return meta_at(r).length; }

  /// Length bucket of record `r` (format.hpp length_bucket).
  [[nodiscard]] std::uint32_t bucket(std::size_t r) const { return meta_at(r).bucket; }

  /// Name of record `r`, viewing the mapped name blob.
  [[nodiscard]] std::string_view name(std::size_t r) const;

  /// Dense codes of record `r`. Raw8: a span into the mapping, scratch
  /// untouched, after checking every byte is a code of the store's
  /// alphabet (the kernels index tables by code). Packed2: decoded into
  /// `scratch` (resized as needed) and a span over it returned; its codes
  /// are below 4 by construction. The span is valid until the Store is
  /// destroyed (Raw8) or `scratch` is next modified (Packed2).
  /// @throws StoreError naming the record on a Raw8 byte outside the
  /// alphabet; std::out_of_range on a bad index.
  [[nodiscard]] std::span<const seq::Code> codes(std::size_t r,
                                                 std::vector<seq::Code>& scratch) const;

  /// Materializes record `r` as an owning Sequence (name included).
  [[nodiscard]] seq::Sequence sequence(std::size_t r) const;

  /// The length-descending dispatch permutation (see format.hpp).
  [[nodiscard]] std::span<const std::uint32_t> schedule_order() const noexcept { return order_; }

  /// Whether this store carries the format-v3 k-mer index section.
  [[nodiscard]] bool has_kmer_index() const noexcept { return kindex_.k_ != 0; }

  /// The k-mer index view. @throws StoreError on a pre-index (v1) file,
  /// naming the rebuild that adds the section.
  [[nodiscard]] const KmerIndexView& kmer_index() const {
    if (!has_kmer_index()) {
      throw StoreError("swdb '" + path_ +
                       "': no k-mer index section (format v1) — rebuild with `swdb build` to "
                       "enable seeded scans");
    }
    return kindex_;
  }

  /// Total encoded payload-section bytes (the header's payload_bytes).
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return static_cast<std::size_t>(header_.payload_bytes);
  }

  /// Byte extent of record `r`'s encoded payload — what the NUMA layer
  /// accounts as "shard bytes" (local vs remote) and what prefaulting
  /// places. @throws std::out_of_range.
  [[nodiscard]] PayloadRange payload_range(std::size_t r) const;

  /// Advises the kernel the whole mapping is about to be read
  /// sequentially (madvise MADV_SEQUENTIAL) — issued by verify_payload
  /// before its single front-to-back hashing pass. Counts
  /// db.madvise.sequential per hint issued. False when the hint could not
  /// be applied (non-mmap fallback, or an madvise failure) — never an
  /// error.
  bool advise_sequential(obs::Registry* metrics = nullptr) const noexcept;

  /// Advises the kernel the payload section will be needed soon (madvise
  /// MADV_WILLNEED) — the scan engines issue it once per store-backed
  /// scan so readahead runs ahead of the kernels. Counts
  /// db.madvise.willneed per hint issued.
  bool advise_payload_willneed(obs::Registry* metrics = nullptr) const noexcept;

  /// Requests transparent hugepages for the payload section (madvise
  /// MADV_HUGEPAGE): fewer TLB misses while the kernels stream residues.
  /// Counts db.madvise.hugepage per hint issued. False where THP is
  /// unavailable (kernel without CONFIG_TRANSPARENT_HUGEPAGE, non-mmap
  /// fallback) — callers degrade, never error.
  bool advise_payload_hugepage(obs::Registry* metrics = nullptr) const noexcept;

  /// Explicit first-touch pass over payload bytes [offset, offset+bytes):
  /// reads one byte per page so the pages fault in on the CALLING thread
  /// — pinned to a node, this is what places a shard's pages on its
  /// owning node. Returns pages touched. Out-of-range tails are clamped.
  std::size_t prefault_payload(std::uint64_t offset, std::size_t bytes) const noexcept;

  /// mincore accounting of the payload section (see PayloadResidency).
  [[nodiscard]] PayloadResidency payload_residency() const noexcept;

  /// Re-hashes everything after the header against the header's
  /// payload_hash and, in an indexed store, the index body against the
  /// index header's index_hash — the full-integrity check tier-1 tests and
  /// operators run; scans skip it. Advises MADV_SEQUENTIAL for its one
  /// front-to-back pass. With a non-null `metrics` registry, records
  /// db.verifies / db.bytes_verified and a db.verify_us histogram.
  /// @throws StoreError on mismatch, naming the section.
  void verify_payload(obs::Registry* metrics = nullptr) const;

 private:
  Store() = default;
  void unmap() noexcept;
  [[nodiscard]] const RecordMeta& meta_at(std::size_t r) const {
    if (r >= meta_.size()) throw std::out_of_range("Store: record index out of range");
    return meta_[r];
  }

  std::string path_;
  FileHeader header_{};
  const seq::Alphabet* alphabet_ = nullptr;
  const std::uint8_t* data_ = nullptr;  ///< whole file (mmap or owned buffer)
  std::size_t bytes_ = 0;
  bool mapped_ = false;                  ///< data_ came from mmap (else fallback_)
  std::vector<std::uint8_t> fallback_;   ///< non-POSIX read-whole-file path
  std::span<const RecordMeta> meta_;     ///< views into data_
  std::span<const std::uint32_t> order_;
  const char* names_ = nullptr;
  const std::uint8_t* payload_ = nullptr;
  KmerIndexView kindex_;                 ///< k_ == 0 when absent (v1 file)
  KmerIndexHeader index_header_{};       ///< valid when kindex_ is present
  std::vector<std::uint32_t> starts_;    ///< residue starts (indexed stores)
};

/// Length-distribution and lane-batching summary of a store's dispatch
/// schedule — what `swdb info` prints so an operator can predict how well
/// the inter-sequence scan kernel will batch this database.
struct ScheduleStats {
  std::size_t min_length = 0;
  std::size_t median_length = 0;  ///< middle record of the length-sorted order
  std::size_t max_length = 0;
  /// Predicted inter-sequence lane occupancy (useful lane-steps / total
  /// lane-steps, 0..1) when the scan engine's dynamic lane refill walks
  /// schedule_order at 16, 32 and 64 lanes. Modelled as greedy
  /// first-lane-to-retire assignment — exactly what the refill loop does.
  double occupancy16 = 0.0;
  double occupancy32 = 0.0;
  double occupancy64 = 0.0;
};

/// Computes ScheduleStats from the store's metadata (lengths + schedule
/// order only — no payload access, O(records) time).
[[nodiscard]] ScheduleStats schedule_stats(const Store& store);

}  // namespace swr::db
