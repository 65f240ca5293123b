// On-disk layout of the .swdb sequence database store.
//
// The paper's host-side premise (§5, fig. 7) is that the database is
// resident and only queries flow in: the expensive part — parsing FASTA
// text, validating residues, encoding to dense codes — should happen once,
// at build time, not on every scan. A .swdb file is that preprocessed
// database: a checksummed fixed-size header, a per-record metadata table,
// a length-bucketed schedule order, a name blob, and a residue payload
// that is either raw dense codes (1 byte/residue, any alphabet) or 2-bit
// packed nucleotides (seq::pack2 — the paper's reduced-memory encoding).
// Every multi-byte field is little-endian; all sections are 8-byte
// aligned, so the reader can serve residue spans straight out of an mmap.
//
//   offset                          section
//   0                               FileHeader (64 bytes)
//   64                              RecordMeta[record_count]
//   meta_end                        u32 schedule_order[record_count]
//   order_end                       name blob (names_bytes)
//   align8(names_end)               residue payload (payload_bytes)
//   align8(payload_end)             k-mer index (format v3 only)
//
// schedule_order is a permutation of record ids sorted by length
// descending (ties by id): an LPT-style static dispatch order, so a
// scheduler handing out contiguous slices of it gives every worker a
// balanced mix instead of one worker drawing all the long records.
//
// Format v3 appends a k-mer seed index — the build-once artifact the
// seeded scan prefilter (`scan --filter seeded`) consults per query:
//
//   KmerIndexHeader (48 bytes, own magic + checksum)
//   u32 offsets[bucket_count + 1]   CSR bucket offsets into postings
//   u32 postings[postings_count]    global residue positions
//
// Buckets are dense base-|alphabet| codes of each k-mer (no hashing, no
// collisions); bucket b's postings are postings[offsets[b]..offsets[b+1]).
// A posting is the k-mer's start in the records laid end to end in id
// order (record r's residues occupy [start(r), start(r) + length(r))), so
// ascending postings are ascending (record, pos) and a bucket walk touches
// the mapping sequentially. The reader decodes a posting through a
// residue-start table it builds from the record lengths; 32-bit postings
// cap an indexed store below 2^32 residues (--no-index has no cap).
//
// v1 files simply lack the section: they open and scan exactly as before,
// and only `--filter seeded` demands a rebuild. v2 files (the earlier
// index layout: u64 offsets, (record, pos) postings) are refused at open
// with the rebuild command, so the reader knows one index layout.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace swr::db {

/// Error raised on a malformed, corrupted or truncated .swdb file.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::array<char, 8> kMagic = {'S', 'W', 'R', 'S', 'W', 'D', 'B', '1'};
/// v1: header + meta + order + names + payload. v3: v1 plus a trailing
/// k-mer index section. The reader accepts both and refuses v2.
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kFormatVersionIndexedV2 = 2;
inline constexpr std::uint32_t kFormatVersionIndexed = 3;

/// How the residue payload is encoded.
enum class Encoding : std::uint8_t {
  Raw8 = 0,     ///< one dense code per byte (any alphabet); zero-copy reads
  Packed2 = 1,  ///< 2 bits per residue via seq::pack2 (4-letter alphabets)
};

/// FNV-1a 64-bit — the store's integrity hash. Not cryptographic; it
/// catches the failure modes that matter here (truncation, bit rot,
/// writing over the wrong file).
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Fixed-size file header. `header_hash` is fnv1a over the 56 bytes that
/// precede it, so any corruption of the header itself is caught before a
/// single offset is trusted. `payload_hash` covers everything after the
/// header up to the k-mer index header (meta + order + names + payload and
/// their padding; in a v1 file, everything after the header); the index
/// body carries its own `index_hash`. Store::open does NOT verify either
/// (it walks the record table and schedule order, O(records), but never
/// the payload or the index — that is the point of mmap);
/// Store::verify_payload does.
struct FileHeader {
  std::array<char, 8> magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint8_t alphabet = 0;  ///< seq::AlphabetId
  std::uint8_t encoding = 0;  ///< Encoding
  std::uint16_t reserved = 0;
  std::uint64_t record_count = 0;
  std::uint64_t total_residues = 0;
  std::uint64_t names_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_hash = 0;
  std::uint64_t header_hash = 0;

  [[nodiscard]] std::uint64_t compute_header_hash() const {
    return fnv1a(this, offsetof(FileHeader, header_hash));
  }
};
static_assert(sizeof(FileHeader) == 64, "FileHeader must be exactly 64 bytes");

/// One record's metadata. `offset` is a byte offset into the payload
/// section; a Packed2 record occupies seq::packed2_bytes(length) bytes
/// starting there (every record starts on a byte boundary), a Raw8 record
/// occupies `length` bytes. `bucket` is the length bucket
/// (bit-width of the length) the scheduler groups records by.
struct RecordMeta {
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  std::uint32_t name_offset = 0;
  std::uint32_t name_length = 0;
  std::uint32_t bucket = 0;
};
static_assert(sizeof(RecordMeta) == 24, "RecordMeta must be exactly 24 bytes");

/// Length bucket id: bit-width of the record length (0 for empty records).
inline std::uint32_t length_bucket(std::size_t length) noexcept {
  std::uint32_t b = 0;
  while (length != 0) {
    ++b;
    length >>= 1;
  }
  return b;
}

inline std::size_t align8(std::size_t n) noexcept { return (n + 7) & ~std::size_t{7}; }

// ---- k-mer index section (format v3) --------------------------------------

inline constexpr std::array<char, 8> kIndexMagic = {'S', 'W', 'R', 'K', 'I', 'D', 'X', '1'};
/// Index layout 2: u32 offsets, u32 global-position postings (format v3).
inline constexpr std::uint32_t kIndexVersion = 2;

/// One decoded seed occurrence: the k-mer starting at residue `pos` of
/// record `record` (KmerIndexView::locate).
struct KmerPosting {
  std::uint32_t record = 0;
  std::uint32_t pos = 0;
};

/// Header of the k-mer index section. Checksummed like FileHeader:
/// `header_hash` is fnv1a over the bytes that precede it; `index_hash`
/// covers the offsets + postings arrays that follow the header, which the
/// file-level payload_hash does not.
struct KmerIndexHeader {
  std::array<char, 8> magic = kIndexMagic;
  std::uint32_t version = kIndexVersion;
  std::uint32_t k = 0;                 ///< seed length (residues)
  std::uint64_t bucket_count = 0;      ///< |alphabet|^k dense buckets
  std::uint64_t postings_count = 0;
  std::uint64_t index_hash = 0;        ///< fnv1a(offsets ++ postings)
  std::uint64_t header_hash = 0;

  [[nodiscard]] std::uint64_t compute_header_hash() const {
    return fnv1a(this, offsetof(KmerIndexHeader, header_hash));
  }
};
static_assert(sizeof(KmerIndexHeader) == 48, "KmerIndexHeader must be exactly 48 bytes");

/// Bytes of an index section: header, u32 offsets[bucket_count + 1] and
/// u32 postings[postings_count]. The builder's BuildStats::index_bytes and
/// the reader's KmerIndexView::bytes both come from here.
inline constexpr std::uint64_t kmer_index_bytes(std::uint64_t bucket_count,
                                                std::uint64_t postings_count) noexcept {
  return sizeof(KmerIndexHeader) + (bucket_count + 1 + postings_count) * sizeof(std::uint32_t);
}

/// Residues an indexed store may hold: every posting is a u32 position.
inline constexpr std::uint64_t kMaxIndexedResidues = std::uint64_t{1} << 32;

/// base^k with overflow detection; 0 on overflow (never a valid count —
/// k >= 1 and base >= 2 everywhere a bucket count is formed).
inline std::uint64_t kmer_bucket_count(std::size_t base, std::size_t k) noexcept {
  std::uint64_t n = 1;
  for (std::size_t i = 0; i < k; ++i) {
    if (n > ~std::uint64_t{0} / base) return 0;
    n *= base;
  }
  return n;
}

}  // namespace swr::db
