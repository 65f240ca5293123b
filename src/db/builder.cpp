#include "db/builder.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "seq/fasta.hpp"
#include "seq/packed.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SWR_DB_HAVE_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace swr::db {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw StoreError("swdb build '" + path + "': " + why);
}

Encoding pick_encoding(BuildOptions::Pick pick, const seq::Alphabet& ab,
                       const std::string& path) {
  switch (pick) {
    case BuildOptions::Pick::Raw8: return Encoding::Raw8;
    case BuildOptions::Pick::Packed2:
      if (ab.size() > 4) fail(path, "packed2 needs a <=4-letter alphabet");
      return Encoding::Packed2;
    case BuildOptions::Pick::Auto:
      return ab.size() <= 4 ? Encoding::Packed2 : Encoding::Raw8;
  }
  fail(path, "bad encoding option");
}

// The dense bucket table an explicit --seed-k may ask for; past this the
// offsets array alone would dwarf any database worth indexing.
constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 26;

// Upper bound on the bucket slices of the partitioned index build: the
// scatter's slice cursors stay in L1 and each slice's bucket counters in
// L1/L2 (2^26 buckets / 1,024 slices = 64 Ki counters at most).
constexpr std::size_t kMaxSlices = 1024;

// CSR k-mer index assembled in memory before the write pass.
struct KmerIndex {
  KmerIndexHeader header;
  std::vector<std::uint32_t> offsets;   // bucket_count + 1
  std::vector<std::uint32_t> postings;  // global residue positions
};

// Calls sink(code, position) for every k-mer of every record in id order,
// `position` counting residues across the records laid end to end. Rolling
// dense code: b' = (b - lead * base^(k-1)) * base + next.
template <class Sink>
void for_each_kmer(const std::vector<seq::Sequence>& records, std::size_t base, std::size_t k,
                   Sink&& sink) {
  const std::uint64_t top = kmer_bucket_count(base, k - 1);
  std::uint32_t start = 0;
  for (const seq::Sequence& rec : records) {
    const std::span<const seq::Code> c = rec.codes();
    if (c.size() >= k) {
      std::uint64_t code = 0;
      for (std::size_t p = 0; p + 1 < k; ++p) code = code * base + c[p];
      for (std::size_t p = k - 1; p < c.size(); ++p) {
        code = code * base + c[p];
        sink(code, start + static_cast<std::uint32_t>(p + 1 - k));
        code -= c[p + 1 - k] * top;
      }
    }
    start += static_cast<std::uint32_t>(c.size());
  }
}

// Partitioned counting sort. The buckets fall into at most kMaxSlices
// contiguous slices of 2^shift buckets: one sweep counts k-mers per slice,
// a second scatters (bucket, position) pairs into their slice in record
// order, and each slice is then placed with slice-local counters that stay
// in cache, where a flat counting sort walks the whole bucket table at
// random twice. Placement is stable and positions ascend in record order,
// so every bucket's postings come out ascending by (record, pos).
KmerIndex build_kmer_index(const std::vector<seq::Sequence>& records, std::size_t base,
                           std::size_t k) {
  KmerIndex idx;
  const std::uint64_t buckets = kmer_bucket_count(base, k);
  unsigned shift = 0;
  while (((buckets - 1) >> shift) >= kMaxSlices) ++shift;
  const std::size_t slices = static_cast<std::size_t>((buckets - 1) >> shift) + 1;
  const std::uint64_t mask = (std::uint64_t{1} << shift) - 1;

  std::vector<std::uint32_t> slice_begin(slices + 1, 0);
  for_each_kmer(records, base, k,
                [&](std::uint64_t code, std::uint32_t) { ++slice_begin[(code >> shift) + 1]; });
  std::partial_sum(slice_begin.begin(), slice_begin.end(), slice_begin.begin());
  const std::uint32_t total = slice_begin[slices];

  std::vector<std::uint64_t> pairs(total);  // bucket << 32 | position
  std::vector<std::uint32_t> slice_cursor(slice_begin.begin(), slice_begin.end() - 1);
  for_each_kmer(records, base, k, [&](std::uint64_t code, std::uint32_t pos) {
    pairs[slice_cursor[code >> shift]++] = code << 32 | pos;
  });

  idx.offsets.resize(buckets + 1);
  idx.postings.resize(total);
  std::vector<std::uint32_t> bucket_cursor(mask + 1);
  for (std::size_t s = 0; s < slices; ++s) {
    const std::span<const std::uint64_t> slice(pairs.data() + slice_begin[s],
                                               pairs.data() + slice_begin[s + 1]);
    std::fill(bucket_cursor.begin(), bucket_cursor.end(), 0);
    for (const std::uint64_t p : slice) ++bucket_cursor[(p >> 32) & mask];
    const std::uint64_t lo = std::uint64_t{s} << shift;
    const std::uint64_t width = std::min<std::uint64_t>(mask + 1, buckets - lo);
    std::uint32_t at = slice_begin[s];
    for (std::uint64_t b = 0; b < width; ++b) {
      idx.offsets[lo + b] = at;
      at += std::exchange(bucket_cursor[b], at);
    }
    for (const std::uint64_t p : slice) {
      idx.postings[bucket_cursor[(p >> 32) & mask]++] = static_cast<std::uint32_t>(p);
    }
  }
  idx.offsets[buckets] = total;

  idx.header.k = static_cast<std::uint32_t>(k);
  idx.header.bucket_count = buckets;
  idx.header.postings_count = total;
  idx.header.index_hash =
      fnv1a(idx.postings.data(), idx.postings.size() * sizeof(std::uint32_t),
            fnv1a(idx.offsets.data(), idx.offsets.size() * sizeof(std::uint32_t)));
  idx.header.header_hash = idx.header.compute_header_hash();
  return idx;
}

// Writes a store into a sibling temp file and renames it over `path` only
// once every byte is on disk. A reader that mapped the old file keeps its
// inode and reads on undisturbed (truncating in place would shrink the
// mapping under it), and a build that fails midway leaves the old store
// where it was: the destructor removes an uncommitted temp file.
class ReplacingFile {
 public:
  explicit ReplacingFile(std::string path) : path_(std::move(path)) {
    static std::atomic<unsigned> serial{0};
    tmp_ = path_ + ".tmp";
#if SWR_DB_HAVE_FSYNC
    tmp_ += std::to_string(::getpid()) + ".";
#endif
    tmp_ += std::to_string(serial++);
    file_ = std::fopen(tmp_.c_str(), "wb");
    if (file_ == nullptr) fail(path_, "cannot open '" + tmp_ + "' for writing");
  }
  ReplacingFile(const ReplacingFile&) = delete;
  ReplacingFile& operator=(const ReplacingFile&) = delete;
  ~ReplacingFile() {
    if (file_ != nullptr) std::fclose(file_);
    if (!committed_) std::remove(tmp_.c_str());
  }

  void write(const void* data, std::size_t bytes) {
    if (bytes != 0 && std::fwrite(data, 1, bytes, file_) != bytes) fail(path_, "write failure");
  }

  // fsync the file, rename it over the target, then fsync the directory
  // so the rename itself survives a crash (best effort: some file systems
  // refuse fsync on a directory).
  void commit() {
    bool ok = std::fflush(file_) == 0;
#if SWR_DB_HAVE_FSYNC
    ok = ok && ::fsync(::fileno(file_)) == 0;
#endif
    ok = std::fclose(std::exchange(file_, nullptr)) == 0 && ok;
    if (!ok) fail(path_, "write failure");
    std::error_code ec;
    std::filesystem::rename(tmp_, path_, ec);
    if (ec) fail(path_, "cannot replace: " + ec.message());
    committed_ = true;
#if SWR_DB_HAVE_FSYNC
    std::string dir = std::filesystem::path(path_).parent_path().string();
    if (dir.empty()) dir = ".";
    const int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd >= 0) {
      (void)::fsync(fd);
      ::close(fd);
    }
#endif
  }

 private:
  std::string path_;
  std::string tmp_;
  std::FILE* file_ = nullptr;
  bool committed_ = false;
};

}  // namespace

std::size_t auto_seed_k(std::size_t alphabet_size, std::uint64_t total_residues) {
  const std::uint64_t budget =
      std::clamp<std::uint64_t>(total_residues, 4096, std::uint64_t{1} << 24);
  std::size_t k = 2;
  while (k < 31) {
    const std::uint64_t next = kmer_bucket_count(alphabet_size, k + 1);
    if (next == 0 || next > budget) break;
    ++k;
  }
  return k;
}

BuildStats build_store(const std::vector<seq::Sequence>& records, const std::string& path,
                       const BuildOptions& opt) {
  const seq::Alphabet& ab = records.empty() ? seq::dna() : records.front().alphabet();
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (records[r].alphabet().id() != ab.id()) {
      fail(path, "record " + std::to_string(r) + " alphabet mismatch");
    }
    if (records[r].size() > std::numeric_limits<std::uint32_t>::max()) {
      fail(path, "record " + std::to_string(r) + " longer than 2^32-1 residues");
    }
  }
  const Encoding enc = pick_encoding(opt.encoding, ab, path);

  // Metadata, name blob and payload are assembled in memory first: the
  // payload hash has to land in the header, which is written before them.
  std::vector<RecordMeta> meta(records.size());
  std::string names;
  std::vector<std::uint8_t> payload;
  std::uint64_t residues = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const seq::Sequence& rec = records[r];
    RecordMeta& m = meta[r];
    m.length = static_cast<std::uint32_t>(rec.size());
    m.bucket = length_bucket(rec.size());
    m.name_offset = static_cast<std::uint32_t>(names.size());
    m.name_length = static_cast<std::uint32_t>(rec.name().size());
    names += rec.name();
    m.offset = payload.size();
    const std::span<const seq::Code> codes = rec.codes();
    if (enc == Encoding::Packed2) {
      payload.resize(payload.size() + seq::packed2_bytes(codes.size()));
      seq::pack2(codes, payload.data() + m.offset);
    } else {
      payload.insert(payload.end(), codes.begin(), codes.end());
    }
    residues += rec.size();
  }

  // Length-descending dispatch order (LPT): handing out slices of this
  // permutation balances wildly varying record lengths across workers.
  std::vector<std::uint32_t> order(records.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return meta[a].length > meta[b].length;
  });

  // k-mer index (format v3). Its postings are 32-bit residue positions.
  std::optional<KmerIndex> index;
  if (opt.kmer_index) {
    if (residues >= kMaxIndexedResidues) {
      fail(path, "a k-mer index addresses fewer than 2^32 residues and this database has " +
                     std::to_string(residues) + "; build it with --no-index");
    }
    std::size_t k = opt.seed_k;
    if (k == 0) {
      k = auto_seed_k(ab.size(), residues);
    } else if (k < 2 || k > 31) {
      fail(path, "seed k must be in [2,31]");
    } else if (kmer_bucket_count(ab.size(), k) == 0 ||
               kmer_bucket_count(ab.size(), k) > kMaxBuckets) {
      fail(path, "seed k=" + std::to_string(k) + " needs more than 2^26 buckets over a " +
                     std::to_string(ab.size()) + "-letter alphabet");
    }
    index = build_kmer_index(records, ab.size(), k);
  }

  FileHeader h;
  h.version = index ? kFormatVersionIndexed : kFormatVersion;
  h.alphabet = static_cast<std::uint8_t>(ab.id());
  h.encoding = static_cast<std::uint8_t>(enc);
  h.record_count = records.size();
  h.total_residues = residues;
  h.names_bytes = names.size();
  h.payload_bytes = payload.size();

  // The sections between the header and the index header, padding
  // included, in file order: payload_hash covers exactly these, and the
  // index body carries its own index_hash, so every byte is hashed once.
  struct Section {
    const void* data;
    std::size_t bytes;
  };
  const std::array<char, 8> zeros{};
  const std::size_t names_end = sizeof(FileHeader) + meta.size() * sizeof(RecordMeta) +
                                order.size() * sizeof(std::uint32_t) + names.size();
  std::vector<Section> body = {
      {meta.data(), meta.size() * sizeof(RecordMeta)},
      {order.data(), order.size() * sizeof(std::uint32_t)},
      {names.data(), names.size()},
      {zeros.data(), align8(names_end) - names_end},
      {payload.data(), payload.size()},
  };
  if (index) body.push_back({zeros.data(), align8(payload.size()) - payload.size()});
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const Section& sec : body) hash = fnv1a(sec.data, sec.bytes, hash);
  h.payload_hash = hash;
  h.header_hash = h.compute_header_hash();

  ReplacingFile out(path);
  out.write(&h, sizeof(h));
  for (const Section& sec : body) out.write(sec.data, sec.bytes);
  if (index) {
    out.write(&index->header, sizeof(KmerIndexHeader));
    out.write(index->offsets.data(), index->offsets.size() * sizeof(std::uint32_t));
    out.write(index->postings.data(), index->postings.size() * sizeof(std::uint32_t));
  }
  out.commit();

  BuildStats stats;
  stats.records = records.size();
  stats.residues = residues;
  stats.encoding = enc;
  stats.file_bytes = sizeof(FileHeader);
  for (const Section& sec : body) stats.file_bytes += sec.bytes;
  if (index) {
    stats.seed_k = index->header.k;
    stats.index_buckets = index->header.bucket_count;
    stats.index_postings = index->header.postings_count;
    stats.index_bytes = kmer_index_bytes(stats.index_buckets, stats.index_postings);
    stats.file_bytes += stats.index_bytes;
  }
  return stats;
}

BuildStats build_store_from_fasta(const std::string& fasta_path, const std::string& db_path,
                                  const seq::Alphabet& ab, const BuildOptions& opt) {
  return build_store(seq::read_fasta_file(fasta_path, ab), db_path, opt);
}

}  // namespace swr::db
