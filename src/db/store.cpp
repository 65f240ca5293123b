#include "db/store.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"
#include "seq/packed.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define SWR_DB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace swr::db {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw StoreError("swdb '" + path + "': " + why);
}

// Payload bytes record `r` occupies on disk under `enc`.
std::size_t record_bytes(Encoding enc, std::uint32_t length) {
  return enc == Encoding::Packed2 ? seq::packed2_bytes(length) : length;
}

// True when some byte of [p, p + n) is >= `limit`. Eight bytes at a time
// for limit <= 128: adding 0x80 - limit to a byte's low seven bits sets
// its top bit exactly when the byte is >= limit (a byte >= 128 has it
// already), and no sum carries into the next byte.
bool any_byte_at_least(const std::uint8_t* p, std::size_t n, std::size_t limit) noexcept {
  std::size_t i = 0;
  if (limit <= 0x80) {
    const std::uint64_t bias = 0x0101010101010101ULL * (0x80 - limit);
    std::uint64_t hit = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, p + i, sizeof w);
      hit |= w | ((w & 0x7F7F7F7F7F7F7F7FULL) + bias);
    }
    if ((hit & 0x8080808080808080ULL) != 0) return true;
  }
  for (; i < n; ++i) {
    if (p[i] >= limit) return true;
  }
  return false;
}

#if SWR_DB_HAVE_MMAP
std::size_t page_size() {
  static const long ps = ::sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<std::size_t>(ps) : 4096;
}
#endif

}  // namespace

Store Store::open(const std::string& path, obs::Registry* metrics, bool populate) {
  const auto start = std::chrono::steady_clock::now();
  Store s;
  s.path_ = path;

#if SWR_DB_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  s.bytes_ = static_cast<std::size_t>(st.st_size);
  if (s.bytes_ < sizeof(FileHeader)) {
    ::close(fd);
    fail(path, "truncated: smaller than the header");
  }
  int flags = MAP_PRIVATE;
#if defined(MAP_POPULATE)
  if (populate) flags |= MAP_POPULATE;
#else
  (void)populate;
#endif
  void* map = ::mmap(nullptr, s.bytes_, PROT_READ, flags, fd, 0);
#if defined(MAP_POPULATE)
  // An old kernel rejecting MAP_POPULATE must not fail the open — retry
  // without the pre-fault, exactly the behaviour a plain open gives.
  if (map == MAP_FAILED && populate) {
    map = ::mmap(nullptr, s.bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  }
#endif
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) fail(path, "mmap failed");
  s.data_ = static_cast<const std::uint8_t*>(map);
  s.mapped_ = true;
#else
  (void)populate;  // the owned buffer below is resident by construction
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(path, "cannot open");
  s.fallback_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  s.data_ = s.fallback_.data();
  s.bytes_ = s.fallback_.size();
  if (s.bytes_ < sizeof(FileHeader)) fail(path, "truncated: smaller than the header");
#endif

  std::memcpy(&s.header_, s.data_, sizeof(FileHeader));
  const FileHeader& h = s.header_;
  if (h.magic != kMagic) fail(path, "bad magic (not a .swdb file)");
  if (h.version == kFormatVersionIndexedV2) {
    fail(path, "format v2 k-mer index is no longer read — rebuild the store with `swr swdb build`");
  }
  if (h.version != kFormatVersion && h.version != kFormatVersionIndexed) {
    fail(path, "unsupported format version " + std::to_string(h.version));
  }
  if (h.header_hash != h.compute_header_hash()) fail(path, "header checksum mismatch");
  if (h.encoding > static_cast<std::uint8_t>(Encoding::Packed2)) fail(path, "unknown encoding");
  try {
    s.alphabet_ = &seq::alphabet(static_cast<seq::AlphabetId>(h.alphabet));
  } catch (const std::exception&) {
    fail(path, "unknown alphabet id " + std::to_string(h.alphabet));
  }
  if (s.encoding() == Encoding::Packed2 && s.alphabet_->size() > 4) {
    fail(path, "packed2 encoding with a >4-letter alphabet");
  }

  // Section bounds. Every size below is validated before the pointer it
  // guards is formed, so a truncated or lying header cannot produce an
  // out-of-bounds read later.
  const std::size_t meta_off = sizeof(FileHeader);
  const std::size_t n = h.record_count;
  if (n > (s.bytes_ - meta_off) / sizeof(RecordMeta)) fail(path, "truncated record table");
  const std::size_t order_off = meta_off + n * sizeof(RecordMeta);
  if (n > (s.bytes_ - order_off) / sizeof(std::uint32_t)) fail(path, "truncated schedule order");
  const std::size_t names_off = order_off + n * sizeof(std::uint32_t);
  if (h.names_bytes > s.bytes_ - names_off) fail(path, "truncated name blob");
  const std::size_t payload_off = align8(names_off + h.names_bytes);
  if (payload_off > s.bytes_ || h.payload_bytes > s.bytes_ - payload_off) {
    fail(path, "truncated payload");
  }

  s.meta_ = {reinterpret_cast<const RecordMeta*>(s.data_ + meta_off), n};
  s.order_ = {reinterpret_cast<const std::uint32_t*>(s.data_ + order_off), n};
  s.names_ = reinterpret_cast<const char*>(s.data_ + names_off);
  s.payload_ = s.data_ + payload_off;

  // An indexed store's postings are 32-bit residue positions, decoded
  // through the residue start of every record, laid end to end in id order.
  const bool indexed = h.version == kFormatVersionIndexed;
  if (indexed) {
    if (h.total_residues >= kMaxIndexedResidues) {
      fail(path, "k-mer index over 2^32 or more residues");
    }
    s.starts_.resize(n + 1);
  }
  // schedule_order must be a permutation: a repeated entry would scan one
  // record twice and skip another.
  std::vector<bool> scheduled(n);
  std::uint64_t residues = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const RecordMeta& m = s.meta_[r];
    const std::size_t rb = record_bytes(s.encoding(), m.length);
    if (m.offset > h.payload_bytes || rb > h.payload_bytes - m.offset) {
      fail(path, "record " + std::to_string(r) + " payload range out of bounds");
    }
    if (m.name_offset > h.names_bytes || m.name_length > h.names_bytes - m.name_offset) {
      fail(path, "record " + std::to_string(r) + " name range out of bounds");
    }
    const std::uint32_t next = s.order_[r];
    if (next >= n) fail(path, "schedule order entry out of range");
    if (scheduled[next]) {
      fail(path, "schedule order lists record " + std::to_string(next) + " twice");
    }
    scheduled[next] = true;
    if (indexed) s.starts_[r] = static_cast<std::uint32_t>(residues);
    residues += m.length;
  }
  if (residues != h.total_residues) fail(path, "record lengths do not sum to total_residues");

  // Format v3: the k-mer index section trails the payload. Same contract
  // as the other sections — structural bounds are validated before any
  // pointer is formed (open never reads the index body); the array
  // *contents* are covered by index_hash + verify_payload, postings_for
  // clamps defensively and locate rejects a posting past the last residue.
  if (indexed) {
    s.starts_[n] = static_cast<std::uint32_t>(residues);
    const std::size_t index_off = align8(payload_off + h.payload_bytes);
    if (index_off > s.bytes_ || sizeof(KmerIndexHeader) > s.bytes_ - index_off) {
      fail(path, "truncated k-mer index header");
    }
    KmerIndexHeader ih;
    std::memcpy(&ih, s.data_ + index_off, sizeof(KmerIndexHeader));
    if (ih.magic != kIndexMagic) fail(path, "bad k-mer index magic");
    if (ih.version != kIndexVersion) {
      fail(path, "unsupported k-mer index version " + std::to_string(ih.version));
    }
    if (ih.header_hash != ih.compute_header_hash()) fail(path, "k-mer index checksum mismatch");
    if (ih.k < 2 || ih.k > 31) fail(path, "k-mer index k out of range");
    if (ih.bucket_count == 0 ||
        ih.bucket_count != kmer_bucket_count(s.alphabet_->size(), ih.k)) {
      fail(path, "k-mer index bucket count does not match alphabet and k");
    }
    if (ih.postings_count > h.total_residues) fail(path, "k-mer index postings exceed residues");
    const std::size_t offsets_off = index_off + sizeof(KmerIndexHeader);
    const std::uint64_t words = (s.bytes_ - offsets_off) / sizeof(std::uint32_t);
    if (ih.bucket_count >= words || ih.postings_count > words - ih.bucket_count - 1) {
      fail(path, "truncated k-mer index");
    }
    if (kmer_index_bytes(ih.bucket_count, ih.postings_count) != s.bytes_ - index_off) {
      fail(path, "trailing bytes after the k-mer index");
    }
    const std::size_t postings_off =
        offsets_off + (ih.bucket_count + 1) * sizeof(std::uint32_t);
    s.index_header_ = ih;
    s.kindex_.k_ = ih.k;
    s.kindex_.offsets_ = {reinterpret_cast<const std::uint32_t*>(s.data_ + offsets_off),
                          static_cast<std::size_t>(ih.bucket_count) + 1};
    s.kindex_.postings_ = {reinterpret_cast<const std::uint32_t*>(s.data_ + postings_off),
                           static_cast<std::size_t>(ih.postings_count)};
    s.kindex_.starts_ = s.starts_;
  }

  if (metrics != nullptr) {
    metrics->counter("db.opens").add(1);
    metrics->counter("db.bytes_mapped").add(s.bytes_);
    metrics->histogram("db.open_us").observe_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  return s;
}

Store::Store(Store&& other) noexcept { *this = std::move(other); }

Store& Store::operator=(Store&& other) noexcept {
  if (this == &other) return *this;
  unmap();
  path_ = std::move(other.path_);
  header_ = other.header_;
  alphabet_ = other.alphabet_;
  data_ = std::exchange(other.data_, nullptr);
  bytes_ = std::exchange(other.bytes_, 0);
  mapped_ = std::exchange(other.mapped_, false);
  fallback_ = std::move(other.fallback_);
  meta_ = std::exchange(other.meta_, {});
  order_ = std::exchange(other.order_, {});
  names_ = std::exchange(other.names_, nullptr);
  payload_ = std::exchange(other.payload_, nullptr);
  kindex_ = std::exchange(other.kindex_, {});
  index_header_ = other.index_header_;
  starts_ = std::move(other.starts_);  // kindex_.starts_ keeps viewing the moved buffer
  if (!mapped_ && data_ != nullptr) data_ = fallback_.data();
  return *this;
}

Store::~Store() { unmap(); }

void Store::unmap() noexcept {
#if SWR_DB_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), bytes_);
  }
#endif
  data_ = nullptr;
  bytes_ = 0;
  mapped_ = false;
}

std::string_view Store::name(std::size_t r) const {
  const RecordMeta& m = meta_at(r);
  return {names_ + m.name_offset, m.name_length};
}

std::span<const seq::Code> Store::codes(std::size_t r, std::vector<seq::Code>& scratch) const {
  const RecordMeta& m = meta_at(r);
  const std::uint8_t* rec = payload_ + m.offset;
  if (encoding() == Encoding::Raw8) {
    if (any_byte_at_least(rec, m.length, alphabet_->size())) {
      fail(path_, "record " + std::to_string(r) + " ('" + std::string(name(r)) +
                      "') holds a residue byte outside the alphabet; the payload is corrupt — "
                      "rebuild the store with `swr swdb build`");
    }
    return {reinterpret_cast<const seq::Code*>(rec), m.length};
  }
  scratch.resize(m.length);
  seq::unpack2(rec, m.length, scratch.data());
  return {scratch.data(), scratch.size()};
}

seq::Sequence Store::sequence(std::size_t r) const {
  std::vector<seq::Code> codes;
  const std::span<const seq::Code> view = this->codes(r, codes);
  if (view.data() != codes.data()) codes.assign(view.begin(), view.end());
  return seq::Sequence(*alphabet_, std::move(codes), std::string(name(r)));
}

void KmerIndexView::throw_past_end(std::uint32_t posting) const {
  throw StoreError("swdb k-mer index: posting " + std::to_string(posting) +
                   " lies past the last residue (" +
                   std::to_string(starts_.empty() ? 0 : starts_.back()) +
                   "); the index is corrupt — rebuild the store with `swr swdb build`");
}

double KmerIndexView::load_factor() const noexcept {
  if (offsets_.size() <= 1) return 0.0;
  std::uint64_t occupied = 0;
  for (std::size_t b = 0; b + 1 < offsets_.size(); ++b) {
    if (offsets_[b + 1] > offsets_[b]) ++occupied;
  }
  return static_cast<double>(occupied) / static_cast<double>(offsets_.size() - 1);
}

PayloadRange Store::payload_range(std::size_t r) const {
  const RecordMeta& m = meta_at(r);
  return {m.offset, record_bytes(encoding(), m.length)};
}

namespace {

// One madvise wrapper all three hints share: aligns the range down to a
// page boundary (madvise requires it; the few extra bytes belong to the
// preceding section and the hint is harmless there) and reports whether
// the kernel accepted the hint.
#if SWR_DB_HAVE_MMAP
bool madvise_range(const std::uint8_t* base, const std::uint8_t* addr, std::size_t len,
                   int advice) noexcept {
  if (addr == nullptr || len == 0) return false;
  const std::size_t ps = page_size();
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t aligned = raw & ~static_cast<std::uintptr_t>(ps - 1);
  if (aligned < reinterpret_cast<std::uintptr_t>(base)) return false;
  const std::size_t total = len + static_cast<std::size_t>(raw - aligned);
  return ::madvise(reinterpret_cast<void*>(aligned), total, advice) == 0;
}
#endif

void count_hint(obs::Registry* metrics, const char* name, bool issued) {
  if (issued && metrics != nullptr) metrics->counter(name).add(1);
}

}  // namespace

bool Store::advise_sequential(obs::Registry* metrics) const noexcept {
  bool ok = false;
#if SWR_DB_HAVE_MMAP
  if (mapped_) ok = madvise_range(data_, data_, bytes_, MADV_SEQUENTIAL);
#endif
  count_hint(metrics, "db.madvise.sequential", ok);
  return ok;
}

bool Store::advise_payload_willneed(obs::Registry* metrics) const noexcept {
  bool ok = false;
#if SWR_DB_HAVE_MMAP
  if (mapped_) ok = madvise_range(data_, payload_, payload_bytes(), MADV_WILLNEED);
#endif
  count_hint(metrics, "db.madvise.willneed", ok);
  return ok;
}

bool Store::advise_payload_hugepage(obs::Registry* metrics) const noexcept {
  bool ok = false;
#if SWR_DB_HAVE_MMAP && defined(MADV_HUGEPAGE)
  if (mapped_) ok = madvise_range(data_, payload_, payload_bytes(), MADV_HUGEPAGE);
#endif
  count_hint(metrics, "db.madvise.hugepage", ok);
  return ok;
}

std::size_t Store::prefault_payload(std::uint64_t offset, std::size_t bytes) const noexcept {
  if (payload_ == nullptr || offset >= payload_bytes()) return 0;
  bytes = std::min(bytes, payload_bytes() - static_cast<std::size_t>(offset));
  if (bytes == 0) return 0;
#if SWR_DB_HAVE_MMAP
  const std::size_t ps = page_size();
#else
  const std::size_t ps = 4096;
#endif
  // Round down to the first page boundary at-or-before offset so every
  // page the range overlaps is touched exactly once.
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(payload_ + offset);
  const std::uintptr_t first = raw & ~static_cast<std::uintptr_t>(ps - 1);
  const std::uintptr_t last = raw + bytes - 1;
  std::size_t pages = 0;
  for (std::uintptr_t p = first; p <= last; p += ps) {
    // volatile defeats dead-read elimination: the load is the product.
    (void)*reinterpret_cast<const volatile std::uint8_t*>(p);
    ++pages;
  }
  return pages;
}

PayloadResidency Store::payload_residency() const noexcept {
  PayloadResidency res;
#if SWR_DB_HAVE_MMAP
  if (!mapped_ || payload_ == nullptr || payload_bytes() == 0) return res;
  const std::size_t ps = page_size();
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(payload_);
  const std::uintptr_t aligned = raw & ~static_cast<std::uintptr_t>(ps - 1);
  const std::size_t len = payload_bytes() + static_cast<std::size_t>(raw - aligned);
  res.pages_total = (len + ps - 1) / ps;
  std::vector<unsigned char> vec(res.pages_total);
#if defined(__linux__)
  if (::mincore(reinterpret_cast<void*>(aligned), len, vec.data()) != 0) {
#else
  if (::mincore(reinterpret_cast<void*>(aligned), len, reinterpret_cast<char*>(vec.data())) != 0) {
#endif
    res.pages_total = 0;
    return res;
  }
  for (const unsigned char v : vec) {
    if ((v & 1u) != 0) ++res.pages_resident;
  }
#endif
  return res;
}

void Store::verify_payload(obs::Registry* metrics) const {
  const auto start = std::chrono::steady_clock::now();
  advise_sequential(metrics);
  // payload_hash stops at the index header, which open checked; the index
  // body after it, which ends the file, has its own index_hash (format.hpp).
  const std::size_t payload_end = has_kmer_index() ? bytes_ - kindex_.bytes() : bytes_;
  const std::size_t body_off = payload_end + sizeof(KmerIndexHeader);
  const bool payload_ok =
      fnv1a(data_ + sizeof(FileHeader), payload_end - sizeof(FileHeader)) == header_.payload_hash;
  const bool index_ok = !has_kmer_index() ||
                        fnv1a(data_ + body_off, bytes_ - body_off) == index_header_.index_hash;
  if (metrics != nullptr) {
    metrics->counter("db.verifies").add(1);
    metrics->counter("db.bytes_verified").add(bytes_ - sizeof(FileHeader));
    metrics->histogram("db.verify_us").observe_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  if (!payload_ok) fail(path_, "payload checksum mismatch");
  if (!index_ok) fail(path_, "k-mer index checksum mismatch (index_hash)");
}

namespace {

// Predicted inter-sequence lane occupancy when the dynamic refill walks
// `order` at `lanes` lanes: records are handed to the first lane to
// retire (greedy least-loaded — the refill loop's actual behaviour), the
// batch runs as long as its most-loaded lane, and occupancy is the useful
// fraction of the lanes x makespan step budget. Empty records never enter
// a lane (the engine filters them), so they are skipped here too.
double predicted_occupancy(const Store& store, std::span<const std::uint32_t> order,
                           unsigned lanes) {
  std::vector<std::uint64_t> load(lanes, 0);
  std::uint64_t useful = 0;
  for (const std::uint32_t r : order) {
    const std::uint64_t len = store.length(r);
    if (len == 0) continue;
    auto* slot = &load[0];
    for (unsigned l = 1; l < lanes; ++l) {
      if (load[l] < *slot) slot = &load[l];
    }
    *slot += len;
    useful += len;
  }
  const std::uint64_t makespan = *std::max_element(load.begin(), load.end());
  if (makespan == 0) return 0.0;
  return static_cast<double>(useful) / (static_cast<double>(makespan) * lanes);
}

}  // namespace

ScheduleStats schedule_stats(const Store& store) {
  ScheduleStats st;
  if (store.empty()) return st;
  const std::span<const std::uint32_t> order = store.schedule_order();
  // The schedule is length-descending, so the extremes and the median are
  // direct lookups.
  st.max_length = store.length(order.front());
  st.min_length = store.length(order.back());
  st.median_length = store.length(order[order.size() / 2]);
  st.occupancy16 = predicted_occupancy(store, order, 16);
  st.occupancy32 = predicted_occupancy(store, order, 32);
  st.occupancy64 = predicted_occupancy(store, order, 64);
  return st;
}

}  // namespace swr::db
