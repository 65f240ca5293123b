// RecordSource: one non-owning facade over the two ways a database
// reaches a scan engine — an in-memory std::vector<seq::Sequence> (the
// FASTA path) or a memory-mapped db::Store (the .swdb path).
//
// Every scan engine iterates records through this facade, so the two
// paths share one kernel loop and stay bit-identical by construction.
// codes() is zero-copy for vectors and Raw8 stores; Packed2 stores decode
// into the caller's scratch buffer (the engines reuse one per worker, so
// a scan does no per-record allocation either way).
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "db/store.hpp"
#include "seq/sequence.hpp"

namespace swr::host {

/// Non-owning view of a scan database. The referenced container/store
/// must outlive the source (scan calls hold it only for their duration).
class RecordSource {
 public:
  /// Over in-memory records. Empty vectors fall back to the DNA alphabet
  /// (a scan over zero records never touches it).
  explicit RecordSource(const std::vector<seq::Sequence>& records) : records_(&records) {}

  /// Over a memory-mapped store.
  explicit RecordSource(const db::Store& store) : store_(&store) {}

  [[nodiscard]] std::size_t size() const noexcept {
    return store_ != nullptr ? store_->size() : records_->size();
  }

  [[nodiscard]] const seq::Alphabet& alphabet() const {
    if (store_ != nullptr) return store_->alphabet();
    return records_->empty() ? seq::dna() : records_->front().alphabet();
  }

  [[nodiscard]] std::size_t length(std::size_t r) const {
    return store_ != nullptr ? store_->length(r) : (*records_)[r].size();
  }

  /// Dense codes of record `r`; see class comment for scratch semantics.
  [[nodiscard]] std::span<const seq::Code> codes(std::size_t r,
                                                 std::vector<seq::Code>& scratch) const {
    return store_ != nullptr ? store_->codes(r, scratch) : (*records_)[r].codes();
  }

  [[nodiscard]] std::string_view name(std::size_t r) const {
    return store_ != nullptr ? store_->name(r) : std::string_view((*records_)[r].name());
  }

  /// Materializes record `r` as a whole Sequence (what the accelerator
  /// model and the DUST filter consume) into `out`, so its code buffer
  /// (and `scratch`, for Packed2 stores) is reused across records instead
  /// of allocated per call. Returns true when `out`'s capacity absorbed
  /// the record without reallocating — the scan.db.decode_reuse metric.
  bool sequence_into(std::size_t r, seq::Sequence& out, std::vector<seq::Code>& scratch) const {
    if (store_ != nullptr) {
      return out.assign(store_->alphabet(), store_->codes(r, scratch),
                        store_->name(r));
    }
    const seq::Sequence& rec = (*records_)[r];
    return out.assign(rec.alphabet(), rec.codes(), rec.name());
  }

  /// Encoded bytes record `r` streams through the kernels: the store's
  /// payload extent, or the in-memory code-buffer size. What the NUMA
  /// layer accounts as local vs remote shard bytes.
  [[nodiscard]] std::size_t payload_bytes(std::size_t r) const {
    return store_ != nullptr ? store_->payload_range(r).bytes : (*records_)[r].size();
  }

  /// Whether this source is a memory-mapped store (the path with a
  /// precomputed length schedule).
  [[nodiscard]] bool is_store() const noexcept { return store_ != nullptr; }

  /// The underlying store, or nullptr for vector sources — the seeded
  /// prefilter needs the store's k-mer index, which has no vector-side
  /// analogue.
  [[nodiscard]] const db::Store* store() const noexcept { return store_; }

  /// The store's length-descending dispatch permutation; empty for vector
  /// sources (the engines sort shard-locally instead).
  [[nodiscard]] std::span<const std::uint32_t> schedule_order() const noexcept {
    return store_ != nullptr ? store_->schedule_order() : std::span<const std::uint32_t>{};
  }

  /// Verifies every record alphabet matches `query`'s — or, when `ids` is
  /// given, just those records' (a scan chunk; the ids must be in range).
  /// Vector sources check per record (mixed vectors are constructible); a
  /// store is single-alphabet by format. @throws std::invalid_argument
  /// naming `what` and the offending record.
  void check_alphabet(const seq::Sequence& query, const char* what,
                      std::optional<std::span<const std::uint32_t>> ids = std::nullopt) const {
    if (store_ != nullptr) {
      if (store_->alphabet().id() != query.alphabet().id()) {
        throw std::invalid_argument(std::string(what) + ": database alphabet mismatch");
      }
      return;
    }
    const auto check = [&](std::size_t r) {
      if ((*records_)[r].alphabet().id() != query.alphabet().id()) {
        throw std::invalid_argument(std::string(what) + ": record " + std::to_string(r) +
                                    " alphabet mismatch");
      }
    };
    if (ids.has_value()) {
      for (const std::uint32_t r : *ids) check(r);
    } else {
      for (std::size_t r = 0; r < records_->size(); ++r) check(r);
    }
  }

 private:
  const std::vector<seq::Sequence>* records_ = nullptr;
  const db::Store* store_ = nullptr;
};

}  // namespace swr::host
