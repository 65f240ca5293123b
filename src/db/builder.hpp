// .swdb writer: preprocess a sequence database once, scan it forever.
//
// Builds the binary store described in db/format.hpp from in-memory
// records or straight from a FASTA file. Encoding::Auto picks the 2-bit
// packed payload for 4-letter alphabets (DNA/RNA — a 4x smaller resident
// database, the paper's reduced-memory theme) and raw dense codes
// otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/format.hpp"
#include "seq/sequence.hpp"

namespace swr::db {

/// Build configuration.
struct BuildOptions {
  /// Auto = Packed2 when the alphabet has <= 4 letters, Raw8 otherwise.
  enum class Pick : std::uint8_t { Auto, Raw8, Packed2 };
  Pick encoding = Pick::Auto;

  /// Write the k-mer index section (format v3; the database must hold
  /// fewer than 2^32 residues). false writes a v1 file — byte-identical to
  /// pre-index builds, scannable with --filter exact only.
  bool kmer_index = true;

  /// Seed length; 0 picks the largest k whose dense bucket table
  /// (|alphabet|^k entries) stays proportional to the database size, so
  /// tiny test stores do not pay megabytes of empty buckets. @see
  /// auto_seed_k.
  std::size_t seed_k = 0;
};

/// The auto (seed_k = 0) heuristic: largest k in [2, 31] with
/// base^k <= clamp(total_residues, 4096, 2^24). Exposed so `swdb build`
/// reporting, the prefilter tests and the benches agree with the builder.
std::size_t auto_seed_k(std::size_t alphabet_size, std::uint64_t total_residues);

/// What the builder wrote — the `swdb build` report and bench material.
struct BuildStats {
  std::size_t records = 0;
  std::uint64_t residues = 0;
  std::uint64_t file_bytes = 0;
  Encoding encoding = Encoding::Raw8;
  // k-mer index section (zeros when kmer_index was off).
  std::size_t seed_k = 0;
  std::uint64_t index_buckets = 0;
  std::uint64_t index_postings = 0;
  std::uint64_t index_bytes = 0;
};

/// Writes `records` (all over the same alphabet) to `path`. The store is
/// written to a sibling temp file, fsynced and renamed over `path`, so a
/// Store still mapping the old file keeps reading it and a failed build
/// leaves the old file in place.
/// @throws StoreError on I/O failure, mixed alphabets, a record too large
/// for the format (length must fit in 32 bits), or an index over 2^32 or
/// more residues.
BuildStats build_store(const std::vector<seq::Sequence>& records, const std::string& path,
                       const BuildOptions& opt = {});

/// Reads `fasta_path` over `ab` and writes the store to `db_path`.
/// @throws seq::FastaError on parse failure, StoreError on write failure.
BuildStats build_store_from_fasta(const std::string& fasta_path, const std::string& db_path,
                                  const seq::Alphabet& ab, const BuildOptions& opt = {});

}  // namespace swr::db
