// Seeded synthetic inputs for the benchmark: skewed-length background DNA
// with planted gene families, and queries that are fresh mutants of the
// family ancestors, so every query has known true hits.
//
// The generator is the benchmark's own (std::mt19937_64 only): the
// program under test sees nothing but the FASTA file and the query
// residues, so a change to the program's helpers cannot move the inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Rng = std::mt19937_64;

/// Per-residue event rates of the mutation model.
struct Mutation {
  double sub = 0.0;
  double ins = 0.0;
  double del = 0.0;
};

struct FamilySpec {
  std::size_t count = 0;
  std::size_t length = 0;
  std::size_t copies = 0;
  Mutation copy_mutation;
};

struct DatabaseSpec {
  std::size_t records = 0;
  std::function<std::size_t(std::size_t)> background_length;
  std::vector<FamilySpec> families;  ///< family ids run on across specs
};

struct Database {
  std::vector<std::string> residues;    ///< record r's sequence; name is "r<r>"
  std::vector<std::string> ancestors;   ///< family id -> ancestor sequence
  std::vector<std::int32_t> family_of;  ///< record -> family id, -1 for background
  std::uint64_t total_residues = 0;
};

struct Query {
  std::string residues;
  std::uint32_t family = 0;
};

/// The interseq/filter benches' skewed record length mix.
std::size_t skewed_length(std::size_t r);

std::string random_dna(std::size_t n, Rng& rng);

/// Applies `m` residue by residue (substitutions always change the base).
std::string mutate(const std::string& s, const Mutation& m, Rng& rng);

/// Background records, then each family's copies appended to distinct
/// records (distinct across all families as well, so a record's family
/// is unambiguous).
Database make_database(const DatabaseSpec& spec, Rng& rng);

/// A fresh point mutant of family `f`'s ancestor.
Query make_query(const Database& db, std::uint32_t f, double sub_rate, Rng& rng);

/// Writes ">r<index>" records, 80 residues per line.
void write_fasta(const Database& db, const std::string& path);

}  // namespace perfbench
