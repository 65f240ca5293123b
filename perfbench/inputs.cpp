#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr char kBases[4] = {'A', 'C', 'G', 'T'};

char random_base(Rng& rng) { return kBases[rng() & 3u]; }

}  // namespace

std::size_t skewed_length(std::size_t r) { return 50 + (r * r * 977 + r * 131) % 1951; }

std::string random_dna(std::size_t n, Rng& rng) {
  std::string s(n, 'A');
  for (char& c : s) c = random_base(rng);
  return s;
}

std::string mutate(const std::string& s, const Mutation& m, Rng& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::string out;
  out.reserve(s.size() + s.size() / 8);
  for (const char c : s) {
    if (u(rng) < m.ins) out.push_back(random_base(rng));
    const double x = u(rng);
    if (x < m.del) continue;
    if (x < m.del + m.sub) {
      char b = random_base(rng);
      while (b == c) b = random_base(rng);
      out.push_back(b);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Database make_database(const DatabaseSpec& spec, Rng& rng) {
  Database db;
  db.residues.reserve(spec.records);
  for (std::size_t r = 0; r < spec.records; ++r) {
    db.residues.push_back(random_dna(spec.background_length(r), rng));
  }
  db.family_of.assign(spec.records, -1);

  std::size_t planted = 0;
  for (const FamilySpec& fs : spec.families) planted += fs.count * fs.copies;
  if (planted > spec.records) throw std::invalid_argument("more family copies than records");
  std::vector<std::uint32_t> hosts(spec.records);
  for (std::size_t r = 0; r < spec.records; ++r) hosts[r] = static_cast<std::uint32_t>(r);
  std::shuffle(hosts.begin(), hosts.end(), rng);

  std::size_t next_host = 0;
  for (const FamilySpec& fs : spec.families) {
    for (std::size_t f = 0; f < fs.count; ++f) {
      const std::string ancestor = random_dna(fs.length, rng);
      for (std::size_t c = 0; c < fs.copies; ++c) {
        const std::uint32_t r = hosts[next_host++];
        db.residues[r] += mutate(ancestor, fs.copy_mutation, rng);
        db.family_of[r] = static_cast<std::int32_t>(db.ancestors.size());
      }
      db.ancestors.push_back(ancestor);
    }
  }
  for (const std::string& s : db.residues) db.total_residues += s.size();
  return db;
}

Query make_query(const Database& db, std::uint32_t f, double sub_rate, Rng& rng) {
  Query q;
  q.family = f;
  q.residues = mutate(db.ancestors.at(f), Mutation{sub_rate, 0.0, 0.0}, rng);
  return q;
}

void write_fasta(const Database& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (std::size_t r = 0; r < db.residues.size(); ++r) {
    out << ">r" << r << '\n';
    const std::string& s = db.residues[r];
    for (std::size_t i = 0; i < s.size(); i += 80) {
      out.write(s.data() + i, static_cast<std::streamsize>(std::min<std::size_t>(80, s.size() - i)));
      out << '\n';
    }
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
