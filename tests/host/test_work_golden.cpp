// Work-counter goldens: deterministic counts of the work the scan engine,
// the seeded filter, §2.3 retrieval and the systolic board model do on
// small fixed inputs, compared exactly against the table below. They are
// the regression gate this noisy host cannot get from seconds: a change
// that moves a kernel's cells, overflow re-runs, tie-break rows, filter
// funnel or board cycles fails here even when every hit stays identical.
//
// The runs are pinned so no CI matrix leg can move a value: one thread,
// NUMA placement off, an explicit SIMD tier and kernel shape (which
// outrank SWR_SIMD and SWR_KERNEL), and the event scheduler for the
// board. The inputs come from raw mt19937_64 output only — the std::
// distributions differ across standard libraries.
//
// A change that moves a value on purpose pastes the printed row over the
// table's and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/device.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/prefilter.hpp"
#include "host/scan_engine.hpp"
#include "hw/sched.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using Counts = std::map<std::string, std::uint64_t>;

// ---- golden table ----------------------------------------------------------
// One row per SIMD tier. Keys are "<scan> <counter>"; the scans are
// described in measure() below.

const std::map<std::string, Counts> kGolden = {
    {"scalar",
     {
         {"dna/align retrieve.cells", 421760},
         {"dna/interseq scan.cells", 6287700},
         {"dna/interseq scan.interseq.batches", 0},
         {"dna/interseq scan.interseq.fallbacks", 0},
         {"dna/interseq scan.interseq.overflow_checked_rows", 0},
         {"dna/interseq scan.interseq.records", 0},
         {"dna/interseq scan.interseq.refills", 0},
         {"dna/interseq scan.interseq.tiebreak_lanes", 0},
         {"dna/interseq scan.interseq.tiebreak_rows", 0},
         {"dna/interseq scan.simd.fallbacks", 0},
         {"dna/interseq scan.simd.records.scalar", 61},
         {"dna/interseq scan.simd.records.striped16", 0},
         {"dna/interseq scan.simd.records.striped8", 0},
         {"dna/interseq scan.striped.rescan_rows", 0},
         {"dna/seeded diagonals", 260},
         {"dna/seeded postings", 827},
         {"dna/seeded scan.cells", 1305600},
         {"dna/seeded scan.filter.candidates", 58},
         {"dna/seeded scan.filter.recall_guard", 1},
         {"dna/seeded scan.filter.rejected", 51},
         {"dna/seeded scan.filter.rescored", 11},
         {"dna/striped scan.cells", 6287700},
         {"dna/striped scan.simd.fallbacks", 0},
         {"dna/striped scan.simd.records.scalar", 61},
         {"dna/striped scan.simd.records.striped16", 0},
         {"dna/striped scan.simd.records.striped8", 0},
         {"dna/striped scan.striped.rescan_rows", 0},
         {"protein/interseq scan.cells", 681000},
         {"protein/interseq scan.interseq.batches", 0},
         {"protein/interseq scan.interseq.fallbacks", 0},
         {"protein/interseq scan.interseq.overflow_checked_rows", 0},
         {"protein/interseq scan.interseq.records", 0},
         {"protein/interseq scan.interseq.refills", 0},
         {"protein/interseq scan.interseq.tiebreak_lanes", 0},
         {"protein/interseq scan.interseq.tiebreak_rows", 0},
         {"protein/interseq scan.simd.fallbacks", 0},
         {"protein/interseq scan.simd.records.scalar", 41},
         {"protein/interseq scan.simd.records.striped16", 0},
         {"protein/interseq scan.simd.records.striped8", 0},
         {"protein/interseq scan.striped.rescan_rows", 0},
     }},
    {"sse41",
     {
         {"dna/align retrieve.cells", 421760},
         {"dna/interseq scan.cells", 6287700},
         {"dna/interseq scan.interseq.batches", 55},
         {"dna/interseq scan.interseq.fallbacks", 1},
         {"dna/interseq scan.interseq.overflow_checked_rows", 1},
         {"dna/interseq scan.interseq.records", 60},
         {"dna/interseq scan.interseq.refills", 45},
         {"dna/interseq scan.interseq.tiebreak_lanes", 2585},
         {"dna/interseq scan.interseq.tiebreak_rows", 1110},
         {"dna/interseq scan.simd.fallbacks", 1},
         {"dna/interseq scan.simd.records.scalar", 0},
         {"dna/interseq scan.simd.records.striped16", 1},
         {"dna/interseq scan.simd.records.striped8", 0},
         {"dna/interseq scan.striped.rescan_rows", 305},
         {"dna/seeded diagonals", 260},
         {"dna/seeded postings", 827},
         {"dna/seeded scan.cells", 1305600},
         {"dna/seeded scan.filter.candidates", 58},
         {"dna/seeded scan.filter.recall_guard", 1},
         {"dna/seeded scan.filter.rejected", 51},
         {"dna/seeded scan.filter.rescored", 11},
         {"dna/striped scan.cells", 6287700},
         {"dna/striped scan.simd.fallbacks", 1},
         {"dna/striped scan.simd.records.scalar", 0},
         {"dna/striped scan.simd.records.striped16", 1},
         {"dna/striped scan.simd.records.striped8", 60},
         {"dna/striped scan.striped.rescan_rows", 2890},
         {"protein/interseq scan.cells", 681000},
         {"protein/interseq scan.interseq.batches", 36},
         {"protein/interseq scan.interseq.fallbacks", 1},
         {"protein/interseq scan.interseq.overflow_checked_rows", 2},
         {"protein/interseq scan.interseq.records", 40},
         {"protein/interseq scan.interseq.refills", 25},
         {"protein/interseq scan.interseq.tiebreak_lanes", 894},
         {"protein/interseq scan.interseq.tiebreak_rows", 399},
         {"protein/interseq scan.simd.fallbacks", 1},
         {"protein/interseq scan.simd.records.scalar", 0},
         {"protein/interseq scan.simd.records.striped16", 1},
         {"protein/interseq scan.simd.records.striped8", 0},
         {"protein/interseq scan.striped.rescan_rows", 112},
     }},
    {"avx2",
     {
         {"dna/align retrieve.cells", 421760},
         {"dna/interseq scan.cells", 6287700},
         {"dna/interseq scan.interseq.batches", 47},
         {"dna/interseq scan.interseq.fallbacks", 1},
         {"dna/interseq scan.interseq.overflow_checked_rows", 1},
         {"dna/interseq scan.interseq.records", 60},
         {"dna/interseq scan.interseq.refills", 29},
         {"dna/interseq scan.interseq.tiebreak_lanes", 2585},
         {"dna/interseq scan.interseq.tiebreak_rows", 647},
         {"dna/interseq scan.simd.fallbacks", 1},
         {"dna/interseq scan.simd.records.scalar", 0},
         {"dna/interseq scan.simd.records.striped16", 1},
         {"dna/interseq scan.simd.records.striped8", 0},
         {"dna/interseq scan.striped.rescan_rows", 305},
         {"dna/seeded diagonals", 260},
         {"dna/seeded postings", 827},
         {"dna/seeded scan.cells", 1305600},
         {"dna/seeded scan.filter.candidates", 58},
         {"dna/seeded scan.filter.recall_guard", 1},
         {"dna/seeded scan.filter.rejected", 51},
         {"dna/seeded scan.filter.rescored", 11},
         {"dna/striped scan.cells", 6287700},
         {"dna/striped scan.simd.fallbacks", 1},
         {"dna/striped scan.simd.records.scalar", 0},
         {"dna/striped scan.simd.records.striped16", 1},
         {"dna/striped scan.simd.records.striped8", 60},
         {"dna/striped scan.striped.rescan_rows", 2890},
         {"protein/interseq scan.cells", 681000},
         {"protein/interseq scan.interseq.batches", 38},
         {"protein/interseq scan.interseq.fallbacks", 1},
         {"protein/interseq scan.interseq.overflow_checked_rows", 2},
         {"protein/interseq scan.interseq.records", 40},
         {"protein/interseq scan.interseq.refills", 9},
         {"protein/interseq scan.interseq.tiebreak_lanes", 894},
         {"protein/interseq scan.interseq.tiebreak_rows", 237},
         {"protein/interseq scan.simd.fallbacks", 1},
         {"protein/interseq scan.simd.records.scalar", 0},
         {"protein/interseq scan.simd.records.striped16", 1},
         {"protein/interseq scan.simd.records.striped8", 0},
         {"protein/interseq scan.striped.rescan_rows", 112},
     }},
    // Cells, fallbacks, record counts, rescans and tiebreak_lanes equal
    // the avx2 row's; batches, refills, tiebreak_rows and
    // overflow_checked_rows follow the lane width (64 lanes hold every
    // record of both stores from the first fill, so nothing refills).
    {"avx512",
     {
         {"dna/align retrieve.cells", 421760},
         {"dna/interseq scan.cells", 6287700},
         {"dna/interseq scan.interseq.batches", 57},
         {"dna/interseq scan.interseq.fallbacks", 1},
         {"dna/interseq scan.interseq.overflow_checked_rows", 1},
         {"dna/interseq scan.interseq.records", 60},
         {"dna/interseq scan.interseq.refills", 0},
         {"dna/interseq scan.interseq.tiebreak_lanes", 2585},
         {"dna/interseq scan.interseq.tiebreak_rows", 422},
         {"dna/interseq scan.simd.fallbacks", 1},
         {"dna/interseq scan.simd.records.scalar", 0},
         {"dna/interseq scan.simd.records.striped16", 1},
         {"dna/interseq scan.simd.records.striped8", 0},
         {"dna/interseq scan.striped.rescan_rows", 305},
         {"dna/seeded diagonals", 260},
         {"dna/seeded postings", 827},
         {"dna/seeded scan.cells", 1305600},
         {"dna/seeded scan.filter.candidates", 58},
         {"dna/seeded scan.filter.recall_guard", 1},
         {"dna/seeded scan.filter.rejected", 51},
         {"dna/seeded scan.filter.rescored", 11},
         {"dna/striped scan.cells", 6287700},
         {"dna/striped scan.simd.fallbacks", 1},
         {"dna/striped scan.simd.records.scalar", 0},
         {"dna/striped scan.simd.records.striped16", 1},
         {"dna/striped scan.simd.records.striped8", 60},
         {"dna/striped scan.striped.rescan_rows", 2890},
         {"protein/interseq scan.cells", 681000},
         {"protein/interseq scan.interseq.batches", 40},
         {"protein/interseq scan.interseq.fallbacks", 1},
         {"protein/interseq scan.interseq.overflow_checked_rows", 2},
         {"protein/interseq scan.interseq.records", 40},
         {"protein/interseq scan.interseq.refills", 0},
         {"protein/interseq scan.interseq.tiebreak_lanes", 894},
         {"protein/interseq scan.interseq.tiebreak_rows", 231},
         {"protein/interseq scan.simd.fallbacks", 1},
         {"protein/interseq scan.simd.records.scalar", 0},
         {"protein/interseq scan.simd.records.striped16", 1},
         {"protein/interseq scan.simd.records.striped8", 0},
         {"protein/interseq scan.striped.rescan_rows", 112},
     }},
};

const Counts kGoldenBoard = {
    {"board evaluations", 1698804},
    {"board total_cycles", 31197},
};

// ---- inputs ----------------------------------------------------------------

std::vector<seq::Code> random_codes(std::mt19937_64& rng, std::size_t n, unsigned alphabet) {
  std::vector<seq::Code> codes(n);
  for (seq::Code& c : codes) c = static_cast<seq::Code>(rng() % alphabet);
  return codes;
}

// Random records with copies of `query` planted into every seventh one:
// mostly a point-mutated slice of a third of the query, and once (record
// 5) the whole query verbatim, whose score overflows 8-bit lanes. One
// empty and one two-residue record cover the degenerate shapes.
std::vector<seq::Sequence> planted_records(std::mt19937_64& rng, const seq::Alphabet& ab,
                                           const std::vector<seq::Code>& query,
                                           std::size_t count, std::size_t min_len,
                                           std::size_t len_span) {
  const auto size = static_cast<unsigned>(ab.size());
  std::vector<seq::Sequence> records;
  for (std::size_t r = 0; r < count; ++r) {
    std::vector<seq::Code> codes = random_codes(rng, min_len + rng() % len_span, size);
    if (r == 5) {
      codes.insert(codes.begin() + static_cast<std::ptrdiff_t>(codes.size() / 2), query.begin(),
                   query.end());
    } else if (r % 7 == 3) {
      const std::size_t third = query.size() / 3;
      const std::size_t from = rng() % (query.size() - third);
      std::vector<seq::Code> slice(query.begin() + static_cast<std::ptrdiff_t>(from),
                                   query.begin() + static_cast<std::ptrdiff_t>(from + third));
      for (std::size_t k = r % 5; k < slice.size(); k += 9) {
        slice[k] = static_cast<seq::Code>((slice[k] + 1) % size);
      }
      codes.insert(codes.begin() + static_cast<std::ptrdiff_t>(rng() % codes.size()),
                   slice.begin(), slice.end());
    }
    records.emplace_back(ab, std::move(codes), "rec" + std::to_string(r));
  }
  records.emplace_back(ab, std::vector<seq::Code>{}, "empty");
  records.emplace_back(ab, random_codes(rng, 2, size), "tiny");
  return records;
}

db::Store build_open(const std::vector<seq::Sequence>& records, const std::string& leaf) {
  const std::string path = testing::TempDir() + "/" + test::unique_leaf(leaf);
  db::build_store(records, path);
  return db::Store::open(path);
}

align::Scoring blosum62_scoring() {
  align::Scoring sc;
  sc.matrix = &align::blosum62();
  sc.gap = -4;
  return sc;
}

// Members initialise in declaration order, all from one generator.
struct Inputs {
  std::mt19937_64 rng{0x5eedc0deULL};
  std::vector<seq::Code> dna_codes = random_codes(rng, 300, 4);
  seq::Sequence dna_query{seq::dna(), dna_codes, "dna_query"};
  std::vector<seq::Sequence> dna_records = planted_records(rng, seq::dna(), dna_codes, 60, 40, 560);
  db::Store dna = build_open(dna_records, "work_golden_dna.swdb");
  align::Scoring dna_sc = align::Scoring::paper_default();
  std::vector<seq::Code> protein_codes =
      random_codes(rng, 100, static_cast<unsigned>(seq::protein().size()));
  seq::Sequence protein_query{seq::protein(), protein_codes, "protein_query"};
  db::Store protein =
      build_open(planted_records(rng, seq::protein(), protein_codes, 40, 20, 300),
                 "work_golden_protein.swdb");
  align::Scoring protein_sc = blosum62_scoring();
};

// ---- measurement -----------------------------------------------------------

host::ScanOptions pinned(core::SimdIsa isa, core::KernelShape kernel, obs::Registry& reg) {
  host::ScanOptions opt;
  opt.threads = 1;
  opt.numa.mode = core::NumaMode::Off;
  opt.simd = isa;
  opt.kernel = kernel;
  opt.metrics = &reg;
  return opt;
}

void record(Counts& out, const std::string& scan, obs::Registry& reg,
            const std::vector<std::string>& counters) {
  for (const std::string& c : counters) out[scan + " " + c] = reg.counter(c).value();
}

const std::vector<std::string> kKernelCounters = {
    "scan.cells",
    "scan.simd.fallbacks",
    "scan.simd.records.scalar",
    "scan.simd.records.striped8",
    "scan.simd.records.striped16",
    "scan.striped.rescan_rows",
};

const std::vector<std::string> kInterSeqCounters = {
    "scan.interseq.batches",        "scan.interseq.refills",
    "scan.interseq.fallbacks",      "scan.interseq.records",
    "scan.interseq.tiebreak_rows",  "scan.interseq.tiebreak_lanes",
    "scan.interseq.overflow_checked_rows",
};

// The scans, each on a fresh registry:
//   dna/striped       exact DNA scan, striped kernel shape
//   dna/interseq      exact DNA scan, inter-sequence shape
//   protein/interseq  exact BLOSUM62 scan (32-slot tables), inter-sequence
//   dna/seeded        seeded DNA scan, plus the prefilter's diagonals
//   dna/align         exact DNA scan with §2.3 retrieval of the top hits
// A shape the tier cannot run degrades to striped, so the scalar row
// reads zero inter-sequence work.
Counts measure(const Inputs& in, core::SimdIsa isa) {
  using core::KernelShape;
  Counts out;
  {
    obs::Registry reg;
    host::scan_database_cpu(in.dna_query, in.dna, in.dna_sc,
                            pinned(isa, KernelShape::Striped, reg));
    record(out, "dna/striped", reg, kKernelCounters);
  }
  {
    obs::Registry reg;
    host::scan_database_cpu(in.dna_query, in.dna, in.dna_sc,
                            pinned(isa, KernelShape::InterSeq, reg));
    record(out, "dna/interseq", reg, kKernelCounters);
    record(out, "dna/interseq", reg, kInterSeqCounters);
  }
  {
    obs::Registry reg;
    host::scan_database_cpu(in.protein_query, in.protein, in.protein_sc,
                            pinned(isa, KernelShape::InterSeq, reg));
    record(out, "protein/interseq", reg, kKernelCounters);
    record(out, "protein/interseq", reg, kInterSeqCounters);
  }
  {
    obs::Registry reg;
    host::ScanOptions opt = pinned(isa, KernelShape::Striped, reg);
    opt.filter = host::FilterMode::Seeded;
    opt.min_score = 30;
    host::scan_database_cpu(in.dna_query, in.dna, in.dna_sc, opt);
    record(out, "dna/seeded", reg,
           {"scan.cells", "scan.filter.candidates", "scan.filter.rescored",
            "scan.filter.rejected", "scan.filter.recall_guard"});
    host::FilterOptions fo;
    fo.threshold = opt.min_score;
    host::FilterStats fst;
    host::filter_candidates(in.dna, in.dna_query, in.dna_sc, fo, {}, &fst);
    out["dna/seeded diagonals"] = fst.diagonals;
    out["dna/seeded postings"] = fst.postings;
  }
  {
    obs::Registry reg;
    host::ScanOptions opt = pinned(isa, KernelShape::Striped, reg);
    opt.align = true;
    opt.top_k = 5;
    host::scan_database_cpu(in.dna_query, in.dna, in.dna_sc, opt);
    record(out, "dna/align", reg, {"retrieve.cells"});
  }
  return out;
}

// On a mismatch, names each differing value, then prints the measured
// entries one per line, ready to paste over the table's.
void expect_counts(const Counts& measured, const Counts& golden) {
  if (measured == golden) return;
  std::ostringstream os;
  for (const auto& [key, value] : measured) {
    const auto g = golden.find(key);
    if (g == golden.end() || g->second != value) {
      os << "  " << key << ": measured " << value << ", golden "
         << (g == golden.end() ? std::string("none") : std::to_string(g->second)) << "\n";
    }
  }
  for (const auto& [key, value] : golden) {
    if (measured.count(key) == 0) os << "  " << key << ": not measured, golden " << value << "\n";
  }
  os << "measured, paste-ready:\n";
  for (const auto& [key, value] : measured) os << "         {\"" << key << "\", " << value << "},\n";
  ADD_FAILURE() << "work counters moved:\n" << os.str();
}

const Inputs& inputs() {
  static const Inputs in;
  return in;
}

void expect_golden_row(core::SimdIsa isa) {
  if (!core::cpu_supports(isa)) {
    GTEST_SKIP() << "this CPU cannot run " << core::simd_isa_name(isa);
  }
  const std::string row = core::simd_isa_name(isa);
  const auto golden = kGolden.find(row);
  expect_counts(measure(inputs(), isa), golden != kGolden.end() ? golden->second : Counts{});
}

TEST(WorkGolden, ScalarRow) { expect_golden_row(core::SimdIsa::Scalar); }
TEST(WorkGolden, Sse41Row) { expect_golden_row(core::SimdIsa::Sse41); }
TEST(WorkGolden, Avx2Row) { expect_golden_row(core::SimdIsa::Avx2); }
TEST(WorkGolden, Avx512Row) { expect_golden_row(core::SimdIsa::Avx512); }

// The paper's array on the xc2vp70 at 100 PEs: the 300-residue query
// runs in three partitioned passes over the first 16 DNA records.
TEST(WorkGolden, Board100Pe) {
  const Inputs& in = inputs();
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 100, in.dna_sc, hw::SchedMode::Event);
  const std::vector<seq::Sequence> records(in.dna_records.begin(), in.dna_records.begin() + 16);
  host::ScanOptions opt;
  const host::ScanResult r = host::scan_database(acc, in.dna_query, records, opt);
  const Counts measured = {{"board evaluations", acc.controller().array().evaluations()},
                           {"board total_cycles", r.board_cycles}};
  expect_counts(measured, kGoldenBoard);
}

}  // namespace
