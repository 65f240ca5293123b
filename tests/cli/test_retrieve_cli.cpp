// `scan --align / --max-hits / --format` plus `swdb info --json` and
// `align --matrix` through run_command — the CI alignment leg drives
// this file by suite name (AlignLeg*).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "seq/fasta.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run(const std::string& cmd, const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run_command(cmd, args, out, err);
  return {code, out.str(), err.str()};
}

std::size_t count_lines_with(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

// One query + database pair shared by every test in this file; the
// database holds random background plus planted homologs.
struct Fixture {
  std::string query_fa;
  std::string db_fa;
  std::string db_swdb;

  Fixture() {
    seq::RandomSequenceGenerator gen(71801);
    const seq::Sequence query = gen.uniform(seq::dna(), 90, "q");
    std::vector<seq::Sequence> recs;
    for (int r = 0; r < 30; ++r) {
      seq::Sequence rec = gen.uniform(seq::dna(), 120, "rec" + std::to_string(r));
      if (r % 9 == 4) rec.append(seq::point_mutate(query, 0.04, gen.engine()));
      recs.push_back(std::move(rec));
    }
    // Per-process leaves: ctest runs every AlignLeg* test as its own
    // process, and a shared leaf let one process rebuild the .swdb another
    // had mapped mid-scan (SIGBUS).
    query_fa = testing::TempDir() + "/" + test::unique_leaf("retrieve_q.fa");
    db_fa = testing::TempDir() + "/" + test::unique_leaf("retrieve_db.fa");
    db_swdb = testing::TempDir() + "/" + test::unique_leaf("retrieve_db.swdb");
    seq::write_fasta_file(query_fa, {query});
    seq::write_fasta_file(db_fa, recs);
    EXPECT_EQ(run("swdb", {"build", db_fa, db_swdb}).code, 0);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(AlignLegText, AlignAddsTranscriptLinesToEveryHit) {
  const Fixture& f = fixture();
  const RunResult r = run("scan", {f.query_fa, f.db_swdb, "--engine", "cpu", "--min-score", "50",
                                   "--align"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("hits (top"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("identity"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("coverage"), std::string::npos) << r.out;
  EXPECT_GE(count_lines_with(r.out, "cigar:"), 1u) << r.out;
}

TEST(AlignLegText, RankedPrefixIdenticalWithAndWithoutAlign) {
  // The tentpole invariant at the CLI boundary: turning --align on must
  // not move a single hit line.
  const Fixture& f = fixture();
  const std::vector<std::string> base{f.query_fa, f.db_swdb, "--engine", "cpu",
                                      "--min-score", "50", "--top", "8"};
  auto aligned = base;
  aligned.push_back("--align");
  const RunResult off = run("scan", base);
  const RunResult on = run("scan", aligned);
  ASSERT_EQ(off.code, 0) << off.err;
  ASSERT_EQ(on.code, 0) << on.err;

  // Strip the alignment detail lines (indented) from the aligned output;
  // what remains must equal the score-only report.
  std::ostringstream stripped;
  std::istringstream in(on.out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("     ", 0) == 0) continue;
    stripped << line << '\n';
  }
  EXPECT_EQ(stripped.str(), off.out);
}

TEST(AlignLegTsv, HeaderAndAlignmentColumns) {
  const Fixture& f = fixture();
  const RunResult r = run("scan", {f.query_fa, f.db_swdb, "--engine", "cpu", "--min-score", "50",
                                   "--align", "--format", "tsv"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#rank\tname\tscore\tevalue\tend_rec\tend_query\tbegin_rec\tbegin_query"
                       "\tidentity\tcoverage\tcigar"),
            std::string::npos)
      << r.out;
  // Every aligned row ends in a CIGAR, so no row carries the '*' padding.
  EXPECT_EQ(r.out.find("\t*"), std::string::npos) << r.out;
  EXPECT_EQ(r.out.find("hits (top"), std::string::npos) << r.out;  // no text header in tsv
}

TEST(AlignLegTsv, MaxHitsPadsUnalignedRows) {
  const Fixture& f = fixture();
  const RunResult r = run("scan", {f.query_fa, f.db_swdb, "--engine", "cpu", "--min-score", "50",
                                   "--top", "8", "--align", "--max-hits", "1", "--format", "tsv"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Exactly one row got a transcript; the rest are star-padded.
  EXPECT_GE(count_lines_with(r.out, "\t*\t*\t*\t*\t*"), 1u) << r.out;
  EXPECT_GE(count_lines_with(r.out, "M"), 1u) << r.out;
}

TEST(AlignLegTsv, WorksWithoutAlignUsingStarColumns) {
  const Fixture& f = fixture();
  const RunResult r = run("scan", {f.query_fa, f.db_swdb, "--engine", "cpu", "--min-score", "50",
                                   "--format", "tsv"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("#rank"), std::string::npos) << r.out;
  EXPECT_GE(count_lines_with(r.out, "\t*\t*\t*\t*\t*"), 1u) << r.out;
}

TEST(AlignLegPretty, RendersTheThreeLineAlignment) {
  const Fixture& f = fixture();
  const RunResult r = run("scan", {f.query_fa, f.db_swdb, "--engine", "cpu", "--min-score", "50",
                                   "--align", "--format", "pretty"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cigar:"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find('|'), std::string::npos) << r.out;  // the bars line
}

TEST(AlignLegBatch, BatchServiceRetrievesAlignments) {
  const Fixture& f = fixture();
  const RunResult r = run("scan", {f.query_fa, f.db_swdb, "--batch", "--min-score", "50",
                                   "--align"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cigar:"), std::string::npos) << r.out;

  const RunResult tsv = run("scan", {f.query_fa, f.db_swdb, "--batch", "--min-score", "50",
                                     "--align", "--format", "tsv"});
  ASSERT_EQ(tsv.code, 0) << tsv.err;
  EXPECT_NE(tsv.out.find("#rank"), std::string::npos) << tsv.out;
}

TEST(AlignLegBatch, TraceTableShowsTheTracebackColumn) {
  const Fixture& f = fixture();
  const RunResult r = run("scan", {f.query_fa, f.db_swdb, "--batch", "--min-score", "50",
                                   "--align", "--stats"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trcback"), std::string::npos) << r.out;
}

TEST(AlignLegErrors, OptionValidation) {
  const Fixture& f = fixture();
  // --max-hits and --format pretty both need --align.
  EXPECT_EQ(run("scan", {f.query_fa, f.db_swdb, "--max-hits", "3"}).code, 2);
  EXPECT_EQ(run("scan", {f.query_fa, f.db_swdb, "--format", "pretty"}).code, 2);
  EXPECT_EQ(run("scan", {f.query_fa, f.db_swdb, "--align", "--max-hits", "-1"}).code, 2);
  EXPECT_EQ(run("scan", {f.query_fa, f.db_swdb, "--format", "bogus"}).code, 2);
}

TEST(AlignLegInfo, JsonReportCoversTheStore) {
  const Fixture& f = fixture();
  const RunResult r = run("swdb", {"info", f.db_swdb, "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* key : {"\"format_version\"", "\"records\"", "\"residues\"",
                          "\"record_length\"", "\"kmer_index\"", "\"payload_verified\""}) {
    EXPECT_NE(r.out.find(key), std::string::npos) << key << " missing from:\n" << r.out;
  }
  EXPECT_EQ(r.out.front(), '{') << r.out;
  // Balanced braces — the cheap structural sanity check without a parser.
  EXPECT_EQ(count_lines_with(r.out, "{"), count_lines_with(r.out, "}"));

  const RunResult verified = run("swdb", {"info", f.db_swdb, "--json", "--verify"});
  ASSERT_EQ(verified.code, 0) << verified.err;
  EXPECT_NE(verified.out.find("\"payload_verified\": true"), std::string::npos) << verified.out;
}

TEST(AlignLegMatrix, RendersFigureTwoForSmallPairs) {
  const std::string a_fa = testing::TempDir() + "/matrix_a.fa";
  const std::string b_fa = testing::TempDir() + "/matrix_b.fa";
  const std::string big_fa = testing::TempDir() + "/matrix_big.fa";
  seq::write_fasta_file(a_fa, {seq::Sequence::dna("ACTTGTCCG", "a")});
  seq::write_fasta_file(b_fa, {seq::Sequence::dna("AGTGTCAGA", "b")});
  seq::write_fasta_file(big_fa, {seq::Sequence::dna(std::string(120, 'A'), "big")});

  const RunResult r = run("align", {a_fa, b_fa, "--matrix"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("cigar:"), std::string::npos) << r.out;

  // Guard rails: affine / global modes and oversized inputs are refused.
  EXPECT_EQ(run("align", {a_fa, b_fa, "--matrix", "--affine"}).code, 2);
  EXPECT_EQ(run("align", {a_fa, b_fa, "--matrix", "--mode", "global"}).code, 2);
  EXPECT_EQ(run("align", {big_fa, big_fa, "--matrix"}).code, 2);
}

}  // namespace
