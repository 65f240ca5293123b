// End-to-end tests of the swr tool's subcommands through run_command.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli/commands.hpp"
#include "obs/metrics.hpp"
#include "seq/fasta.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"

namespace {

using namespace swr;

// Writes records to a temp FASTA and returns the path.
std::string write_fa(const std::string& stem, const std::vector<seq::Sequence>& recs) {
  const std::string path = testing::TempDir() + "/" + stem + ".fa";
  seq::write_fasta_file(path, recs);
  return path;
}

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

TEST(CliAlign, LocalModeFigure2) {
  const std::string a = write_fa("cli_a", {seq::Sequence::dna("TATGGAC", "s")});
  const std::string b = write_fa("cli_b", {seq::Sequence::dna("TAGTGACT", "t")});
  const RunResult r = run("align", {a, b});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("score: 3"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("cigar: 3M"), std::string::npos);
}

TEST(CliAlign, AccelEngineMatchesSoftware) {
  seq::RandomSequenceGenerator gen(5);
  const std::string a = write_fa("cli_a2", {gen.uniform(seq::dna(), 300, "a")});
  const std::string b = write_fa("cli_b2", {gen.uniform(seq::dna(), 60, "b")});
  const RunResult sw = run("align", {a, b, "--engine", "sw"});
  const RunResult hw = run("align", {a, b, "--engine", "accel", "--pes", "32"});
  EXPECT_EQ(sw.code, 0);
  EXPECT_EQ(hw.code, 0);
  EXPECT_EQ(sw.out, hw.out);  // identical report, engine-independent
}

TEST(CliAlign, GlobalAndFittingModes) {
  const std::string a = write_fa("cli_a3", {seq::Sequence::dna("TTTTACGTACGTTTT", "a")});
  const std::string b = write_fa("cli_b3", {seq::Sequence::dna("ACGTACG", "b")});
  const RunResult fit = run("align", {a, b, "--mode", "fitting"});
  EXPECT_EQ(fit.code, 0);
  EXPECT_NE(fit.out.find("score: 7"), std::string::npos) << fit.out;
  const RunResult glob = run("align", {a, b, "--mode", "global"});
  EXPECT_EQ(glob.code, 0);
  EXPECT_NE(glob.out.find("mode: global"), std::string::npos);
}

TEST(CliAlign, BadUsageReturnsTwo) {
  EXPECT_EQ(run("align", {"only_one.fa"}).code, 2);
  EXPECT_EQ(run("align", {"a.fa", "b.fa", "--mode", "sideways"}).code, 2);
  const RunResult r = run("align", {"a.fa", "b.fa", "--bogus", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

TEST(CliAlign, MissingFileReturnsOne) {
  EXPECT_EQ(run("align", {"/nonexistent/x.fa", "/nonexistent/y.fa"}).code, 1);
}

TEST(CliScan, FindsPlantedRecord) {
  seq::RandomSequenceGenerator gen(9);
  const seq::Sequence q = gen.uniform(seq::dna(), 50, "query");
  std::vector<seq::Sequence> db;
  for (int k = 0; k < 6; ++k) {
    seq::Sequence rec = gen.uniform(seq::dna(), 400, "rec" + std::to_string(k));
    if (k == 4) {
      rec.append(seq::point_mutate(q, 0.02, gen.engine()));
      rec.set_name("rec4_hit");
    }
    db.push_back(std::move(rec));
  }
  const std::string qf = write_fa("cli_q", {q});
  const std::string dbf = write_fa("cli_db", db);
  const RunResult r = run("scan", {qf, dbf, "--top", "3", "--engine", "accel", "--pes", "50"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("1. rec4_hit"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("E "), std::string::npos);
}

TEST(CliScan, CpuEngineMatchesAcceleratorScan) {
  seq::RandomSequenceGenerator gen(10);
  const seq::Sequence q = gen.uniform(seq::dna(), 50, "query");
  std::vector<seq::Sequence> db;
  for (int k = 0; k < 8; ++k) {
    seq::Sequence rec = gen.uniform(seq::dna(), 300, "rec" + std::to_string(k));
    if (k == 2 || k == 6) rec.append(seq::point_mutate(q, 0.03 * k, gen.engine()));
    db.push_back(std::move(rec));
  }
  const std::string qf = write_fa("cli_q2", {q});
  const std::string dbf = write_fa("cli_db2", db);
  const RunResult accel = run("scan", {qf, dbf, "--top", "4", "--engine", "accel", "--pes", "50"});
  EXPECT_EQ(accel.code, 0) << accel.err;
  for (const std::string threads : {"1", "2", "8"}) {
    const RunResult cpu =
        run("scan", {qf, dbf, "--top", "4", "--engine", "cpu", "--threads", threads});
    EXPECT_EQ(cpu.code, 0) << cpu.err;
    EXPECT_EQ(cpu.out, accel.out) << threads << " threads";  // identical report
  }
  // The default (auto) engine is the CPU engine — same output again.
  const RunResult auto2 = run("scan", {qf, dbf, "--top", "4", "--threads", "2"});
  EXPECT_EQ(auto2.code, 0) << auto2.err;
  EXPECT_EQ(auto2.out, accel.out);
}

TEST(CliScan, BadEngineOptionsReturnTwo) {
  EXPECT_EQ(run("scan", {"q.fa", "db.fa", "--simd", "avx512"}).code, 2);
  EXPECT_EQ(run("scan", {"q.fa", "db.fa", "--engine", "gpu"}).code, 2);
  EXPECT_EQ(run("scan", {"q.fa", "db.fa", "--engine", "accel", "--threads", "4"}).code, 2);
}

TEST(CliScan, UnknownSimdPolicyListsChoices) {
  // Rejected at parse time with the full choice list — never a silent
  // fallback to auto (the file args are never even opened).
  const RunResult r = run("scan", {"q.fa", "db.fa", "--simd", "avx512"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("avx512"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("choices: auto|scalar|sse41|avx2"), std::string::npos) << r.err;
}

TEST(CliScan, EverySimdPolicyProducesTheSameReport) {
  seq::RandomSequenceGenerator gen(11);
  const seq::Sequence q = gen.uniform(seq::dna(), 40, "query");
  std::vector<seq::Sequence> db;
  for (int k = 0; k < 6; ++k) {
    seq::Sequence rec = gen.uniform(seq::dna(), 250, "rec" + std::to_string(k));
    if (k == 3) rec.append(seq::point_mutate(q, 0.02, gen.engine()));
    db.push_back(std::move(rec));
  }
  const std::string qf = write_fa("cli_q3", {q});
  const std::string dbf = write_fa("cli_db3", db);
  const RunResult ref = run("scan", {qf, dbf, "--top", "3", "--engine", "cpu"});
  ASSERT_EQ(ref.code, 0) << ref.err;
  // An unsupported striped request degrades (one-time stderr warning)
  // rather than failing, so every spelling must succeed everywhere and
  // report identical hits.
  for (const std::string simd : {"auto", "scalar", "sse41", "avx2"}) {
    const RunResult r =
        run("scan", {qf, dbf, "--top", "3", "--engine", "cpu", "--simd", simd});
    EXPECT_EQ(r.code, 0) << simd << ": " << r.err;
    EXPECT_EQ(r.out, ref.out) << "--simd " << simd;
  }
}

// With no --engine the scan runs on the CPU engine, never the cycle
// simulator: same bytes as --engine cpu, and the CPU engine's scan.scans
// counter (which the accelerator model never touches) moves. The deleted
// SWAR tiers are no longer a --simd choice.
TEST(CliScan, DefaultEngineIsTheCpuEngine) {
  seq::RandomSequenceGenerator gen(12);
  const seq::Sequence q = gen.uniform(seq::dna(), 40, "query");
  std::vector<seq::Sequence> db;
  for (int k = 0; k < 6; ++k) {
    seq::Sequence rec = gen.uniform(seq::dna(), 250, "rec" + std::to_string(k));
    if (k == 1) rec.append(seq::point_mutate(q, 0.02, gen.engine()));
    db.push_back(std::move(rec));
  }
  const std::string qf = write_fa("cli_q4", {q});
  const std::string dbf = write_fa("cli_db4", db);
  const RunResult cpu = run("scan", {qf, dbf, "--top", "3", "--engine", "cpu"});
  ASSERT_EQ(cpu.code, 0) << cpu.err;
  const RunResult def = run("scan", {qf, dbf, "--top", "3"});
  ASSERT_EQ(def.code, 0) << def.err;
  EXPECT_EQ(def.out, cpu.out);

  obs::Counter& scans = obs::global_registry().counter("scan.scans");
  const std::uint64_t before = scans.value();
  ASSERT_EQ(run("scan", {qf, dbf, "--top", "3", "--stats"}).code, 0);
  EXPECT_EQ(scans.value(), before + 1);

  const RunResult swar = run("scan", {qf, dbf, "--simd", "swar8"});
  EXPECT_EQ(swar.code, 2);
  EXPECT_NE(swar.err.find("choices: auto|scalar|sse41|avx2"), std::string::npos) << swar.err;
}

TEST(CliTranslate, SingleFrameAndSix) {
  const std::string f = write_fa("cli_t", {seq::Sequence::dna("ATGGCTTAA", "g")});
  const RunResult one = run("translate", {f});
  EXPECT_EQ(one.code, 0);
  EXPECT_NE(one.out.find("MAX"), std::string::npos) << one.out;
  const RunResult six = run("translate", {f, "--six"});
  EXPECT_EQ(six.code, 0);
  EXPECT_NE(six.out.find("rev frame 0"), std::string::npos);
}

TEST(CliOrfs, ReportsPlantedOrf) {
  const std::string f = write_fa(
      "cli_o", {seq::Sequence::dna("CCCCATGAAACCCGGGTTTAAACCCGGGAAATTTCCCGGGAAATAACCCC", "g")});
  const RunResult r = run("orfs", {f, "--min-codons", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fwd frame"), std::string::npos) << r.out;
}

TEST(CliDesign, ListsDevices) {
  const RunResult r = run("design", {"--query", "200", "--db", "500000"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("xc2vp70"), std::string::npos);
  EXPECT_NE(r.out.find("passes"), std::string::npos);
}

TEST(CliHelp, UnknownCommand) {
  const RunResult r = run("frobnicate", {});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
  EXPECT_EQ(run("help", {}).code, 0);
}

}  // namespace
