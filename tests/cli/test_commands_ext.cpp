// Tests of the extended swr subcommands: affine alignment, nearbest, map.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "align/gotoh.hpp"
#include "cli/commands.hpp"
#include "seq/fasta.hpp"
#include "seq/fastq.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"

namespace {

using namespace swr;

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

TEST(CliAffine, LocalAffineMatchesGotoh) {
  seq::RandomSequenceGenerator gen(3);
  const seq::Sequence a = gen.uniform(seq::dna(), 200, "a");
  const seq::Sequence b = gen.uniform(seq::dna(), 60, "b");
  const std::string fa = write_fa("cli_aff_a", {a});
  const std::string fb = write_fa("cli_aff_b", {b});
  const RunResult r = run("align", {fa, fb, "--affine"});
  EXPECT_EQ(r.code, 0) << r.err;
  align::AffineScoring sc;  // CLI defaults for DNA
  const align::LocalScoreResult oracle = align::gotoh_local_score(a.codes(), b.codes(), sc);
  EXPECT_NE(r.out.find("score: " + std::to_string(oracle.score)), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("(affine)"), std::string::npos);
}

TEST(CliAffine, GlobalAffineRuns) {
  const std::string fa = write_fa("cli_aff_g1", {seq::Sequence::dna("ACGTACCCCGT", "a")});
  const std::string fb = write_fa("cli_aff_g2", {seq::Sequence::dna("ACGTACGT", "b")});
  const RunResult r = run("align", {fa, fb, "--affine", "--mode", "global", "--gap-open", "-4",
                                    "--gap-extend", "-1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mode: global (affine)"), std::string::npos);
}

TEST(CliAffine, FittingAffineRejected) {
  EXPECT_EQ(run("align", {"x.fa", "y.fa", "--affine", "--mode", "fitting"}).code, 2);
}

// `--engine accel` with --affine runs the AffinePe array's passes through
// the same retrieval core, so the report matches the software passes.
TEST(CliAffine, AccelEngineRunsTheAffineArray) {
  seq::RandomSequenceGenerator gen(5);
  const seq::Sequence q = gen.uniform(seq::dna(), 40, "q");
  seq::Sequence r = gen.uniform(seq::dna(), 60, "r");
  r.append(seq::point_mutate(q, 0.05, gen.engine()));
  r.append(gen.uniform(seq::dna(), 30));
  const std::string fr = write_fa("cli_aff_acc_r", {r});
  const std::string fq = write_fa("cli_aff_acc_q", {q});

  const RunResult sw = run("align", {fr, fq, "--affine"});
  const RunResult hw = run("align", {fr, fq, "--affine", "--engine", "accel", "--pes", "24"});
  ASSERT_EQ(sw.code, 0) << sw.err;
  ASSERT_EQ(hw.code, 0) << hw.err;
  EXPECT_NE(sw.out.find("cigar:"), std::string::npos) << sw.out;
  EXPECT_EQ(hw.out, sw.out);

  // An array the device cannot hold is a runtime error, never a silent
  // software run.
  const RunResult big =
      run("align", {fr, fq, "--affine", "--engine", "accel", "--pes", "100000"});
  EXPECT_EQ(big.code, 1) << big.out;
  EXPECT_NE(big.err.find("do not fit"), std::string::npos) << big.err;
}

// The array computes local scores only: global and fitting alignments on
// it are usage errors, not software runs under an accel flag.
TEST(CliAccel, GlobalAndFittingModesRejectTheArray) {
  const std::string fa = write_fa("cli_acc_mode_a", {seq::Sequence::dna("ACGTACCCCGT", "a")});
  const std::string fb = write_fa("cli_acc_mode_b", {seq::Sequence::dna("ACGTACGT", "b")});
  EXPECT_EQ(run("align", {fa, fb, "--mode", "global"}).code, 0);
  EXPECT_EQ(run("align", {fa, fb, "--mode", "global", "--engine", "accel"}).code, 2);
  EXPECT_EQ(run("align", {fa, fb, "--mode", "fitting", "--engine", "accel"}).code, 2);
  EXPECT_EQ(run("align", {fa, fb, "--mode", "global", "--affine", "--engine", "accel"}).code, 2);
}

TEST(CliNearBest, EnumeratesPlantedCopies) {
  seq::RandomSequenceGenerator gen(4);
  const seq::Sequence q = gen.uniform(seq::dna(), 50, "q");
  seq::Sequence db = gen.uniform(seq::dna(), 800);
  db.append(q);
  db.append(gen.uniform(seq::dna(), 800));
  db.append(seq::point_mutate(q, 0.05, gen.engine()));
  db.append(gen.uniform(seq::dna(), 800));
  db.set_name("db");
  const std::string fdb = write_fa("cli_nb_db", {db});
  const std::string fq = write_fa("cli_nb_q", {q});
  const RunResult r = run("nearbest", {fdb, fq, "--max", "4", "--min-score", "25"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2 non-overlapping alignments"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("1. score 50"), std::string::npos) << r.out;
}

TEST(CliMap, MapsReadsToReference) {
  seq::RandomSequenceGenerator gen(5);
  const seq::Sequence ref = gen.uniform(seq::dna(), 5000, "ref");
  std::vector<seq::FastqRecord> reads;
  for (int k = 0; k < 4; ++k) {
    seq::FastqRecord rec;
    rec.sequence = seq::point_mutate(ref.subsequence(500 + 900 * static_cast<std::size_t>(k), 60),
                                     0.02, gen.engine());
    rec.sequence.set_name("r" + std::to_string(k));
    rec.qualities.assign(rec.sequence.size(), 35);
    reads.push_back(std::move(rec));
  }
  const std::string fq_path = testing::TempDir() + "/cli_reads.fq";
  {
    std::ofstream f(fq_path);
    seq::write_fastq(f, reads);
  }
  const std::string ref_path = write_fa("cli_map_ref", {ref});
  const RunResult r = run("map", {fq_path, ref_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mapped 4/4 reads"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("r0\t"), std::string::npos);
}

TEST(CliMap, UnmappableReadReported) {
  seq::RandomSequenceGenerator gen(6);
  const seq::Sequence ref = gen.uniform(seq::dna(), 2000, "ref");
  seq::FastqRecord alien;
  alien.sequence = seq::Sequence::dna(std::string(50, 'A'), "alien");
  alien.qualities.assign(50, 30);
  const std::string fq_path = testing::TempDir() + "/cli_alien.fq";
  {
    std::ofstream f(fq_path);
    seq::write_fastq(f, {alien});
  }
  const std::string ref_path = write_fa("cli_map_ref2", {ref});
  const RunResult r = run("map", {fq_path, ref_path});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("unmapped"), std::string::npos) << r.out;
}

TEST(CliHelp, MentionsNewCommands) {
  const RunResult r = run("help", {});
  EXPECT_NE(r.out.find("nearbest"), std::string::npos);
  EXPECT_NE(r.out.find("map <reads.fq>"), std::string::npos);
  EXPECT_NE(r.out.find("--affine"), std::string::npos);
  EXPECT_NE(r.out.find("swdb build"), std::string::npos);
  EXPECT_NE(r.out.find("--batch"), std::string::npos);
}

// ---- swdb + .swdb-aware scan --------------------------------------------

std::vector<seq::Sequence> swdb_db_records() {
  seq::RandomSequenceGenerator gen(91);
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 9; ++k) {
    recs.push_back(gen.uniform(seq::dna(), 80 + 13 * static_cast<std::size_t>(k),
                               "rec" + std::to_string(k)));
  }
  recs.push_back(seq::Sequence::dna("ACGTACGTACGTACGTACGTACGT", "planted"));
  return recs;
}

TEST(CliSwdb, BuildInfoAndScanParity) {
  const auto recs = swdb_db_records();
  const std::string fa = write_fa("cli_swdb_db", recs);
  const std::string swdb = testing::TempDir() + "/cli_swdb_db.swdb";
  const RunResult built = run("swdb", {"build", fa, swdb});
  EXPECT_EQ(built.code, 0) << built.err;
  EXPECT_NE(built.out.find("10 records"), std::string::npos) << built.out;
  EXPECT_NE(built.out.find("packed2"), std::string::npos) << built.out;

  const RunResult info = run("swdb", {"info", swdb, "--verify"});
  EXPECT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("alphabet dna"), std::string::npos) << info.out;
  EXPECT_NE(info.out.find("payload hash OK"), std::string::npos) << info.out;

  // scan against the .swdb store (sniffed, not by extension) must print
  // exactly what the FASTA path prints.
  const std::string q = write_fa("cli_swdb_q", {seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q")});
  const RunResult from_fasta = run("scan", {q, fa, "--min-score", "10"});
  const RunResult from_store = run("scan", {q, swdb, "--min-score", "10"});
  EXPECT_EQ(from_fasta.code, 0) << from_fasta.err;
  EXPECT_EQ(from_store.code, 0) << from_store.err;
  EXPECT_EQ(from_fasta.out, from_store.out);
  EXPECT_NE(from_store.out.find("planted"), std::string::npos) << from_store.out;
  EXPECT_NE(from_store.out.find("stats:"), std::string::npos) << from_store.out;
}

TEST(CliSwdb, InfoReportsScheduleStats) {
  // 7 equal-length records: median == min == max, and the predicted
  // inter-sequence occupancy is exactly 7/16 and 7/32 (one batch, the
  // empty lanes idle the whole makespan).
  seq::RandomSequenceGenerator gen(92);
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 7; ++k) {
    recs.push_back(gen.uniform(seq::dna(), 120, "eq" + std::to_string(k)));
  }
  const std::string fa = write_fa("cli_swdb_sched", recs);
  const std::string swdb = testing::TempDir() + "/cli_swdb_sched.swdb";
  ASSERT_EQ(run("swdb", {"build", fa, swdb}).code, 0);
  const RunResult info = run("swdb", {"info", swdb});
  EXPECT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("record length 120..120, median 120"), std::string::npos) << info.out;
  EXPECT_NE(info.out.find("interseq lane occupancy: 43.8% @16 lanes, 21.9% @32 lanes, "
                          "10.9% @64 lanes"),
            std::string::npos)
      << info.out;
}

TEST(CliScan, EveryKernelShapeProducesTheSameReport) {
  const auto recs = swdb_db_records();
  const std::string fa = write_fa("cli_kernel_db", recs);
  const std::string swdb = testing::TempDir() + "/cli_kernel_db.swdb";
  ASSERT_EQ(run("swdb", {"build", fa, swdb}).code, 0);
  const std::string q =
      write_fa("cli_kernel_q", {seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q")});

  for (const std::string* db : {&fa, &swdb}) {
    const RunResult ref = run("scan", {q, *db, "--min-score", "10", "--engine", "cpu"});
    ASSERT_EQ(ref.code, 0) << ref.err;
    // A shape the machine cannot run degrades (one-time stderr warning),
    // so every spelling succeeds everywhere with identical hits.
    for (const std::string kernel : {"auto", "striped", "interseq"}) {
      for (const std::string threads : {"1", "2"}) {
        const RunResult r = run("scan", {q, *db, "--min-score", "10", "--engine", "cpu",
                                         "--kernel", kernel, "--threads", threads});
        EXPECT_EQ(r.code, 0) << kernel << ": " << r.err;
        EXPECT_EQ(r.out, ref.out) << "--kernel " << kernel << " --threads " << threads;
      }
    }
  }
}

TEST(CliScan, UnknownKernelShapeListsChoices) {
  const RunResult r = run("scan", {"q.fa", "db.fa", "--kernel", "systolic"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("systolic"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("choices: auto|striped|interseq"), std::string::npos) << r.err;
}

TEST(CliSwdb, InfoRejectsCorruptedFile) {
  const std::string path = testing::TempDir() + "/cli_swdb_bad.swdb";
  std::ofstream(path, std::ios::binary) << "SWRSWDB1 but then garbage";
  const RunResult r = run("swdb", {"info", path});
  EXPECT_NE(r.code, 0);
  EXPECT_FALSE(r.err.empty());
}

TEST(CliSwdb, UsageErrors) {
  EXPECT_NE(run("swdb", {}).code, 0);
  EXPECT_NE(run("swdb", {"frobnicate"}).code, 0);
  EXPECT_NE(run("swdb", {"build", "only_one_arg.fa"}).code, 0);
}

// A board the device cannot hold fails the service's constructor: a
// runtime error (exit 1) through the CLI's handler, as for
// `align --engine accel`, never an abort from an executor thread.
std::string board_fit_store(const std::string& stem) {
  const std::string swdb = testing::TempDir() + "/" + stem + ".swdb";
  EXPECT_EQ(run("swdb", {"build", write_fa(stem, swdb_db_records()), swdb}).code, 0);
  return swdb;
}

TEST(CliScanBatch, BoardThatDoesNotFitIsARuntimeError) {
  const std::string swdb = board_fit_store("cli_batch_fit_db");
  const std::string q = write_fa("cli_batch_fit_q", {seq::Sequence::dna("ACGTACGTACGT", "q")});
  const RunResult r = run("scan", {q, swdb, "--batch", "--boards", "1", "--pes", "100000"});
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.err.find("do not fit"), std::string::npos) << r.err;
}

TEST(CliServe, BoardThatDoesNotFitIsARuntimeError) {
  const std::string swdb = board_fit_store("cli_serve_fit_db");
  const RunResult r =
      run("serve", {"--db", swdb, "--boards", "1", "--pes", "100000", "--port", "0"});
  EXPECT_EQ(r.code, 1) << r.out;
  EXPECT_NE(r.err.find("do not fit"), std::string::npos) << r.err;
}

// Integer options are range-checked into their target type: a negative
// or oversized value is a usage error (exit 2) naming the option, never a
// wrapped count or port, nor a bare library exception.
void expect_usage_error(const RunResult& r, const std::string& option) {
  EXPECT_EQ(r.code, 2) << r.out << r.err;
  EXPECT_NE(r.err.find("option --" + option), std::string::npos) << r.err;
}

TEST(CliIntegerOptions, ScanBatchNegativeBoards) {
  const std::string swdb = board_fit_store("cli_int_boards_db");
  const std::string q = write_fa("cli_int_boards_q", {seq::Sequence::dna("ACGTACGTACGT", "q")});
  expect_usage_error(run("scan", {q, swdb, "--batch", "--boards", "-1"}), "boards");
}

TEST(CliIntegerOptions, ScanNegativeThreads) {
  const std::string swdb = board_fit_store("cli_int_threads_db");
  const std::string q = write_fa("cli_int_threads_q", {seq::Sequence::dna("ACGTACGTACGT", "q")});
  expect_usage_error(run("scan", {q, swdb, "--threads", "-1"}), "threads");
}

TEST(CliIntegerOptions, ServePortOutOfRange) {
  const std::string swdb = board_fit_store("cli_int_port_db");
  expect_usage_error(run("serve", {"--db", swdb, "--port", "70000"}), "port");
}

TEST(CliIntegerOptions, ClientPortNotANumber) {
  expect_usage_error(run("client", {"--port", "x", "--ping"}), "port");
}

// Rate limits parse strictly: a rate is a finite number >= 0 and a burst
// an integer >= 1 in plain digits. A sign, trailing text or NaN is a usage
// error naming the option, never a wrapped burst that turns the limit off.
TEST(CliServeLimits, TenantBurstWithASign) {
  const std::string swdb = board_fit_store("cli_limits_sign_db");
  expect_usage_error(run("serve", {"--db", swdb, "--tenants", "alice=10/-1"}), "tenants");
}

TEST(CliServeLimits, TenantBurstWithTrailingText) {
  const std::string swdb = board_fit_store("cli_limits_trail_db");
  expect_usage_error(run("serve", {"--db", swdb, "--tenants", "alice=10/5x"}), "tenants");
}

TEST(CliServeLimits, TenantRateNan) {
  const std::string swdb = board_fit_store("cli_limits_tnan_db");
  expect_usage_error(run("serve", {"--db", swdb, "--tenants", "alice=nan/2"}), "tenants");
}

TEST(CliServeLimits, RateNan) {
  const std::string swdb = board_fit_store("cli_limits_nan_db");
  expect_usage_error(run("serve", {"--db", swdb, "--rate", "nan"}), "rate");
}

TEST(CliScanBatch, ServesEveryQueryIdenticallyToSingleScans) {
  const auto recs = swdb_db_records();
  const std::string fa = write_fa("cli_batch_db", recs);
  const std::string swdb = testing::TempDir() + "/cli_batch_db.swdb";
  ASSERT_EQ(run("swdb", {"build", fa, swdb}).code, 0);

  seq::RandomSequenceGenerator gen(92);
  const seq::Sequence q1 = seq::Sequence::dna("ACGTACGTACGTACGTACGT", "q1");
  const seq::Sequence q2 = gen.uniform(seq::dna(), 30, "q2");
  const std::string queries = write_fa("cli_batch_q", {q1, q2});

  const RunResult batch = run("scan", {queries, swdb, "--min-score", "10", "--batch",
                                       "--cpu-workers", "2", "--chunk", "3"});
  EXPECT_EQ(batch.code, 0) << batch.err;
  EXPECT_NE(batch.out.find("query 1/2: q1"), std::string::npos) << batch.out;
  EXPECT_NE(batch.out.find("query 2/2: q2"), std::string::npos) << batch.out;

  // Each per-query hit block must equal the single-query scan's.
  for (const seq::Sequence& q : {q1, q2}) {
    const std::string qf = write_fa("cli_batch_" + q.name(), {q});
    const RunResult single = run("scan", {qf, swdb, "--min-score", "10"});
    ASSERT_EQ(single.code, 0) << single.err;
    const std::size_t hits_pos = single.out.find("hits (");
    ASSERT_NE(hits_pos, std::string::npos);
    const std::string block = single.out.substr(hits_pos);
    EXPECT_NE(batch.out.find(block), std::string::npos)
        << "query " << q.name() << ": block\n" << block << "\nnot in batch output\n" << batch.out;
  }
}

}  // namespace
