// Full-system integration: multi-component paths exercised end to end,
// the way the examples and the CLI drive them, with oracle verification at
// every joint.
#include <gtest/gtest.h>

#include <sstream>

#include "align/evalue.hpp"
#include "align/near_best.hpp"
#include "align/sw_full.hpp"
#include "core/multiboard.hpp"
#include "core/tracer.hpp"
#include "host/batch.hpp"
#include "host/pipeline.hpp"
#include "par/zalign.hpp"
#include "retrieve/traceback.hpp"
#include "seq/fasta.hpp"
#include "seq/workload.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

const align::Scoring kSc = align::Scoring::paper_default();

// FASTA round-trip -> accelerator scan -> pipeline retrieval -> statistics:
// the complete database-search story on one fixture.
TEST(Integration, FastaScanRetrieveAndScore) {
  // Build a 12-record database with two planted homologs, through FASTA.
  seq::RandomSequenceGenerator gen(777);
  const seq::Sequence query = gen.uniform(seq::dna(), 60, "q");
  std::vector<seq::Sequence> records;
  for (int k = 0; k < 12; ++k) {
    seq::Sequence rec = gen.uniform(seq::dna(), 500, "rec" + std::to_string(k));
    if (k == 2 || k == 9) {
      rec.append(seq::point_mutate(query, k == 2 ? 0.03 : 0.12, gen.engine()));
      rec.set_name("rec" + std::to_string(k) + "_hit");
    }
    records.push_back(std::move(rec));
  }
  std::stringstream fasta;
  seq::write_fasta(fasta, records);
  const auto loaded = seq::read_fasta(fasta, seq::dna());
  ASSERT_EQ(loaded.size(), records.size());

  // Scan on the accelerator.
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 60, kSc);
  host::ScanOptions opt;
  opt.top_k = 2;
  opt.min_score = 20;
  const host::ScanResult scan = host::scan_database(acc, query, loaded, opt);
  ASSERT_EQ(scan.hits.size(), 2u);
  EXPECT_EQ(scan.hits[0].record, 2u);
  EXPECT_EQ(scan.hits[1].record, 9u);

  // Retrieve the best alignment; verify transcript against the full-matrix
  // oracle of that record.
  const host::PipelineResult pr =
      host::retrieve_hit(acc, host::PciConfig{}, query, loaded, scan.hits[0]);
  const align::LocalAlignment oracle = align::sw_align(loaded[2], query, kSc);
  EXPECT_EQ(pr.alignment.score, oracle.score);
  EXPECT_EQ(align::score_of(pr.alignment.cigar, loaded[2], query, pr.alignment.begin, kSc),
            pr.alignment.score);

  // Statistics: the strong hit must be overwhelmingly significant.
  const align::KarlinParams kp = align::solve_karlin_uniform(kSc, 4);
  std::uint64_t total = 0;
  for (const auto& rec : loaded) total += rec.size();
  EXPECT_LT(align::e_value(scan.hits[0].result.score, query.size(), total, kp), 1e-10);
}

// Accelerator + multiboard + zalign + near-best all agree on one workload.
TEST(Integration, EveryEngineOneWorkload) {
  seq::PlantedWorkloadSpec spec;
  spec.query_len = 48;
  spec.database_len = 4000;
  spec.plant_offset = 1500;
  spec.seed = 31;
  const seq::PlantedWorkload wl = seq::make_planted_workload(spec);
  const align::LocalScoreResult oracle = align::sw_best(align::sw_matrix(wl.database, wl.query, kSc));

  core::SmithWatermanAccelerator acc(core::xc2vp70(), 48, kSc);
  EXPECT_EQ(acc.run(wl.query, wl.database).best, oracle);

  core::BoardFleet fleet = core::make_board_fleet({.boards = 3, .pes_per_board = 48}, kSc);
  EXPECT_EQ(core::multiboard_run(fleet, wl.query, wl.database).best, oracle);

  par::ZAlignOptions zopt;
  zopt.wavefront.threads = 2;
  const par::ZAlignResult z = par::zalign(wl.database, wl.query, kSc, zopt);
  EXPECT_EQ(z.alignment.score, oracle.score);

  align::NearBestOptions nopt;
  nopt.max_alignments = 1;
  nopt.min_score = 10;
  const auto nb = align::near_best_alignments(wl.database, wl.query, kSc, nopt);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_EQ(nb[0].score, oracle.score);
  EXPECT_EQ(nb[0].end, oracle.end);
}

// Query packing + the host pipeline: pack a batch, then retrieve the best
// query's alignment through the standard pipeline — coordinates carry over.
TEST(Integration, PackedBatchThenRetrieval) {
  seq::RandomSequenceGenerator gen(55);
  const seq::Sequence db = gen.uniform(seq::dna(), 2000, "db");
  std::vector<seq::Sequence> queries;
  for (int k = 0; k < 3; ++k) queries.push_back(gen.uniform(seq::dna(), 20, "q" + std::to_string(k)));
  // Make query 1 a planted winner.
  queries[1] = db.subsequence(900, 20);
  queries[1].set_name("q1");

  core::SmithWatermanAccelerator acc(core::xc2vp70(), 70, kSc);
  const auto batch = acc.controller().run_batch(queries, db);
  std::size_t best_q = 0;
  for (std::size_t k = 1; k < batch.size(); ++k) {
    if (batch[k].score > batch[best_q].score) best_q = k;
  }
  EXPECT_EQ(best_q, 1u);
  EXPECT_EQ(batch[1].score, 20);
  EXPECT_EQ(batch[1].end.i, 920u);

  host::HostPipeline pipe(acc, host::PciConfig{});
  const host::PipelineResult pr = pipe.align(queries[best_q], db);
  EXPECT_EQ(pr.alignment.score, batch[best_q].score);
  EXPECT_EQ(pr.alignment.end, batch[best_q].end);
}

// Tracing a pipeline run end to end produces a well-formed VCD.
TEST(Integration, TracedPipelineRun) {
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 8, kSc);
  std::ostringstream vcd;
  core::ArrayTracer tracer(vcd);
  tracer.attach(acc.controller());
  host::HostPipeline pipe(acc, host::PciConfig{});
  const seq::Sequence q = swr::test::random_dna(8, 61);
  const seq::Sequence db = swr::test::random_dna(60, 62);
  const host::PipelineResult pr = pipe.align(q, db);
  EXPECT_EQ(pr.alignment.score, retrieve::local_align_linear(db, q, kSc).score);
  // Both accelerator passes were traced.
  EXPECT_GT(tracer.samples(),
            pr.forward_stats.total_cycles);  // forward + at least part of reverse
  EXPECT_NE(vcd.str().find("$enddefinitions $end"), std::string::npos);
}

}  // namespace
