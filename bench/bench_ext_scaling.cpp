// EXT — extension experiments beyond the paper's own evaluation:
//   (a) multi-board database partitioning (the conclusion's cluster
//       integration), scaling curve with boundary-straddling hits;
//   (b) Z-align-style restricted-memory retrieval: band found vs memory
//       budget vs the hypothetical full matrix;
//   (c) near-best enumeration throughput (the [6] workload).
// Each row is functionally verified against the software oracles.
#include <cstdio>

#include "align/near_best.hpp"
#include "align/sw_linear.hpp"
#include "bench_util.hpp"
#include "core/multiboard.hpp"
#include "par/zalign.hpp"
#include "seq/workload.hpp"

using namespace swr;

namespace {

int bench_multiboard() {
  const align::Scoring sc = align::Scoring::paper_default();
  seq::PlantedWorkloadSpec spec;
  spec.query_len = 100;
  spec.database_len = swr::bench::full_scale() ? 400'000 : 120'000;
  spec.plant_offset = spec.database_len / 2 - 50;  // straddles the 2-board split
  spec.seed = 99;
  const seq::PlantedWorkload wl = seq::make_planted_workload(spec);
  const align::LocalScoreResult oracle = align::sw_linear(wl.database, wl.query, sc);

  bench::header("EXT-a: multi-board scaling (conclusion's cluster integration)");
  std::printf("workload: %zu BP query vs %zu BP database, hit straddling the first split\n\n",
              spec.query_len, spec.database_len);
  std::printf("%-8s %14s %10s %10s %7s\n", "boards", "time (ms)", "speedup", "sum cyc", "check");
  bench::rule(56);
  double t1 = 0.0;
  for (const std::size_t nb : {1u, 2u, 4u, 8u}) {
    core::BoardFleet fleet = core::make_board_fleet({.boards = nb, .pes_per_board = 100}, sc);
    const core::MultiBoardResult r = core::multiboard_run(fleet, wl.query, wl.database);
    if (nb == 1) t1 = r.seconds;
    const bool ok = r.best == oracle;
    std::printf("%-8zu %14.3f %10.2f %9.1fM %7s\n", nb, r.seconds * 1e3, t1 / r.seconds,
                static_cast<double>(r.total_cycles) / 1e6, ok ? "OK" : "MISMATCH");
    if (!ok) return 1;
  }
  bench::rule(56);
  std::printf("expected shape: near-linear wall-time scaling; total cycles grow slightly with\n"
              "the overlap margin each extra board re-scans.\n");
  return 0;
}

int bench_zalign() {
  const align::Scoring sc = align::Scoring::paper_default();
  bench::header("EXT-b: Z-align-style restricted-memory retrieval ([3])");
  std::printf("%-12s %10s %8s %14s %16s %9s\n", "homolog BP", "mode", "band", "cells stored",
              "full matrix", "check");
  bench::rule(76);
  for (const std::size_t len : {1'000u, 4'000u, 16'000u}) {
    seq::MutationModel mm;
    mm.substitution_rate = 0.05;
    mm.insertion_rate = 0.01;
    mm.deletion_rate = 0.01;
    const seq::HomologPair pair = seq::make_homolog_pair(len, mm, 1000 + len);
    par::ZAlignOptions opt;
    opt.wavefront.threads = 4;
    const par::ZAlignResult z = par::zalign(pair.a, pair.b, sc, opt);
    const align::Score oracle = align::sw_linear(pair.a, pair.b, sc).score;
    const bool ok = z.alignment.score == oracle;
    std::printf("%-12zu %10s %8zu %14zu %16.0f %9s\n", len,
                z.mode == par::RetrievalMode::Banded ? "banded" : "hirschberg", z.band,
                z.retrieval_cells,
                static_cast<double>(pair.a.size()) * static_cast<double>(pair.b.size()),
                ok ? "OK" : "MISMATCH");
    if (!ok) return 1;
  }
  bench::rule(76);
  return 0;
}

int bench_near_best() {
  const align::Scoring sc = align::Scoring::paper_default();
  bench::header("EXT-c: near-best non-overlapping alignments ([6])");
  seq::RandomSequenceGenerator gen(77);
  const seq::Sequence query = gen.uniform(seq::dna(), 80, "q");
  seq::Sequence db = gen.uniform(seq::dna(), 5'000);
  std::size_t plants = 0;
  for (int k = 0; k < 5; ++k) {
    db.append(seq::point_mutate(query, 0.02 * (k + 1), gen.engine()));
    db.append(gen.uniform(seq::dna(), 5'000));
    ++plants;
  }

  align::NearBestOptions opt;
  opt.max_alignments = 8;
  opt.min_score = 30;
  bench::Timer t;
  const auto set = align::near_best_alignments(db, query, sc, opt);
  const double s = t.seconds();
  std::printf("database %zu BP with %zu planted homologs: found %zu alignments in %.3f s\n",
              db.size(), plants, set.size(), s);
  for (std::size_t k = 0; k < set.size(); ++k) {
    std::printf("  #%zu score %3d  db[%zu..%zu]  identity %.0f%%\n", k + 1, set[k].score,
                set[k].begin.i, set[k].end.i, align::cigar_identity(set[k].cigar) * 100.0);
  }
  return set.size() >= plants ? 0 : 1;
}

}  // namespace

int main() {
  if (const int rc = bench_multiboard(); rc != 0) return rc;
  if (const int rc = bench_zalign(); rc != 0) return rc;
  return bench_near_best();
}
