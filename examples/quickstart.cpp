// Quickstart: the library in one file.
//
// Walks the paper's own running examples through the public API:
//   1. score an alignment (figure 1),
//   2. build & print the similarity matrix, best local alignment with
//      traceback (figure 2),
//   3. the same comparison on the cycle-accurate FPGA model — score AND
//      coordinates in linear space (the paper's contribution),
//   4. full alignment retrieval through the host pipeline (§2.3).
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "align/render.hpp"
#include "align/sw_full.hpp"
#include "core/accelerator.hpp"
#include "host/pipeline.hpp"

using namespace swr;

int main() {
  const align::Scoring sc = align::Scoring::paper_default();  // +1 / -1 / -2

  // --- 1. Sequences and scoring (figure 1) -------------------------------
  const seq::Sequence s = seq::Sequence::dna("TATGGAC", "s");
  const seq::Sequence t = seq::Sequence::dna("TAGTGACT", "t");
  std::printf("comparing s=%s with t=%s (match %+d, mismatch %+d, gap %+d)\n\n",
              s.to_string().c_str(), t.to_string().c_str(), sc.match, sc.mismatch, sc.gap);

  // --- 2. The similarity matrix and best local alignment (figure 2) ------
  const align::SimilarityMatrix m = align::sw_matrix(s, t, sc);
  const align::LocalAlignment best = align::sw_align(s, t, sc);
  std::printf("similarity matrix with predecessor arrows and traceback (paper figure 2;\n"
              "'\\' diagonal, '^' up, '<' left, '*' on the best path):\n%s\n",
              align::render_matrix_with_arrows(m, s, t, sc, &best).c_str());
  std::printf("best local alignment: score %d, s[%zu..%zu] vs t[%zu..%zu], cigar %s\n",
              best.score, best.begin.i, best.end.i, best.begin.j, best.end.j,
              best.cigar.to_string().c_str());
  std::printf("%s\n", align::format_alignment(best.cigar, s, t, best.begin).c_str());

  // --- 3. The same job on the reconfigurable accelerator ------------------
  // 100 processing elements synthesized (in the model) for the paper's
  // Xilinx xc2vp70. Convention: the query lives in the PEs (columns), the
  // database streams through (rows).
  core::SmithWatermanAccelerator acc(core::xc2vp70(), 100, sc);
  const core::JobResult job = acc.run(/*query=*/s, /*db=*/t);
  std::printf("accelerator (%zu PEs @ %.1f MHz): score %d at (db row %zu, query col %zu)\n",
              acc.num_pes(), acc.freq_mhz(), job.best.score, job.best.end.i, job.best.end.j);
  std::printf("  %llu cycles, %llu passes, modelled time %.2f us\n",
              static_cast<unsigned long long>(job.stats.total_cycles),
              static_cast<unsigned long long>(job.stats.passes), job.seconds * 1e6);

  // --- 4. Full retrieval through the host pipeline (paper §2.3) ----------
  host::HostPipeline pipe(acc, host::PciConfig{});
  const host::PipelineResult r = pipe.align(/*query=*/s, /*db=*/t);
  std::printf("\nhost pipeline (forward pass -> reverse pass -> window retrieval):\n");
  std::printf("  alignment db[%zu..%zu] vs query[%zu..%zu], score %d\n", r.alignment.begin.i,
              r.alignment.end.i, r.alignment.begin.j, r.alignment.end.j, r.alignment.score);
  std::printf("  bytes to board: %llu, bytes back: %llu (the paper's 'few bytes over PCI')\n",
              static_cast<unsigned long long>(r.bytes_to_board),
              static_cast<unsigned long long>(r.bytes_from_board));
  return 0;
}
