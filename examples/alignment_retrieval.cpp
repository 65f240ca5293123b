// alignment_retrieval: the complete §2.3 recipe on homologous genes —
// accelerator passes for the coordinates, banded window retrieval (or
// Hirschberg) on the host for the transcript, everything in linear space.
//
// Usage: ./examples/alignment_retrieval [gene_len]
//   default: 2000
#include <cstdio>
#include <cstdlib>

#include "align/banded.hpp"
#include "core/accelerator.hpp"
#include "host/pipeline.hpp"
#include "seq/workload.hpp"

using namespace swr;

int main(int argc, char** argv) {
  const std::size_t gene_len = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2'000;
  const align::Scoring sc = align::Scoring::paper_default();

  // Two descendants of one ancestral gene: ~6% substitutions, ~2% indels.
  seq::MutationModel mm;
  mm.substitution_rate = 0.06;
  mm.insertion_rate = 0.01;
  mm.deletion_rate = 0.01;
  const seq::HomologPair pair = seq::make_homolog_pair(gene_len, mm, 2024);
  std::printf("homologs: a=%zu BP, b=%zu BP (common ancestor %zu BP)\n", pair.a.size(),
              pair.b.size(), gene_len);

  core::SmithWatermanAccelerator acc(core::xc2vp70(), 100, sc);
  host::HostPipeline pipe(acc, host::PciConfig{});

  // query = b (resident in the PEs), database = a (streams through).
  const host::PipelineResult r = pipe.align(pair.b, pair.a);
  const align::LocalAlignment& al = r.alignment;

  std::printf("\nbest local alignment: score %d\n", al.score);
  std::printf("  a[%zu..%zu] vs b[%zu..%zu]  (%zu columns, %.1f%% identity)\n", al.begin.i,
              al.end.i, al.begin.j, al.end.j, al.cigar.columns(),
              align::cigar_identity(al.cigar) * 100.0);
  std::printf("  cigar: %s\n", al.cigar.to_string().c_str());
  std::printf("  divergence band needed to retrieve it (Z-align [3] style): %zu diagonals\n",
              align::required_band(al.cigar, al.begin));

  // Show the first columns of the alignment, figure-1 style.
  const std::size_t preview_cols = 30;
  align::Cigar head;
  std::size_t taken = 0;
  for (const align::EditRun& run : al.cigar.runs()) {
    if (taken >= preview_cols) break;
    const std::size_t len = std::min(run.len, preview_cols - taken);
    head.push(run.op, len);
    taken += len;
  }
  std::printf("\nfirst %zu columns:\n%s", taken,
              align::format_alignment(head, pair.a, pair.b, al.begin).c_str());

  std::printf("\nwhere the time went (modelled board + bus, measured host):\n");
  std::printf("  FPGA passes:   %.3f ms (%llu + %llu cycles)\n", r.timing.fpga_seconds * 1e3,
              static_cast<unsigned long long>(r.forward_stats.total_cycles),
              static_cast<unsigned long long>(r.reverse_stats.total_cycles));
  std::printf("  PCI transfers: %.3f ms (%llu bytes in, %llu bytes out)\n",
              r.timing.transfer_seconds * 1e3,
              static_cast<unsigned long long>(r.bytes_to_board),
              static_cast<unsigned long long>(r.bytes_from_board));
  std::printf("  host software: %.3f ms (anchored scan + window retrieval)\n",
              r.timing.host_seconds * 1e3);
  std::printf("memory: linear end to end — no cell of the %zu x %zu matrix was ever stored.\n",
              pair.a.size(), pair.b.size());
  return 0;
}
