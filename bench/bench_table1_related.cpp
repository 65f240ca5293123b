// T1 — paper Table 1: comparative analysis of FPGA-based SW architectures.
//
// Each related-work row is re-modelled on our substrate: the named device
// from the catalog, a PE with that design's feature set (score-only for
// [21]/[23]/[37], affine for [32], coordinate-tracking for ours), and the
// resource/frequency model deciding how many elements fit and how fast
// they clock. For every row we print the paper-reported figures alongside
// the model's GCUPS and the modelled time on that row's own workload —
// and we *functionally* spot-check each configuration by running a scaled
// (1/1000) version of its workload through the cycle-accurate array
// against the software oracle.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "align/gotoh.hpp"
#include "align/sw_linear.hpp"
#include "bench_util.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "host/scan_engine.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"

using namespace swr;
using namespace swr::core;

namespace {

struct Row {
  std::string article;
  std::string device_name;
  std::size_t query_len;
  std::size_t db_len;
  bool splicing;
  double reported_speedup;
  std::string baseline;
  bool alignment_output;  // Table 1's "Type Alignment" column
  bool affine;
  bool coords;          // our contribution: coordinates, not just score
  std::size_t fixed_pes;  // 0 = let the resource model pick the maximum
};

}  // namespace

int main() {
  bench::header("T1: comparative analysis of FPGA architectures (paper Table 1)");

  const std::vector<Row> rows = {
      // SAMBA's board had a fixed 128-PE systolic array.
      {"[21] SAMBA", "xcv1000", 3'000, 2'100'000, true, 83.0, "DEC 150MHz", false, false, false,
       128},
      {"[23] PROSIDIS", "xcv1000", 24, 2'000'000, false, 5.6, "PIII 1GHz", false, false, false, 0},
      {"[32] Anish", "xc2v6000", 1'512, 100'000, true, 170.0, "P4 1.6GHz", false, true, false, 0},
      {"[37] Yu et al.", "xcv2000e", 2'048, 64'000'000, true, 330.0, "PIII 1GHz", true, false,
       false, 0},
      // The paper's prototype instantiated 100 elements (Table 2).
      {"ours", "xc2vp70", 100, 10'000'000, true, 246.9, "P4 3GHz", false, false, true, 100},
  };

  std::printf("%-16s %-9s %9s/%-6s %5s %8s %5s %9s %10s %9s\n", "article", "FPGA", "query",
              "db", "PEs", "freq", "split", "GCUPS", "t_model(s)", "reported");
  bench::rule(100);

  const align::Scoring lin_sc = align::Scoring::paper_default();
  align::AffineScoring aff_sc;
  aff_sc.match = 2;
  aff_sc.mismatch = -1;
  aff_sc.gap_open = -2;
  aff_sc.gap_extend = -1;

  bool all_ok = true;
  for (const Row& r : rows) {
    const FpgaDevice& dev = device(r.device_name);
    PeFeatures pe{16, 32, r.coords, r.affine};
    const std::size_t npes =
        r.fixed_pes != 0 ? r.fixed_pes : std::min(max_elements(dev, pe), std::size_t{512});
    const ResourceEstimate est = estimate_resources(dev, npes, pe);
    const CyclePrediction p = predict_cycles(r.query_len, r.db_len, npes, true);
    const double t_model = cycles_to_seconds(p.total_cycles, est.freq_mhz);
    const double gcups =
        static_cast<double>(r.query_len) * static_cast<double>(r.db_len) / t_model / 1e9;

    std::printf("%-16s %-9s %9zu/%-6s %5zu %6.1fMHz %5s %9.2f %10.3f %6.1fx %s\n",
                r.article.c_str(), r.device_name.c_str(), r.query_len,
                r.db_len >= 1'000'000 ? (std::to_string(r.db_len / 1'000'000) + "M").c_str()
                                      : (std::to_string(r.db_len / 1'000) + "K").c_str(),
                npes, est.freq_mhz, r.splicing ? "yes" : "no", gcups, t_model,
                r.reported_speedup, r.baseline.c_str());

    // Functional spot check at 1/1000 scale (min sizes keep it meaningful).
    const std::size_t q_len = std::max<std::size_t>(r.query_len / 1000, 12);
    const std::size_t d_len = std::max<std::size_t>(r.db_len / 1000, 200);
    seq::RandomSequenceGenerator gen(1234);
    const seq::Sequence q = gen.uniform(seq::dna(), q_len);
    const seq::Sequence db = gen.uniform(seq::dna(), d_len);
    const std::size_t small_pes = std::min<std::size_t>(npes, 64);
    bool ok;
    if (r.affine) {
      ArrayController<AffinePe> ctl(small_pes, 16, aff_sc, 16u << 20, true, false);
      ok = ctl.run(q, db) == align::gotoh_local_score(db.codes(), q.codes(), aff_sc);
    } else {
      ArrayController<ScorePe> ctl(small_pes, 16, lin_sc, 16u << 20, true, false);
      ok = ctl.run(q, db) == align::sw_linear(db, q, lin_sc);
    }
    if (!ok) {
      std::printf("  !! functional spot-check FAILED for %s\n", r.article.c_str());
      all_ok = false;
    }
  }
  bench::rule(100);

  // The same "ours" workload shape on the host CPU scan engine: what a
  // plain software scan of Table 1's row achieves without the board. The
  // parallel run must reproduce the sequential hits exactly.
  bench::header("scan-engine GCUPS on the 'ours' workload shape (software, no board)");
  {
    const std::size_t n_records = bench::full_scale() ? 20'000 : 2'000;  // 500 BP each
    seq::RandomSequenceGenerator gen(77);
    seq::Sequence query = gen.uniform(seq::dna(), 100, "q");
    std::vector<seq::Sequence> db;
    db.reserve(n_records);
    for (std::size_t r = 0; r < n_records; ++r) {
      seq::Sequence rec = gen.uniform(seq::dna(), 500);
      if (r % 500 == 3) rec.append(seq::point_mutate(query, 0.05, gen.engine()));
      db.push_back(std::move(rec));
    }
    std::uint64_t cells = 0;
    for (const seq::Sequence& rec : db) cells += rec.size() * query.size();

    host::ScanOptions opt;
    opt.top_k = 5;
    opt.min_score = 20;
    const auto run_one = [&](const char* label, std::size_t threads,
                             std::optional<core::SimdIsa> simd) {
      host::ScanOptions o = opt;
      o.threads = threads;
      o.simd = simd;
      const bench::Timer t;
      const host::ScanResult r = host::scan_database_cpu(query, db, lin_sc, o);
      std::printf("  %-26s %8.3f GCUPS  (%zu hits)\n", label,
                  static_cast<double>(cells) / t.seconds() / 1e9, r.hits.size());
      return r;
    };
    const host::ScanResult seq_r = run_one("cpu scalar, 1 thread", 1, core::SimdIsa::Scalar);
    const host::ScanResult par_r = run_one("cpu auto(widest), 8 threads", 8, std::nullopt);
    bool same = seq_r.hits.size() == par_r.hits.size();
    for (std::size_t k = 0; same && k < seq_r.hits.size(); ++k) {
      same = seq_r.hits[k].record == par_r.hits[k].record &&
             seq_r.hits[k].result == par_r.hits[k].result;
    }
    if (!same) {
      std::printf("  !! parallel scan hits DIVERGE from sequential\n");
      all_ok = false;
    }
  }

  std::printf("notes: PEs/freq/GCUPS/t_model are this library's synthesis+timing model for each\n"
              "row's device and feature set; 'reported' is the speedup each paper claimed over\n"
              "its own software baseline (Table 1). Only 'ours' reports coordinates; [37]\n"
              "retrieves alignments on-chip; the rest emit scores only. Functional spot-checks\n"
              "at 1/1000 workload scale: %s.\n",
              all_ok ? "all OK" : "FAILURES (see above)");
  return all_ok ? 0 : 1;
}
