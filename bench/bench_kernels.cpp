// K — kernel microbenchmarks (google-benchmark): CUPS of every software
// aligner and of the cycle-accurate hardware model. Supporting data for
// E1/F3 and for the README performance table.
//
// Before the microbenches run, main() executes the scan-engine comparison:
// the Table-1 workload (100 BP query vs a planted-homolog database)
// scanned sequentially through the accelerator model and through
// scan_database_cpu at every SIMD tier and several thread counts. The
// GCUPS table is printed and dumped machine-readably to BENCH_scan.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "align/banded.hpp"
#include "align/gotoh.hpp"
#include "align/hirschberg.hpp"
#include "align/local_linear.hpp"
#include "align/nw.hpp"
#include "align/sw_antidiag.hpp"
#include "align/sw_antidiag8.hpp"
#include "align/sw_full.hpp"
#include "align/sw_linear.hpp"
#include "align/sw_profile.hpp"
#include "align/sw_striped.hpp"
#include "bench_util.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/multiboard.hpp"
#include "core/performance_model.hpp"
#include "core/topology.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/fleet_scan.hpp"
#include "host/pci.hpp"
#include "host/record_source.hpp"
#include "host/scan_engine.hpp"
#include "hw/sched.hpp"
#include "obs/metrics.hpp"
#include "par/wavefront.hpp"
#include "retrieve/traceback.hpp"
#include "seq/fasta.hpp"
#include "seq/mutate.hpp"
#include "seq/packed.hpp"
#include "seq/random.hpp"
#include "svc/net/client.hpp"
#include "svc/net/server.hpp"
#include "svc/scan_service.hpp"

namespace {

using namespace swr;

const align::Scoring kSc = align::Scoring::paper_default();

seq::Sequence make_dna(std::size_t n, std::uint64_t seed) {
  seq::RandomSequenceGenerator gen(seed);
  return gen.uniform(seq::dna(), n);
}

void report_cups(benchmark::State& state, std::size_t m, std::size_t n) {
  state.counters["CUPS"] = benchmark::Counter(
      static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SwLinear(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(100'000, 1);
  const seq::Sequence b = make_dna(m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::sw_linear(a, b, kSc));
  }
  report_cups(state, a.size(), b.size());
}
BENCHMARK(BM_SwLinear)->Arg(50)->Arg(100)->Arg(400);

void BM_SwProfiled(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(100'000, 1);
  const seq::Sequence b = make_dna(m, 2);
  const align::QueryProfile profile(b, kSc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::sw_linear_profiled(a.codes(), profile));
  }
  report_cups(state, a.size(), b.size());
}
BENCHMARK(BM_SwProfiled)->Arg(100)->Arg(400);

void BM_SwAntiDiagSwar(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(100'000, 1);
  const seq::Sequence b = make_dna(m, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::sw_linear_antidiag(a, b, kSc));
  }
  report_cups(state, a.size(), b.size());
}
BENCHMARK(BM_SwAntiDiagSwar)->Arg(100)->Arg(400);

void BM_SwFullMatrix(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(n, 3);
  const seq::Sequence b = make_dna(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::sw_matrix(a, b, kSc));
  }
  report_cups(state, n, n);
}
BENCHMARK(BM_SwFullMatrix)->Arg(256)->Arg(1024);

void BM_NwScore(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(n, 5);
  const seq::Sequence b = make_dna(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::nw_score(a.codes(), b.codes(), kSc));
  }
  report_cups(state, n, n);
}
BENCHMARK(BM_NwScore)->Arg(1024);

void BM_Hirschberg(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(n, 7);
  const seq::Sequence b = make_dna(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::hirschberg_cigar(a.codes(), b.codes(), kSc));
  }
  report_cups(state, n, n);  // ~2x the cells of one pass, reported as-is
}
BENCHMARK(BM_Hirschberg)->Arg(1024);

void BM_GotohLinear(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(n, 9);
  const seq::Sequence b = make_dna(200, 10);
  align::AffineScoring sc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::gotoh_local_score(a.codes(), b.codes(), sc));
  }
  report_cups(state, n, 200);
}
BENCHMARK(BM_GotohLinear)->Arg(20'000);

void BM_BandedSw(benchmark::State& state) {
  const std::size_t band = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(20'000, 11);
  const seq::Sequence b = make_dna(20'000, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::banded_sw(a.codes(), b.codes(), band, kSc));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(a.size()) * static_cast<double>(2 * band + 1) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BandedSw)->Arg(16)->Arg(128);

void BM_Wavefront(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(4'000, 13);
  const seq::Sequence b = make_dna(4'000, 14);
  par::WavefrontConfig cfg;
  cfg.threads = threads;
  cfg.row_block = 512;
  for (auto _ : state) {
    benchmark::DoNotOptimize(par::wavefront_sw(a, b, kSc, cfg));
  }
  report_cups(state, a.size(), b.size());
}
BENCHMARK(BM_Wavefront)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_CycleAccurateArray(benchmark::State& state) {
  // Simulation throughput of the functional hardware model itself
  // (PE-cycles per second) — the cost of cycle accuracy.
  const std::size_t npes = static_cast<std::size_t>(state.range(0));
  const seq::Sequence q = make_dna(npes, 15);
  const seq::Sequence db = make_dna(20'000, 16);
  core::ArrayController<core::ScorePe> ctl(npes, 16, kSc, 16u << 20, true, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctl.run(q, db));
  }
  report_cups(state, q.size(), db.size());
}
BENCHMARK(BM_CycleAccurateArray)->Arg(25)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_PackedDnaRoundTrip(benchmark::State& state) {
  const seq::Sequence s = make_dna(1'000'000, 17);
  for (auto _ : state) {
    const seq::PackedDna p(s);
    benchmark::DoNotOptimize(p.storage_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_PackedDnaRoundTrip);

void BM_LocalAlignRetrieval(benchmark::State& state) {
  // Full §2.3 pipeline in software (forward + reverse + anchored +
  // Hirschberg) on a planted hit.
  const seq::Sequence a = make_dna(50'000, 18);
  seq::Sequence db = a.subsequence(0, 20'000);
  db.append(make_dna(100, 19));
  db.append(a.subsequence(20'000, 30'000));
  const seq::Sequence q = a.subsequence(30'000, 120);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::local_align_linear(db, q, kSc));
  }
  report_cups(state, db.size(), q.size());
}
BENCHMARK(BM_LocalAlignRetrieval)->Unit(benchmark::kMillisecond);

// ---- scan-engine comparison (printed + BENCH_scan.json) ------------------

// The Table-1-style scan workload: 100 BP query, database of 500 BP
// records with a handful of diverged query copies planted. Default 1 MBP;
// SWR_FULL=1 scales to the paper's 10 MBP.
struct ScanWorkload {
  seq::Sequence query;
  std::vector<seq::Sequence> records;
  std::uint64_t cells = 0;  ///< |query| * sum |record|
};

ScanWorkload make_scan_workload() {
  ScanWorkload w;
  const std::size_t n_records = bench::full_scale() ? 20'000 : 2'000;
  seq::RandomSequenceGenerator gen(2024);
  w.query = gen.uniform(seq::dna(), 100, "q");
  w.records.reserve(n_records);
  for (std::size_t r = 0; r < n_records; ++r) {
    seq::Sequence rec = gen.uniform(seq::dna(), 500, "rec" + std::to_string(r));
    if (r % 400 == 17) rec.append(seq::point_mutate(w.query, 0.05, gen.engine()));
    w.records.push_back(std::move(rec));
    w.cells += static_cast<std::uint64_t>(w.records.back().size()) * w.query.size();
  }
  return w;
}

struct ScanRow {
  std::string name;
  std::string engine;  // "accel_model" | "cpu"
  std::size_t threads = 0;
  std::string simd;
  double seconds = 0.0;
  double gcups = 0.0;
};

void write_scan_json(const ScanWorkload& w, const std::vector<ScanRow>& rows,
                     double speedup_vs_seq_baseline, double speedup_vs_cpu_scalar) {
  std::ofstream js("BENCH_scan.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"workload\": {\"query_len\": " << w.query.size()
     << ", \"records\": " << w.records.size() << ", \"cells\": " << w.cells << "},\n";
  js << "  \"rows\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const ScanRow& r = rows[k];
    js << "    {\"name\": \"" << r.name << "\", \"engine\": \"" << r.engine
       << "\", \"threads\": " << r.threads << ", \"simd\": \"" << r.simd
       << "\", \"seconds\": " << r.seconds << ", \"gcups\": " << r.gcups << "}"
       << (k + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"speedup_par8_vs_seq_baseline\": " << speedup_vs_seq_baseline << ",\n";
  js << "  \"speedup_par8_vs_cpu_scalar\": " << speedup_vs_cpu_scalar << "\n}\n";
}

void run_scan_comparison() {
  bench::header("scan engines: sequential accel model vs parallel CPU (GCUPS)");
  const ScanWorkload w = make_scan_workload();
  std::printf("workload: %zu BP query, %zu records, %.1f MBP database (%s)\n", w.query.size(),
              w.records.size(), static_cast<double>(w.cells) / w.query.size() / 1e6,
              bench::full_scale() ? "SWR_FULL" : "default; SWR_FULL=1 for 10 MBP");

  host::ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 20;
  std::vector<ScanRow> rows;

  // Sequential baseline: the seed scan path — every record simulated
  // cycle-accurately on the 100-PE accelerator model. Measured on a
  // subset (it is orders of magnitude slower), rate extrapolates.
  {
    const std::size_t subset = std::min<std::size_t>(w.records.size(), 20);
    const std::vector<seq::Sequence> sub(w.records.begin(),
                                         w.records.begin() + static_cast<std::ptrdiff_t>(subset));
    core::SmithWatermanAccelerator acc(core::xc2vp70(), w.query.size(), kSc);
    const bench::Timer t;
    const host::ScanResult r = host::scan_database(acc, w.query, sub, opt);
    const double sub_s = t.seconds();
    const double full_s = sub_s * static_cast<double>(w.cells) / static_cast<double>(r.cell_updates);
    rows.push_back({"seq accel model (extrapolated)", "accel_model", 1, "n/a", full_s,
                    static_cast<double>(w.cells) / full_s / 1e9});
  }

  const auto cpu_row = [&](const std::string& name, std::size_t threads,
                           std::optional<core::SimdIsa> simd) {
    host::ScanOptions o = opt;
    o.threads = threads;
    o.simd = simd;
    const bench::Timer t;
    const host::ScanResult r = host::scan_database_cpu(w.query, w.records, kSc, o);
    const double s = t.seconds();
    benchmark::DoNotOptimize(&r);
    rows.push_back({name, "cpu", threads, simd ? core::simd_isa_name(*simd) : "auto", s,
                    static_cast<double>(w.cells) / s / 1e9});
  };
  cpu_row("cpu scalar, 1 thread", 1, core::SimdIsa::Scalar);
  if (core::cpu_supports(core::SimdIsa::Sse41)) {
    cpu_row("cpu sse41(16-lane), 1 thread", 1, core::SimdIsa::Sse41);
  }
  if (core::cpu_supports(core::SimdIsa::Avx2)) {
    cpu_row("cpu avx2(32-lane), 1 thread", 1, core::SimdIsa::Avx2);
  }
  for (const std::size_t threads : {2u, 4u, 8u}) {
    cpu_row("cpu auto(widest), " + std::to_string(threads) + " threads", threads, std::nullopt);
  }

  std::printf("%-34s %8s %7s %10s %10s\n", "engine", "threads", "simd", "seconds", "GCUPS");
  bench::rule(74);
  for (const ScanRow& r : rows) {
    std::printf("%-34s %8zu %7s %10.4f %10.3f\n", r.name.c_str(), r.threads, r.simd.c_str(),
                r.seconds, r.gcups);
  }
  bench::rule(74);

  const ScanRow& par8 = rows.back();  // auto policy, 8 threads
  const double vs_seq = rows[0].seconds / par8.seconds;
  const double vs_scalar = rows[1].seconds / par8.seconds;
  std::printf("parallel 8-thread engine vs sequential accel-model scan: %.1fx\n", vs_seq);
  std::printf("parallel 8-thread engine vs cpu scalar 1-thread:         %.2fx\n", vs_scalar);
  write_scan_json(w, rows, vs_seq, vs_scalar);
  std::printf("machine-readable dump: BENCH_scan.json\n");
}

// ---- striped-vs-scalar kernel comparison (BENCH_simd.json) ----------------

// Single-thread GCUPS of every SIMD tier on the standard DNA scan
// workload — thread scaling is deliberately excluded so this isolates the
// lane-count lever (the paper's "cells per clock"). The headline number is
// the widest striped kernel against the scalar query-profile kernel, the
// portable fallback every machine runs.
void run_simd_comparison() {
  bench::header("SIMD kernel ladder: striped SSE4.1/AVX2 vs scalar (1 thread, GCUPS)");
  const ScanWorkload w = make_scan_workload();
  std::printf("detected ISA: %s  (SWR_SIMD/--simd override; striped compiled: %s)\n",
              core::simd_isa_name(core::detected_simd_isa()),
              align::sw_striped_compiled() ? "yes" : "no");

  host::ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 20;
  opt.threads = 1;

  struct SimdRow {
    std::string simd;
    unsigned lanes8 = 0;
    double seconds = 0.0;
    double gcups = 0.0;
  };
  std::vector<SimdRow> rows;
  const auto measure = [&](core::SimdIsa isa, unsigned lanes8) {
    host::ScanOptions o = opt;
    o.simd = isa;
    double best_s = 1e100;
    for (int rep = 0; rep < 3; ++rep) {  // min-of-3: the noise-free estimate
      const bench::Timer t;
      const host::ScanResult r = host::scan_database_cpu(w.query, w.records, kSc, o);
      benchmark::DoNotOptimize(&r);
      best_s = std::min(best_s, t.seconds());
    }
    rows.push_back({core::simd_isa_name(isa), lanes8, best_s,
                    static_cast<double>(w.cells) / best_s / 1e9});
  };
  measure(core::SimdIsa::Scalar, 1);
  if (core::cpu_supports(core::SimdIsa::Sse41)) measure(core::SimdIsa::Sse41, 16);
  if (core::cpu_supports(core::SimdIsa::Avx2)) measure(core::SimdIsa::Avx2, 32);

  const SimdRow& scalar = rows.front();
  std::printf("%-8s %7s %10s %10s %14s\n", "simd", "lanes", "seconds", "GCUPS", "vs scalar");
  bench::rule(54);
  for (const SimdRow& r : rows) {
    std::printf("%-8s %7u %10.4f %10.3f %13.2fx\n", r.simd.c_str(), r.lanes8, r.seconds,
                r.gcups, r.gcups / scalar.gcups);
  }
  bench::rule(54);
  const SimdRow& widest = rows.back();
  const double speedup = widest.gcups / scalar.gcups;
  std::printf("widest (%s) vs scalar: %.2fx GCUPS\n", widest.simd.c_str(), speedup);

  std::ofstream js("BENCH_simd.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"workload\": {\"query_len\": " << w.query.size()
     << ", \"records\": " << w.records.size() << ", \"cells\": " << w.cells << "},\n";
  js << "  \"detected_isa\": \"" << core::simd_isa_name(core::detected_simd_isa()) << "\",\n";
  js << "  \"rows\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const SimdRow& r = rows[k];
    js << "    {\"simd\": \"" << r.simd << "\", \"lanes8\": " << r.lanes8
       << ", \"threads\": 1, \"seconds\": " << r.seconds << ", \"gcups\": " << r.gcups
       << ", \"speedup_vs_scalar\": " << r.gcups / scalar.gcups << "}"
       << (k + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"widest_simd\": \"" << widest.simd << "\",\n";
  js << "  \"speedup_widest_vs_scalar\": " << speedup << "\n}\n";
  std::printf("machine-readable dump: BENCH_simd.json\n");
}

// ---- kernel-shape comparison (BENCH_interseq.json) ------------------------

// Inter-sequence vs striped, single thread, store-backed so the
// interseq path feeds from the length-sorted schedule order. Two database
// shapes: length-uniform (every record 500 BP — striped's best case, since
// no lane padding varies) and length-skewed (50..2000 BP — where interseq's
// lane refill has to earn its keep). The committed run must show interseq
// at or above the striped tier on both.
void run_interseq_comparison() {
  bench::header("kernel shapes: interseq vs striped (1 thread, store-backed, GCUPS)");
  if (!core::cpu_supports(core::SimdIsa::Sse41)) {
    std::printf("no native SIMD on this host; interseq unavailable, skipping\n");
    return;
  }
  seq::RandomSequenceGenerator gen(4096);
  const seq::Sequence query = gen.uniform(seq::dna(), 100, "q");
  const std::size_t n_records = bench::full_scale() ? 20'000 : 2'000;

  struct ShapeRow {
    std::string kernel;
    std::string simd;
    double seconds = 0.0;
    double gcups = 0.0;
  };
  struct DbCase {
    std::string shape;
    std::size_t records = 0;
    std::uint64_t cells = 0;
    std::vector<ShapeRow> rows;
    double interseq_vs_striped = 0.0;
  };
  std::vector<DbCase> cases;

  const auto run_case = [&](const std::string& shape,
                            const std::vector<seq::Sequence>& records) {
    DbCase c;
    c.shape = shape;
    c.records = records.size();
    for (const seq::Sequence& r : records) {
      c.cells += static_cast<std::uint64_t>(r.size()) * query.size();
    }
    const std::string path = "BENCH_interseq_" + shape + ".swdb";
    db::build_store(records, path);
    const db::Store store = db::Store::open(path);

    const auto measure = [&](const std::string& name, host::KernelShape k) {
      host::ScanOptions o;
      o.top_k = 10;
      o.min_score = 20;
      o.threads = 1;
      o.kernel = k;
      double best_s = 1e100;
      for (int rep = 0; rep < 3; ++rep) {  // min-of-3: the noise-free estimate
        const bench::Timer t;
        const host::ScanResult r = host::scan_database_cpu(query, store, kSc, o);
        benchmark::DoNotOptimize(&r);
        best_s = std::min(best_s, t.seconds());
      }
      c.rows.push_back({name, "auto", best_s, static_cast<double>(c.cells) / best_s / 1e9});
    };
    measure("striped", host::KernelShape::Striped);
    measure("interseq", host::KernelShape::InterSeq);
    c.interseq_vs_striped = c.rows[1].gcups / c.rows[0].gcups;
    cases.push_back(std::move(c));
    std::remove(path.c_str());
  };

  {
    std::vector<seq::Sequence> uniform;
    uniform.reserve(n_records);
    for (std::size_t r = 0; r < n_records; ++r) {
      uniform.push_back(gen.uniform(seq::dna(), 500, "u" + std::to_string(r)));
    }
    run_case("uniform", uniform);
  }
  {
    // Log-ish spread 50..2000 BP: most records short, a heavy tail of
    // long ones — the shape real protein/EST databases have.
    std::vector<seq::Sequence> skewed;
    skewed.reserve(n_records);
    for (std::size_t r = 0; r < n_records; ++r) {
      const std::size_t len = 50 + (r * r * 977 + r * 131) % 1951;
      skewed.push_back(gen.uniform(seq::dna(), len, "s" + std::to_string(r)));
    }
    run_case("skewed", skewed);
  }

  bool interseq_ge_striped = true;
  for (const DbCase& c : cases) {
    std::printf("database: %s (%zu records, %.1f MBP)\n", c.shape.c_str(), c.records,
                static_cast<double>(c.cells) / query.size() / 1e6);
    std::printf("  %-10s %7s %10s %10s %14s\n", "kernel", "simd", "seconds", "GCUPS",
                "vs striped");
    bench::rule(58);
    for (const ShapeRow& r : c.rows) {
      std::printf("  %-10s %7s %10.4f %10.3f %13.2fx\n", r.kernel.c_str(), r.simd.c_str(),
                  r.seconds, r.gcups, r.gcups / c.rows[0].gcups);
    }
    bench::rule(58);
    if (c.interseq_vs_striped < 1.0) interseq_ge_striped = false;
  }
  std::printf("interseq >= striped on every database shape: %s\n",
              interseq_ge_striped ? "yes" : "NO");

  std::ofstream js("BENCH_interseq.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"query_len\": " << query.size() << ",\n";
  js << "  \"simd\": \"" << core::simd_isa_name(core::detected_simd_isa()) << "\",\n";
  js << "  \"databases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const DbCase& c = cases[i];
    js << "    {\"shape\": \"" << c.shape << "\", \"records\": " << c.records
       << ", \"cells\": " << c.cells << ", \"rows\": [\n";
    for (std::size_t k = 0; k < c.rows.size(); ++k) {
      const ShapeRow& r = c.rows[k];
      js << "      {\"kernel\": \"" << r.kernel << "\", \"simd\": \"" << r.simd
         << "\", \"threads\": 1, \"seconds\": " << r.seconds << ", \"gcups\": " << r.gcups
         << "}" << (k + 1 < c.rows.size() ? "," : "") << "\n";
    }
    js << "    ], \"interseq_vs_striped\": " << c.interseq_vs_striped << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"interseq_ge_striped\": " << (interseq_ge_striped ? "true" : "false") << "\n}\n";
  std::printf("machine-readable dump: BENCH_interseq.json\n");
}

// ---- seeded prefilter comparison (BENCH_filter.json) ---------------------

// `--filter exact` vs `--filter seeded` end to end on low-homology
// databases: random background with ~1% planted mutant copies of the
// query, the regime the two-stage funnel is built for. The seeded run
// must report the exact hit set (recall parity is asserted here, not just
// eyeballed) while rejecting almost every background record after the
// ungapped SWAR prescreen. Effective GCUPS charges both modes for the
// full domain, so the ratio IS the end-to-end speedup. CI runs
// `bench_kernels --filter-only`; a parity break exits non-zero.
int run_filter_comparison() {
  bench::header("seeded prefilter: --filter exact vs seeded (store-backed, 1 thread)");
  seq::RandomSequenceGenerator gen(8192);
  const seq::Sequence query = gen.uniform(seq::dna(), 100, "q");
  const std::size_t n_records = bench::full_scale() ? 20'000 : 2'000;

  struct FilterCase {
    std::string shape;
    std::size_t records = 0;
    std::size_t planted = 0;
    std::uint64_t cells = 0;
    double exact_s = 0.0;
    double seeded_s = 0.0;
    double speedup = 0.0;
    double reject_pct = 0.0;
    std::uint64_t rescored = 0;
    std::uint64_t rejected = 0;
    std::uint64_t candidates = 0;
    std::uint64_t recall_guard = 0;
    std::size_t hits = 0;
    bool parity = false;
  };
  std::vector<FilterCase> cases;

  host::ScanOptions opt;
  opt.top_k = n_records;  // every hit visible: parity over the full set
  opt.min_score = 50;
  opt.threads = 1;

  const auto run_case = [&](const std::string& shape,
                            std::vector<seq::Sequence> records) {
    FilterCase c;
    c.shape = shape;
    // Plant ~1% mutant homologs (4% divergence): a low-homology database.
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (r % 97 == 13) {
        records[r].append(seq::point_mutate(query, 0.04, gen.engine()));
        ++c.planted;
      }
    }
    c.records = records.size();
    for (const seq::Sequence& r : records) {
      c.cells += static_cast<std::uint64_t>(r.size()) * query.size();
    }
    const std::string path = "BENCH_filter_" + shape + ".swdb";
    db::build_store(records, path);
    const db::Store store = db::Store::open(path);

    const auto measure = [&](host::FilterMode mode, host::ScanResult& out) {
      host::ScanOptions o = opt;
      o.filter = mode;
      double best_s = 1e100;
      for (int rep = 0; rep < 3; ++rep) {  // min-of-3: the noise-free estimate
        const bench::Timer t;
        host::ScanResult r = host::scan_database_cpu(query, store, kSc, o);
        benchmark::DoNotOptimize(&r);
        if (t.seconds() < best_s) {
          best_s = t.seconds();
        }
        out = std::move(r);
      }
      return best_s;
    };
    host::ScanResult exact;
    host::ScanResult seeded;
    c.exact_s = measure(host::FilterMode::Exact, exact);
    c.seeded_s = measure(host::FilterMode::Seeded, seeded);
    c.speedup = c.exact_s / c.seeded_s;
    c.rescored = seeded.filter_rescored;
    c.rejected = seeded.filter_rejected;
    c.candidates = seeded.filter_candidates;
    c.recall_guard = seeded.filter_recall_guard;
    c.reject_pct = 100.0 * static_cast<double>(c.rejected) /
                   static_cast<double>(c.records);
    c.hits = exact.hits.size();
    // Recall parity: identical hit lists, record for record.
    c.parity = seeded.hits.size() == exact.hits.size();
    for (std::size_t k = 0; c.parity && k < exact.hits.size(); ++k) {
      c.parity = seeded.hits[k].record == exact.hits[k].record &&
                 seeded.hits[k].result == exact.hits[k].result;
    }
    cases.push_back(std::move(c));
    std::remove(path.c_str());
  };

  {
    std::vector<seq::Sequence> uniform;
    uniform.reserve(n_records);
    for (std::size_t r = 0; r < n_records; ++r) {
      uniform.push_back(gen.uniform(seq::dna(), 500, "u" + std::to_string(r)));
    }
    run_case("uniform", std::move(uniform));
  }
  {
    // Same length spread as the interseq bench: short-heavy with a long
    // tail, the shape real databases have.
    std::vector<seq::Sequence> skewed;
    skewed.reserve(n_records);
    for (std::size_t r = 0; r < n_records; ++r) {
      const std::size_t len = 50 + (r * r * 977 + r * 131) % 1951;
      skewed.push_back(gen.uniform(seq::dna(), len, "s" + std::to_string(r)));
    }
    run_case("skewed", std::move(skewed));
  }

  bool all_parity = true;
  double min_speedup = 1e100;
  for (const FilterCase& c : cases) {
    std::printf("database: %s (%zu records, %zu planted, %.1f MBP)\n", c.shape.c_str(),
                c.records, c.planted, static_cast<double>(c.cells) / query.size() / 1e6);
    std::printf("  %-8s %10s %10s %10s %10s\n", "filter", "seconds", "GCUPS", "hits",
                "rejected");
    bench::rule(54);
    std::printf("  %-8s %10.4f %10.3f %10zu %10s\n", "exact", c.exact_s,
                static_cast<double>(c.cells) / c.exact_s / 1e9, c.hits, "-");
    std::printf("  %-8s %10.4f %10.3f %10zu %9.1f%%\n", "seeded", c.seeded_s,
                static_cast<double>(c.cells) / c.seeded_s / 1e9, c.hits, c.reject_pct);
    bench::rule(54);
    std::printf("  speedup %.2fx, %llu rescored (%llu guards), recall parity: %s\n",
                c.speedup, static_cast<unsigned long long>(c.rescored),
                static_cast<unsigned long long>(c.recall_guard),
                c.parity ? "yes" : "BROKEN");
    all_parity = all_parity && c.parity;
    min_speedup = std::min(min_speedup, c.speedup);
  }

  std::ofstream js("BENCH_filter.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"query_len\": " << query.size() << ",\n";
  js << "  \"simd\": \"" << core::simd_isa_name(core::detected_simd_isa()) << "\",\n";
  js << "  \"min_score\": " << opt.min_score << ",\n";
  js << "  \"databases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FilterCase& c = cases[i];
    js << "    {\"shape\": \"" << c.shape << "\", \"records\": " << c.records
       << ", \"planted\": " << c.planted << ", \"cells\": " << c.cells << ",\n";
    js << "     \"exact\": {\"seconds\": " << c.exact_s
       << ", \"gcups\": " << static_cast<double>(c.cells) / c.exact_s / 1e9 << "},\n";
    js << "     \"seeded\": {\"seconds\": " << c.seeded_s
       << ", \"gcups\": " << static_cast<double>(c.cells) / c.seeded_s / 1e9
       << ", \"candidates\": " << c.candidates << ", \"rescored\": " << c.rescored
       << ", \"rejected\": " << c.rejected << ", \"recall_guard\": " << c.recall_guard
       << "},\n";
    js << "     \"hits\": " << c.hits << ", \"reject_pct\": " << c.reject_pct
       << ", \"speedup\": " << c.speedup << ", \"recall_parity\": "
       << (c.parity ? "true" : "false") << "}" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"recall_parity\": " << (all_parity ? "true" : "false") << ",\n";
  js << "  \"min_speedup\": " << min_speedup << "\n}\n";
  std::printf("machine-readable dump: BENCH_filter.json\n");
  if (!all_parity) {
    std::printf("FAIL: seeded hit set differs from exact\n");
    return 1;
  }
  return 0;
}

// ---- alignment retrieval comparison (BENCH_retrieve.json) ----------------

// The §2.3 retrieval pipeline end to end: (a) traceback cost as a function
// of --max-hits K on the standard scan workload (scan-only vs scan+align,
// so the delta IS the retrieval phase), and (b) peak working memory of
// one traceback against the full-DP matrix a classic traceback would
// store, across growing alignment windows. CI runs `bench_kernels
// --retrieve-only`; a replay divergence (traceback_hit throws) or a
// super-linear peak exits non-zero.
int run_retrieve_comparison() {
  bench::header("alignment retrieval: traceback cost vs K (scan-only baseline)");
  const ScanWorkload w = make_scan_workload();

  host::ScanOptions base;
  base.top_k = 32;
  base.min_score = 50;
  base.threads = 1;

  (void)host::scan_database_cpu(w.query, w.records, kSc, base);  // warm-up
  double scan_s = 1e100;
  host::ScanResult plain;
  for (int rep = 0; rep < 3; ++rep) {  // min-of-3: the noise-free estimate
    const bench::Timer t;
    host::ScanResult r = host::scan_database_cpu(w.query, w.records, kSc, base);
    benchmark::DoNotOptimize(&r);
    scan_s = std::min(scan_s, t.seconds());
    plain = std::move(r);
  }
  std::printf("workload: %zu records, top_k %zu, %zu hits; scan-only %.4f s\n",
              w.records.size(), base.top_k, plain.hits.size(), scan_s);

  // The retrieval phase is timed in isolation on the scan's ranked hits —
  // exactly what the service runs after the chunk merge — so the K sweep
  // is not buried under scan-time noise.
  const host::RecordSource src(w.records);
  struct KRow {
    std::size_t max_hits = 0;
    std::size_t aligned = 0;
    double retrieve_s = 0.0;
    double per_hit_us = 0.0;
    double vs_scan = 0.0;  // retrieval cost as a fraction of the scan itself
  };
  std::vector<KRow> k_rows;
  std::printf("%10s %10s %14s %12s %14s\n", "max_hits", "aligned", "retrieve_s", "us/hit",
              "vs_scan");
  bench::rule(66);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{0}}) {
    host::ScanOptions o = base;
    o.align = true;
    o.max_hits = k;
    double best_s = 1e100;
    std::size_t aligned = 0;
    for (int rep = 0; rep < 3; ++rep) {
      host::ScanResult r = plain;
      r.alignments.clear();
      const bench::Timer t;
      host::retrieve_alignments(w.query, src, kSc, o, r);
      best_s = std::min(best_s, t.seconds());
      aligned = r.alignments.size();
    }
    const double per_hit = aligned == 0 ? 0.0 : best_s * 1e6 / static_cast<double>(aligned);
    k_rows.push_back({k, aligned, best_s, per_hit, best_s / scan_s});
    std::printf("%10zu %10zu %14.6f %12.2f %13.4f%%\n", k, aligned, best_s, per_hit,
                100.0 * k_rows.back().vs_scan);
  }
  bench::rule(66);

  // (b) Peak traceback memory vs the full-DP baseline. The planted window
  // grows quadratically in cells; the retrieval layer's own accounting
  // (Traceback::peak_cells, exact by construction) must stay linear in
  // m + n. Every traceback_hit call also replays its transcript — a
  // divergence throws and fails the bench.
  bench::header("alignment retrieval: peak cells vs full-DP matrix");
  struct MemRow {
    std::size_t window = 0;          // planted homolog length (~rows and ~cols)
    align::Score score = 0;
    std::uint64_t full_dp_cells = 0; // (m+1)*(n+1) of the retrieved window
    std::uint64_t banded_peak = 0;
    std::uint64_t hirschberg_peak = 0;
    double hirschberg_vs_full = 0.0; // peak / full-DP: the paper's memory win
    bool linear_ok = false;
  };
  std::vector<MemRow> mem_rows;
  bool all_linear = true;
  seq::RandomSequenceGenerator mgen(31337);
  std::printf("%8s %8s %14s %12s %12s %14s\n", "window", "score", "full_dp", "banded",
              "hirschberg", "peak/full");
  bench::rule(74);
  for (const std::size_t len : {std::size_t{256}, std::size_t{1024}, std::size_t{4096}}) {
    const seq::Sequence q = mgen.uniform(seq::dna(), len, "q");
    seq::Sequence rec = mgen.uniform(seq::dna(), 200, "r");
    rec.append(seq::point_mutate(q, 0.04, mgen.engine()));
    rec.append(mgen.uniform(seq::dna(), 200));
    const align::LocalScoreResult kernel = align::sw_linear_codes(rec.codes(), q.codes(), kSc);

    const retrieve::Traceback banded =
        retrieve::traceback_hit(rec.codes(), q.codes(), kernel, kSc);
    retrieve::TracebackOptions no_band;
    no_band.band_cell_budget = 0;
    const retrieve::Traceback hirsch =
        retrieve::traceback_hit(rec.codes(), q.codes(), kernel, kSc, no_band);

    const std::uint64_t rows64 = banded.alignment.end.i - banded.alignment.begin.i + 1;
    const std::uint64_t cols64 = banded.alignment.end.j - banded.alignment.begin.j + 1;
    const std::uint64_t full = (rows64 + 1) * (cols64 + 1);
    const std::uint64_t linear_bound = 4 * (rec.size() + q.size());
    const bool linear_ok = hirsch.peak_cells <= linear_bound;
    all_linear = all_linear && linear_ok;
    mem_rows.push_back({len, kernel.score, full, banded.peak_cells, hirsch.peak_cells,
                        static_cast<double>(hirsch.peak_cells) / static_cast<double>(full),
                        linear_ok});
    std::printf("%8zu %8d %14llu %12llu %12llu %13.5f%%\n", len, kernel.score,
                static_cast<unsigned long long>(full),
                static_cast<unsigned long long>(banded.peak_cells),
                static_cast<unsigned long long>(hirsch.peak_cells),
                100.0 * mem_rows.back().hirschberg_vs_full);
  }
  bench::rule(74);
  std::printf("peak cells linear in m+n on every window: %s\n", all_linear ? "yes" : "NO");

  std::ofstream js("BENCH_retrieve.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"workload\": {\"query_len\": " << w.query.size()
     << ", \"records\": " << w.records.size() << ", \"top_k\": " << base.top_k
     << ", \"hits\": " << plain.hits.size() << "},\n";
  js << "  \"scan_only_seconds\": " << scan_s << ",\n";
  js << "  \"k_sweep\": [\n";
  for (std::size_t i = 0; i < k_rows.size(); ++i) {
    const KRow& r = k_rows[i];
    js << "    {\"max_hits\": " << r.max_hits << ", \"aligned\": " << r.aligned
       << ", \"retrieve_seconds\": " << r.retrieve_s << ", \"per_hit_us\": " << r.per_hit_us
       << ", \"vs_scan\": " << r.vs_scan << "}" << (i + 1 < k_rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"peak_memory\": [\n";
  for (std::size_t i = 0; i < mem_rows.size(); ++i) {
    const MemRow& r = mem_rows[i];
    js << "    {\"window\": " << r.window << ", \"score\": " << r.score
       << ", \"full_dp_cells\": " << r.full_dp_cells << ", \"banded_peak_cells\": "
       << r.banded_peak << ", \"hirschberg_peak_cells\": " << r.hirschberg_peak
       << ", \"hirschberg_peak_vs_full_dp\": " << r.hirschberg_vs_full
       << ", \"linear_in_m_plus_n\": " << (r.linear_ok ? "true" : "false") << "}"
       << (i + 1 < mem_rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"peak_cells_linear\": " << (all_linear ? "true" : "false") << "\n}\n";
  std::printf("machine-readable dump: BENCH_retrieve.json\n");
  if (!all_linear) {
    std::printf("FAIL: traceback peak memory grew super-linearly\n");
    return 1;
  }
  return 0;
}

// ---- serve daemon comparison (BENCH_serve.json) --------------------------

// The network path end to end: (a) loopback requests/s through `swr
// serve` at 1/16/64 concurrent connections, every request a distinct
// query so the sweep measures serving + scanning, not cache replay;
// (b) the result-cache win — warm (cached) request latency vs the cold
// scan, which CI gates at >= 10x; (c) two-tenant QoS under overload — a
// rate-limited tenant is shed down to its configured budget while an
// unlimited tenant riding the same server is never shed. CI runs
// `bench_kernels --serve-only`; a cache speedup below the gate or a shed
// on the unlimited tenant exits non-zero.
constexpr double kServeCacheSpeedupGate = 10.0;

int run_serve_comparison() {
  bench::header("serve: loopback requests/s vs connection count");
  const ScanWorkload w = make_scan_workload();
  const std::string swdb_path = "BENCH_serve_workload.swdb";
  db::build_store(w.records, swdb_path);
  const db::Store store = db::Store::open(swdb_path);

  struct ConnRow {
    std::size_t conns = 0;
    std::size_t requests = 0;
    std::size_t served = 0;
    double seconds = 0.0;
    double rps = 0.0;
  };
  std::vector<ConnRow> conn_rows;
  std::printf("%zu records, 8 cpu workers, unique query per request\n", store.size());
  for (const std::size_t conns : {std::size_t{1}, std::size_t{16}, std::size_t{64}}) {
    svc::net::ServerConfig cfg;
    cfg.service.cpu_workers = 8;
    cfg.service.max_inflight = 16;
    cfg.service.queue_capacity = 256;
    svc::net::ScanServer server(store, cfg);
    std::string error;
    if (!server.start(error)) {
      std::printf("FAIL: server start: %s\n", error.c_str());
      return 1;
    }

    const std::size_t per_conn = 8;
    std::atomic<std::size_t> served{0};
    const bench::Timer t;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&server, &served, c, per_conn] {
        svc::net::ScanClient client;
        std::string err;
        if (!client.connect("127.0.0.1", server.port(), err)) return;
        seq::RandomSequenceGenerator qgen(0x5e47e + c);
        for (std::size_t k = 0; k < per_conn; ++k) {
          svc::net::WireRequest req;
          req.request_id = c * per_conn + k + 1;
          req.query = qgen.uniform(seq::dna(), 100).to_string();
          req.top_k = 10;
          req.min_score = 20;
          if (client.scan(req).ok) served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : threads) th.join();
    const double s = t.seconds();
    server.stop();
    const std::size_t total = conns * per_conn;
    conn_rows.push_back({conns, total, served.load(), s,
                         static_cast<double>(served.load()) / s});
    std::printf("  %3zu connections: %4zu/%4zu served  %8.4f s  %8.1f requests/s\n", conns,
                served.load(), total, s, conn_rows.back().rps);
  }

  bench::header("serve: result-cache hit latency vs cold scan");
  svc::net::ServerConfig cache_cfg;
  cache_cfg.service.cpu_workers = 8;
  svc::net::ScanServer cache_server(store, cache_cfg);
  std::string error;
  if (!cache_server.start(error)) {
    std::printf("FAIL: server start: %s\n", error.c_str());
    return 1;
  }
  double cold_s = 1e100;
  double warm_s = 1e100;
  {
    svc::net::ScanClient client;
    if (!client.connect("127.0.0.1", cache_server.port(), error)) {
      std::printf("FAIL: connect: %s\n", error.c_str());
      return 1;
    }
    seq::RandomSequenceGenerator qgen(0xcac4e);
    svc::net::WireRequest req;
    req.top_k = 10;
    req.min_score = 20;
    // Cold: min over distinct queries (each a fresh cache key).
    for (int rep = 0; rep < 3; ++rep) {
      req.request_id = 100 + static_cast<std::uint64_t>(rep);
      req.query = qgen.uniform(seq::dna(), 100).to_string();
      const bench::Timer t;
      if (!client.scan(req).ok) return 1;
      cold_s = std::min(cold_s, t.seconds());
    }
    // Warm: the last query again, now a result-cache replay.
    for (int rep = 0; rep < 20; ++rep) {
      req.request_id = 200 + static_cast<std::uint64_t>(rep);
      const bench::Timer t;
      if (!client.scan(req).ok) return 1;
      warm_s = std::min(warm_s, t.seconds());
    }
  }
  cache_server.stop();
  const double cache_speedup = cold_s / warm_s;
  const bool cache_ok = cache_speedup >= kServeCacheSpeedupGate;
  std::printf("cold scan:  %10.6f s\n", cold_s);
  std::printf("warm (hit): %10.6f s  (%.0fx, gate %.0fx: %s)\n", warm_s, cache_speedup,
              kServeCacheSpeedupGate, cache_ok ? "pass" : "FAIL");

  bench::header("serve: two-tenant shed behavior under overload");
  obs::Registry registry;
  svc::net::ServerConfig qos_cfg;
  qos_cfg.service.cpu_workers = 4;
  qos_cfg.metrics = &registry;
  qos_cfg.service.metrics = &registry;
  qos_cfg.tenant_limits["free"] = {2.0, 2};    // 2 req/s, burst 2
  qos_cfg.tenant_limits["paid"] = {0.0, 1};    // unlimited
  svc::net::ScanServer qos_server(store, qos_cfg);
  if (!qos_server.start(error)) {
    std::printf("FAIL: server start: %s\n", error.c_str());
    return 1;
  }
  const std::size_t qos_requests = 60;
  std::atomic<std::size_t> free_ok{0}, free_shed{0}, paid_ok{0}, paid_shed{0};
  const bench::Timer qos_t;
  std::vector<std::thread> tenants;
  for (const auto* name : {"free", "paid"}) {
    tenants.emplace_back([&qos_server, &free_ok, &free_shed, &paid_ok, &paid_shed, name,
                          qos_requests] {
      const bool is_free = std::string(name) == "free";
      svc::net::ScanClient client;
      std::string err;
      if (!client.connect("127.0.0.1", qos_server.port(), err)) return;
      seq::RandomSequenceGenerator qgen(is_free ? 0xf4ee : 0xfa1d);
      for (std::size_t k = 0; k < qos_requests; ++k) {
        svc::net::WireRequest req;
        req.request_id = k + 1;
        req.tenant = name;
        req.query = qgen.uniform(seq::dna(), 100).to_string();
        req.top_k = 10;
        req.min_score = 20;
        const svc::net::ClientResponse resp = client.scan(req);
        if (resp.ok) {
          (is_free ? free_ok : paid_ok).fetch_add(1);
        } else if (!resp.errors.empty() &&
                   resp.errors[0].code == svc::net::ErrorCode::Shed) {
          (is_free ? free_shed : paid_shed).fetch_add(1);
        }
      }
    });
  }
  for (auto& th : tenants) th.join();
  const double qos_elapsed = qos_t.seconds();
  qos_server.stop();
  const obs::Snapshot snap = registry.snapshot();
  const double free_budget = 2.0 + 2.0 * qos_elapsed + 2.0;
  const bool qos_ok = paid_shed.load() == 0 &&
                      static_cast<double>(free_ok.load()) <= free_budget &&
                      free_shed.load() > 0;
  std::printf("%zu requests each over %.3f s\n", qos_requests, qos_elapsed);
  std::printf("  free (2/s, burst 2):  %3zu served %3zu shed (budget %.0f)\n", free_ok.load(),
              free_shed.load(), free_budget);
  std::printf("  paid (unlimited):     %3zu served %3zu shed\n", paid_ok.load(),
              paid_shed.load());
  std::printf("  server counters: served free=%llu paid=%llu, shed free=%llu paid=%llu\n",
              static_cast<unsigned long long>(snap.counter("svc.net.tenant.free.served")),
              static_cast<unsigned long long>(snap.counter("svc.net.tenant.paid.served")),
              static_cast<unsigned long long>(snap.counter("svc.net.tenant.free.shed")),
              static_cast<unsigned long long>(snap.counter("svc.net.tenant.paid.shed")));
  std::printf("tenant QoS: %s\n", qos_ok ? "pass" : "FAIL");

  std::ofstream js("BENCH_serve.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"workload\": {\"records\": " << store.size() << ", \"query_len\": 100},\n";
  js << "  \"connections\": [\n";
  for (std::size_t k = 0; k < conn_rows.size(); ++k) {
    const ConnRow& r = conn_rows[k];
    js << "    {\"connections\": " << r.conns << ", \"requests\": " << r.requests
       << ", \"served\": " << r.served << ", \"seconds\": " << r.seconds
       << ", \"requests_per_second\": " << r.rps << "}"
       << (k + 1 < conn_rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"result_cache\": {\"cold_seconds\": " << cold_s << ", \"warm_seconds\": " << warm_s
     << ", \"speedup\": " << cache_speedup << ", \"gate\": " << kServeCacheSpeedupGate
     << ", \"pass\": " << (cache_ok ? "true" : "false") << "},\n";
  js << "  \"tenants\": {\"elapsed_seconds\": " << qos_elapsed
     << ", \"free\": {\"rate_per_s\": 2, \"burst\": 2, \"served\": " << free_ok.load()
     << ", \"shed\": " << free_shed.load() << ", \"budget\": " << free_budget
     << "}, \"paid\": {\"served\": " << paid_ok.load() << ", \"shed\": " << paid_shed.load()
     << "}, \"pass\": " << (qos_ok ? "true" : "false") << "}\n}\n";
  std::printf("machine-readable dump: BENCH_serve.json\n");
  std::remove(swdb_path.c_str());
  if (!cache_ok) {
    std::printf("FAIL: result-cache speedup below %.0fx\n", kServeCacheSpeedupGate);
    return 1;
  }
  if (!qos_ok) {
    std::printf("FAIL: tenant QoS bounds violated\n");
    return 1;
  }
  return 0;
}

// ---- database load + batch service comparison (BENCH_db.json) -----------

// (a) Opening the same database as FASTA text (parse + validate + encode)
// vs as a prebuilt .swdb (mmap + header check): the build-once/scan-forever
// trade the store exists for. (b) Batch throughput through the async scan
// service at 1/4/16 concurrently dispatched queries.
void run_db_comparison() {
  bench::header("database load: FASTA parse vs .swdb mmap open");
  const ScanWorkload w = make_scan_workload();
  const std::string fasta_path = "BENCH_db_workload.fa";
  const std::string swdb_path = "BENCH_db_workload.swdb";
  seq::write_fasta_file(fasta_path, w.records);
  const db::BuildStats built = db::build_store(w.records, swdb_path);

  double fasta_s = 1e100;
  double open_s = 1e100;
  for (int rep = 0; rep < 5; ++rep) {
    {
      const bench::Timer t;
      const auto recs = seq::read_fasta_file(fasta_path, seq::dna());
      benchmark::DoNotOptimize(&recs);
      fasta_s = std::min(fasta_s, t.seconds());
    }
    {
      const bench::Timer t;
      const db::Store store = db::Store::open(swdb_path);
      benchmark::DoNotOptimize(&store);
      open_s = std::min(open_s, t.seconds());
    }
  }
  std::printf("records: %zu (%.1f MBP), .swdb %s, %llu bytes\n", w.records.size(),
              static_cast<double>(w.cells) / w.query.size() / 1e6,
              built.encoding == db::Encoding::Packed2 ? "packed2" : "raw8",
              static_cast<unsigned long long>(built.file_bytes));
  std::printf("FASTA parse: %10.6f s\n", fasta_s);
  std::printf(".swdb open:  %10.6f s  (%.0fx faster)\n", open_s, fasta_s / open_s);

  bench::header("batch scan service: throughput vs in-flight queries");
  const db::Store store = db::Store::open(swdb_path);
  std::vector<seq::Sequence> queries;
  seq::RandomSequenceGenerator qgen(777);
  const std::size_t n_queries = 16;
  for (std::size_t k = 0; k < n_queries; ++k) {
    queries.push_back(qgen.uniform(seq::dna(), 100, "q" + std::to_string(k)));
  }
  host::ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 20;

  struct BatchRow {
    std::size_t inflight = 0;
    double seconds = 0.0;
    double qps = 0.0;
  };
  std::vector<BatchRow> batch_rows;
  std::printf("%zu queries x %zu records, 8 cpu workers\n", queries.size(), store.size());
  for (const std::size_t inflight : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    svc::ServiceConfig cfg;
    cfg.cpu_workers = 8;
    cfg.max_inflight = inflight;
    cfg.queue_capacity = queries.size();
    // A few chunks per query, so a single in-flight query cannot keep all
    // the workers busy — the in-flight knob is what buys concurrency.
    cfg.chunk_records = (store.size() + 3) / 4;
    svc::ScanService service(store, cfg);
    const bench::Timer t;
    std::vector<svc::Ticket> tickets;
    tickets.reserve(queries.size());
    for (const auto& q : queries) tickets.push_back(service.submit(q, opt));
    for (auto& ticket : tickets) ticket.response.wait();
    const double s = t.seconds();
    batch_rows.push_back({inflight, s, static_cast<double>(queries.size()) / s});
    std::printf("  %2zu in flight: %8.4f s  %8.1f queries/s\n", inflight, s,
                batch_rows.back().qps);
  }

  std::ofstream js("BENCH_db.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"workload\": {\"records\": " << w.records.size() << ", \"cells\": " << w.cells
     << ", \"swdb_bytes\": " << built.file_bytes << ", \"encoding\": \""
     << (built.encoding == db::Encoding::Packed2 ? "packed2" : "raw8") << "\"},\n";
  js << "  \"load\": {\"fasta_parse_seconds\": " << fasta_s
     << ", \"swdb_open_seconds\": " << open_s << ", \"open_speedup\": " << fasta_s / open_s
     << "},\n";
  js << "  \"batch\": [\n";
  for (std::size_t k = 0; k < batch_rows.size(); ++k) {
    js << "    {\"inflight\": " << batch_rows[k].inflight
       << ", \"seconds\": " << batch_rows[k].seconds
       << ", \"queries_per_second\": " << batch_rows[k].qps << "}"
       << (k + 1 < batch_rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::printf("machine-readable dump: BENCH_db.json\n");
  std::remove(fasta_path.c_str());
  std::remove(swdb_path.c_str());
}

// Scan-engine microbenches: whole-database GCUPS per tier/thread count
// (tier argument -1 = auto).
void BM_ScanCpu(benchmark::State& state) {
  static const ScanWorkload w = make_scan_workload();
  host::ScanOptions opt;
  opt.top_k = 10;
  opt.min_score = 20;
  opt.threads = static_cast<std::size_t>(state.range(0));
  if (state.range(1) >= 0) opt.simd = static_cast<core::SimdIsa>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(host::scan_database_cpu(w.query, w.records, kSc, opt));
  }
  state.counters["GCUPS"] = benchmark::Counter(
      static_cast<double>(w.cells) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(opt.simd ? core::simd_isa_name(*opt.simd) : "auto") + "/" +
                 std::to_string(opt.threads) + "t");
}
BENCHMARK(BM_ScanCpu)
    ->Args({1, static_cast<int>(core::SimdIsa::Scalar)})
    ->Args({1, static_cast<int>(core::SimdIsa::Sse41)})
    ->Args({1, static_cast<int>(core::SimdIsa::Avx2)})
    ->Args({2, -1})
    ->Args({8, -1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- NUMA placement comparison (BENCH_numa.json) -------------------------
//
// The tentpole's scaling evidence: a store-backed scan measured across
// thread counts with placement off vs a deterministic fake 2-node split
// of this machine's cpus. Alongside the GCUPS curve it checks the
// placement contract: hits bit-identical to the placement-blind scan, and
// scan.numa.local_bytes + scan.numa.remote_bytes reconciling exactly with
// the encoded payload bytes the scan streamed. CI runs
// `bench_kernels --numa-only`; a parity or reconciliation break exits
// non-zero.
int run_numa_comparison() {
  bench::header("numa placement: off vs fake 2-node split (store-backed, GCUPS)");
  seq::RandomSequenceGenerator gen(7171);
  const seq::Sequence query = gen.uniform(seq::dna(), 100, "q");
  const std::size_t n_records = bench::full_scale() ? 20'000 : 2'000;
  std::vector<seq::Sequence> records;
  records.reserve(n_records);
  for (std::size_t r = 0; r < n_records; ++r) {
    records.push_back(gen.uniform(seq::dna(), 500, "n" + std::to_string(r)));
  }
  const std::string path = "BENCH_numa_workload.swdb";
  db::build_store(records, path);
  const db::Store store = db::Store::open(path);

  std::uint64_t cells = 0;
  std::uint64_t payload = 0;  // what local_bytes + remote_bytes must equal
  for (std::size_t r = 0; r < store.size(); ++r) {
    cells += static_cast<std::uint64_t>(store.length(r)) * query.size();
    payload += store.payload_range(r).bytes;
  }
  std::printf("workload: %zu records, %.1f MBP database, %llu payload bytes\n", store.size(),
              static_cast<double>(cells) / query.size() / 1e6,
              static_cast<unsigned long long>(payload));

  // Half this machine's cpus per fake node: a 2-node split whose affinity
  // masks are real, so pinning actually happens.
  const unsigned ncpu = std::max(2u, std::thread::hardware_concurrency());
  const std::string fake = "fake:2x" + std::to_string(ncpu / 2);

  struct NumaRow {
    std::string mode;
    std::size_t threads = 0;
    double seconds = 0.0;
    double gcups = 0.0;
    std::uint64_t local_bytes = 0;
    std::uint64_t remote_bytes = 0;
    std::uint64_t prefault_pages = 0;
  };
  std::vector<NumaRow> rows;
  std::vector<host::Hit> baseline;  // --numa off, 1 thread
  bool hits_ok = true;
  bool counters_ok = true;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    for (const std::string& mode : {std::string("off"), fake}) {
      host::ScanOptions o;
      o.top_k = 10;
      o.min_score = 20;
      o.threads = threads;
      o.numa = core::parse_numa_request(mode);

      NumaRow row;
      row.mode = mode;
      row.threads = threads;
      row.seconds = 1e100;
      host::ScanResult res;
      for (int rep = 0; rep < 3; ++rep) {  // min-of-3: the noise-free estimate
        const bench::Timer t;
        res = host::scan_database_cpu(query, store, kSc, o);
        benchmark::DoNotOptimize(&res);
        row.seconds = std::min(row.seconds, t.seconds());
      }
      row.gcups = static_cast<double>(cells) / row.seconds / 1e9;

      // One extra accounting pass against a fresh registry so the
      // counters cover exactly one scan.
      obs::Registry reg;
      o.metrics = &reg;
      res = host::scan_database_cpu(query, store, kSc, o);
      row.local_bytes = reg.counter("scan.numa.local_bytes").value();
      row.remote_bytes = reg.counter("scan.numa.remote_bytes").value();
      row.prefault_pages = reg.counter("scan.numa.prefault_pages").value();
      if (mode != "off" && row.local_bytes + row.remote_bytes != payload) counters_ok = false;
      if (mode == "off" && (row.local_bytes | row.remote_bytes) != 0) counters_ok = false;

      if (baseline.empty()) {
        baseline = res.hits;
      } else if (res.hits.size() != baseline.size()) {
        hits_ok = false;
      } else {
        for (std::size_t h = 0; h < baseline.size(); ++h) {
          if (res.hits[h].record != baseline[h].record ||
              res.hits[h].result.score != baseline[h].result.score ||
              !(res.hits[h].result.end == baseline[h].result.end)) {
            hits_ok = false;
          }
        }
      }
      rows.push_back(std::move(row));
    }
  }

  std::printf("  %-10s %8s %10s %10s %14s %14s %9s\n", "numa", "threads", "seconds", "GCUPS",
              "local bytes", "remote bytes", "prefault");
  bench::rule(82);
  for (const NumaRow& r : rows) {
    std::printf("  %-10s %8zu %10.4f %10.3f %14llu %14llu %9llu\n",
                r.mode == "off" ? "off" : "fake-2node", r.threads, r.seconds, r.gcups,
                static_cast<unsigned long long>(r.local_bytes),
                static_cast<unsigned long long>(r.remote_bytes),
                static_cast<unsigned long long>(r.prefault_pages));
  }
  bench::rule(82);
  std::printf("hits bit-identical across modes/threads: %s\n", hits_ok ? "yes" : "NO");
  std::printf("local+remote bytes == payload bytes scanned: %s\n", counters_ok ? "yes" : "NO");

  std::ofstream js("BENCH_numa.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"workload\": {\"query_len\": " << query.size() << ", \"records\": " << store.size()
     << ", \"cells\": " << cells << ", \"payload_bytes\": " << payload << "},\n";
  js << "  \"fake_spec\": \"" << fake.substr(5) << "\",\n";
  js << "  \"rows\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const NumaRow& r = rows[k];
    js << "    {\"numa\": \"" << r.mode << "\", \"threads\": " << r.threads
       << ", \"seconds\": " << r.seconds << ", \"gcups\": " << r.gcups
       << ", \"local_bytes\": " << r.local_bytes << ", \"remote_bytes\": " << r.remote_bytes
       << ", \"prefault_pages\": " << r.prefault_pages << "}"
       << (k + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  // Placement on/off delta at the widest measured thread count.
  const NumaRow& off8 = rows[rows.size() - 2];
  const NumaRow& on8 = rows[rows.size() - 1];
  js << "  \"placement_vs_off_at_" << off8.threads << "_threads\": " << on8.gcups / off8.gcups
     << ",\n";
  js << "  \"hits_identical\": " << (hits_ok ? "true" : "false") << ",\n";
  js << "  \"counters_reconcile\": " << (counters_ok ? "true" : "false") << "\n}\n";
  std::printf("machine-readable dump: BENCH_numa.json\n");
  std::remove(path.c_str());
  return hits_ok && counters_ok ? 0 : 1;
}

// ---- fleet / event-scheduler comparison (BENCH_fleet.json) ---------------
//
// The tentpole's evidence, three parts:
//
//   1. Simulator throughput: event vs dense scheduler on a 1000-PE array
//      scanning short streams. The activity-driven scheduler only clocks
//      the live wavefront, so it must be at least kFleetSpeedupGate
//      faster wall-clock while producing bit-identical scores and cycle
//      counts (both gated).
//   2. DMA double buffering: the two-slot overlapped stream against the
//      ship-everything-then-compute serialized timeline, on the same bus
//      parameters (delta reported to the JSON).
//   3. The table-3-style fleet curve: modelled board wall times at
//      100/500/1000 PEs x 1/4/16 boards, every cell's measured cycle
//      count cross-checked EXACTLY against the analytic model (gated).
//
// CI runs `bench_kernels --fleet-only`; any gate break exits non-zero.
constexpr double kFleetSpeedupGate = 10.0;

int run_fleet_comparison() {
  bench::header("fleet: event-vs-dense scheduler, DMA overlap, board scaling");

  // -- part 1: scheduler wall-clock on short streams ----------------------
  seq::RandomSequenceGenerator gen(9090);
  const std::size_t npes_big = 1000;
  const seq::Sequence long_query = gen.uniform(seq::dna(), npes_big, "q1000");
  const std::size_t n_short = bench::full_scale() ? 40 : 8;
  std::vector<seq::Sequence> shorts;
  shorts.reserve(n_short);
  for (std::size_t r = 0; r < n_short; ++r) {
    shorts.push_back(gen.uniform(seq::dna(), 100, "s" + std::to_string(r)));
  }

  // 1000 elements outstrip every Virtex-II-era die; the catalog's
  // late-generation xc7v2000t entry exists for these projections.
  const core::FpgaDevice& big_dev = core::device("xc7v2000t");
  core::SmithWatermanAccelerator dense(big_dev, npes_big, kSc, 16, 32, true, false,
                                       hw::SchedMode::Dense);
  core::SmithWatermanAccelerator event(big_dev, npes_big, kSc, 16, 32, true, false,
                                       hw::SchedMode::Event);

  bool identical = true;
  std::uint64_t sim_cycles = 0;
  for (const seq::Sequence& s : shorts) {  // warm-up + parity check
    const core::JobResult a = dense.run(long_query, s);
    const core::JobResult b = event.run(long_query, s);
    if (!(a.best == b.best) || a.stats.total_cycles != b.stats.total_cycles) identical = false;
    sim_cycles += a.stats.total_cycles;
  }
  const auto time_scan = [&](core::SmithWatermanAccelerator& acc) {
    double best = 1e100;
    for (int rep = 0; rep < 2; ++rep) {
      const bench::Timer t;
      for (const seq::Sequence& s : shorts) {
        benchmark::DoNotOptimize(acc.run(long_query, s));
      }
      best = std::min(best, t.seconds());
    }
    return best;
  };
  const double dense_s = time_scan(dense);
  const double event_s = time_scan(event);
  const double speedup = dense_s / event_s;
  const std::uint64_t dense_evals = dense.controller().array().evaluations();
  const std::uint64_t event_evals = event.controller().array().evaluations();

  std::printf("scheduler: %zu-PE array, %zu x 100 BP streams, %llu simulated cycles\n",
              npes_big, n_short, static_cast<unsigned long long>(sim_cycles));
  std::printf("  dense  %10.4f s   %12llu PE evaluations\n", dense_s,
              static_cast<unsigned long long>(dense_evals));
  std::printf("  event  %10.4f s   %12llu PE evaluations\n", event_s,
              static_cast<unsigned long long>(event_evals));
  std::printf("  speedup %.1fx (gate >= %.0fx); results bit-identical: %s\n", speedup,
              kFleetSpeedupGate, identical ? "yes" : "NO");

  // -- part 2: DMA double-buffer overlap ----------------------------------
  // A representative stream: 1 MiB of database against the compute window
  // a 1000-PE array needs for it, on the default PCI parameters.
  const std::size_t stream_bytes = 1u << 20;
  const double freq = dense.freq_mhz();
  const double window =
      core::cycles_to_seconds(stream_bytes + npes_big - 1, freq);
  host::PciModel pci{host::PciConfig{}};
  const host::DmaTimeline dma =
      pci.stream_overlapped(stream_bytes, window, host::DmaConfig{}, freq);
  std::printf("dma: %zu B stream, %llu chunks: overlapped %.4f s vs serialized %.4f s "
              "(%.2fx, stall %.4f s)\n",
              stream_bytes, static_cast<unsigned long long>(dma.chunks),
              dma.overlapped_seconds, dma.serialized_seconds,
              dma.serialized_seconds / dma.overlapped_seconds, dma.stall_seconds);

  // -- part 3: fleet scaling curve, cycles gated against the model --------
  const seq::Sequence query = gen.uniform(seq::dna(), 100, "q");
  const std::size_t n_records = bench::full_scale() ? 400 : 60;
  std::vector<seq::Sequence> records;
  records.reserve(n_records);
  for (std::size_t r = 0; r < n_records; ++r) {
    // Length-skewed mix, the case the least-loaded deal exists for.
    const std::size_t len = 80 + 53 * (r % 7);
    records.push_back(gen.uniform(seq::dna(), len, "rec" + std::to_string(r)));
  }

  struct FleetRow {
    std::size_t pes = 0;
    std::size_t boards = 0;
    std::string device;
    double board_seconds = 0.0;
    std::uint64_t cycles = 0;
    double speedup_vs_1board = 0.0;
  };
  std::vector<FleetRow> rows;
  bool cycles_ok = true;

  std::printf("  %6s %7s %14s %14s %10s %8s\n", "PEs", "boards", "modelled s", "cycles",
              "vs 1brd", "model");
  bench::rule(70);
  for (const std::size_t pes : {std::size_t{100}, std::size_t{500}, std::size_t{1000}}) {
    std::uint64_t expected = 0;
    for (const seq::Sequence& r : records) {
      expected += core::predict_cycles(query.size(), r.size(), pes, true).total_cycles;
    }
    double one_board = 0.0;
    for (const std::size_t boards : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      core::FleetOptions fo;
      // The prototype device holds the paper's 100 elements; the larger
      // design points move to the projection part.
      fo.device = pes <= 150 ? "xc2vp70" : "xc7v2000t";
      fo.boards = boards;
      fo.pes_per_board = pes;
      fo.model_bus = true;
      core::BoardFleet fleet = core::make_board_fleet(fo, kSc);
      host::ScanOptions opt;
      opt.top_k = 10;
      opt.threads = std::min<std::size_t>(boards, std::thread::hardware_concurrency());
      const host::ScanResult res = host::scan_database_fleet(fleet, query, records, opt);

      FleetRow row;
      row.pes = pes;
      row.boards = boards;
      row.device = fo.device;
      row.board_seconds = res.board_seconds;
      row.cycles = res.board_cycles;
      if (boards == 1) one_board = res.board_seconds;
      row.speedup_vs_1board = one_board / res.board_seconds;
      const bool ok = res.board_cycles == expected;
      if (!ok) cycles_ok = false;
      std::printf("  %6zu %7zu %14.6f %14llu %9.2fx %8s\n", pes, boards, row.board_seconds,
                  static_cast<unsigned long long>(row.cycles), row.speedup_vs_1board,
                  ok ? "exact" : "MISMATCH");
      rows.push_back(row);
    }
  }
  bench::rule(70);
  std::printf("measured cycles == analytic prediction at every cell: %s\n",
              cycles_ok ? "yes" : "NO");

  // -- JSON dump + verdict -------------------------------------------------
  std::ofstream js("BENCH_fleet.json");
  js << "{\n  \"host\": " << bench::host_meta_json() << ",\n";
  js << "  \"sched\": \"" << hw::sched_mode_name(hw::default_sched_mode()) << "\",\n";
  js << "  \"scheduler\": {\"pes\": " << npes_big << ", \"streams\": " << n_short
     << ", \"stream_len\": 100, \"sim_cycles\": " << sim_cycles
     << ", \"dense_seconds\": " << dense_s << ", \"event_seconds\": " << event_s
     << ", \"speedup\": " << speedup << ", \"gate\": " << kFleetSpeedupGate
     << ", \"dense_evaluations\": " << dense_evals
     << ", \"event_evaluations\": " << event_evals
     << ", \"identical\": " << (identical ? "true" : "false") << "},\n";
  js << "  \"dma\": {\"bytes\": " << stream_bytes << ", \"chunks\": " << dma.chunks
     << ", \"overlapped_seconds\": " << dma.overlapped_seconds
     << ", \"serialized_seconds\": " << dma.serialized_seconds
     << ", \"stall_seconds\": " << dma.stall_seconds
     << ", \"overlap_gain\": " << dma.serialized_seconds / dma.overlapped_seconds << "},\n";
  js << "  \"fleet\": {\"query_len\": " << query.size() << ", \"records\": " << records.size()
     << ", \"rows\": [\n";
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const FleetRow& r = rows[k];
    js << "    {\"pes\": " << r.pes << ", \"boards\": " << r.boards
       << ", \"device\": \"" << r.device << "\""
       << ", \"board_seconds\": " << r.board_seconds << ", \"cycles\": " << r.cycles
       << ", \"speedup_vs_1board\": " << r.speedup_vs_1board << "}"
       << (k + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]},\n";
  js << "  \"cycles_match_model\": " << (cycles_ok ? "true" : "false") << ",\n";
  js << "  \"speedup_gate_met\": " << (speedup >= kFleetSpeedupGate ? "true" : "false")
     << "\n}\n";
  std::printf("machine-readable dump: BENCH_fleet.json\n");

  if (!identical) {
    std::printf("FAIL: event scheduler diverged from dense\n");
    return 1;
  }
  if (!cycles_ok) {
    std::printf("FAIL: measured fleet cycles diverged from the analytic model\n");
    return 1;
  }
  if (speedup < kFleetSpeedupGate) {
    std::printf("FAIL: event speedup %.1fx below the %.0fx gate\n", speedup, kFleetSpeedupGate);
    return 1;
  }
  std::printf("OK: all fleet gates met\n");
  return 0;
}

// ---- observability overhead (printed; CI gate via --obs-overhead-only) ---

// DESIGN.md §3e documents the disabled-metrics bound: a null registry may
// cost the scan path at most 2%. CI runs `bench_kernels
// --obs-overhead-only`, which exits non-zero past the bound.
constexpr double kObsOverheadBound = 0.02;

// Measures the scan engine with metrics disabled (nullptr registry — the
// default every caller gets) against metrics enabled, min-of-N interleaved
// so machine noise hits both sides equally. The disabled path is the
// baseline: it is by construction a single pointer test per scan, so the
// gate pins the whole instrumentation — if even the ENABLED path stays
// under the bound, the disabled path trivially does too, and a future
// change that sneaks per-record work into either side trips the gate.
int run_obs_overhead(bool ci_mode) {
  bench::header("observability overhead: scan engine, metrics off vs on");
  seq::RandomSequenceGenerator gen(4242);
  const seq::Sequence query = gen.uniform(seq::dna(), 100, "q");
  std::vector<seq::Sequence> records;
  const std::size_t n_records = ci_mode ? 400 : 1'000;
  records.reserve(n_records);
  for (std::size_t r = 0; r < n_records; ++r) {
    records.push_back(gen.uniform(seq::dna(), 500, "rec" + std::to_string(r)));
  }

  host::ScanOptions off;
  off.top_k = 10;
  off.min_score = 20;
  off.threads = 1;  // single thread: timing noise is lowest, overhead starkest
  host::ScanOptions on = off;
  obs::Registry reg;
  on.metrics = &reg;

  // Warm-up (page in the workload, settle the frequency governor), then
  // interleaved min-of-N: the minimum is the noise-free estimate.
  (void)host::scan_database_cpu(query, records, kSc, off);
  const int reps = ci_mode ? 9 : 5;
  double off_s = 1e100;
  double on_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    {
      const bench::Timer t;
      benchmark::DoNotOptimize(host::scan_database_cpu(query, records, kSc, off));
      off_s = std::min(off_s, t.seconds());
    }
    {
      const bench::Timer t;
      benchmark::DoNotOptimize(host::scan_database_cpu(query, records, kSc, on));
      on_s = std::min(on_s, t.seconds());
    }
  }
  const double overhead = on_s / off_s - 1.0;
  std::printf("metrics off: %10.6f s\n", off_s);
  std::printf("metrics on:  %10.6f s  (%+.2f%% vs off; documented bound %.0f%%)\n",
              on_s, overhead * 100.0, kObsOverheadBound * 100.0);
  if (overhead > kObsOverheadBound) {
    std::printf("FAIL: enabled-metrics overhead %.2f%% exceeds the %.0f%% bound\n",
                overhead * 100.0, kObsOverheadBound * 100.0);
    return 1;
  }
  std::printf("OK: within bound\n");

  // Same gate over the seeded path: the filter funnel adds its own
  // counters and a histogram observe per scan, which must also stay
  // inside the bound. Store-backed because seeded needs the k-mer index.
  bench::header("observability overhead: seeded scan, metrics off vs on");
  const std::string swdb = "BENCH_obs_seeded.swdb";
  db::build_store(records, swdb);
  const db::Store store = db::Store::open(swdb);
  host::ScanOptions soff = off;
  soff.filter = host::FilterMode::Seeded;
  host::ScanOptions son = soff;
  son.metrics = &reg;
  (void)host::scan_database_cpu(query, store, kSc, soff);
  double soff_s = 1e100;
  double son_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    {
      const bench::Timer t;
      benchmark::DoNotOptimize(host::scan_database_cpu(query, store, kSc, soff));
      soff_s = std::min(soff_s, t.seconds());
    }
    {
      const bench::Timer t;
      benchmark::DoNotOptimize(host::scan_database_cpu(query, store, kSc, son));
      son_s = std::min(son_s, t.seconds());
    }
  }
  std::remove(swdb.c_str());
  const double seeded_overhead = son_s / soff_s - 1.0;
  std::printf("metrics off: %10.6f s\n", soff_s);
  std::printf("metrics on:  %10.6f s  (%+.2f%% vs off; documented bound %.0f%%)\n",
              son_s, seeded_overhead * 100.0, kObsOverheadBound * 100.0);
  if (seeded_overhead > kObsOverheadBound) {
    std::printf("FAIL: seeded enabled-metrics overhead %.2f%% exceeds the %.0f%% bound\n",
                seeded_overhead * 100.0, kObsOverheadBound * 100.0);
    return 1;
  }
  std::printf("OK: within bound\n");
  return 0;
}

void BM_SwAntiDiag8(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(100'000, 1);
  const seq::Sequence b = make_dna(m, 2);
  align::Antidiag8Workspace ws;
  for (auto _ : state) {
    // Random DNA vs random DNA stays far below 255, so this measures the
    // 8-lane fast path.
    benchmark::DoNotOptimize(align::sw_antidiag8_try(a.codes(), b.codes(), kSc, ws));
  }
  report_cups(state, a.size(), b.size());
}
BENCHMARK(BM_SwAntiDiag8)->Arg(100)->Arg(400);

void BM_SwStriped8(benchmark::State& state) {
  // The striped 8-bit fast path at a given lane width (16 = SSE4.1,
  // 32 = AVX2), profile prebuilt as in a scan worker.
  const unsigned lanes = static_cast<unsigned>(state.range(1));
  const core::SimdIsa need = lanes == 32 ? core::SimdIsa::Avx2 : core::SimdIsa::Sse41;
  if (!core::cpu_supports(need)) {
    state.SkipWithError("ISA not supported on this machine");
    return;
  }
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const seq::Sequence a = make_dna(100'000, 1);
  const seq::Sequence b = make_dna(m, 2);
  const align::StripedProfile profile(b, kSc, lanes);
  align::StripedWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::sw_striped8_try(a.codes(), profile, ws));
  }
  report_cups(state, a.size(), b.size());
  state.SetLabel(std::to_string(lanes) + " lanes");
}
BENCHMARK(BM_SwStriped8)->Args({100, 16})->Args({400, 16})->Args({100, 32})->Args({400, 32});

}  // namespace

int main(int argc, char** argv) {
  // CI mode: only the observability-overhead gate, exit status = verdict.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--obs-overhead-only") {
      return run_obs_overhead(/*ci_mode=*/true);
    }
    if (std::string(argv[i]) == "--interseq-only") {
      run_interseq_comparison();
      return 0;
    }
    if (std::string(argv[i]) == "--filter-only") {
      return run_filter_comparison();
    }
    if (std::string(argv[i]) == "--retrieve-only") {
      return run_retrieve_comparison();
    }
    if (std::string(argv[i]) == "--serve-only") {
      return run_serve_comparison();
    }
    if (std::string(argv[i]) == "--numa-only") {
      return run_numa_comparison();
    }
    if (std::string(argv[i]) == "--fleet-only") {
      return run_fleet_comparison();
    }
  }
  run_scan_comparison();
  run_simd_comparison();
  run_interseq_comparison();
  if (const int rc = run_filter_comparison(); rc != 0) return rc;
  if (const int rc = run_retrieve_comparison(); rc != 0) return rc;
  if (const int rc = run_serve_comparison(); rc != 0) return rc;
  if (const int rc = run_numa_comparison(); rc != 0) return rc;
  if (const int rc = run_fleet_comparison(); rc != 0) return rc;
  run_db_comparison();
  if (const int rc = run_obs_overhead(/*ci_mode=*/false); rc != 0) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
