#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/cpu_features.hpp"
#include "core/multiboard.hpp"
#include "core/performance_model.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/fleet_scan.hpp"
#include "host/profile_cache.hpp"
#include "host/scan_engine.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/net/client.hpp"
#include "svc/net/server.hpp"
#include "svc/scan_service.hpp"
#include "trace.hpp"

namespace perfbench {

void Report::problem(const std::string& what) {
  if (problems.size() < 8) problems.push_back(what);
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

using namespace swr;

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between order statistics.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string json_list(const std::vector<double>& v) {
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i) o += (i ? ", " : "") + json_number(v[i]);
  return o + "]";
}

// ---- memory ----------------------------------------------------------------

// Resets VmHWM to the current RSS, so the peak read later covers only what
// follows (Linux clear_refs "5").
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (!(clear << "5" << std::flush)) throw std::runtime_error("cannot reset VmHWM");
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- registry snapshot access ------------------------------------------------

struct HistSum {
  double count = 0.0;
  double sum = 0.0;
};

HistSum hist(const obs::Snapshot& s, std::string_view name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return HistSum{static_cast<double>(h.count), static_cast<double>(h.sum)};
  }
  return {};
}

double counter(const obs::Snapshot& s, std::string_view name) {
  return static_cast<double>(s.counter(name));
}

// ---- per-layer metric table --------------------------------------------------

// Every per-layer metric, reported on every traced run; a layer that does
// no work on a workload reports 0.
const std::vector<MetricDef> kLayerMetrics = {
    {"kernel.gcups", "GCUPS"},
    {"kernel.cells_per_query", "count"},
    {"kernel.overflow_reruns_per_query", "count"},
    {"kernel.interseq_occupancy", "share"},
    {"kernel.interseq_refills", "count"},
    {"par.worker_busy_share", "share"},
    {"profile.build_us", "us"},
    {"prefilter.reject_ratio", "share"},
    {"prefilter.candidates_per_query", "count"},
    {"retrieve.us_per_hit", "us"},
    {"retrieve.cells_per_hit", "count"},
    {"retrieve.banded_ratio", "share"},
    {"db.ingest_s", "s"},
    {"db.open_ms", "ms"},
    {"db.warmup_ms", "ms"},
    {"db.index_mb", "MiB"},
    {"db.payload_mb", "MiB"},
    {"svc.admission_wait_ms", "ms"},
    {"svc.exec_cpu_ms", "ms"},
    {"svc.merge_ms", "ms"},
    {"svc.traceback_ms", "ms"},
    {"svc.chunks_per_query", "count"},
    {"net.overhead_ms", "ms"},
    {"net.bytes_out_per_request", "bytes"},
    {"cache.result_hit_ratio", "share"},
    {"cache.profile_hit_ratio", "share"},
    {"net.refused", "count"},
    {"sim.ns_per_pe_eval", "ns"},
    {"sim.pe_evals_per_query", "count"},
    {"sim.cycles_per_query", "cycles"},
    {"fleet.busiest_board_share", "share"},
    {"fleet.modelled_board_ms", "ms"},
    {"pci.stall_share", "share"},
    {"share.profile", "share"},
    {"share.kernel", "share"},
    {"share.retrieve", "share"},
    {"share.svc", "share"},
    {"share.net", "share"},
    {"share.sim", "share"},
    {"share.bench", "share"},
    {"trace.layer_sum_share", "share"},
    {"obs.trace_overhead", "share"},
};

// Layer self-times from the benchmark's spans, as shares of `wall`. The
// "bench" spans are the benchmark's own per-operation remainder; every
// other span name is a program layer, and their sum is what must account
// for the traced wall time.
void report_layer_shares(Report& r, const std::map<std::string, double>& self, double wall) {
  double layers = 0.0;
  for (const auto& [name, s] : self) {
    r.metric("share." + name, ratio(s, wall));
    if (name != "bench") layers += s;
  }
  r.metric("trace.layer_sum_share", ratio(layers, wall));
}

// ---- set-up ------------------------------------------------------------------

struct SetupTimes {
  double ingest = 0.0;
  double open = 0.0;
  double start = 0.0;  ///< server start or fleet build
  double warmup = 0.0;
  [[nodiscard]] double total() const { return ingest + open + start + warmup; }
};

// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 5;

template <class Once>
void time_setups(Report& r, int count, Once&& once) {
  std::vector<SetupTimes> reps;
  for (int k = 0; k < count; ++k) reps.push_back(once(k));
  std::vector<double> total, ingest, open, start, warmup;
  for (const SetupTimes& t : reps) {
    total.push_back(t.total());
    ingest.push_back(t.ingest);
    open.push_back(t.open);
    start.push_back(t.start);
    warmup.push_back(t.warmup);
  }
  r.metric("setup_s", median(total));
  r.metric("db.ingest_s", median(ingest));
  r.metric("db.open_ms", median(open) * 1e3);
  r.metric("db.warmup_ms", median(warmup) * 1e3);
  r.detail("setup_s_reps", json_list(total));
  r.detail("setup_start_ms", json_number(median(start) * 1e3));
}

std::string store_path(const Args& a, int rep) {
  return a.work_dir + "/db" + std::to_string(rep) + ".swdb";
}

// Ingests `fasta` with the `swdb build` defaults into a fresh file for
// set-up repetition `rep`, after the previous repetition's file is gone.
db::BuildStats ingest(const Args& a, const std::string& fasta, int rep) {
  if (rep > 0) std::filesystem::remove(store_path(a, rep - 1));
  return db::build_store_from_fasta(fasta, store_path(a, rep), seq::dna(), db::BuildOptions{});
}

void report_store_sizes(Report& r, const db::BuildStats& bs, const db::Store& store) {
  r.metric("db.index_mb", static_cast<double>(bs.index_bytes) / (1 << 20));
  r.metric("db.payload_mb", static_cast<double>(store.payload_bytes()) / (1 << 20));
}

// ---- timed phase of the batch workloads ---------------------------------------

struct BatchStats {
  std::vector<double> latency;  ///< seconds, untraced operations
  std::uint64_t ops = 0;
  std::uint64_t traced_ops = 0;
  double wall = 0.0;
  double untraced_block_s = 0.0;
  double traced_block_s = 0.0;
};

// Runs whole blocks of `block` operations until `seconds` have passed.
// Blocks keep each workload's request-class mix exact. In a traced run,
// odd blocks are traced and even ones are not, so the tracing overhead is
// measured on interleaved work rather than on two drifting phases; it runs
// at least one block of each kind.
template <class Op>
BatchStats run_batch(double seconds, std::size_t block, bool trace, SpanLog& log, Op&& op) {
  BatchStats st;
  const std::size_t min_blocks = trace ? 2 : 1;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t b = 0; b < min_blocks || seconds_since(t0) < seconds; ++b) {
    const bool traced = trace && b % 2 == 1;
    const Clock::time_point tb = Clock::now();
    for (std::size_t k = 0; k < block; ++k) {
      const std::uint64_t i = b * block + k;
      const Clock::time_point t = Clock::now();
      if (traced) {
        const Span s(&log, "bench", i);
        op(i, &log);
        ++st.traced_ops;
      } else {
        op(i, nullptr);
        st.latency.push_back(seconds_since(t));
      }
      ++st.ops;
    }
    (traced ? st.traced_block_s : st.untraced_block_s) += seconds_since(tb);
  }
  st.wall = seconds_since(t0);
  return st;
}

void report_end_to_end(Report& r, const BatchStats& st) {
  r.metric("throughput_qps", static_cast<double>(st.ops) / st.wall);
  r.metric("latency_p95_ms", percentile(st.latency, 0.95) * 1e3);
  r.detail("latency_p50_ms", json_number(percentile(st.latency, 0.50) * 1e3));
  r.detail("latency_samples", std::to_string(st.latency.size()));
  r.detail("timed_wall_s", json_number(st.wall));
}

void report_trace_overhead(Report& r, const BatchStats& st) {
  const std::uint64_t untraced_ops = st.ops - st.traced_ops;
  const double traced = ratio(st.traced_block_s, static_cast<double>(st.traced_ops));
  const double untraced = ratio(st.untraced_block_s, static_cast<double>(untraced_ops));
  r.metric("obs.trace_overhead", untraced == 0.0 ? 0.0 : traced / untraced - 1.0);
}

// ---- result comparison -------------------------------------------------------

// "" when the hit lists agree, else where they first differ.
std::string hits_diff(const std::vector<host::Hit>& a, const std::vector<host::Hit>& b) {
  for (std::size_t k = 0; k < std::max(a.size(), b.size()); ++k) {
    const auto show = [k](const std::vector<host::Hit>& h) {
      return k < h.size() ? "record " + std::to_string(h[k].record) + " score " +
                                std::to_string(h[k].result.score)
                          : std::string("nothing");
    };
    if (k >= a.size() || k >= b.size() || a[k].record != b[k].record ||
        !(a[k].result == b[k].result)) {
      return "rank " + std::to_string(k + 1) + ": " + show(a) + " vs " + show(b);
    }
  }
  return "";
}

bool same_alignments(const std::vector<retrieve::Traceback>& a,
                     const std::vector<retrieve::Traceback>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const align::LocalAlignment& x = a[k].alignment;
    const align::LocalAlignment& y = b[k].alignment;
    if (x.score != y.score || !(x.begin == y.begin) || !(x.end == y.end) ||
        !(x.cigar == y.cigar) || a[k].identity != b[k].identity ||
        a[k].query_coverage != b[k].query_coverage || a[k].banded != b[k].banded ||
        a[k].dp_cells != b[k].dp_cells || a[k].peak_cells != b[k].peak_cells) {
      return false;
    }
  }
  return true;
}

// Per-operation record kept for the checks after the timed phase.
struct OpRecord {
  std::uint32_t query = 0;
  std::int64_t top_record = -1;
  bool failed = false;
};

// Each operation's top hit must be a planted copy of its query's family.
void check_top_hits(Report& r, const Database& db, const std::vector<Query>& queries,
                    std::vector<OpRecord>& ops) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    OpRecord& op = ops[i];
    const std::uint32_t fam = queries[op.query].family;
    if (op.top_record < 0 || db.family_of[static_cast<std::size_t>(op.top_record)] !=
                                 static_cast<std::int32_t>(fam)) {
      op.failed = true;
      r.problem("op " + std::to_string(i) + ": top hit " + std::to_string(op.top_record) +
                " is not a copy of family " + std::to_string(fam));
    }
  }
}

void count_failures(Report& r, const std::vector<OpRecord>& ops) {
  r.attempted = ops.size();
  r.failed = static_cast<std::uint64_t>(
      std::count_if(ops.begin(), ops.end(), [](const OpRecord& o) { return o.failed; }));
}

void record_op(std::vector<OpRecord>& ops, std::uint64_t i, std::uint32_t query,
               const std::vector<host::Hit>& hits) {
  if (ops.size() <= i) ops.resize(i + 1);
  ops[i].query = query;
  ops[i].top_record = hits.empty() ? -1 : static_cast<std::int64_t>(hits.front().record);
}

seq::Sequence as_sequence(const Query& q, std::size_t k) {
  return seq::Sequence::dna(q.residues, "q" + std::to_string(k));
}

// 8-bit lane count of the profile bundle the CPU engine acquires for the
// machine's widest tier (the engine's own bundle_lanes rule), so a bundle
// built through the benchmark's cache is the one the scan then hits.
unsigned engine_bundle_lanes() {
  switch (core::auto_simd_isa()) {
    case core::SimdIsa::Avx2: return 32;
    case core::SimdIsa::Sse41: return 16;
    default: return 0;
  }
}

// Frees the generated residues once the FASTA is written: the program
// reads its database from the file, and the benchmark keeps only the
// family truth, so the peak RSS reflects the program rather than the
// generator.
void drop_residues(Database& db) {
  db.residues.clear();
  db.residues.shrink_to_fit();
}

// ---- scan_exact ----------------------------------------------------------------

// The paper's §6 search: 100 BP queries against ~10 MBP in 10k records,
// exact filter, two threads, interseq kernel on AVX2 stores. Every eighth
// query is a 400 BP family member whose copies score above 255, so the
// 8-bit overflow re-run ladder does real work.
Report run_scan_exact(const Args& a) {
  Report r;
  Rng rng(a.seed);
  DatabaseSpec spec;
  spec.records = 10000;
  spec.background_length = skewed_length;
  spec.families = {FamilySpec{32, 100, 4, Mutation{0.04, 0.005, 0.005}},
                   FamilySpec{8, 400, 4, Mutation{0.02, 0.002, 0.002}}};
  Database db = make_database(spec, rng);
  std::vector<Query> queries;
  for (std::size_t k = 0; k < 512; ++k) {
    const bool long_class = k % 8 == 7;
    const auto f = static_cast<std::uint32_t>(long_class ? 32 + rng() % 8 : rng() % 32);
    queries.push_back(make_query(db, f, long_class ? 0.02 : 0.04, rng));
  }
  const seq::Sequence warm = as_sequence(make_query(db, 0, 0.04, rng), 9999);
  const std::string fasta = a.work_dir + "/db.fa";
  write_fasta(db, fasta);
  r.detail("db_residues", std::to_string(db.total_residues));
  drop_residues(db);

  const align::Scoring sc = align::Scoring::paper_default();
  host::ScanOptions opt;
  opt.threads = 2;
  opt.top_k = 10;

  std::optional<db::Store> store;
  db::BuildStats built;
  time_setups(r, kSetupReps, [&](int rep) {
    SetupTimes t;
    store.reset();
    Clock::time_point t0 = Clock::now();
    built = ingest(a, fasta, rep);
    t.ingest = seconds_since(t0);
    t0 = Clock::now();
    store.emplace(db::Store::open(store_path(a, rep)));
    t.open = seconds_since(t0);
    t0 = Clock::now();
    (void)host::scan_database_cpu(warm, *store, sc, opt);
    t.warmup = seconds_since(t0);
    return t;
  });
  report_store_sizes(r, built, *store);

  obs::Registry reg;
  host::ProfileCache cache(4, &reg, "bench.profile");
  const unsigned lanes = engine_bundle_lanes();
  SpanLog log(Clock::now(), 0);
  std::vector<OpRecord> ops;
  std::vector<host::ScanResult> sample;  // ops 0..7, for the kernel cross-check
  std::uint64_t cells = 0, reruns = 0, traced_cells = 0;

  reset_peak_rss();
  const BatchStats st = run_batch(a.seconds, 8, a.trace, log, [&](std::uint64_t i, SpanLog* tr) {
    const std::uint32_t qi = static_cast<std::uint32_t>(i % queries.size());
    const seq::Sequence q = as_sequence(queries[qi], qi);
    host::ScanResult res;
    if (tr == nullptr) {
      res = host::scan_database_cpu(q, *store, sc, opt);
    } else {
      host::ScanOptions topt = opt;
      topt.metrics = &reg;
      topt.profile_cache = &cache;
      {
        const Span s(tr, "profile", i);
        (void)cache.acquire(q, sc, lanes);
      }
      const Span s(tr, "kernel", i);
      res = host::scan_database_cpu(q, *store, sc, topt);
      traced_cells += res.cell_updates;
    }
    cells += res.cell_updates;
    reruns += res.swar8_fallbacks;
    record_op(ops, i, qi, res.hits);
    if (i < 8) sample.push_back(std::move(res));
  });
  const double rss = peak_rss_mib();

  check_top_hits(r, db, queries, ops);
  // Striped and interseq kernels must agree bit for bit with the timed scan.
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    const seq::Sequence q = as_sequence(queries[ops[i].query], ops[i].query);
    for (const host::KernelShape shape :
         {host::KernelShape::Striped, host::KernelShape::InterSeq}) {
      host::ScanOptions o = opt;
      o.kernel = shape;
      const host::ScanResult other = host::scan_database_cpu(q, *store, sc, o);
      if (!hits_diff(other.hits, sample[i].hits).empty() ||
          other.swar8_fallbacks != sample[i].swar8_fallbacks) {
        ops[i].failed = true;
        r.problem("op " + std::to_string(i) + ": kernel " + core::kernel_shape_name(shape) +
                  " disagrees with the timed scan");
      }
    }
  }
  count_failures(r, ops);
  r.detail("overflow_reruns_per_query",
           json_number(ratio(static_cast<double>(reruns), st.ops)));
  r.detail("cells_per_query", json_number(ratio(static_cast<double>(cells), st.ops)));

  if (!a.trace) {
    report_end_to_end(r, st);
    r.metric("peak_rss_mb", rss);
    return r;
  }
  const obs::Snapshot snap = reg.snapshot();
  const double kernel_s = log.total_seconds("kernel");
  const double n = static_cast<double>(st.traced_ops);
  r.metric("kernel.gcups", ratio(static_cast<double>(traced_cells), kernel_s) / 1e9);
  r.metric("kernel.cells_per_query", counter(snap, "scan.cells") / n);
  r.metric("kernel.overflow_reruns_per_query", counter(snap, "scan.simd.fallbacks") / n);
  const HistSum occ = hist(snap, "scan.interseq.occupancy");
  r.metric("kernel.interseq_occupancy", lanes == 0 ? 0.0 : ratio(occ.sum, occ.count) / lanes);
  r.metric("kernel.interseq_refills", counter(snap, "scan.interseq.refills") / n);
  r.metric("par.worker_busy_share",
           ratio(hist(snap, "scan.worker_kernel_us").sum * 1e-6, opt.threads * kernel_s));
  r.metric("profile.build_us", log.total_seconds("profile") / n * 1e6);
  r.detail("profile_cache",
           "{\"hits\": " + json_number(counter(snap, "bench.profile.hits")) +
               ", \"misses\": " + json_number(counter(snap, "bench.profile.misses")) + "}");
  report_layer_shares(r, log.self_seconds(), st.traced_block_s);
  report_trace_overhead(r, st);
  write_spans_json({&log}, a.trace_path);
  return r;
}

// ---- serve_mixed -----------------------------------------------------------------

enum class SlotKind : std::uint8_t { Seeded, Exact, Repeat };

struct ServeSlot {
  SlotKind kind = SlotKind::Seeded;
  std::uint32_t query = 0;   ///< cold slots: index into the query pool
  std::uint32_t target = 0;  ///< repeat slots: the earlier slot repeated
};

// A repeat names a cold slot at least this many slots back, so with two
// closed-loop clients its first answer has long been cached.
constexpr std::size_t kRepeatGap = 32;

// Fixed request schedule: every group of ten slots holds two repeats,
// five seeded+align and three exact requests in shuffled order. Each cold
// slot gets its own fresh query.
std::vector<ServeSlot> make_schedule(std::size_t n, Rng& rng) {
  std::vector<ServeSlot> slots(n);
  std::vector<std::uint32_t> cold;
  for (std::size_t g = 0; g < n; g += 10) {
    std::array<SlotKind, 10> pattern = {SlotKind::Repeat, SlotKind::Repeat, SlotKind::Seeded,
                                        SlotKind::Seeded, SlotKind::Seeded, SlotKind::Seeded,
                                        SlotKind::Seeded, SlotKind::Exact,  SlotKind::Exact,
                                        SlotKind::Exact};
    std::shuffle(pattern.begin(), pattern.end(), rng);
    for (std::size_t k = 0; k < 10 && g + k < n; ++k) {
      const std::size_t i = g + k;
      ServeSlot& s = slots[i];
      s.kind = pattern[k];
      if (s.kind == SlotKind::Repeat) {
        const std::size_t eligible =
            i < kRepeatGap ? 0
                           : static_cast<std::size_t>(
                                 std::upper_bound(cold.begin(), cold.end(), i - kRepeatGap) -
                                 cold.begin());
        if (eligible == 0) {
          s.kind = SlotKind::Seeded;  // nothing old enough to repeat yet
        } else {
          s.target = cold[rng() % eligible];
          continue;
        }
      }
      s.query = static_cast<std::uint32_t>(cold.size());
      cold.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return slots;
}

svc::net::WireRequest make_request(const std::vector<ServeSlot>& slots, std::size_t i,
                                   const std::vector<Query>& queries) {
  const std::size_t cold = slots[i].kind == SlotKind::Repeat ? slots[i].target : i;
  const ServeSlot& s = slots[cold];
  svc::net::WireRequest req;
  // A repeat is the identical request, id included, so its answer must be
  // byte-identical to the cold one.
  req.request_id = cold + 1;
  req.query_name = "q" + std::to_string(cold);
  req.query = queries[s.query].residues;
  if (s.kind == SlotKind::Seeded) {
    req.top_k = 16;
    req.min_score = 60;
    req.filter = 1;
    req.align = 1;
  } else {
    req.top_k = 10;
    req.min_score = 1;
  }
  return req;
}

// The server's own request -> scan mapping, for the in-process replay.
host::ScanOptions scan_options(const svc::net::WireRequest& req) {
  host::ScanOptions opt;
  opt.top_k = req.top_k;
  opt.min_score = req.min_score;
  opt.filter = req.filter == 1 ? host::FilterMode::Seeded : host::FilterMode::Exact;
  opt.filter_threshold = req.filter_threshold;
  opt.align = req.align != 0;
  opt.max_hits = req.max_hits;
  return opt;
}

svc::net::ServerConfig server_config(obs::Registry* reg, obs::TraceRing* ring) {
  svc::net::ServerConfig cfg;
  cfg.service.cpu_workers = 2;
  cfg.service.max_inflight = 2;
  cfg.service.metrics = reg;
  cfg.service.trace = ring;
  cfg.metrics = reg;
  return cfg;
}

std::unique_ptr<svc::net::ScanServer> start_server(const db::Store& store,
                                                   svc::net::ServerConfig cfg) {
  auto server = std::make_unique<svc::net::ScanServer>(store, std::move(cfg));
  std::string err;
  if (!server->start(err)) throw std::runtime_error("server start: " + err);
  return server;
}

struct ServeOutcome {
  bool ok = false;
  double latency = 0.0;
  std::int64_t top = -1;
  std::vector<std::uint8_t> bytes;
  svc::net::WireDone done;
  std::string error;
};

struct ServePhase {
  std::vector<ServeOutcome> out;  ///< one per attempted slot, in slot order
  double wall = 0.0;
  double client_seconds = 0.0;  ///< summed over clients: phase start -> last answer
};

// Two client connections run a closed loop over the schedule until
// `seconds` have passed; each takes the next slot when its previous
// request is answered.
ServePhase run_serve_phase(std::uint16_t port, const std::vector<ServeSlot>& slots,
                           const std::vector<Query>& queries, double seconds,
                           std::vector<SpanLog>* logs) {
  constexpr std::size_t kClients = 2;
  ServePhase ph;
  ph.out.resize(slots.size());
  std::vector<svc::net::ScanClient> clients(kClients);
  for (svc::net::ScanClient& c : clients) {
    std::string err;
    if (!c.connect("127.0.0.1", port, err)) throw std::runtime_error("connect: " + err);
  }
  std::atomic<std::size_t> next{0};
  std::vector<double> client_end(kClients, 0.0);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
      while (seconds_since(t0) < seconds) {
        const std::size_t i = next.fetch_add(1);
        if (i >= slots.size()) break;
        const svc::net::WireRequest req = make_request(slots, i, queries);
        const Clock::time_point t = Clock::now();
        svc::net::ClientResponse resp;
        {
          const Span s(log, "net", i);
          resp = clients[c].scan(req);
        }
        ServeOutcome& o = ph.out[i];
        o.latency = seconds_since(t);
        o.ok = resp.ok && resp.errors.empty() &&
               resp.done.status == static_cast<std::uint8_t>(svc::QueryStatus::Done);
        o.top = resp.hits.empty() ? -1 : static_cast<std::int64_t>(resp.hits.front().record);
        o.bytes = std::move(resp.raw_bytes);
        o.done = resp.done;
        o.error = resp.error;
      }
      client_end[c] = seconds_since(t0);
    });
  }
  for (std::thread& t : threads) t.join();
  ph.wall = seconds_since(t0);
  ph.out.resize(std::min(next.load(), slots.size()));
  for (const double e : client_end) ph.client_seconds += e;
  return ph;
}

// Checks one phase: every request answered Done, every top hit a planted
// copy, every repeat byte-identical to its cold answer. Returns the
// failure flags, one per attempted slot.
std::vector<char> check_serve_phase(Report& r, const ServePhase& ph,
                                    const std::vector<ServeSlot>& slots,
                                    const std::vector<Query>& queries, const Database& db) {
  std::vector<char> failed(ph.out.size(), 0);
  for (std::size_t i = 0; i < ph.out.size(); ++i) {
    const ServeOutcome& o = ph.out[i];
    const std::size_t cold = slots[i].kind == SlotKind::Repeat ? slots[i].target : i;
    const std::uint32_t fam = queries[slots[cold].query].family;
    if (!o.ok) {
      failed[i] = 1;
      r.problem("request " + std::to_string(i) + " failed: " + o.error);
    } else if (o.top < 0 ||
               db.family_of[static_cast<std::size_t>(o.top)] != static_cast<std::int32_t>(fam)) {
      failed[i] = 1;
      r.problem("request " + std::to_string(i) + ": top hit is not a copy of family " +
                std::to_string(fam));
    } else if (cold != i && ph.out[cold].bytes != o.bytes) {
      failed[i] = 1;
      r.problem("request " + std::to_string(i) + ": replay differs from its cold answer");
    }
  }
  return failed;
}

// Three seeded and three exact cold requests against second paths: the
// socket bytes must equal the wire encoding of an in-process ScanService
// answer to the same request, and a seeded answer's hits and alignments
// must equal an exact-filter scan's (the seeded filter promises the exact
// hit set above its threshold, which is min_score here).
void check_serve_samples(Report& r, const db::Store& store, const ServePhase& ph,
                         const std::vector<ServeSlot>& slots, const std::vector<Query>& queries,
                         std::vector<char>& failed) {
  const svc::ServiceConfig cfg = server_config(nullptr, nullptr).service;
  svc::ScanService service(store, cfg);
  std::size_t seeded = 0, exact = 0;
  for (std::size_t i = 0; i < ph.out.size() && (seeded < 3 || exact < 3); ++i) {
    const SlotKind kind = slots[i].kind;
    if (kind == SlotKind::Repeat || (kind == SlotKind::Seeded ? seeded : exact) >= 3) continue;
    ++(kind == SlotKind::Seeded ? seeded : exact);
    const svc::net::WireRequest req = make_request(slots, i, queries);
    const seq::Sequence query(store.alphabet(), req.query, req.query_name);
    const svc::ScanResponse resp = service.submit(query, scan_options(req)).response.get();
    const std::vector<std::uint8_t> expect =
        svc::net::encode_response_bytes(svc::net::to_wire(resp, store), req.request_id);
    if (expect != ph.out[i].bytes) {
      failed[i] = 1;
      r.problem("request " + std::to_string(i) + ": socket bytes differ from in-process encoding");
    }
    if (kind != SlotKind::Seeded) continue;
    host::ScanOptions exact_opt = scan_options(req);
    exact_opt.filter = host::FilterMode::Exact;
    exact_opt.threads = 2;
    const host::ScanResult exact = host::scan_database_cpu(query, store, cfg.scoring, exact_opt);
    if (!hits_diff(exact.hits, resp.result.hits).empty() ||
        !same_alignments(exact.alignments, resp.result.alignments)) {
      failed[i] = 1;
      r.problem("request " + std::to_string(i) + ": exact filter disagrees with seeded: " +
                hits_diff(exact.hits, resp.result.hits));
    }
  }
}

// The daemon on loopback: two closed-loop clients, 20% repeats (result
// cache replays), 50% seeded+align, 30% exact, over ~2 MBP with 64
// families x 4 copies.
Report run_serve_mixed(const Args& a) {
  Report r;
  Rng rng(a.seed);
  DatabaseSpec spec;
  spec.records = 2000;
  spec.background_length = skewed_length;
  spec.families = {FamilySpec{64, 200, 4, Mutation{0.08, 0.01, 0.01}}};
  Database db = make_database(spec, rng);
  const std::vector<ServeSlot> slots = make_schedule(8000, rng);
  std::vector<Query> queries;
  for (const ServeSlot& s : slots) {
    if (s.kind != SlotKind::Repeat) {
      queries.push_back(make_query(db, static_cast<std::uint32_t>(rng() % 64), 0.04, rng));
    }
  }
  const Query warm = make_query(db, 0, 0.04, rng);
  const std::string fasta = a.work_dir + "/db.fa";
  write_fasta(db, fasta);
  r.detail("db_residues", std::to_string(db.total_residues));
  drop_residues(db);

  std::unique_ptr<svc::net::ScanServer> server;
  std::optional<db::Store> store;
  db::BuildStats built;
  time_setups(r, kSetupReps, [&](int rep) {
    SetupTimes t;
    server.reset();
    store.reset();
    Clock::time_point t0 = Clock::now();
    built = ingest(a, fasta, rep);
    t.ingest = seconds_since(t0);
    t0 = Clock::now();
    store.emplace(db::Store::open(store_path(a, rep)));
    t.open = seconds_since(t0);
    t0 = Clock::now();
    server = start_server(*store, server_config(nullptr, nullptr));
    t.start = seconds_since(t0);
    t0 = Clock::now();
    svc::net::ScanClient client;
    std::string err;
    if (!client.connect("127.0.0.1", server->port(), err)) throw std::runtime_error(err);
    svc::net::WireRequest req;
    req.request_id = 1;
    req.query = warm.residues;
    req.top_k = 16;
    req.min_score = 60;
    req.filter = 1;
    req.align = 1;
    if (!client.scan(req).ok) throw std::runtime_error("warm-up request failed");
    t.warmup = seconds_since(t0);
    return t;
  });
  report_store_sizes(r, built, *store);

  if (!a.trace) {
    reset_peak_rss();
    const ServePhase ph = run_serve_phase(server->port(), slots, queries, a.seconds, nullptr);
    const double rss = peak_rss_mib();
    std::vector<char> failed = check_serve_phase(r, ph, slots, queries, db);
    check_serve_samples(r, *store, ph, slots, queries, failed);
    r.attempted = ph.out.size();
    r.failed = static_cast<std::uint64_t>(std::count(failed.begin(), failed.end(), 1));
    std::vector<double> lat;
    for (const ServeOutcome& o : ph.out) lat.push_back(o.latency);
    r.metric("throughput_qps", static_cast<double>(ph.out.size()) / ph.wall);
    r.metric("latency_p95_ms", percentile(lat, 0.95) * 1e3);
    r.metric("peak_rss_mb", rss);
    r.detail("latency_p50_ms", json_number(percentile(lat, 0.50) * 1e3));
    r.detail("latency_samples", std::to_string(lat.size()));
    r.detail("timed_wall_s", json_number(ph.wall));
    return r;
  }

  // Traced: the same schedule runs first against the plain server, then
  // against a fresh instrumented one (registry + trace ring), half the
  // time each; the tracing overhead compares the slots both phases ran.
  const ServePhase plain = run_serve_phase(server->port(), slots, queries, a.seconds / 2, nullptr);
  server.reset();
  obs::Registry reg;
  obs::TraceRing ring(slots.size());
  server = start_server(*store, server_config(&reg, &ring));
  std::vector<SpanLog> logs;
  const Clock::time_point epoch = Clock::now();
  for (std::uint32_t c = 0; c < 2; ++c) logs.emplace_back(epoch, c);
  const ServePhase ph = run_serve_phase(server->port(), slots, queries, a.seconds / 2, &logs);
  server.reset();  // joins every server thread before the registry is read

  std::vector<char> failed = check_serve_phase(r, plain, slots, queries, db);
  std::vector<char> traced_failed = check_serve_phase(r, ph, slots, queries, db);
  check_serve_samples(r, *store, ph, slots, queries, traced_failed);
  failed.insert(failed.end(), traced_failed.begin(), traced_failed.end());
  r.attempted = failed.size();
  r.failed = static_cast<std::uint64_t>(std::count(failed.begin(), failed.end(), 1));

  const obs::Snapshot snap = reg.snapshot();
  double round_trips = 0.0;
  for (const ServeOutcome& o : ph.out) round_trips += o.latency;
  // Service spans: span time, the part of it spent waiting for or in
  // execution (admission wait + dispatch window, which for an --align
  // request runs to the end of its traceback), and the traceback itself.
  double svc_total = 0.0, exec_windows = 0.0, retrieve_s = 0.0;
  for (const obs::Span& span : ring.spans()) {
    svc_total += span.total;
    exec_windows += span.admission_wait + span.dispatch_window;
    retrieve_s += span.traceback;
  }
  const double requests = static_cast<double>(ph.out.size());
  const double done = counter(snap, "svc.queries_done");
  const double exec_cpu_s = hist(snap, "svc.chunk_cpu_us").sum * 1e-6;
  const HistSum admission = hist(snap, "svc.admission_wait_us");
  const HistSum merge = hist(snap, "svc.merge_us");
  const HistSum traceback = hist(snap, "svc.traceback_us");
  r.metric("svc.admission_wait_ms", ratio(admission.sum, admission.count) * 1e-3);
  r.metric("svc.exec_cpu_ms", ratio(exec_cpu_s * 1e3, done));
  r.metric("svc.merge_ms", ratio(merge.sum, merge.count) * 1e-3);
  r.metric("svc.traceback_ms", ratio(traceback.sum, traceback.count) * 1e-3);
  r.metric("svc.chunks_per_query", ratio(counter(snap, "svc.chunks_cpu"), done));
  r.metric("net.overhead_ms", ratio((round_trips - svc_total) * 1e3, requests));
  r.metric("net.bytes_out_per_request",
           ratio(counter(snap, "svc.net.bytes_out"), counter(snap, "svc.net.responses")));
  const double rhits = counter(snap, "svc.cache.result.hits");
  const double phits = counter(snap, "svc.cache.profile.hits");
  r.metric("cache.result_hit_ratio",
           ratio(rhits, rhits + counter(snap, "svc.cache.result.misses")));
  r.metric("cache.profile_hit_ratio",
           ratio(phits, phits + counter(snap, "svc.cache.profile.misses")));
  r.metric("net.refused", counter(snap, "svc.net.overloaded") + counter(snap, "svc.net.shed"));
  r.metric("kernel.gcups", ratio(counter(snap, "svc.cells"), exec_cpu_s) / 1e9);
  r.metric("kernel.cells_per_query", ratio(counter(snap, "svc.cells"), done));
  r.metric("par.worker_busy_share", ratio(exec_cpu_s, 2.0 * ph.wall));
  const double rh = counter(snap, "retrieve.hits");
  r.metric("retrieve.us_per_hit", ratio(hist(snap, "retrieve.traceback_us").sum, rh));
  r.metric("retrieve.cells_per_hit", ratio(counter(snap, "retrieve.cells"), rh));
  r.metric("retrieve.banded_ratio", ratio(counter(snap, "retrieve.banded"), rh));
  double seeded = 0.0, rejected = 0.0, domain = 0.0, candidates = 0.0;
  for (std::size_t i = 0; i < ph.out.size(); ++i) {
    if (slots[i].kind != SlotKind::Seeded) continue;
    const svc::net::WireDone& d = ph.out[i].done;
    seeded += 1.0;
    rejected += static_cast<double>(d.filter_rejected);
    domain += static_cast<double>(d.filter_rejected + d.filter_rescored);
    candidates += static_cast<double>(d.filter_candidates);
  }
  r.metric("prefilter.reject_ratio", ratio(rejected, domain));
  r.metric("prefilter.candidates_per_query", ratio(candidates, seeded));
  // Self times on the two client timelines (two clients, two workers).
  // svc/net is each round trip outside the service span: framing, cache
  // replays, socket I/O. Inside the span, a request's admission wait and
  // dispatch window are spent waiting for the workers, which run its
  // chunks and traceback or those of the request ahead of it. That time
  // goes to the kernel and to retrieve as the chunk and traceback times
  // the workers measured; svc keeps the rest of the span (merge and
  // bookkeeping). Since the workers' clocks, not the spans, give kernel
  // and retrieve, the layer sum falls short of the round trips when
  // workers idle while requests wait.
  const std::map<std::string, double> self = {
      {"net", round_trips - svc_total},
      {"svc", svc_total - exec_windows},
      {"kernel", exec_cpu_s},
      {"retrieve", retrieve_s},
      {"bench", ph.client_seconds - round_trips},
  };
  report_layer_shares(r, self, ph.client_seconds);
  double plain_rt = 0.0, traced_rt = 0.0;
  for (std::size_t i = 0; i < std::min(plain.out.size(), ph.out.size()); ++i) {
    plain_rt += plain.out[i].latency;
    traced_rt += ph.out[i].latency;
  }
  r.metric("obs.trace_overhead", plain_rt == 0.0 ? 0.0 : traced_rt / plain_rt - 1.0);
  r.detail("svc_spans", std::to_string(ring.spans().size()));
  std::vector<const SpanLog*> all;
  for (const SpanLog& l : logs) all.push_back(&l);
  write_spans_json(all, a.trace_path);
  return r;
}

// ---- board_fleet ---------------------------------------------------------------------

std::uint64_t fleet_evaluations(core::BoardFleet& fleet) {
  std::uint64_t n = 0;
  for (auto& b : fleet) n += b->controller().array().evaluations();
  return n;
}

void bind_bus_metrics(core::BoardFleet& fleet, obs::Registry* reg) {
  for (auto& b : fleet) b->bind_bus_metrics(reg);
}

// Queries per block of the timed phase, and per warm-up.
constexpr std::uint32_t kFleetBlock = 4;

// A warm-up block is about 0.4 s, so more set-ups fit than elsewhere.
constexpr int kFleetSetupReps = 7;

// The paper's hardware half: 4 boards x 100 PEs on xc2vp70, event
// scheduler, DMA bus modelled, simulated one board after another on one
// host thread. 250 BP queries take three figure-7 partitioning passes.
Report run_board_fleet(const Args& a) {
  Report r;
  Rng rng(a.seed);
  DatabaseSpec spec;
  spec.records = 60;
  spec.background_length = [](std::size_t rec) { return 80 + 53 * (rec % 7); };
  spec.families = {FamilySpec{6, 250, 2, Mutation{0.04, 0.005, 0.005}}};
  Database db = make_database(spec, rng);
  std::vector<Query> queries;
  for (std::size_t k = 0; k < 256; ++k) {
    queries.push_back(make_query(db, static_cast<std::uint32_t>(rng() % 6), 0.04, rng));
  }
  // Ingest, open and fleet build take about 2 ms here, so the warm-up is
  // nearly all of the set-up. It is one block of the timed phase rather
  // than one query, so the host's second-long speed episodes average out
  // within a set-up instead of deciding it.
  std::vector<seq::Sequence> warm;
  for (std::uint32_t k = 0; k < kFleetBlock; ++k) {
    warm.push_back(as_sequence(make_query(db, k, 0.04, rng), 9999 - k));
  }
  const std::string fasta = a.work_dir + "/db.fa";
  write_fasta(db, fasta);
  r.detail("db_residues", std::to_string(db.total_residues));
  drop_residues(db);

  const align::Scoring sc = align::Scoring::paper_default();
  core::FleetOptions fo;
  fo.device = "xc2vp70";
  fo.boards = 4;
  fo.pes_per_board = 100;
  fo.sched = hw::SchedMode::Event;
  fo.model_bus = true;
  host::ScanOptions opt;
  opt.threads = 1;
  opt.top_k = 10;

  core::BoardFleet fleet;
  std::optional<db::Store> store;
  db::BuildStats built;
  time_setups(r, kFleetSetupReps, [&](int rep) {
    SetupTimes t;
    fleet.clear();
    store.reset();
    Clock::time_point t0 = Clock::now();
    built = ingest(a, fasta, rep);
    t.ingest = seconds_since(t0);
    t0 = Clock::now();
    store.emplace(db::Store::open(store_path(a, rep)));
    t.open = seconds_since(t0);
    t0 = Clock::now();
    fleet = core::make_board_fleet(fo, sc);
    t.start = seconds_since(t0);
    t0 = Clock::now();
    for (const seq::Sequence& w : warm) (void)host::scan_database_fleet(fleet, w, *store, opt);
    t.warmup = seconds_since(t0);
    return t;
  });
  report_store_sizes(r, built, *store);

  obs::Registry reg;
  SpanLog log(Clock::now(), 0);
  std::vector<OpRecord> ops;
  std::vector<host::ScanResult> results;
  std::uint64_t evals = 0, traced_cycles = 0;
  double board_s = 0.0, traced_board_s = 0.0;

  reset_peak_rss();
  const BatchStats st =
      run_batch(a.seconds, kFleetBlock, a.trace, log, [&](std::uint64_t i, SpanLog* tr) {
    const std::uint32_t qi = static_cast<std::uint32_t>(i % queries.size());
    const seq::Sequence q = as_sequence(queries[qi], qi);
    host::ScanResult res;
    if (tr == nullptr) {
      res = host::scan_database_fleet(fleet, q, *store, opt);
    } else {
      host::ScanOptions topt = opt;
      topt.metrics = &reg;
      bind_bus_metrics(fleet, &reg);
      const std::uint64_t before = fleet_evaluations(fleet);
      {
        const Span s(tr, "sim", i);
        res = host::scan_database_fleet(fleet, q, *store, topt);
      }
      evals += fleet_evaluations(fleet) - before;
      bind_bus_metrics(fleet, nullptr);
      traced_cycles += res.board_cycles;
      traced_board_s += res.board_seconds;
    }
    board_s += res.board_seconds;
    record_op(ops, i, qi, res.hits);
    results.push_back(std::move(res));
  });
  const double rss = peak_rss_mib();

  check_top_hits(r, db, queries, ops);
  // Every operation: the CPU engine's hits, and the analytic cycle model.
  host::ScanOptions cpu_opt = opt;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const seq::Sequence q = as_sequence(queries[ops[i].query], ops[i].query);
    std::uint64_t predicted = 0;
    for (std::size_t rec = 0; rec < store->size(); ++rec) {
      if (store->length(rec) == 0) continue;
      predicted += core::predict_cycles(q.size(), store->length(rec), fo.pes_per_board, true)
                       .total_cycles;
    }
    const bool hits_ok =
        hits_diff(host::scan_database_cpu(q, *store, sc, cpu_opt).hits, results[i].hits).empty();
    if (!hits_ok || predicted != results[i].board_cycles) {
      ops[i].failed = true;
      r.problem("op " + std::to_string(i) + (hits_ok ? ": board cycles differ from the model"
                                                     : ": board hits differ from the CPU engine"));
    }
  }
  count_failures(r, ops);
  r.detail("modelled_board_ms", json_number(board_s / static_cast<double>(st.ops) * 1e3));

  if (!a.trace) {
    report_end_to_end(r, st);
    r.metric("peak_rss_mb", rss);
    return r;
  }
  const obs::Snapshot snap = reg.snapshot();
  const double n = static_cast<double>(st.traced_ops);
  r.metric("sim.ns_per_pe_eval", ratio(log.total_seconds("sim") * 1e9, static_cast<double>(evals)));
  r.metric("sim.pe_evals_per_query", static_cast<double>(evals) / n);
  r.metric("sim.cycles_per_query", static_cast<double>(traced_cycles) / n);
  r.metric("fleet.busiest_board_share",
           ratio(traced_board_s, hist(snap, "fleet.board_modelled_us").sum * 1e-6));
  r.metric("fleet.modelled_board_ms", board_s / static_cast<double>(st.ops) * 1e3);
  r.metric("pci.stall_share",
           ratio(counter(snap, "hw.pci.stall_cycles"), static_cast<double>(traced_cycles)));
  report_layer_shares(r, log.self_seconds(), st.traced_block_s);
  report_trace_overhead(r, st);
  write_spans_json({&log}, a.trace_path);
  return r;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_qps", "1/s"},
      {"latency_p95_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() { return kLayerMetrics; }

Report run_workload(const Args& args) {
  if (args.workload == "scan_exact") return run_scan_exact(args);
  if (args.workload == "serve_mixed") return run_serve_mixed(args);
  if (args.workload == "board_fleet") return run_board_fleet(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
