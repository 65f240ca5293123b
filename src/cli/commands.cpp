#include "cli/commands.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "align/evalue.hpp"
#include "align/fitting.hpp"
#include "align/hirschberg.hpp"
#include "align/myers_miller.hpp"
#include "align/near_best.hpp"
#include "align/nw.hpp"
#include "align/render.hpp"
#include "align/seed_extend.hpp"
#include "align/sw_full.hpp"
#include "cli/args.hpp"
#include "cli/serve_cmd.hpp"
#include "core/accelerator.hpp"
#include "core/cpu_features.hpp"
#include "core/topology.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/fleet_scan.hpp"
#include "host/pipeline.hpp"
#include "host/scan_engine.hpp"
#include "hw/sched.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "retrieve/traceback.hpp"
#include "seq/codon.hpp"
#include "seq/fasta.hpp"
#include "seq/fastq.hpp"
#include "svc/scan_service.hpp"

namespace swr::cli {
namespace {

const seq::Alphabet& alphabet_by_name(const std::string& name) {
  if (name == "dna") return seq::dna();
  if (name == "rna") return seq::rna();
  if (name == "protein") return seq::protein();
  throw ArgError("unknown alphabet '" + name + "' (dna|rna|protein)");
}

// A scoring option (--match, --gap, ...) takes any Score: Scoring::validate
// judges the signs.
align::Score score_option(const ArgParser& args, const std::string& name) {
  return args.get_int_as<align::Score>(name, std::numeric_limits<align::Score>::min());
}

}  // namespace

align::Scoring scoring_from(const ArgParser& args, const seq::Alphabet& ab) {
  align::Scoring sc;
  if (ab.id() == seq::AlphabetId::Protein) {
    sc.matrix = &align::blosum62();
    sc.gap = -8;
  }
  if (args.get_optional("match")) sc.match = score_option(args, "match");
  if (args.get_optional("mismatch")) sc.mismatch = score_option(args, "mismatch");
  if (args.get_optional("gap")) sc.gap = score_option(args, "gap");
  sc.validate();
  return sc;
}

namespace {

seq::Sequence first_record(const std::string& path, const seq::Alphabet& ab) {
  const auto recs = seq::read_fasta_file(path, ab);
  if (recs.empty()) throw ArgError("no FASTA records in '" + path + "'");
  return recs.front();
}

align::AffineScoring affine_scoring_from(const ArgParser& args, const seq::Alphabet& ab) {
  align::AffineScoring sc;
  if (ab.id() == seq::AlphabetId::Protein) {
    sc.matrix = &align::blosum62();
    sc.gap_open = -10;
    sc.gap_extend = -1;
  }
  if (args.get_optional("match")) sc.match = score_option(args, "match");
  if (args.get_optional("mismatch")) sc.mismatch = score_option(args, "mismatch");
  if (args.get_optional("gap-open")) sc.gap_open = score_option(args, "gap-open");
  if (args.get_optional("gap-extend")) sc.gap_extend = score_option(args, "gap-extend");
  sc.validate();
  return sc;
}

// Local mode of `swr align`, either gap model: software passes, or the
// accelerator model's passes through the host pipeline (a = database rows,
// b = query columns). Both come out of retrieve::traceback_hit.
template <typename Pe>
align::LocalAlignment local_alignment(const seq::Sequence& a, const seq::Sequence& b,
                                      const typename core::BasicAccelerator<Pe>::Scoring& sc,
                                      bool accel, std::size_t pes) {
  if (!accel) return retrieve::local_align_linear(a, b, sc);
  core::BasicAccelerator<Pe> acc(core::xc2vp70(), pes, sc);
  host::BasicHostPipeline<Pe> pipe(acc, host::PciConfig{});
  return pipe.align(/*query=*/b, /*db=*/a).alignment;
}

int cmd_align(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("mode", "local")
      .option("alphabet", "dna")
      .option("match")
      .option("mismatch")
      .option("gap")
      .option("gap-open")
      .option("gap-extend")
      .flag("affine")
      .flag("matrix")
      .option("engine", "sw")
      .option("pes", "100");
  args.parse(argv);
  if (args.positionals().size() != 2) {
    throw ArgError("align needs exactly two FASTA files");
  }
  const std::string mode = args.get("mode");
  if (mode != "local" && mode != "global" && mode != "fitting") {
    throw ArgError("unknown mode '" + mode + "' (local|global|fitting)");
  }
  const std::string engine = args.get("engine");
  if (engine != "sw" && engine != "accel") {
    throw ArgError("unknown engine '" + engine + "' (sw|accel)");
  }
  const bool accel = engine == "accel";
  if (accel && mode != "local") {
    throw ArgError("--engine accel supports local mode only (the array computes local scores)");
  }
  const seq::Alphabet& ab = alphabet_by_name(args.get("alphabet"));
  const bool affine = args.has("affine");
  if (affine && mode == "fitting") {
    throw ArgError("--affine supports local and global modes only");
  }
  if (args.has("matrix") && (affine || mode != "local")) {
    throw ArgError("--matrix renders the figure-2 similarity matrix (linear-gap local mode only)");
  }
  const seq::Sequence a = first_record(args.positionals()[0], ab);
  const seq::Sequence b = first_record(args.positionals()[1], ab);

  align::LocalAlignment al;
  if (mode == "local") {
    const std::size_t pes = accel ? args.get_int_as<std::size_t>("pes") : 0;
    al = affine ? local_alignment<core::AffinePe>(a, b, affine_scoring_from(args, ab), accel, pes)
                : local_alignment<core::ScorePe>(a, b, scoring_from(args, ab), accel, pes);
  } else if (affine) {
    al = align::myers_miller_align(a, b, affine_scoring_from(args, ab));
  } else if (mode == "global") {
    al = align::hirschberg_align(a, b, scoring_from(args, ab));
  } else {
    al = align::fitting_align(a, b, scoring_from(args, ab));
  }

  out << "a: " << a.name() << " (" << a.size() << " residues)\n";
  out << "b: " << b.name() << " (" << b.size() << " residues)\n";
  out << "mode: " << mode << (affine ? " (affine)" : "") << "  score: " << al.score << "\n";
  if (!al.cigar.empty()) {
    out << "a[" << al.begin.i << ".." << al.end.i << "]  b[" << al.begin.j << ".." << al.end.j
        << "]  identity " << static_cast<int>(align::cigar_identity(al.cigar) * 100.0) << "%\n";
    out << "cigar: " << al.cigar.to_string() << "\n";
    out << align::format_alignment(al.cigar, a, b, al.begin);
  } else {
    out << "(empty alignment)\n";
  }
  if (args.has("matrix")) {
    // The figure-2 teaching view is O(m*n) text; cap it at roughly a
    // 100x100 matrix so a stray genome-sized input fails as a usage error
    // instead of flooding the terminal.
    constexpr std::size_t kMatrixCellCap = 101 * 101;
    if ((a.size() + 1) * (b.size() + 1) > kMatrixCellCap) {
      throw ArgError("--matrix needs small inputs (at most ~100x100 residues)");
    }
    const align::Scoring sc = scoring_from(args, ab);
    const align::SimilarityMatrix m = align::sw_matrix(a, b, sc);
    out << align::render_matrix_with_arrows(m, a, b, sc, al.cigar.empty() ? nullptr : &al);
  }
  return 0;
}

// Delegates spelling to core/cpu_features so the CLI, the SWR_SIMD env
// variable, and the error message can never drift apart. Unknown values
// are rejected here at parse time (the env path instead warns and falls
// back to auto — a bad ambient variable must not kill a scan). nullopt is
// auto.
std::optional<core::SimdIsa> simd_isa_by_name(const std::string& name) {
  try {
    return core::parse_simd_isa(name);
  } catch (const std::invalid_argument& e) {
    throw ArgError(e.what());
  }
}

// Same contract for --kernel: spelling lives in core/cpu_features, bad
// values are usage errors here (the SWR_KERNEL env path warns instead).
host::KernelShape kernel_shape_by_name(const std::string& name) {
  try {
    return core::parse_kernel_shape(name);
  } catch (const std::invalid_argument& e) {
    throw ArgError(e.what());
  }
}

// Same contract for --numa: spelling and fake-spec validation live in
// core/topology; bad values are usage errors here (the SWR_NUMA_FAKE env
// path warns instead).
core::NumaRequest numa_request_by_name(const std::string& name) {
  try {
    return core::parse_numa_request(name);
  } catch (const core::TopologyError& e) {
    throw ArgError(e.what());
  }
}

/// True when `path` starts with the .swdb magic bytes — `scan` sniffs the
/// database file instead of trusting its extension.
bool looks_like_swdb(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::array<char, 8> magic{};
  in.read(magic.data(), static_cast<std::streamsize>(magic.size()));
  return in.gcount() == static_cast<std::streamsize>(magic.size()) && magic == db::kMagic;
}

/// A scan database: either a memory-mapped .swdb store or an in-memory
/// FASTA record vector, behind the few accessors the reports need.
struct ScanDatabase {
  std::optional<db::Store> store;
  std::vector<seq::Sequence> records;

  [[nodiscard]] std::size_t size() const { return store ? store->size() : records.size(); }
  [[nodiscard]] std::uint64_t residues() const {
    if (store) return store->total_residues();
    std::uint64_t total = 0;
    for (const auto& rec : records) total += rec.size();
    return total;
  }
  [[nodiscard]] std::string name(std::size_t r) const {
    return store ? std::string(store->name(r)) : records[r].name();
  }
  [[nodiscard]] seq::Sequence sequence(std::size_t r) const {
    return store ? store->sequence(r) : records[r];
  }
};

ScanDatabase load_scan_database(const std::string& path, const seq::Alphabet& ab,
                                obs::Registry* metrics) {
  ScanDatabase database;
  if (looks_like_swdb(path)) {
    database.store = db::Store::open(path, metrics);
  } else {
    database.records = seq::read_fasta_file(path, ab);
  }
  return database;
}

/// Writes the registry snapshot as JSON to `path` (--metrics-out).
void write_metrics_file(const obs::Registry& reg, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ArgError("cannot write metrics file '" + path + "'");
  out << obs::to_json(reg.snapshot());
}

/// The --stats footer: the registry snapshot as a human-readable table.
void print_stats(std::ostream& out, const obs::Registry& reg) {
  out << "-- stats " << std::string(64, '-') << "\n";
  out << obs::to_table(reg.snapshot());
}

std::string percent(double fraction) {
  std::ostringstream s;
  s.precision(1);
  s << std::fixed << fraction * 100.0;
  return s.str();
}

void print_hits(std::ostream& out, const host::ScanResult& scan, const ScanDatabase& database,
                const seq::Sequence& query, const align::KarlinParams& kp,
                const host::ScanOptions& opt, const std::string& format) {
  const std::uint64_t total = database.residues();
  if (format == "tsv") {
    // Machine-readable rows only; alignment columns are '*' for hits past
    // the --max-hits cap (or when --align is off).
    out << "#rank\tname\tscore\tevalue\tend_rec\tend_query\tbegin_rec\tbegin_query"
           "\tidentity\tcoverage\tcigar\n";
    for (std::size_t k = 0; k < scan.hits.size(); ++k) {
      const host::Hit& h = scan.hits[k];
      std::ostringstream e;
      e.precision(2);
      e << std::scientific << align::e_value(h.result.score, query.size(), total, kp);
      out << (k + 1) << '\t' << database.name(h.record) << '\t' << h.result.score << '\t'
          << e.str() << '\t' << h.result.end.i << '\t' << h.result.end.j;
      if (k < scan.alignments.size()) {
        const retrieve::Traceback& tb = scan.alignments[k];
        out << '\t' << tb.alignment.begin.i << '\t' << tb.alignment.begin.j << '\t'
            << percent(tb.identity) << '\t' << percent(tb.query_coverage) << '\t'
            << tb.alignment.cigar.to_string() << '\n';
      } else {
        out << "\t*\t*\t*\t*\t*\n";
      }
    }
    return;
  }
  out << "hits (top " << opt.top_k << ", score >= " << opt.min_score << "):\n";
  for (std::size_t k = 0; k < scan.hits.size(); ++k) {
    const host::Hit& h = scan.hits[k];
    std::ostringstream e;
    e.precision(2);
    e << std::scientific << align::e_value(h.result.score, query.size(), total, kp);
    out << "  " << (k + 1) << ". " << database.name(h.record) << "  score " << h.result.score
        << "  E " << e.str() << "  end (" << h.result.end.i << "," << h.result.end.j << ")\n";
    if (k < scan.alignments.size()) {
      const retrieve::Traceback& tb = scan.alignments[k];
      out << "     rec[" << tb.alignment.begin.i << ".." << tb.alignment.end.i << "]  query["
          << tb.alignment.begin.j << ".." << tb.alignment.end.j << "]  identity "
          << percent(tb.identity) << "%  coverage " << percent(tb.query_coverage) << "%  "
          << (tb.banded ? "banded" : "hirschberg") << "\n";
      out << "     cigar: " << tb.alignment.cigar.to_string() << "\n";
      if (format == "pretty") {
        out << align::format_alignment(tb.alignment.cigar, database.sequence(h.record), query,
                                       tb.alignment.begin);
      }
    }
  }
  if (scan.hits.empty()) out << "  (none)\n";
  out << "stats: " << scan.records_scanned << " records scanned, " << scan.cell_updates
      << " cells, " << scan.swar8_fallbacks << " swar8 fallbacks\n";
  if (opt.filter == host::FilterMode::Seeded) {
    out << "filter: " << scan.filter_candidates << " candidates, " << scan.filter_rejected
        << " rejected, " << scan.filter_rescored << " rescored (" << scan.filter_recall_guard
        << " recall guards)\n";
  }
}

/// `scan --batch`: every record of the query file is one query, served
/// concurrently through svc::ScanService. Results print in submission
/// order; hits are bit-identical to running `scan` once per query.
int scan_batch(const ArgParser& args, const seq::Alphabet& ab, const align::Scoring& sc,
               const host::ScanOptions& opt, const ScanDatabase& database,
               obs::Registry* metrics, const std::string& format, std::ostream& out) {
  const auto queries = seq::read_fasta_file(args.positionals()[0], ab);
  if (queries.empty()) throw ArgError("no query records in '" + args.positionals()[0] + "'");

  svc::ServiceConfig cfg;
  cfg.cpu_workers = args.get_int_as<std::size_t>("cpu-workers");
  cfg.fleet.device = args.get("board-device");
  cfg.fleet.boards = args.get_int_as<std::size_t>("boards");
  cfg.fleet.pes_per_board = args.get_int_as<std::size_t>("pes");
  if (const auto sched = hw::parse_sched_mode(args.get("sched"))) cfg.fleet.sched = *sched;
  cfg.queue_capacity = std::max(args.get_int_as<std::size_t>("queue"), queries.size());
  cfg.max_inflight = args.get_int_as<std::size_t>("inflight");
  cfg.chunk_records = args.get_int_as<std::size_t>("chunk");
  cfg.numa = opt.numa;
  cfg.scoring = sc;
  cfg.metrics = metrics;
  // One span per query; keep them all so the --stats trace table is
  // complete. Slow threshold from --slow-ms (0 = slow log off).
  std::optional<obs::TraceRing> trace;
  if (metrics != nullptr) {
    trace.emplace(queries.size(), args.get_int_as<std::int64_t>("slow-ms") / 1e3);
    cfg.trace = &*trace;
  }
  const std::chrono::milliseconds deadline(args.get_int_as<std::int64_t>("deadline-ms"));

  const align::KarlinParams kp = align::solve_karlin_uniform(sc, ab.size());
  if (format != "tsv") {
    out << "database: " << database.size() << " records, " << database.residues()
        << " residues\n";
    out << "service: " << cfg.cpu_workers << " cpu workers, " << cfg.fleet.boards << " boards, "
        << cfg.max_inflight << " in flight, " << cfg.chunk_records << " records/chunk\n";
  }

  std::vector<svc::Ticket> tickets;
  tickets.reserve(queries.size());
  {
    auto run = [&](const auto& db_ref) {
      svc::ScanService service(db_ref, cfg);
      for (const seq::Sequence& q : queries) tickets.push_back(service.submit(q, opt, deadline));
      for (svc::Ticket& t : tickets) t.response.wait();
    };
    if (database.store) {
      run(*database.store);
    } else {
      run(database.records);
    }
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const svc::ScanResponse& resp = tickets[i].response.get();
    if (format == "tsv") {
      out << "# query " << (i + 1) << "/" << queries.size() << " " << queries[i].name() << "\n";
    } else {
      out << "query " << (i + 1) << "/" << queries.size() << ": " << queries[i].name() << " ("
          << queries[i].size() << " residues)\n";
    }
    if (resp.status != svc::QueryStatus::Done) {
      out << "status: " << svc::to_string(resp.status);
      if (!resp.error.empty()) out << " (" << resp.error << ")";
      out << "\n";
    }
    print_hits(out, resp.result, database, queries[i], kp, opt, format);
  }

  if (trace) {
    out << "-- trace spans (ms) " << std::string(53, '-') << "\n";
    char line[176];
    std::snprintf(line, sizeof line, "%6s %-17s %6s %9s %9s %9s %9s %7s %8s %8s\n", "query",
                  "status", "chunks", "admit", "window", "exec_cpu", "exec_brd", "merge",
                  "trcback", "total");
    out << line;
    for (const obs::Span& s : trace->spans()) {
      std::snprintf(line, sizeof line,
                    "%6llu %-17s %6u %9.2f %9.2f %9.2f %9.2f %7.2f %8.2f %8.2f\n",
                    static_cast<unsigned long long>(s.query_id), s.status, s.chunks,
                    s.admission_wait * 1e3, s.dispatch_window * 1e3, s.exec_cpu * 1e3,
                    s.exec_board * 1e3, s.merge * 1e3, s.traceback * 1e3, s.total * 1e3);
      out << line;
    }
    const auto slow = trace->slow();
    if (!slow.empty()) {
      out << "slow queries (total >= " << trace->slow_threshold_seconds() * 1e3 << " ms): ";
      for (std::size_t k = 0; k < slow.size(); ++k) {
        out << (k == 0 ? "" : ", ") << slow[k].query_id;
      }
      out << "\n";
    }
  }
  return 0;
}

int cmd_scan(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("alphabet", "dna")
      .option("top", "10")
      .option("min-score", "20")
      .option("pes", "100")
      .option("engine", "auto")
      .option("sched", "auto")
      .option("board-device", "xc2vp70")
      .option("threads", "1")
      .option("simd", "auto")
      .option("kernel", "auto")
      .option("numa", "auto")
      .option("filter", "exact")
      .option("filter-threshold", "0")
      .flag("align")
      .option("max-hits", "0")
      .option("format", "text")
      .option("match")
      .option("mismatch")
      .option("gap")
      .flag("batch")
      .option("cpu-workers", "2")
      .option("boards", "0")
      .option("inflight", "4")
      .option("queue", "64")
      .option("chunk", "256")
      .option("deadline-ms", "0")
      .flag("stats")
      .option("metrics-out")
      .option("slow-ms", "0");
  args.parse(argv);
  if (args.positionals().size() != 2) {
    throw ArgError("scan needs <query.fa> <database.fa|database.swdb>");
  }

  host::ScanOptions opt;
  opt.top_k = args.get_int_as<std::size_t>("top");
  opt.min_score = args.get_int_as<align::Score>("min-score");
  opt.threads = args.get_int_as<std::size_t>("threads");
  opt.simd = simd_isa_by_name(args.get("simd"));
  opt.kernel = kernel_shape_by_name(args.get("kernel"));
  opt.numa = numa_request_by_name(args.get("numa"));

  const std::string filter_name = args.get("filter");
  if (filter_name == "exact") {
    opt.filter = host::FilterMode::Exact;
  } else if (filter_name == "seeded") {
    opt.filter = host::FilterMode::Seeded;
  } else {
    throw ArgError("unknown filter '" + filter_name + "' (exact|seeded)");
  }
  opt.filter_threshold = args.get_int_as<align::Score>("filter-threshold");
  const bool seeded = opt.filter == host::FilterMode::Seeded;

  opt.align = args.has("align");
  opt.max_hits = args.get_int_as<std::size_t>("max-hits");  // 0 aligns every reported hit
  if (opt.max_hits > 0 && !opt.align) throw ArgError("--max-hits needs --align");
  const std::string format = args.get("format");
  if (format != "text" && format != "tsv" && format != "pretty") {
    throw ArgError("unknown format '" + format + "' (text|tsv|pretty)");
  }
  if (format == "pretty" && !opt.align) throw ArgError("--format pretty needs --align");

  // "auto" is the CPU engine: the accelerator model (accel) and the board
  // fleet (board) are explicit choices — they simulate the paper's
  // hardware cycle by cycle and report bit-identical hits, at a far
  // higher cost. Validated before any file is opened so bad options fail
  // as usage errors.
  const std::string engine_name = args.get("engine");
  if (engine_name != "auto" && engine_name != "accel" && engine_name != "cpu" &&
      engine_name != "board") {
    throw ArgError("unknown engine '" + engine_name + "' (auto|accel|cpu|board)");
  }
  const bool use_fleet = engine_name == "board";
  const bool use_cpu = engine_name == "cpu" || engine_name == "auto";
  if (!use_cpu && seeded) {
    throw ArgError("--filter seeded needs the CPU engine (--engine cpu or auto)");
  }
  if (engine_name == "accel" && opt.threads > 1) {
    throw ArgError("--engine accel is single-threaded; use --engine cpu with --threads");
  }
  if (seeded && args.has("batch") && args.get_int_as<std::size_t>("boards") > 0) {
    throw ArgError("--filter seeded runs on CPU workers only; use --boards 0");
  }
  if (use_fleet && args.has("batch")) {
    throw ArgError("--engine board is the direct fleet scan; --batch serves boards via "
                   "--boards N instead");
  }

  // Scheduler override (hw/sched.hpp): "auto" defers to SWR_HW_SCHED /
  // the event default. Validated here so a typo fails as a usage error.
  std::optional<hw::SchedMode> sched_override;
  try {
    sched_override = hw::parse_sched_mode(args.get("sched"));
  } catch (const std::invalid_argument& e) {
    throw ArgError(e.what());
  }
  const hw::SchedMode sched = sched_override.value_or(hw::default_sched_mode());

  // Observability is opt-in: --stats or --metrics-out turns the process
  // registry on; otherwise every instrumented layer sees nullptr and
  // records nothing.
  const std::optional<std::string> metrics_out = args.get_optional("metrics-out");
  const bool want_metrics = args.has("stats") || metrics_out.has_value();
  obs::Registry* reg = want_metrics ? &obs::global_registry() : nullptr;
  opt.metrics = reg;

  // The database decides the alphabet when it is a .swdb store (it was
  // fixed at build time); --alphabet governs the FASTA path only.
  ScanDatabase database =
      load_scan_database(args.positionals()[1], alphabet_by_name(args.get("alphabet")), reg);
  const seq::Alphabet& ab =
      database.store ? database.store->alphabet() : alphabet_by_name(args.get("alphabet"));
  const align::Scoring sc = scoring_from(args, ab);

  // Seeded scans read the k-mer index section out of the store; fail with
  // an actionable message before any work when the database cannot supply
  // one (FASTA input, or a pre-index v1 .swdb).
  if (seeded && !database.store) {
    throw ArgError("--filter seeded needs a .swdb database (FASTA input carries no k-mer "
                   "index; build one with `swr swdb build`)");
  }
  if (seeded && !database.store->has_kmer_index()) {
    throw ArgError("'" + args.positionals()[1] + "' has no k-mer index section (format v1); "
                   "rebuild with `swr swdb build` to enable --filter seeded");
  }

  if (args.has("batch")) {
    const int rc = scan_batch(args, ab, sc, opt, database, reg, format, out);
    if (reg != nullptr && args.has("stats")) print_stats(out, *reg);
    if (reg != nullptr && metrics_out) write_metrics_file(*reg, *metrics_out);
    return rc;
  }

  const seq::Sequence query = first_record(args.positionals()[0], ab);

  host::ScanResult scan;
  if (use_cpu) {
    scan = database.store ? host::scan_database_cpu(query, *database.store, sc, opt)
                          : host::scan_database_cpu(query, database.records, sc, opt);
  } else if (use_fleet) {
    core::FleetOptions fopt;
    fopt.device = args.get("board-device");
    fopt.boards = std::max<std::size_t>(1, args.get_int_as<std::size_t>("boards"));
    fopt.pes_per_board = args.get_int_as<std::size_t>("pes");
    fopt.sched = sched;
    fopt.model_bus = true;  // fleet scans report DMA-overlapped wall times
    core::BoardFleet fleet;
    try {
      fleet = core::make_board_fleet(fopt, sc);
    } catch (const std::invalid_argument& e) {
      throw ArgError(e.what());
    }
    scan = database.store ? host::scan_database_fleet(fleet, query, *database.store, opt)
                          : host::scan_database_fleet(fleet, query, database.records, opt);
  } else {
    core::SmithWatermanAccelerator acc(core::xc2vp70(), args.get_int_as<std::size_t>("pes"), sc,
                                       sched);
    scan = database.store ? host::scan_database(acc, query, *database.store, opt)
                          : host::scan_database(acc, query, database.records, opt);
  }

  const align::KarlinParams kp = align::solve_karlin_uniform(sc, ab.size());
  if (format != "tsv") {
    out << "query: " << query.name() << " (" << query.size() << " residues)\n";
    out << "database: " << database.size() << " records, " << database.residues()
        << " residues\n";
  }
  print_hits(out, scan, database, query, kp, opt, format);
  if (reg != nullptr && args.has("stats")) print_stats(out, *reg);
  if (reg != nullptr && metrics_out) write_metrics_file(*reg, *metrics_out);
  return 0;
}

/// `stats-dump`: renders a metrics snapshot as the --stats table — either
/// a --metrics-out JSON file from an earlier run, or (with no argument)
/// whatever the process-wide registry currently holds, as JSON with
/// --json.
int cmd_stats_dump(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.flag("json");
  args.parse(argv);
  if (args.positionals().size() > 1) throw ArgError("stats-dump takes at most one <metrics.json>");

  obs::Snapshot snap;
  if (args.positionals().size() == 1) {
    const std::string& path = args.positionals()[0];
    std::ifstream in(path, std::ios::binary);
    if (!in) throw ArgError("cannot read metrics file '" + path + "'");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    try {
      snap = obs::from_json(text);
    } catch (const std::exception& e) {
      throw ArgError("'" + path + "' is not a metrics dump: " + e.what());
    }
  } else {
    snap = obs::global_registry().snapshot();
  }
  out << (args.has("json") ? obs::to_json(snap) : obs::to_table(snap));
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* alphabet_id_name(seq::AlphabetId id) {
  switch (id) {
    case seq::AlphabetId::Dna: return "dna";
    case seq::AlphabetId::Rna: return "rna";
    case seq::AlphabetId::Protein: return "protein";
  }
  return "unknown";
}

int cmd_swdb(const std::vector<std::string>& argv, std::ostream& out) {
  if (argv.empty()) throw ArgError("swdb needs a subcommand (build|info)");
  const std::string sub = argv.front();
  const std::vector<std::string> rest(argv.begin() + 1, argv.end());

  if (sub == "build") {
    ArgParser args;
    args.option("alphabet", "dna").option("encoding", "auto").option("seed-k", "0").flag("no-index");
    args.parse(rest);
    if (args.positionals().size() != 2) throw ArgError("swdb build needs <in.fa> <out.swdb>");
    const seq::Alphabet& ab = alphabet_by_name(args.get("alphabet"));
    db::BuildOptions opt;
    const std::string enc = args.get("encoding");
    if (enc == "auto") {
      opt.encoding = db::BuildOptions::Pick::Auto;
    } else if (enc == "raw8") {
      opt.encoding = db::BuildOptions::Pick::Raw8;
    } else if (enc == "packed2") {
      opt.encoding = db::BuildOptions::Pick::Packed2;
    } else {
      throw ArgError("unknown encoding '" + enc + "' (auto|raw8|packed2)");
    }
    opt.kmer_index = !args.has("no-index");
    opt.seed_k = args.get_int_as<std::size_t>("seed-k");  // 0 picks automatically
    if (opt.seed_k != 0 && !opt.kmer_index) throw ArgError("--seed-k conflicts with --no-index");
    const db::BuildStats st =
        db::build_store_from_fasta(args.positionals()[0], args.positionals()[1], ab, opt);
    out << "wrote " << args.positionals()[1] << ": " << st.records << " records, " << st.residues
        << " residues, " << st.file_bytes << " bytes ("
        << (st.encoding == db::Encoding::Packed2 ? "packed2" : "raw8") << ")\n";
    if (st.seed_k != 0) {
      out << "  k-mer index: k=" << st.seed_k << ", " << st.index_buckets << " buckets, "
          << st.index_postings << " postings, " << st.index_bytes << " bytes\n";
    }
    return 0;
  }

  if (sub == "info") {
    ArgParser args;
    args.flag("verify").flag("json").flag("populate");
    args.parse(rest);
    if (args.positionals().size() != 1) throw ArgError("swdb info needs <db.swdb>");
    const db::Store store =
        db::Store::open(args.positionals()[0], nullptr, args.has("populate"));
    // Streaming diagnostics: how much of the payload a scan would find
    // already in RAM (--populate pre-faults the whole file first), and
    // whether MADV_HUGEPAGE applies on this kernel/mapping.
    const db::PayloadResidency res = store.payload_residency();
    const bool hugepage_ok = store.advise_payload_hugepage();
    const db::FileHeader& h = store.header();
    if (args.has("json")) {
      if (args.has("verify")) store.verify_payload();  // throws on corruption
      out << "{\n";
      out << "  \"path\": \"" << json_escape(store.path()) << "\",\n";
      out << "  \"format_version\": " << h.version << ",\n";
      out << "  \"alphabet\": \"" << alphabet_id_name(store.alphabet().id()) << "\",\n";
      out << "  \"encoding\": \""
          << (store.encoding() == db::Encoding::Packed2 ? "packed2" : "raw8") << "\",\n";
      out << "  \"generation\": " << store.generation() << ",\n";
      out << "  \"records\": " << store.size() << ",\n";
      out << "  \"residues\": " << store.total_residues() << ",\n";
      out << "  \"payload_bytes\": " << h.payload_bytes << ",\n";
      out << "  \"payload_residency\": {\"pages_total\": " << res.pages_total
          << ", \"pages_resident\": " << res.pages_resident
          << ", \"fraction\": " << res.fraction() << "},\n";
      out << "  \"hugepage_advise\": " << (hugepage_ok ? "true" : "false") << ",\n";
      if (!store.empty()) {
        const db::ScheduleStats st = db::schedule_stats(store);
        out << "  \"record_length\": {\"min\": " << st.min_length << ", \"max\": "
            << st.max_length << ", \"median\": " << st.median_length << "},\n";
        out << "  \"interseq_occupancy\": {\"lanes16\": " << st.occupancy16
            << ", \"lanes32\": " << st.occupancy32 << ", \"lanes64\": " << st.occupancy64
            << "},\n";
      } else {
        out << "  \"record_length\": null,\n  \"interseq_occupancy\": null,\n";
      }
      if (store.has_kmer_index()) {
        const db::KmerIndexView& idx = store.kmer_index();
        out << "  \"kmer_index\": {\"k\": " << idx.k() << ", \"buckets\": " << idx.bucket_count()
            << ", \"postings\": " << idx.postings_count() << ", \"bytes\": " << idx.bytes()
            << ", \"load_factor\": " << idx.load_factor() << "},\n";
      } else {
        out << "  \"kmer_index\": null,\n";
      }
      out << "  \"payload_verified\": " << (args.has("verify") ? "true" : "false") << "\n";
      out << "}\n";
      return 0;
    }
    out << store.path() << ":\n";
    out << "  format v" << h.version << ", alphabet " << alphabet_id_name(store.alphabet().id())
        << ", encoding " << (store.encoding() == db::Encoding::Packed2 ? "packed2" : "raw8")
        << "\n";
    out << "  " << store.size() << " records, " << store.total_residues() << " residues, "
        << h.payload_bytes << " payload bytes\n";
    out << "  generation " << store.generation() << "\n";
    {
      std::ostringstream rs;
      rs.precision(1);
      rs << std::fixed << res.fraction() * 100.0;
      out << "  payload residency " << res.pages_resident << "/" << res.pages_total
          << " pages (" << rs.str() << "%), hugepage advise "
          << (hugepage_ok ? "ok" : "unavailable") << "\n";
    }
    if (!store.empty()) {
      const db::ScheduleStats st = db::schedule_stats(store);
      out << "  record length " << st.min_length << ".." << st.max_length << ", median "
          << st.median_length << "\n";
      std::ostringstream occ;
      occ.precision(1);
      occ << std::fixed << "  interseq lane occupancy: " << st.occupancy16 * 100.0
          << "% @16 lanes, " << st.occupancy32 * 100.0 << "% @32 lanes, "
          << st.occupancy64 * 100.0 << "% @64 lanes\n";
      out << occ.str();
    }
    if (store.has_kmer_index()) {
      const db::KmerIndexView& idx = store.kmer_index();
      std::ostringstream lf;
      lf.precision(1);
      lf << std::fixed << idx.load_factor() * 100.0;
      out << "  k-mer index: k=" << idx.k() << ", " << idx.bucket_count() << " buckets, "
          << idx.postings_count() << " postings, " << idx.bytes() << " bytes, load factor "
          << lf.str() << "%\n";
    } else {
      out << "  no k-mer index (rebuild with `swr swdb build` to enable --filter seeded)\n";
    }
    if (args.has("verify")) {
      store.verify_payload();
      out << "  payload hash OK" << (store.has_kmer_index() ? ", index hash OK" : "") << "\n";
    }
    return 0;
  }

  throw ArgError("unknown swdb subcommand '" + sub + "' (build|info)");
}

int cmd_translate(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("frame", "0").flag("six");
  args.parse(argv);
  if (args.positionals().size() != 1) throw ArgError("translate needs <dna.fa>");
  const auto records = seq::read_fasta_file(args.positionals()[0], seq::dna());
  for (const seq::Sequence& rec : records) {
    if (args.has("six")) {
      const auto frames = seq::six_frame_translation(rec);
      for (std::size_t f = 0; f < frames.size(); ++f) {
        out << ">" << rec.name() << " | " << (f < 3 ? "fwd" : "rev") << " frame " << (f % 3)
            << "\n"
            << frames[f].to_string() << "\n";
      }
    } else {
      const auto frame = args.get_int_as<unsigned>("frame");
      const seq::Sequence prot = seq::translate(rec, frame);
      out << ">" << rec.name() << " | frame " << frame << "\n" << prot.to_string() << "\n";
    }
  }
  return 0;
}

int cmd_orfs(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("min-codons", "30");
  args.parse(argv);
  if (args.positionals().size() != 1) throw ArgError("orfs needs <dna.fa>");
  const auto records = seq::read_fasta_file(args.positionals()[0], seq::dna());
  const auto min_codons = args.get_int_as<std::size_t>("min-codons");
  for (const seq::Sequence& rec : records) {
    const auto orfs = seq::find_orfs(rec, min_codons);
    out << rec.name() << ": " << orfs.size() << " ORFs (>= " << min_codons << " codons)\n";
    for (const seq::OpenReadingFrame& o : orfs) {
      out << "  " << (o.reverse ? "rev" : "fwd") << " frame " << o.frame << "  [" << o.begin
          << ", " << o.end << ")  " << o.codons() << " codons  "
          << seq::orf_protein(rec, o).to_string() << "\n";
    }
  }
  return 0;
}

int cmd_nearbest(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("alphabet", "dna")
      .option("max", "5")
      .option("min-score", "20")
      .option("match")
      .option("mismatch")
      .option("gap");
  args.parse(argv);
  if (args.positionals().size() != 2) throw ArgError("nearbest needs <a.fa> <b.fa>");
  const seq::Alphabet& ab = alphabet_by_name(args.get("alphabet"));
  const align::Scoring sc = scoring_from(args, ab);
  const seq::Sequence a = first_record(args.positionals()[0], ab);
  const seq::Sequence b = first_record(args.positionals()[1], ab);
  align::NearBestOptions opt;
  opt.max_alignments = args.get_int_as<std::size_t>("max");
  opt.min_score = args.get_int_as<align::Score>("min-score");
  const auto set = align::near_best_alignments(a, b, sc, opt);
  out << set.size() << " non-overlapping alignments (score >= " << opt.min_score << "):\n";
  for (std::size_t k = 0; k < set.size(); ++k) {
    out << "  " << (k + 1) << ". score " << set[k].score << "  a[" << set[k].begin.i << ".."
        << set[k].end.i << "]  b[" << set[k].begin.j << ".." << set[k].end.j << "]  "
        << set[k].cigar.to_string() << "\n";
  }
  return 0;
}

int cmd_map(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("k", "15").option("pad", "20").option("min-score", "20");
  args.parse(argv);
  if (args.positionals().size() != 2) throw ArgError("map needs <reads.fq> <reference.fa>");
  const auto reads = seq::read_fastq_file(args.positionals()[0], seq::dna());
  const seq::Sequence ref = first_record(args.positionals()[1], seq::dna());
  const align::Scoring sc = align::Scoring::paper_default();
  align::SeedExtendOptions seed_opt;
  seed_opt.k = args.get_int_as<std::size_t>("k");
  const auto pad = args.get_int_as<std::size_t>("pad");
  const auto min_score = args.get_int_as<align::Score>("min-score");

  std::size_t mapped = 0;
  for (const seq::FastqRecord& read : reads) {
    const auto hits = align::seed_extend_search(ref, read.sequence, sc, seed_opt);
    if (hits.empty()) {
      out << read.sequence.name() << "\tunmapped (no seed)\n";
      continue;
    }
    const std::size_t diag = hits[0].begin.i - hits[0].begin.j;
    const std::size_t w_begin = diag > pad ? diag - pad : 0;
    const seq::Sequence window = ref.subsequence(w_begin, read.sequence.size() + 2 * pad);
    const align::LocalAlignment fit = align::fitting_align(window, read.sequence, sc);
    if (fit.score < min_score) {
      out << read.sequence.name() << "\tunmapped (score " << fit.score << ")\n";
      continue;
    }
    ++mapped;
    out << read.sequence.name() << "\t" << (w_begin + fit.begin.i - 1) << "\tscore "
        << fit.score << "\t" << fit.cigar.to_string() << "\n";
  }
  out << "mapped " << mapped << "/" << reads.size() << " reads\n";
  return 0;
}

int cmd_design(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("query", "100").option("db", "1000000");
  args.parse(argv);
  const auto m = args.get_int_as<std::size_t>("query");
  const auto n = args.get_int_as<std::size_t>("db");
  const core::PeFeatures pe{16, 32, true, false};
  out << "workload: " << m << " x " << n << "\n";
  for (const core::FpgaDevice& dev : core::device_catalog()) {
    const std::size_t pes = core::max_elements(dev, pe);
    const core::ResourceEstimate e = core::estimate_resources(dev, pes, pe);
    const core::CyclePrediction p = core::predict_cycles(m, n, pes, true);
    std::ostringstream t;
    t.precision(3);
    t << std::fixed << core::cycles_to_seconds(p.total_cycles, e.freq_mhz) * 1e3;
    out << "  " << dev.name << ": " << pes << " PEs @ ";
    std::ostringstream fr;
    fr.precision(1);
    fr << std::fixed << e.freq_mhz;
    out << fr.str() << " MHz, " << p.passes << " passes, " << t.str() << " ms\n";
  }
  return 0;
}

}  // namespace

std::string usage() {
  return "swr — reconfigurable sequence comparison (IPDPS'07 reproduction)\n"
         "usage: swr <command> [options]\n"
         "commands:\n"
         "  align <a.fa> <b.fa>  [--mode local|global|fitting] [--engine sw|accel]\n"
         "                       [--alphabet dna|rna|protein] [--match N --mismatch N --gap N]\n"
         "                       [--pes N] [--matrix]\n"
         "                       [--affine --gap-open N --gap-extend N]\n"
         "  scan <query.fa> <db.fa|db.swdb>  [--top K] [--min-score S] [--pes N]\n"
         "                       [--alphabet ...] [--engine auto|accel|cpu|board] [--threads N]\n"
         "                       [--sched auto|dense|event] [--board-device xc2vp70|...]\n"
         "                       [--boards N (with --engine board: fleet size)]\n"
         "                       [--simd auto|scalar|sse41|avx2|avx512]\n"
         "                       [--kernel auto|striped|interseq] [--numa off|auto|fake:<spec>]\n"
         "                       [--filter exact|seeded] [--filter-threshold S]\n"
         "                       [--align [--max-hits K]] [--format text|tsv|pretty]\n"
         "                       [--batch [--cpu-workers N] [--boards N] [--inflight N]\n"
         "                        [--queue N] [--chunk N] [--deadline-ms N] [--slow-ms N]]\n"
         "                       [--stats] [--metrics-out <metrics.json>]\n"
         "  serve --db <db.swdb>  [--host H] [--port N] [--cpu-workers N] [--inflight N]\n"
         "                       [--queue N] [--chunk N] [--rate R --burst B]\n"
         "                       [--tenants name=rate/burst,...] [--result-cache-mb N]\n"
         "                       [--profile-cache N] [--write-timeout-ms N]\n"
         "                       [--idle-timeout-ms N] [--numa off|auto|fake:<spec>]\n"
         "                       [--stats] [--metrics-out <json>]\n"
         "  client <query.fa> --port N  [--host H] [--tenant T] [--top K] [--min-score S]\n"
         "                       [--filter exact|seeded] [--filter-threshold S]\n"
         "                       [--align [--max-hits K]] [--deadline-ms N]\n"
         "                       [--format text|tsv] [--repeat N] [--ping]\n"
         "  stats-dump [metrics.json]  [--json]\n"
         "  swdb build <in.fa> <out.swdb>  [--alphabet ...] [--encoding auto|raw8|packed2]\n"
         "                       [--seed-k N] [--no-index]\n"
         "  swdb info <db.swdb>  [--verify] [--json] [--populate]\n"
         "  nearbest <a.fa> <b.fa>  [--max K] [--min-score S]\n"
         "  map <reads.fq> <reference.fa>  [--k N] [--pad N] [--min-score S]\n"
         "  translate <dna.fa>  [--frame 0|1|2 | --six]\n"
         "  orfs <dna.fa>  [--min-codons N]\n"
         "  design  [--query M --db N]\n"
         "  help\n";
}

int run_command(const std::string& command, const std::vector<std::string>& args,
                std::ostream& out, std::ostream& err) {
  try {
    if (command == "align") return cmd_align(args, out);
    if (command == "scan") return cmd_scan(args, out);
    if (command == "swdb") return cmd_swdb(args, out);
    if (command == "translate") return cmd_translate(args, out);
    if (command == "orfs") return cmd_orfs(args, out);
    if (command == "nearbest") return cmd_nearbest(args, out);
    if (command == "map") return cmd_map(args, out);
    if (command == "design") return cmd_design(args, out);
    if (command == "serve") return cmd_serve(args, out);
    if (command == "client") return cmd_client(args, out);
    if (command == "stats-dump") return cmd_stats_dump(args, out);
    if (command == "help" || command.empty()) {
      out << usage();
      return 0;
    }
    err << "swr: unknown command '" << command << "'\n" << usage();
    return 2;
  } catch (const ArgError& e) {
    err << "swr " << command << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "swr " << command << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace swr::cli
