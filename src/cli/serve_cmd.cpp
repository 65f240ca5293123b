#include "cli/serve_cmd.hpp"

#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "align/scoring.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "core/topology.hpp"
#include "db/store.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "seq/fasta.hpp"
#include "svc/net/client.hpp"
#include "svc/net/server.hpp"

namespace swr::cli {
namespace {

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) { g_serve_stop.store(true, std::memory_order_relaxed); }

// --numa spelling/validation lives in core/topology; bad values are
// usage errors here.
core::NumaRequest numa_request_by_name(const std::string& name) {
  try {
    return core::parse_numa_request(name);
  } catch (const core::TopologyError& e) {
    throw ArgError(e.what());
  }
}

// A request rate: a finite number >= 0 (0 = unlimited), nothing else.
double parse_rate(std::string_view text, const std::string& option) {
  double v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size() ||
      !std::isfinite(v) || v < 0) {
    throw ArgError("option --" + option + " wants a rate that is a finite number >= 0, got '" +
                   std::string(text) + "'");
  }
  return v;
}

// A --tenants burst: an integer >= 1 in plain digits (no sign, no
// trailing text).
std::size_t parse_burst(std::string_view text) {
  std::size_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size() || v == 0) {
    throw ArgError("option --tenants wants a burst that is an integer >= 1, got '" +
                   std::string(text) + "'");
  }
  return v;
}

// "rate" or "rate/burst"; rate may be fractional (0.5 = one every 2s).
svc::net::TenantTable::Limits parse_limits(std::string_view spec) {
  svc::net::TenantTable::Limits lim;
  const std::size_t slash = spec.find('/');
  lim.rate_per_s = parse_rate(spec.substr(0, slash), "tenants");
  if (slash != std::string_view::npos) {
    lim.burst = static_cast<double>(parse_burst(spec.substr(slash + 1)));
  }
  return lim;
}

/// Parses --tenants "alice=10/20,bob=2/4" into per-tenant limits.
std::map<std::string, svc::net::TenantTable::Limits> parse_tenants(const std::string& spec) {
  std::map<std::string, svc::net::TenantTable::Limits> out;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ArgError("bad tenant spec '" + item + "' (want name=<rate>[/<burst>])");
    }
    out[item.substr(0, eq)] = parse_limits(std::string_view(item).substr(eq + 1));
  }
  if (out.empty()) throw ArgError("--tenants given but no tenants parsed from '" + spec + "'");
  return out;
}

std::string percent(double fraction) {
  std::ostringstream s;
  s.precision(1);
  s << std::fixed << fraction * 100.0;
  return s.str();
}

void print_client_response(std::ostream& out, const svc::net::ClientResponse& resp,
                           const std::string& format) {
  if (format == "tsv") {
    out << "#rank\tname\tscore\tend_rec\tend_query\tbegin_rec\tbegin_query"
           "\tidentity\tcoverage\tcigar\n";
    for (const svc::net::WireHit& h : resp.hits) {
      out << h.rank << '\t' << h.name << '\t' << h.score << '\t' << h.end_i << '\t' << h.end_j;
      if (h.has_alignment != 0) {
        out << '\t' << h.begin_i << '\t' << h.begin_j << '\t'
            << percent(std::bit_cast<double>(h.identity_bits)) << '\t'
            << percent(std::bit_cast<double>(h.coverage_bits)) << '\t' << h.cigar << '\n';
      } else {
        out << "\t*\t*\t*\t*\t*\n";
      }
    }
    return;
  }
  out << "hits:\n";
  for (const svc::net::WireHit& h : resp.hits) {
    out << "  " << h.rank << ". " << h.name << "  score " << h.score << "  end (" << h.end_i
        << "," << h.end_j << ")\n";
    if (h.has_alignment != 0) {
      out << "     rec[" << h.begin_i << ".." << h.end_i << "]  query[" << h.begin_j << ".."
          << h.end_j << "]  identity " << percent(std::bit_cast<double>(h.identity_bits))
          << "%  coverage " << percent(std::bit_cast<double>(h.coverage_bits)) << "%\n";
      out << "     cigar: " << h.cigar << "\n";
    }
  }
  if (resp.hits.empty()) out << "  (none)\n";
  out << "stats: " << resp.done.records_scanned << " records scanned, " << resp.done.cell_updates
      << " cells, " << resp.done.swar8_fallbacks << " swar8 fallbacks\n";
}

}  // namespace

int cmd_serve(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("db")
      .option("host", "127.0.0.1")
      .option("port", "0")
      .option("cpu-workers", "2")
      .option("boards", "0")
      .option("pes", "100")
      .option("inflight", "4")
      .option("queue", "64")
      .option("chunk", "256")
      .option("numa", "auto")
      .option("match")
      .option("mismatch")
      .option("gap")
      .option("rate", "0")
      .option("burst", "1")
      .option("tenants")
      .option("result-cache-mb", "64")
      .option("profile-cache", "64")
      .option("write-timeout-ms", "5000")
      .option("idle-timeout-ms", "0")
      .flag("stats")
      .option("metrics-out");
  args.parse(argv);
  if (!args.positionals().empty()) throw ArgError("serve takes no positionals (use --db)");
  const std::optional<std::string> db_path = args.get_optional("db");
  if (!db_path) throw ArgError("serve needs --db <db.swdb>");

  const std::optional<std::string> metrics_out = args.get_optional("metrics-out");
  const bool want_metrics = args.has("stats") || metrics_out.has_value();
  obs::Registry* reg = want_metrics ? &obs::global_registry() : nullptr;

  const db::Store store = db::Store::open(*db_path, reg);

  svc::net::ServerConfig cfg;
  cfg.service.cpu_workers = args.get_int_as<std::size_t>("cpu-workers");
  cfg.service.fleet.boards = args.get_int_as<std::size_t>("boards");
  cfg.service.fleet.pes_per_board = args.get_int_as<std::size_t>("pes");
  cfg.service.max_inflight = args.get_int_as<std::size_t>("inflight");
  cfg.service.queue_capacity = args.get_int_as<std::size_t>("queue");
  cfg.service.chunk_records = args.get_int_as<std::size_t>("chunk");
  cfg.service.numa = numa_request_by_name(args.get("numa"));
  cfg.service.scoring = scoring_from(args, store.alphabet());
  cfg.service.metrics = reg;
  cfg.host = args.get("host");
  cfg.port = args.get_int_as<std::uint16_t>("port");
  cfg.write_timeout = std::chrono::milliseconds(args.get_int_as<std::int64_t>("write-timeout-ms"));
  cfg.idle_timeout = std::chrono::milliseconds(args.get_int_as<std::int64_t>("idle-timeout-ms"));
  cfg.default_limits.rate_per_s = parse_rate(args.get("rate"), "rate");
  cfg.default_limits.burst = static_cast<double>(args.get_int_as<std::size_t>("burst", 1));
  if (const auto tenants = args.get_optional("tenants")) {
    cfg.tenant_limits = parse_tenants(*tenants);
  }
  constexpr std::size_t kMaxCacheMb = std::numeric_limits<std::size_t>::max() >> 20;
  cfg.result_cache_bytes = args.get_int_as<std::size_t>("result-cache-mb", 0, kMaxCacheMb) << 20;
  cfg.profile_cache_entries = args.get_int_as<std::size_t>("profile-cache");
  cfg.metrics = reg;

  svc::net::ScanServer server(store, cfg);
  std::string error;
  if (!server.start(error)) throw ArgError("cannot start server: " + error);

  g_serve_stop.store(false, std::memory_order_relaxed);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);

  out << "serving " << store.path() << ": " << store.size() << " records, "
      << store.total_residues() << " residues (generation " << store.generation() << ")\n";
  out << "listening on " << cfg.host << ":" << server.port() << std::endl;

  while (!g_serve_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  out << "shutting down\n";
  server.stop();

  if (reg != nullptr && args.has("stats")) {
    out << "-- stats " << std::string(64, '-') << "\n";
    out << obs::to_table(reg->snapshot());
  }
  if (reg != nullptr && metrics_out) {
    std::ofstream mf(*metrics_out);
    if (!mf) throw ArgError("cannot write metrics file '" + *metrics_out + "'");
    mf << obs::to_json(reg->snapshot());
  }
  return 0;
}

int cmd_client(const std::vector<std::string>& argv, std::ostream& out) {
  ArgParser args;
  args.option("host", "127.0.0.1")
      .option("port")
      .option("alphabet", "dna")
      .option("tenant", "default")
      .option("top", "10")
      .option("min-score", "20")
      .option("filter", "exact")
      .option("filter-threshold", "0")
      .flag("align")
      .option("max-hits", "0")
      .option("deadline-ms", "0")
      .option("timeout-ms", "60000")
      .option("format", "text")
      .option("repeat", "1")
      .flag("ping");
  args.parse(argv);
  const std::optional<std::string> port_opt = args.get_optional("port");
  if (!port_opt) throw ArgError("client needs --port");
  const auto port = args.get_int_as<std::uint16_t>("port");
  const std::string format = args.get("format");
  if (format != "text" && format != "tsv") {
    throw ArgError("unknown format '" + format + "' (text|tsv)");
  }
  const std::chrono::milliseconds timeout(args.get_int_as<std::int64_t>("timeout-ms"));

  svc::net::ScanClient client;
  std::string error;
  if (!client.connect(args.get("host"), port, error)) {
    throw ArgError("cannot connect to " + args.get("host") + ":" + *port_opt + ": " + error);
  }

  if (args.has("ping")) {
    if (!client.ping(timeout)) throw ArgError("ping failed");
    out << "pong\n";
    return 0;
  }

  if (args.positionals().size() != 1) throw ArgError("client needs <query.fa> (or --ping)");
  const std::string filter_name = args.get("filter");
  if (filter_name != "exact" && filter_name != "seeded") {
    throw ArgError("unknown filter '" + filter_name + "' (exact|seeded)");
  }

  // Sequence parsing is local validation only — the wire carries text and
  // the server re-validates against the store's alphabet.
  const seq::Alphabet& ab = [&]() -> const seq::Alphabet& {
    const std::string name = args.get("alphabet");
    if (name == "dna") return seq::dna();
    if (name == "rna") return seq::rna();
    if (name == "protein") return seq::protein();
    throw ArgError("unknown alphabet '" + name + "' (dna|rna|protein)");
  }();
  const auto queries = seq::read_fasta_file(args.positionals()[0], ab);
  if (queries.empty()) throw ArgError("no query records in '" + args.positionals()[0] + "'");

  const auto repeat = args.get_int_as<std::size_t>("repeat");
  std::uint64_t request_id = 0;
  int rc = 0;
  for (std::size_t round = 0; round < std::max<std::size_t>(repeat, 1); ++round) {
    for (const seq::Sequence& q : queries) {
      svc::net::WireRequest req;
      req.request_id = ++request_id;
      req.tenant = args.get("tenant");
      req.query_name = q.name();
      req.query = q.to_string();
      req.top_k = args.get_int_as<std::uint32_t>("top");
      req.min_score = args.get_int_as<std::int32_t>("min-score");
      req.filter = filter_name == "seeded" ? 1 : 0;
      req.filter_threshold = args.get_int_as<std::int32_t>("filter-threshold");
      req.align = args.has("align") ? 1 : 0;
      req.max_hits = args.get_int_as<std::uint32_t>("max-hits");
      req.deadline_ms = args.get_int_as<std::uint32_t>("deadline-ms");

      if (format != "tsv") {
        out << "query " << req.request_id << ": " << q.name() << " (" << q.size()
            << " residues)\n";
      } else {
        out << "# query " << req.request_id << " " << q.name() << "\n";
      }
      const svc::net::ClientResponse resp = client.scan(req, timeout);
      if (!resp.ok) {
        out << "error: " << resp.error;
        if (!resp.errors.empty() && resp.errors.back().retry_after_ms > 0) {
          out << " (retry after " << resp.errors.back().retry_after_ms << " ms)";
        }
        out << "\n";
        rc = 1;
        if (!client.connected()) return rc;
        continue;
      }
      print_client_response(out, resp, format);
    }
  }
  return rc;
}

}  // namespace swr::cli
