#include "obs/export.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace swr::obs {
namespace {

// Metric names are dotted lowercase identifiers; escaping would only ever
// fire on a programming error, but emit valid JSON regardless.
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Annotations for metric families whose semantics are not obvious from
// the name alone. The scan.filter.* names are the contract between the
// seeded-prefilter tier (host/scan_engine.cpp) and external consumers:
// candidates + recall guards enter from the scan domain, rescored +
// rejected partition it back, and candidate_ratio is a percentage — the
// one histogram in the table that is not microseconds.
std::string_view metric_description(std::string_view name) {
  if (name == "scan.filter.candidates") return "records with seed hits entering prescreen";
  if (name == "scan.filter.rejected") return "records dropped by the seeded prefilter";
  if (name == "scan.filter.rescored") return "prefilter survivors rescored exactly";
  if (name == "scan.filter.recall_guard") return "short query/record guards kept for recall";
  if (name == "scan.filter.candidate_ratio") return "rescored share of domain (percent)";
  if (name == "scan.striped.rescan_rows") return "striped rows rescanned for the tie-break";
  // svc.net.* partition every server request into exactly one outcome
  // (responses + shed + overloaded + invalid_requests + aborted ==
  // requests; the storm suite asserts it), and svc.cache.* are the two
  // serving-layer caches (result replay and query-profile reuse).
  if (name == "svc.net.shed") return "requests rejected by a tenant's token bucket";
  if (name == "svc.net.overloaded") return "requests rejected by the full admission queue";
  if (name == "svc.net.invalid_requests") return "requests with unparseable queries/options";
  if (name == "svc.net.aborted") return "requests cut short by disconnect or shutdown";
  if (name == "svc.cache.result.hits") return "responses replayed from the result cache";
  if (name == "svc.cache.result.bytes") return "resident bytes in the result cache";
  if (name == "svc.cache.profile.hits") return "scans reusing a cached query profile";
  return {};
}

// ---- minimal parser for the dialect to_json emits ------------------------

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  [[nodiscard]] bool consume_if(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        c = s_[pos_++];
        if (c != '"' && c != '\\') fail("unsupported escape");  // to_json only emits these
      }
      out += c;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  [[nodiscard]] double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    try {
      return std::stod(std::string(s_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("obs::from_json: " + why + " at offset " + std::to_string(pos_));
  }

  void done() {
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_json(const Snapshot& snap) {
  std::string out;
  out += "{\n  \"counters\": {";
  for (std::size_t k = 0; k < snap.counters.size(); ++k) {
    out += k == 0 ? "\n    " : ",\n    ";
    append_json_string(out, snap.counters[k].first);
    out += ": " + std::to_string(snap.counters[k].second);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  for (std::size_t k = 0; k < snap.gauges.size(); ++k) {
    out += k == 0 ? "\n    " : ",\n    ";
    append_json_string(out, snap.gauges[k].first);
    out += ": " + std::to_string(snap.gauges[k].second);
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  for (std::size_t k = 0; k < snap.histograms.size(); ++k) {
    const auto& [name, h] = snap.histograms[k];
    out += k == 0 ? "\n    " : ",\n    ";
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"p50\": " + format_double(h.p50) + ", \"p90\": " + format_double(h.p90) +
           ", \"p99\": " + format_double(h.p99) + ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b != 0) out += ", ";
      out += "[" + std::to_string(h.buckets[b].first) + ", " +
             std::to_string(h.buckets[b].second) + "]";
    }
    out += "]}";
  }
  out += snap.histograms.empty() ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string to_table(const Snapshot& snap) {
  std::ostringstream out;
  char line[160];
  if (!snap.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, v] : snap.counters) {
      const std::string_view desc = metric_description(name);
      std::snprintf(line, sizeof line, "  %-40s %20llu%s%.*s\n", name.c_str(),
                    static_cast<unsigned long long>(v), desc.empty() ? "" : "  ",
                    static_cast<int>(desc.size()), desc.data());
      out << line;
    }
  }
  if (!snap.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, v] : snap.gauges) {
      std::snprintf(line, sizeof line, "  %-40s %20lld\n", name.c_str(),
                    static_cast<long long>(v));
      out << line;
    }
  }
  if (!snap.histograms.empty()) {
    out << "histograms (us):\n";
    std::snprintf(line, sizeof line, "  %-40s %10s %14s %10s %10s %10s\n", "name", "count", "sum",
                  "p50", "p90", "p99");
    out << line;
    for (const auto& [name, h] : snap.histograms) {
      const std::string_view desc = metric_description(name);
      std::snprintf(line, sizeof line, "  %-40s %10llu %14llu %10.0f %10.0f %10.0f%s%.*s\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    static_cast<unsigned long long>(h.sum), h.p50, h.p90, h.p99,
                    desc.empty() ? "" : "  ", static_cast<int>(desc.size()), desc.data());
      out << line;
    }
  }
  if (snap.counters.empty() && snap.gauges.empty() && snap.histograms.empty()) {
    out << "(no metrics recorded)\n";
  }
  return out.str();
}

Snapshot from_json(std::string_view json) {
  Snapshot snap;
  Parser p(json);
  p.expect('{');

  const auto parse_scalar_section = [&p](auto&& sink) {
    p.expect('{');
    if (!p.consume_if('}')) {
      do {
        const std::string name = p.parse_string();
        p.expect(':');
        sink(name, p.parse_number());
      } while (p.consume_if(','));
      p.expect('}');
    }
  };

  std::string section = p.parse_string();
  if (section != "counters") p.fail("expected \"counters\"");
  p.expect(':');
  parse_scalar_section([&snap](const std::string& name, double v) {
    snap.counters.emplace_back(name, static_cast<std::uint64_t>(v));
  });
  p.expect(',');

  section = p.parse_string();
  if (section != "gauges") p.fail("expected \"gauges\"");
  p.expect(':');
  parse_scalar_section([&snap](const std::string& name, double v) {
    snap.gauges.emplace_back(name, static_cast<std::int64_t>(v));
  });
  p.expect(',');

  section = p.parse_string();
  if (section != "histograms") p.fail("expected \"histograms\"");
  p.expect(':');
  p.expect('{');
  if (!p.consume_if('}')) {
    do {
      const std::string name = p.parse_string();
      p.expect(':');
      p.expect('{');
      HistogramSnapshot h;
      do {
        const std::string field = p.parse_string();
        p.expect(':');
        if (field == "count") {
          h.count = static_cast<std::uint64_t>(p.parse_number());
        } else if (field == "sum") {
          h.sum = static_cast<std::uint64_t>(p.parse_number());
        } else if (field == "p50") {
          h.p50 = p.parse_number();
        } else if (field == "p90") {
          h.p90 = p.parse_number();
        } else if (field == "p99") {
          h.p99 = p.parse_number();
        } else if (field == "buckets") {
          p.expect('[');
          if (!p.consume_if(']')) {
            do {
              p.expect('[');
              const auto upper = static_cast<std::uint64_t>(p.parse_number());
              p.expect(',');
              const auto count = static_cast<std::uint64_t>(p.parse_number());
              p.expect(']');
              h.buckets.emplace_back(upper, count);
            } while (p.consume_if(','));
            p.expect(']');
          }
        } else {
          p.fail("unknown histogram field \"" + field + "\"");
        }
      } while (p.consume_if(','));
      p.expect('}');
      snap.histograms.emplace_back(name, std::move(h));
    } while (p.consume_if(','));
    p.expect('}');
  }

  p.expect('}');
  p.done();
  return snap;
}

}  // namespace swr::obs
