// swr_perfbench: runs one benchmark workload and prints its result.
//
//   swr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Work files go to <dir>/work-<pid> (removed on exit); a traced run
// writes its spans to <dir>/traces/<workload>-seed<n>.json. The last
// stdout line is the result object {correct, attempted, failed, metrics};
// the line before it carries the seed, the host-speed probe and the
// per-run details. Exit 1 on any error, 2 on bad usage.
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Fixed single-thread integer loop, timed before and after the workload:
// not a metric, but it tells host drift apart from a program change.
double host_probe_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return seconds_since(t0) * 1e3;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "swr_perfbench: %s\nusage: swr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string out_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = true;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have_trace = true;
      } else if (key == "--out-dir") {
        out_dir = val;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace || out_dir.empty()) {
    return usage("missing option");
  }
  if (!(a.seconds > 0.0)) return usage("--seconds must be positive");

  namespace fs = std::filesystem;
  const fs::path work = fs::path(out_dir) / ("work-" + std::to_string(::getpid()));
  a.work_dir = work.string();
  a.trace_path =
      (fs::path(out_dir) / "traces" / (a.workload + "-seed" + std::to_string(a.seed) + ".json"))
          .string();

  Report r;
  double probe_before = 0.0, probe_after = 0.0;
  try {
    fs::create_directories(work);
    if (a.trace) fs::create_directories(fs::path(a.trace_path).parent_path());
    probe_before = host_probe_ms();
    r = run_workload(a);
    probe_after = host_probe_ms();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swr_perfbench: %s: %s\n", a.workload.c_str(), e.what());
    std::error_code ec;
    fs::remove_all(work, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(work, ec);

  std::ostringstream metrics;
  bool first = true;
  for (const MetricDef& d : a.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = r.metrics.find(d.name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v) || (!a.trace && v == 0.0)) {
      std::fprintf(stderr, "swr_perfbench: %s: metric %s is %g\n", a.workload.c_str(), d.name, v);
      return 1;
    }
    metrics << (first ? "" : ", ") << json_string(d.name) << ": {\"value\": " << json_number(v)
            << ", \"unit\": " << json_string(d.unit) << "}";
    first = false;
  }

  std::ostringstream detail;
  detail << "{\"perfbench\": {\"workload\": " << json_string(a.workload) << ", \"seed\": " << a.seed
         << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"seconds\": " << json_number(a.seconds)
         << ", \"host_probe_ms\": {\"before\": " << json_number(probe_before)
         << ", \"after\": " << json_number(probe_after) << "}";
  for (const auto& [k, v] : r.details) detail << ", " << json_string(k) << ": " << v;
  if (a.trace) detail << ", \"trace_file\": " << json_string(a.trace_path);
  detail << ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    detail << (i ? ", " : "") << json_string(r.problems[i]);
  }
  detail << "]}}";

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::cout << detail.str() << '\n'
            << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {" << metrics.str() << "}}"
            << std::endl;
  return 0;
}
