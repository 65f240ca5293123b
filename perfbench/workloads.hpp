// The benchmark workloads. Each one generates its inputs from the
// seed, times its set-up, runs a timed phase through the public calls of
// the layers it stresses, then checks every operation's output. See
// perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;    ///< work files (FASTA, .swdb); removed by the caller
  std::string trace_path;  ///< where the traced run writes its spans
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;   ///< values; units live in the metric tables
  std::map<std::string, std::string> details;  ///< name -> JSON text, printed beside
  std::vector<std::string> problems;       ///< first few failure reasons

  void metric(const std::string& name, double value) { metrics[name] = value; }
  void detail(const std::string& name, const std::string& json) { details[name] = json; }
  void problem(const std::string& what);
};

/// `v` as JSON number text with all 17 significant digits.
std::string json_number(double v);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics an untraced run reports; none may be missing or 0.
const std::vector<MetricDef>& end_to_end_metrics();

/// The metrics a traced run reports; a layer that does no work on a
/// workload reports 0.
const std::vector<MetricDef>& per_layer_metrics();

/// @throws std::invalid_argument on an unknown workload.
Report run_workload(const Args& args);

}  // namespace perfbench
