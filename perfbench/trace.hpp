// The benchmark's own tracer: steady_clock spans recorded around every
// public call the traced run makes, kept in memory and written out when
// the run ends. One SpanLog per calling thread (no locking); spans nest
// through the log's open-span stack, so a span's parent is whatever span
// was open on the same thread when it started.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord {
  const char* name = "";  ///< static string: the layer the span belongs to
  std::uint64_t op = 0;   ///< operation (query/request) index
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same log, -1 for a root
};

class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::uint32_t thread) : epoch_(epoch), thread_(thread) {}

  int open(const char* name, std::uint64_t op);
  void close(int id);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] std::uint32_t thread() const { return thread_; }

  /// Self seconds per span name: each span's duration minus its direct
  /// children's durations (children on one thread never overlap).
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Summed duration of the spans named `name`.
  [[nodiscard]] double total_seconds(const char* name) const;

 private:
  Clock::time_point epoch_;
  std::uint32_t thread_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null log makes it a no-op (the untraced path).
class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), id_(log != nullptr ? log->open(name, op) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Writes every span of every log as one JSON document.
void write_spans_json(const std::vector<const SpanLog*>& logs, const std::string& path);

}  // namespace perfbench
