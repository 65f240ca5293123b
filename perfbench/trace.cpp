#include "trace.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::int64_t ns_since(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

}  // namespace

int SpanLog::open(const char* name, std::uint64_t op) {
  SpanRecord s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = ns_since(epoch_);
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (stack_.empty() || stack_.back() != id) throw std::logic_error("span closed out of order");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = ns_since(epoch_);
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

double SpanLog::total_seconds(const char* name) const {
  std::int64_t ns = 0;
  for (const SpanRecord& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void write_spans_json(const std::vector<const SpanLog*>& logs, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"spans\": [";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const SpanRecord& s = log->spans()[i];
      out << (first ? "\n" : ",\n") << "{\"thread\": " << log->thread() << ", \"id\": " << i
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name << "\", \"op\": " << s.op
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
