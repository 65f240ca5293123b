#include "host/batch.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "host/record_source.hpp"
#include "obs/metrics.hpp"
#include "retrieve/topk.hpp"
#include "seq/complexity.hpp"

namespace swr::host {

bool hit_ranks_before(const Hit& x, const Hit& y) {
  if (x.result.score != y.result.score) return x.result.score > y.result.score;
  if (x.record != y.record) return x.record < y.record;
  return align::tie_break_prefers(x.result.end, y.result.end);
}

void ScanOptions::validate() const {
  if (top_k == 0) throw std::invalid_argument("ScanOptions: zero top_k");
  if (min_score < 1) throw std::invalid_argument("ScanOptions: min_score must be >= 1");
  if (threads == 0) throw std::invalid_argument("ScanOptions: zero threads");
  if (filter_threshold < 0) {
    throw std::invalid_argument("ScanOptions: filter_threshold must be >= 0");
  }
}

bool dust_suppressed(const seq::Sequence& rec, const align::Cell& end, const ScanOptions& opt) {
  if (!opt.dust_filter || rec.alphabet().id() != seq::AlphabetId::Dna) return false;
  const auto masks = seq::find_low_complexity(rec, opt.dust_window, opt.dust_threshold);
  const std::size_t end_pos = end.i;  // 1-based
  for (const seq::MaskedInterval& iv : masks) {
    if (end_pos > iv.begin && end_pos <= iv.end) return true;
  }
  return false;
}

ScanResult scan_records_board(core::SmithWatermanAccelerator& board, const seq::Sequence& query,
                              const RecordSource& src, std::span<const std::uint32_t> ids,
                              const ScanOptions& opt) {
  opt.validate();
  if (opt.filter != FilterMode::Exact) {
    throw std::invalid_argument(
        "board scan: the accelerator model scans exhaustively (the board streams the whole "
        "database); --filter seeded needs the CPU engine");
  }
  for (const std::uint32_t r : ids) {
    if (r >= src.size()) {
      throw std::invalid_argument("scan_records_board: record id " + std::to_string(r) +
                                  " out of range");
    }
  }
  ScanResult out;
  out.records_scanned = ids.size();
  // One Sequence + decode scratch reused for every record: after the first
  // few records the buffers reach the high-water length and the loop runs
  // allocation-free (scan.db.decode_reuse counts the reused decodes).
  seq::Sequence rec;
  std::vector<seq::Code> scratch;
  std::uint64_t decode_reused = 0;
  for (const std::uint32_t r : ids) {
    if (src.length(r) == 0 || query.empty()) continue;
    if (src.sequence_into(r, rec, scratch)) ++decode_reused;
    const core::JobResult job = board.run(query, rec);
    out.cell_updates += job.stats.cell_updates;
    out.board_seconds += job.wall_seconds;
    out.board_cycles += job.stats.total_cycles;
    if (job.best.score < opt.min_score) continue;
    if (dust_suppressed(rec, job.best.end, opt)) continue;

    Hit hit;
    hit.record = r;
    hit.result = job.best;
    hit.board_seconds = job.wall_seconds;
    retrieve::topk_insert(out.hits, std::move(hit), opt.top_k, hit_ranks_before);
  }
  if (opt.metrics != nullptr && decode_reused != 0) {
    opt.metrics->counter("scan.db.decode_reuse").add(decode_reused);
  }
  return out;
}

namespace {

ScanResult scan_source(core::SmithWatermanAccelerator& accelerator, const seq::Sequence& query,
                       const RecordSource& src, const ScanOptions& opt) {
  src.check_alphabet(query, "scan_database");
  std::vector<std::uint32_t> ids(src.size());
  std::iota(ids.begin(), ids.end(), 0u);
  ScanResult out = scan_records_board(accelerator, query, src, ids, opt);
  retrieve_alignments(query, src, accelerator.scoring(), opt, out);
  return out;
}

}  // namespace

void retrieve_alignments(const seq::Sequence& query, const RecordSource& src,
                         const align::Scoring& sc, const ScanOptions& opt, ScanResult& inout,
                         const std::function<bool()>& should_stop) {
  inout.alignments.clear();
  if (!opt.align || inout.hits.empty()) return;
  const std::size_t n = opt.max_hits == 0 ? inout.hits.size()
                                          : std::min(opt.max_hits, inout.hits.size());
  inout.alignments.reserve(n);
  const retrieve::TracebackMetrics metrics(opt.metrics);
  std::vector<seq::Code> scratch;
  for (std::size_t h = 0; h < n; ++h) {
    if (should_stop && should_stop()) break;
    const Hit& hit = inout.hits[h];
    const std::span<const seq::Code> rec = src.codes(hit.record, scratch);
    const auto t0 = std::chrono::steady_clock::now();
    retrieve::Traceback tb = retrieve::traceback_hit(rec, query.codes(), hit.result, sc);
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    metrics.observe(tb, dt.count());
    inout.alignments.push_back(std::move(tb));
  }
}

ScanResult scan_database(core::SmithWatermanAccelerator& accelerator, const seq::Sequence& query,
                         const std::vector<seq::Sequence>& records, const ScanOptions& opt) {
  return scan_source(accelerator, query, RecordSource(records), opt);
}

ScanResult scan_database(core::SmithWatermanAccelerator& accelerator, const seq::Sequence& query,
                         const db::Store& store, const ScanOptions& opt) {
  return scan_source(accelerator, query, RecordSource(store), opt);
}

PipelineResult retrieve_hit(core::SmithWatermanAccelerator& accelerator, const PciConfig& pci,
                            const seq::Sequence& query, const std::vector<seq::Sequence>& records,
                            const Hit& hit) {
  if (hit.record >= records.size()) {
    throw std::invalid_argument("retrieve_hit: record index out of range");
  }
  HostPipeline pipe(accelerator, pci);
  return pipe.align(query, records[hit.record]);
}

}  // namespace swr::host
