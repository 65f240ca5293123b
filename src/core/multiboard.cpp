#include "core/multiboard.hpp"

#include <algorithm>
#include <stdexcept>

namespace swr::core {

std::size_t max_alignment_rows(std::size_t query_len, const align::Scoring& sc) {
  // A local alignment with positive score satisfies
  //   (#matches)*max_sub + (#deletes)*gap > 0,
  // so #deletes < m * max_sub / |gap| (matches are at most m, the query
  // length). Rows consumed = #matches + #mismatches + #deletes
  // <= m + m*max_sub/|gap|.
  const align::Score max_sub = sc.matrix != nullptr ? sc.matrix->max_entry() : sc.match;
  if (max_sub <= 0) return query_len;  // no positive alignment possible at all
  const std::size_t extra =
      (query_len * static_cast<std::size_t>(max_sub)) / static_cast<std::size_t>(-sc.gap);
  return query_len + extra;
}

MultiBoardResult multiboard_run(BoardFleet& boards, const seq::Sequence& query,
                                const seq::Sequence& db) {
  if (boards.empty()) throw std::invalid_argument("multiboard_run: no boards");
  if (query.alphabet().id() != db.alphabet().id()) {
    throw std::invalid_argument("multiboard_run: alphabet mismatch");
  }

  MultiBoardResult out;
  const std::size_t nb = boards.size();
  const std::size_t n = db.size();
  if (query.empty() || n == 0) {
    out.board_jobs.resize(nb);
    return out;
  }

  // Non-overlapping split points; each board's slice is extended backwards
  // by the overlap margin so boundary-straddling alignments are seen whole.
  const align::Scoring& sc = boards.front()->controller().array().scoring();
  const std::size_t overlap = max_alignment_rows(query.size(), sc);
  const std::size_t chunk = (n + nb - 1) / nb;

  for (std::size_t k = 0; k < nb; ++k) {
    const std::size_t base = std::min(k * chunk, n);
    const std::size_t end = std::min(base + chunk, n);
    if (base >= end) {
      out.board_jobs.push_back(JobResult{});
      continue;
    }
    const std::size_t ext_base = base > overlap ? base - overlap : 0;
    const seq::Sequence slice = db.subsequence(ext_base, end - ext_base);
    JobResult job = boards[k]->run(query, slice);
    // Lift to global coordinates before folding.
    if (job.best.score > 0) {
      align::fold_best(out.best, job.best.score,
                       align::Cell{job.best.end.i + ext_base, job.best.end.j});
    }
    out.seconds = std::max(out.seconds, job.seconds);
    out.total_cycles += job.stats.total_cycles;
    out.board_jobs.push_back(std::move(job));
  }
  return out;
}

void FleetOptions::validate() const {
  if (boards == 0) throw std::invalid_argument("FleetOptions: zero boards");
  if (pes_per_board == 0) throw std::invalid_argument("FleetOptions: zero PEs per board");
  pci.validate();
  dma.validate();
}

BoardFleet make_board_fleet(const FleetOptions& opt, const align::Scoring& sc) {
  opt.validate();
  const FpgaDevice& dev = device(opt.device);  // throws on an unknown name
  BoardFleet fleet;
  fleet.reserve(opt.boards);
  for (std::size_t k = 0; k < opt.boards; ++k) {
    auto board = std::make_unique<SmithWatermanAccelerator>(dev, opt.pes_per_board, sc, opt.sched);
    if (opt.model_bus) board->attach_bus(opt.pci, opt.dma);
    fleet.push_back(std::move(board));
  }
  return fleet;
}

}  // namespace swr::core
