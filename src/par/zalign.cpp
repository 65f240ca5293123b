#include "par/zalign.hpp"

#include <stdexcept>

#include "retrieve/traceback.hpp"

namespace swr::par {

void ZAlignOptions::validate() const {
  wavefront.validate();
  if (max_retrieval_cells == 0) {
    throw std::invalid_argument("ZAlignOptions: zero retrieval budget");
  }
}

ZAlignResult zalign(const seq::Sequence& a, const seq::Sequence& b, const align::Scoring& sc,
                    const ZAlignOptions& opt) {
  opt.validate();
  sc.validate();
  if (a.alphabet().id() != b.alphabet().id()) {
    throw std::invalid_argument("zalign: alphabet mismatch");
  }

  // Phases 1-3: parallel wavefront passes (distribution + linear-space
  // matrix + reduction happen inside wavefront_sw), forward here and
  // reversed inside the retrieval core.
  const retrieve::ScorePass wavefront = [&](std::span<const seq::Code> rows,
                                            std::span<const seq::Code> cols) {
    return wavefront_sw(rows, cols, sc, opt.wavefront);
  };
  ZAlignResult out;
  const align::LocalScoreResult fwd = wavefront(a.codes(), b.codes());
  out.alignment.score = fwd.score;
  if (fwd.score <= 0) return out;

  // Phase 4: the §2.3 core doubles the divergence band until the banded
  // global score reaches the known optimum, inside the memory budget.
  retrieve::TracebackOptions topt;
  topt.band_cell_budget = opt.max_retrieval_cells;
  const retrieve::Traceback tb =
      retrieve::traceback_hit(a.codes(), b.codes(), fwd, sc, topt, wavefront);
  out.alignment = tb.alignment;
  out.mode = tb.banded ? RetrievalMode::Banded : RetrievalMode::Hirschberg;
  out.band = tb.band;
  out.retrieval_cells = tb.peak_cells;
  return out;
}

}  // namespace swr::par
