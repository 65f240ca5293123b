#include "retrieve/traceback.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "align/banded.hpp"
#include "align/gotoh.hpp"
#include "align/hirschberg.hpp"
#include "align/local_linear.hpp"
#include "align/myers_miller.hpp"
#include "align/sw_linear.hpp"
#include "obs/metrics.hpp"

namespace swr::retrieve {

std::size_t band_from_score(std::size_t rows, std::size_t cols, align::Score score,
                            const align::Scoring& sc) {
  const std::size_t diff = rows > cols ? rows - cols : cols - rows;
  const std::size_t full = std::max(rows, cols);
  const align::Score smax = sc.matrix != nullptr ? sc.matrix->max_entry() : sc.match;
  if (smax <= 0) return full;
  // p * (smax - 2*gap) >= score - (rows + cols) * gap, all in 64-bit: the
  // window dimensions are sequence lengths, so the products stay far from
  // overflow but not from int32 range.
  const long long gap = sc.gap;  // < 0 by Scoring::validate
  const long long denom = static_cast<long long>(smax) - 2 * gap;
  const long long numer =
      static_cast<long long>(score) - static_cast<long long>(rows + cols) * gap;
  const long long p_min = (numer + denom - 1) / denom;  // ceil; numer > 0 since gap < 0
  const long long g_max = static_cast<long long>(rows + cols) - 2 * p_min;
  if (g_max <= 0) return diff;
  return std::min(full, std::max(diff, static_cast<std::size_t>(g_max)));
}

namespace {

using Codes = std::span<const seq::Code>;

[[noreturn]] void pass_mismatch(const char* pass, align::Score got, align::Score want) {
  throw std::logic_error(std::string("traceback_hit: ") + pass + " produced score " +
                         std::to_string(got) + ", kernel reported " + std::to_string(want) +
                         " — kernel/retrieval divergence");
}

// The gap-model specifics the shared skeleton dispatches on.
template <typename Sc>
constexpr bool kAffine = std::is_same_v<Sc, align::AffineScoring>;

template <typename Sc>
align::LocalScoreResult software_pass(Codes a, Codes b, const Sc& sc) {
  if constexpr (kAffine<Sc>) return align::gotoh_local_score(a, b, sc);
  else return align::sw_linear_codes(a, b, sc);
}

template <typename Sc>
align::Score replay(const align::Cigar& cigar, Codes wa, Codes wb, const Sc& sc) {
  if constexpr (kAffine<Sc>) return align::affine_score_of(cigar, wa, wb, sc);
  else return align::score_of(cigar, wa, wb, sc);
}

// Linear gaps: the window's global score is the kernel score. Double the
// band from max(|m-n|, 1) while its banded score falls short (Z-align's
// loop), capped at the band the score bound proves; go to Hirschberg once
// a step would store more than the budget allows or no less than full DP.
void solve_window(Codes wa, Codes wb, align::Score score, const align::Scoring& sc,
                  const TracebackOptions& opt, Traceback& out) {
  const std::size_t rows = wa.size();
  const std::size_t cols = wb.size();
  const std::size_t cap = band_from_score(rows, cols, score, sc);
  const std::uint64_t full_cells = static_cast<std::uint64_t>(rows + 1) * (cols + 1);
  const std::size_t diff = rows > cols ? rows - cols : cols - rows;
  std::size_t band = std::min(std::max<std::size_t>(diff, 1), cap);
  for (;; band = std::min(2 * band, cap)) {
    const std::uint64_t cells = align::banded_cells(rows, band);
    if (cells > opt.band_cell_budget || cells >= full_cells) break;
    if (band < cap) {
      // Score-only probe: one rolling row of cols + 1 cells.
      out.dp_cells += cells;
      out.peak_cells = std::max<std::uint64_t>(out.peak_cells, cols + 1);
      if (align::banded_nw_score(wa, wb, band, sc) < score) continue;
    }
    out.alignment.cigar = align::banded_nw_align(wa, wb, band, sc).cigar;
    out.banded = true;
    out.band = band;
    out.dp_cells += cells;
    out.peak_cells = std::max(out.peak_cells, cells);
    return;
  }
  out.alignment.cigar = align::hirschberg_cigar(wa, wb, sc);
  // Hirschberg touches ~2x the window cells; after the free-before-
  // recurse discipline in hirschberg_rec it stores at most the two split
  // rows at a time.
  out.dp_cells += 2 * static_cast<std::uint64_t>(rows) * cols;
  out.peak_cells = std::max<std::uint64_t>(out.peak_cells, 2 * (cols + 1));
}

// Affine gaps: Myers-Miller, whose split holds four rows at a time.
void solve_window(Codes wa, Codes wb, align::Score /*score*/, const align::AffineScoring& sc,
                  const TracebackOptions& /*opt*/, Traceback& out) {
  out.alignment.cigar = align::myers_miller_cigar(wa, wb, sc);
  out.dp_cells += 2 * static_cast<std::uint64_t>(wa.size()) * wb.size();
  out.peak_cells = std::max<std::uint64_t>(out.peak_cells, 4 * (wb.size() + 1));
}

template <typename Sc>
Traceback traceback_core(Codes rec, Codes query, const align::LocalScoreResult& kernel,
                         const Sc& sc, const TracebackOptions& opt, const ScorePass& pass) {
  sc.validate();
  if (kernel.score <= 0) {
    throw std::invalid_argument("traceback_hit: non-positive kernel score");
  }
  if (kernel.end.i == 0 || kernel.end.j == 0 || kernel.end.i > rec.size() ||
      kernel.end.j > query.size()) {
    throw std::invalid_argument("traceback_hit: kernel end cell outside the sequences");
  }
  constexpr std::uint64_t kRows = kAffine<Sc> ? 2 : 1;  // H (+ a gap layer) per pass

  Traceback out;
  out.alignment.score = kernel.score;

  // Step 2 (step 1 was the scan kernel): reverse pass over the reversed
  // prefixes ending at the kernel's end cell — the same O(cols) rows as
  // the forward kernel.
  const std::size_t m0 = kernel.end.i;
  const std::size_t n0 = kernel.end.j;
  align::LocalScoreResult rev;
  {
    const std::vector<seq::Code> ra(rec.rend() - m0, rec.rend());
    const std::vector<seq::Code> rb(query.rend() - n0, query.rend());
    rev = pass ? pass(ra, rb) : software_pass(ra, rb, sc);
  }
  out.dp_cells += static_cast<std::uint64_t>(m0) * n0;
  out.peak_cells = std::max<std::uint64_t>(out.peak_cells, kRows * (n0 + 1));
  if (rev.score != kernel.score) pass_mismatch("reverse pass", rev.score, kernel.score);
  const align::Cell begin{m0 - rev.end.i + 1, n0 - rev.end.j + 1};

  // Step 3: the begin may belong to a co-optimal alignment other than the
  // one ending at the kernel cell; re-pair begin with its own end.
  const align::LocalScoreResult anchored =
      align::anchored_best_end(rec, query, begin, m0, n0, sc);
  out.dp_cells += static_cast<std::uint64_t>(m0 - begin.i + 1) * (n0 - begin.j + 1);
  out.peak_cells = std::max<std::uint64_t>(out.peak_cells, kRows * (n0 - begin.j + 2));
  if (anchored.score != kernel.score) pass_mismatch("anchored scan", anchored.score, kernel.score);

  // Step 4: the window is a global problem.
  const auto wa = rec.subspan(begin.i - 1, anchored.end.i - begin.i + 1);
  const auto wb = query.subspan(begin.j - 1, anchored.end.j - begin.j + 1);
  solve_window(wa, wb, kernel.score, sc, opt, out);

  // Step 5: replay. The transcript must reproduce the kernel score from
  // the residues alone, or the hit is not allowed out of this function.
  const align::Score replayed = replay(out.alignment.cigar, wa, wb, sc);
  if (replayed != kernel.score) pass_mismatch("transcript replay", replayed, kernel.score);
  if (out.alignment.cigar.consumed_i() != wa.size() ||
      out.alignment.cigar.consumed_j() != wb.size()) {
    throw std::logic_error("traceback_hit: transcript does not span the window");
  }

  out.alignment.begin = begin;
  out.alignment.end = anchored.end;
  out.identity = align::cigar_identity(out.alignment.cigar);
  out.query_coverage = query.empty() ? 0.0
                                     : static_cast<double>(anchored.end.j - begin.j + 1) /
                                           static_cast<double>(query.size());
  return out;
}

template <typename Sc>
align::LocalAlignment align_pair(const seq::Sequence& a, const seq::Sequence& b, const Sc& sc,
                                 const ScorePass& pass) {
  if (a.alphabet().id() != b.alphabet().id()) {
    throw std::invalid_argument("local_align_linear: alphabet mismatch between sequences");
  }
  sc.validate();
  // Step 1: forward pass -> best score and an end cell.
  const align::LocalScoreResult fwd =
      pass ? pass(a.codes(), b.codes()) : software_pass(a.codes(), b.codes(), sc);
  if (fwd.score <= 0) {
    align::LocalAlignment empty;
    empty.score = fwd.score;
    return empty;
  }
  return traceback_core(a.codes(), b.codes(), fwd, sc, TracebackOptions{}, pass).alignment;
}

}  // namespace

Traceback traceback_hit(Codes rec, Codes query, const align::LocalScoreResult& kernel,
                        const align::Scoring& sc, const TracebackOptions& opt,
                        const ScorePass& pass) {
  return traceback_core(rec, query, kernel, sc, opt, pass);
}

Traceback traceback_hit(Codes rec, Codes query, const align::LocalScoreResult& kernel,
                        const align::AffineScoring& sc, const TracebackOptions& opt,
                        const ScorePass& pass) {
  return traceback_core(rec, query, kernel, sc, opt, pass);
}

align::LocalAlignment local_align_linear(const seq::Sequence& a, const seq::Sequence& b,
                                         const align::Scoring& sc, const ScorePass& pass) {
  return align_pair(a, b, sc, pass);
}

align::LocalAlignment local_align_linear(const seq::Sequence& a, const seq::Sequence& b,
                                         const align::AffineScoring& sc, const ScorePass& pass) {
  return align_pair(a, b, sc, pass);
}

TracebackMetrics::TracebackMetrics(obs::Registry* reg) {
  if (reg == nullptr) return;
  hits = &reg->counter("retrieve.hits");
  banded = &reg->counter("retrieve.banded");
  hirschberg = &reg->counter("retrieve.hirschberg");
  cells = &reg->counter("retrieve.cells");
  traceback_us = &reg->histogram("retrieve.traceback_us");
}

void TracebackMetrics::observe(const Traceback& tb, double seconds) const {
  if (hits == nullptr) return;
  hits->add(1);
  (tb.banded ? banded : hirschberg)->add(1);
  cells->add(tb.dp_cells);
  traceback_us->observe_seconds(seconds);
}

}  // namespace swr::retrieve
