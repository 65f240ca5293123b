#include "align/local_linear.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace swr::align {

LocalScoreResult anchored_best_end(const seq::Sequence& a, const seq::Sequence& b, Cell begin,
                                   std::size_t end_limit_i, std::size_t end_limit_j,
                                   const Scoring& sc) {
  return anchored_best_end(a.codes(), b.codes(), begin, end_limit_i, end_limit_j, sc);
}

LocalScoreResult anchored_best_end(std::span<const seq::Code> a, std::span<const seq::Code> b,
                                   Cell begin, std::size_t end_limit_i, std::size_t end_limit_j,
                                   const Scoring& sc) {
  sc.validate();
  if (begin.i == 0 || begin.j == 0 || begin.i > end_limit_i || begin.j > end_limit_j ||
      end_limit_i > a.size() || end_limit_j > b.size()) {
    throw std::invalid_argument("anchored_best_end: bad window");
  }
  // DP over the window rows [begin.i, end_limit_i], cols [begin.j,
  // end_limit_j]. Paths must originate at cell (begin.i-1, begin.j-1); all
  // other window borders are unreachable (-inf) and there is no zero-clamp
  // (no restart inside the window).
  const std::size_t w = end_limit_j - begin.j + 1;
  std::vector<Score> row(w + 1, kNegInf);
  row[0] = 0;  // the anchor corner

  LocalScoreResult best;
  best.score = kNegInf;
  for (std::size_t i = begin.i; i <= end_limit_i; ++i) {
    Score diag = row[0];
    Score left = kNegInf;
    row[0] = kNegInf;  // only the very first row may leave the anchor corner
    const seq::Code ai = a[i - 1];
    for (std::size_t jj = 1; jj <= w; ++jj) {
      const std::size_t j = begin.j + jj - 1;
      const Score up = row[jj];
      Score v = diag == kNegInf ? kNegInf : diag + sc.substitution(ai, b[j - 1]);
      if (up != kNegInf) v = std::max(v, up + sc.gap);
      if (left != kNegInf) v = std::max(v, left + sc.gap);
      diag = up;
      left = v;
      row[jj] = v;
      if (v > best.score) {
        best.score = v;
        best.end = Cell{i, j};
      } else if (v == best.score && tie_break_prefers(Cell{i, j}, best.end)) {
        best.end = Cell{i, j};
      }
    }
  }
  return best;
}

LocalScoreResult anchored_best_end(std::span<const seq::Code> a, std::span<const seq::Code> b,
                                   Cell begin, std::size_t end_limit_i, std::size_t end_limit_j,
                                   const AffineScoring& sc) {
  sc.validate();
  if (begin.i == 0 || begin.j == 0 || begin.i > end_limit_i || begin.j > end_limit_j ||
      end_limit_i > a.size() || end_limit_j > b.size()) {
    throw std::invalid_argument("anchored_best_end: bad window");
  }
  // The linear scan's argument with Gotoh's layers: h = H row, ev =
  // vertical-gap layer, the horizontal layer rides along the row in `f`.
  const std::size_t w = end_limit_j - begin.j + 1;
  std::vector<Score> h(w + 1, kNegInf);
  std::vector<Score> ev(w + 1, kNegInf);
  h[0] = 0;  // the anchor corner

  LocalScoreResult best;
  best.score = kNegInf;
  for (std::size_t i = begin.i; i <= end_limit_i; ++i) {
    Score diag = h[0];
    h[0] = kNegInf;  // only the very first row may leave the anchor corner
    Score f = kNegInf;
    Score left_h = kNegInf;
    const seq::Code ai = a[i - 1];
    for (std::size_t jj = 1; jj <= w; ++jj) {
      const std::size_t j = begin.j + jj - 1;
      const Score up_h = h[jj];
      ev[jj] = std::max(ev[jj] == kNegInf ? kNegInf : ev[jj] + sc.gap_extend,
                        up_h == kNegInf ? kNegInf : up_h + sc.gap_open + sc.gap_extend);
      f = std::max(f == kNegInf ? kNegInf : f + sc.gap_extend,
                   left_h == kNegInf ? kNegInf : left_h + sc.gap_open + sc.gap_extend);
      Score v = diag == kNegInf ? kNegInf : diag + sc.substitution(ai, b[j - 1]);
      v = std::max({v, ev[jj], f});
      diag = up_h;
      left_h = v;
      h[jj] = v;
      if (v > best.score ||
          (v == best.score && v != kNegInf && tie_break_prefers(Cell{i, j}, best.end))) {
        best.score = v;
        best.end = Cell{i, j};
      }
    }
  }
  return best;
}

}  // namespace swr::align
