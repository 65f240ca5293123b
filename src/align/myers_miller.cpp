#include "align/myers_miller.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "align/gotoh.hpp"
#include "align/result.hpp"

namespace swr::align {
namespace {

using Span = std::span<const seq::Code>;

// Cost of a horizontal (insert) run of length k.
Score ins_run(std::size_t k, const AffineScoring& sc) {
  return k == 0 ? Score{0} : sc.gap_open + static_cast<Score>(k) * sc.gap_extend;
}

// Forward Gotoh rows: after consuming all of `a` (rows) against `b`,
// cc[j] = best score of aligning a to b[0..j) (any end state),
// dd[j] = best score ending in a vertical gap (delete of a's last row),
// including that gap's opening charge — except that a gap beginning at the
// TOP boundary is opened with `tb` instead of gap_open (Myers-Miller's
// boundary flag).
void affine_rows(Span a, Span b, Score tb, const AffineScoring& sc, std::vector<Score>& cc,
                 std::vector<Score>& dd) {
  const std::size_t n = b.size();
  cc.assign(n + 1, 0);
  dd.assign(n + 1, kNegInf);
  for (std::size_t j = 1; j <= n; ++j) cc[j] = ins_run(j, sc);

  for (std::size_t i = 1; i <= a.size(); ++i) {
    const Score row_open = (i == 1) ? tb : sc.gap_open;
    Score diag = cc[0];
    cc[0] = tb + static_cast<Score>(i) * sc.gap_extend;
    dd[0] = cc[0];
    Score left_h = cc[0];
    Score e = kNegInf;
    const seq::Code ai = a[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      const Score up_h = cc[j];
      const Score up_f = dd[j];
      const Score f = std::max(up_f == kNegInf ? kNegInf : up_f + sc.gap_extend,
                               up_h + row_open + sc.gap_extend);
      e = std::max(e == kNegInf ? kNegInf : e + sc.gap_extend,
                   left_h + sc.gap_open + sc.gap_extend);
      Score h = diag + sc.substitution(ai, b[j - 1]);
      h = std::max({h, f, e});
      dd[j] = f;
      cc[j] = h;
      diag = up_h;
      left_h = h;
    }
  }
}

void mm_rec(Span a, Span b, Score tb, Score te, const AffineScoring& sc, Cigar& out) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  if (m == 0) {
    out.push(EditOp::Insert, n);
    return;
  }
  if (n == 0) {
    out.push(EditOp::Delete, m);
    return;
  }
  if (m == 1) {
    // Either a[0] pairs with some b[k] (insert runs around it), or a[0] is
    // deleted (the gap merging with whichever boundary is cheaper) and all
    // of b is inserted.
    Score best = std::max(tb, te) + sc.gap_extend + ins_run(n, sc);
    std::size_t best_k = 0;  // 0 = delete option
    for (std::size_t k = 1; k <= n; ++k) {
      const Score v = ins_run(k - 1, sc) + sc.substitution(a[0], b[k - 1]) + ins_run(n - k, sc);
      if (v > best) {
        best = v;
        best_k = k;
      }
    }
    if (best_k == 0) {
      out.push(EditOp::Delete, 1);
      out.push(EditOp::Insert, n);
    } else {
      out.push(EditOp::Insert, best_k - 1);
      out.push(a[0] == b[best_k - 1] ? EditOp::Match : EditOp::Mismatch, 1);
      out.push(EditOp::Insert, n - best_k);
    }
    return;
  }

  const std::size_t mid = m / 2;
  std::size_t best_j = 0;
  bool best_in_gap = false;
  {
    // Scoped so the four rows and the reversed copies are freed BEFORE
    // recursing (as in hirschberg_rec): live row storage stays 4 * (|b|+1)
    // for the whole recursion instead of O(|b| log |a|).
    // Forward half with tb; backward half (reversed) with te.
    std::vector<Score> cc;
    std::vector<Score> dd;
    affine_rows(a.subspan(0, mid), b, tb, sc, cc, dd);

    std::vector<seq::Code> ra(a.begin() + static_cast<std::ptrdiff_t>(mid), a.end());
    std::reverse(ra.begin(), ra.end());
    std::vector<seq::Code> rb(b.begin(), b.end());
    std::reverse(rb.begin(), rb.end());
    std::vector<Score> rr;
    std::vector<Score> ss;
    affine_rows(ra, rb, te, sc, rr, ss);

    // rr[jr] aligns a[mid..m) to the last jr residues of b; map to a split
    // after b[0..j): reverse index jr = n - j.
    Score best = kNegInf;
    for (std::size_t j = 0; j <= n; ++j) {
      const Score t1 = cc[j] + rr[n - j];
      if (t1 > best) {
        best = t1;
        best_j = j;
        best_in_gap = false;
      }
      const Score df = dd[j];
      const Score sf = ss[n - j];
      if (df != kNegInf && sf != kNegInf) {
        const Score t2 = df + sf - sc.gap_open;  // the crossing gap opened once
        if (t2 > best) {
          best = t2;
          best_j = j;
          best_in_gap = true;
        }
      }
    }
  }

  if (!best_in_gap) {
    mm_rec(a.subspan(0, mid), b.subspan(0, best_j), tb, sc.gap_open, sc, out);
    mm_rec(a.subspan(mid), b.subspan(best_j), sc.gap_open, te, sc, out);
  } else {
    // The optimal path deletes a[mid-1] and a[mid] inside one gap: the
    // halves continue that gap across their shared boundary (flag 0).
    mm_rec(a.subspan(0, mid - 1), b.subspan(0, best_j), tb, Score{0}, sc, out);
    out.push(EditOp::Delete, 2);
    mm_rec(a.subspan(mid + 1), b.subspan(best_j), Score{0}, te, sc, out);
  }
}

}  // namespace

Cigar myers_miller_cigar(Span a, Span b, const AffineScoring& sc) {
  sc.validate();
  Cigar out;
  mm_rec(a, b, sc.gap_open, sc.gap_open, sc, out);
  return out;
}

LocalAlignment myers_miller_align(const seq::Sequence& a, const seq::Sequence& b,
                                  const AffineScoring& sc) {
  if (a.alphabet().id() != b.alphabet().id()) {
    throw std::invalid_argument("myers_miller_align: alphabet mismatch");
  }
  LocalAlignment out;
  out.cigar = myers_miller_cigar(a.codes(), b.codes(), sc);
  out.begin = (a.empty() && b.empty()) ? Cell{0, 0} : Cell{1, 1};
  out.end = Cell{a.size(), b.size()};
  out.score = gotoh_global_score(a.codes(), b.codes(), sc);
  return out;
}

}  // namespace swr::align
