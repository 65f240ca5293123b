#include "par/wavefront.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "par/thread_pool.hpp"

namespace swr::par {
namespace {

using align::Cell;
using align::LocalScoreResult;
using align::Score;

// All shared state of one wavefront run.
struct WavefrontRun {
  std::span<const seq::Code> a;
  std::span<const seq::Code> b;
  const align::Scoring* sc = nullptr;

  std::size_t col_blocks = 0;
  std::size_t row_blocks = 0;
  std::size_t row_block_len = 0;
  std::vector<std::size_t> col_begin;  // col_blocks+1 fence posts into b

  // borders[p][i] = D(i, last column of block p); borders[col_blocks-1] is
  // unused but kept for uniformity. border "-1" (zeros) is implicit.
  std::vector<std::vector<Score>> borders;
  // Rolling DP row per column block, persisted across its row blocks.
  std::vector<std::vector<Score>> rows;
  // Per column block running best (folded into the global best at the end).
  std::vector<LocalScoreResult> bests;

  // Scheduling: remaining dependencies per block (r-major).
  std::vector<std::atomic<int>> deps;
  std::mutex submit_mu;

  [[nodiscard]] std::size_t block_index(std::size_t r, std::size_t p) const {
    return r * col_blocks + p;
  }
};

// Computes block (r, p): rows (r*R, min((r+1)*R, |a|)], columns
// (col_begin[p], col_begin[p+1]].
void compute_block(WavefrontRun& run, std::size_t r, std::size_t p) {
  const std::size_t i_lo = r * run.row_block_len + 1;
  const std::size_t i_hi = std::min(run.a.size(), (r + 1) * run.row_block_len);
  const std::size_t j_lo = run.col_begin[p] + 1;
  const std::size_t j_hi = run.col_begin[p + 1];
  const align::Scoring& sc = *run.sc;
  const bool uniform = (sc.matrix == nullptr);

  std::vector<Score>& row = run.rows[p];
  LocalScoreResult& best = run.bests[p];

  for (std::size_t i = i_lo; i <= i_hi; ++i) {
    // Left border of the block: diag = D(i-1, j_lo-1), left = D(i, j_lo-1).
    // Column 0 of the matrix is all zeros; interior borders come from the
    // left neighbour block, already complete for these rows (dependency).
    Score diag = (p == 0) ? Score{0} : run.borders[p - 1][i - 1];
    Score left = (p == 0) ? Score{0} : run.borders[p - 1][i];
    const seq::Code ai = run.a[i - 1];
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const std::size_t k = j - j_lo + 1;
      const Score up = row[k];
      const Score sub =
          uniform ? (ai == run.b[j - 1] ? sc.match : sc.mismatch) : sc.substitution(ai, run.b[j - 1]);
      Score v = diag + sub;
      v = std::max(v, up + sc.gap);
      v = std::max(v, left + sc.gap);
      v = std::max(v, Score{0});
      diag = up;
      left = v;
      row[k] = v;
      if (v > best.score) {
        best.score = v;
        best.end = Cell{i, j};
      } else if (v == best.score && v > 0 && align::tie_break_prefers(Cell{i, j}, best.end)) {
        best.end = Cell{i, j};
      }
    }
    run.borders[p][i] = row[j_hi - j_lo + 1];
  }
}

}  // namespace

void WavefrontConfig::validate() const {
  if (threads == 0) throw std::invalid_argument("WavefrontConfig: zero threads");
  if (row_block == 0) throw std::invalid_argument("WavefrontConfig: zero row_block");
}

align::LocalScoreResult wavefront_sw(const seq::Sequence& a, const seq::Sequence& b,
                                     const align::Scoring& sc, const WavefrontConfig& cfg) {
  if (a.alphabet().id() != b.alphabet().id()) {
    throw std::invalid_argument("wavefront_sw: alphabet mismatch between sequences");
  }
  return wavefront_sw(a.codes(), b.codes(), sc, cfg);
}

align::LocalScoreResult wavefront_sw(std::span<const seq::Code> a, std::span<const seq::Code> b,
                                     const align::Scoring& sc, const WavefrontConfig& cfg) {
  cfg.validate();
  sc.validate();
  LocalScoreResult global;
  if (a.empty() || b.empty()) return global;

  WavefrontRun run;
  run.a = a;
  run.b = b;
  run.sc = &sc;
  run.col_blocks = std::min(cfg.col_blocks == 0 ? cfg.threads : cfg.col_blocks, b.size());
  run.row_block_len = cfg.row_block;
  run.row_blocks = (a.size() + cfg.row_block - 1) / cfg.row_block;

  // Even column split (remainder spread over the first blocks).
  run.col_begin.resize(run.col_blocks + 1, 0);
  {
    const std::size_t base = b.size() / run.col_blocks;
    const std::size_t extra = b.size() % run.col_blocks;
    for (std::size_t p = 0; p < run.col_blocks; ++p) {
      run.col_begin[p + 1] = run.col_begin[p] + base + (p < extra ? 1 : 0);
    }
  }

  run.borders.resize(run.col_blocks);
  run.rows.resize(run.col_blocks);
  run.bests.assign(run.col_blocks, LocalScoreResult{});
  for (std::size_t p = 0; p < run.col_blocks; ++p) {
    run.borders[p].assign(a.size() + 1, 0);
    run.rows[p].assign(run.col_begin[p + 1] - run.col_begin[p] + 1, 0);
  }

  run.deps = std::vector<std::atomic<int>>(run.row_blocks * run.col_blocks);
  for (std::size_t r = 0; r < run.row_blocks; ++r) {
    for (std::size_t p = 0; p < run.col_blocks; ++p) {
      run.deps[run.block_index(r, p)].store(static_cast<int>((r > 0 ? 1 : 0) + (p > 0 ? 1 : 0)));
    }
  }

  {
    ThreadPool pool(cfg.threads);
    // submit_block is recursive via successor release; define as std::function.
    std::function<void(std::size_t, std::size_t)> submit_block = [&](std::size_t r,
                                                                     std::size_t p) {
      pool.submit([&run, &submit_block, r, p] {
        compute_block(run, r, p);
        // Release successors (down and right).
        if (r + 1 < run.row_blocks &&
            run.deps[run.block_index(r + 1, p)].fetch_sub(1) == 1) {
          submit_block(r + 1, p);
        }
        if (p + 1 < run.col_blocks &&
            run.deps[run.block_index(r, p + 1)].fetch_sub(1) == 1) {
          submit_block(r, p + 1);
        }
      });
    };
    submit_block(0, 0);
    pool.wait_idle();
  }

  for (const LocalScoreResult& blk : run.bests) {
    align::fold_best(global, blk.score, blk.end);
  }
  return global;
}

}  // namespace swr::par
