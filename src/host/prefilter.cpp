#include "host/prefilter.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/prescreen.hpp"

namespace swr::host {
namespace {

// One seed-suggested diagonal of one record.
struct CandidateDiag {
  std::uint32_t record;
  std::int64_t diag;  // record position - query position

  friend bool operator<(const CandidateDiag& a, const CandidateDiag& b) {
    if (a.record != b.record) return a.record < b.record;
    return a.diag < b.diag;
  }
  friend bool operator==(const CandidateDiag&, const CandidateDiag&) = default;
};

}  // namespace

std::vector<std::uint32_t> filter_candidates(const db::Store& store, const seq::Sequence& query,
                                             const align::Scoring& sc, const FilterOptions& fo,
                                             std::span<const std::uint32_t> subset,
                                             FilterStats* stats) {
  if (fo.threshold < 1) throw std::invalid_argument("filter_candidates: threshold must be >= 1");
  const db::KmerIndexView& idx = store.kmer_index();
  const std::size_t k = idx.k();
  const std::size_t base = store.alphabet().size();
  const align::Score bar =
      std::max<align::Score>(1, fo.prescreen_threshold > 0 ? fo.prescreen_threshold
                                                           : (fo.threshold + 1) / 2);

  // The filter domain: the whole store, or the caller's id subset
  // (sorted + deduped so membership tests and the guard sweep are one
  // ordered pass).
  std::vector<std::uint32_t> sub(subset.begin(), subset.end());
  std::sort(sub.begin(), sub.end());
  sub.erase(std::unique(sub.begin(), sub.end()), sub.end());
  const bool restricted = !subset.empty();
  const std::size_t domain = restricted ? sub.size() : store.size();
  const auto in_domain = [&](std::uint32_t r) {
    return !restricted || std::binary_search(sub.begin(), sub.end(), r);
  };
  const auto domain_id = [&](std::size_t i) {
    return restricted ? sub[i] : static_cast<std::uint32_t>(i);
  };

  FilterStats st;
  st.domain = domain;
  std::vector<std::uint32_t> keep;

  // Recall guards: a record shorter than k can share no k-mer with any
  // query, and no record can be seeded when the query is shorter than k —
  // both are admitted unconditionally. Empty records are rejected outright
  // (no cell can score, exactly as the exact path skips them).
  const bool query_guard = query.size() < k;
  for (std::size_t i = 0; i < domain; ++i) {
    const std::uint32_t r = domain_id(i);
    const std::size_t len = store.length(r);
    if (len == 0) continue;
    if (query_guard || len < k) {
      keep.push_back(r);
      ++st.recall_guard;
    }
  }

  if (!query_guard) {
    // Stage 1: gather every (record, diagonal) the index suggests.
    const std::uint64_t top = idx.bucket_count() / base;  // base^(k-1)
    std::vector<CandidateDiag> diags;
    const std::span<const seq::Code> q = query.codes();
    std::uint64_t code = 0;
    for (std::size_t p = 0; p < q.size(); ++p) {
      if (p >= k) code -= q[p - k] * top;
      code = code * base + q[p];
      if (p + 1 < k) continue;
      const std::size_t qpos = p + 1 - k;
      for (const std::uint32_t posting : idx.postings_for(code)) {
        ++st.postings;
        const db::KmerPosting post = idx.locate(posting);
        if (!in_domain(post.record)) continue;
        diags.push_back(CandidateDiag{
            post.record, static_cast<std::int64_t>(post.pos) - static_cast<std::int64_t>(qpos)});
      }
    }
    std::sort(diags.begin(), diags.end());
    diags.erase(std::unique(diags.begin(), diags.end()), diags.end());

    // Stage 2: exact ungapped Kadane per distinct diagonal, first passing
    // diagonal admits the record and short-circuits the rest.
    const align::UngappedPrescreen prescreen(query, sc);
    std::vector<seq::Code> scratch;
    for (std::size_t i = 0; i < diags.size();) {
      const std::uint32_t r = diags[i].record;
      ++st.candidates;
      const std::span<const seq::Code> rec = store.codes(r, scratch);
      bool pass = false;
      for (; i < diags.size() && diags[i].record == r; ++i) {
        if (pass) continue;  // drain the record's remaining diagonals
        ++st.diagonals;
        if (prescreen.best_on_diagonal(rec, diags[i].diag, bar) >= bar) pass = true;
      }
      if (pass) keep.push_back(r);
    }
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
  }

  st.rescored = keep.size();
  st.rejected = st.domain - st.rescored;
  if (stats != nullptr) *stats = st;
  return keep;
}

}  // namespace swr::host
