// Deterministic bounded top-K selection — the one insert/merge discipline
// every scan engine shares.
//
// Each shard (CPU worker, board share, service chunk) keeps its hits in a
// vector sorted under a caller-supplied strict total order, inserting with
// upper_bound so equal-ranked items keep first-inserted-first positions
// that the total order then makes irrelevant; partial lists are unioned
// and finalized with one sort + trim. Because the order is total (the
// engines use host::hit_ranks_before: score desc, record asc, canonical
// cell), the merged prefix is bit-identical no matter how records were
// sharded across engines, kernel shapes, SIMD policies, threads or
// chunks — the property the alignment-retrieval layer builds on: the K
// winners handed to traceback are the same K everywhere.
//
// Header-only and dependency-free so it sits below host in the layering
// (retrieve must not see host::Hit; host instantiates these templates).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace swr::retrieve {

/// Inserts `item` into `top`, kept sorted under `ranks_before` (a strict
/// total order), and trims to `k` items. k == 0 means unbounded — the
/// vector only grows. Small k: linear insert beats a heap and keeps the
/// vector ranked at all times (no final heapify whose order could drift).
template <typename T, typename Less>
void topk_insert(std::vector<T>& top, T item, std::size_t k, Less ranks_before) {
  const auto pos = std::upper_bound(top.begin(), top.end(), item, ranks_before);
  top.insert(pos, std::move(item));
  if (k != 0 && top.size() > k) top.pop_back();
}

/// Moves `partial` onto the end of `acc` (the union step of a shard
/// merge). Neither side needs to be sorted yet; topk_finalize seals it.
template <typename T>
void topk_union(std::vector<T>& acc, std::vector<T>&& partial) {
  acc.insert(acc.end(), std::make_move_iterator(partial.begin()),
             std::make_move_iterator(partial.end()));
  partial.clear();
}

/// Sorts the union under the total order and trims to `k` (0 = keep all).
/// This is the determinism seal: a total order admits exactly one sorted
/// permutation, so the result cannot depend on shard boundaries. The union
/// held every shard's list; the sealed list gives that capacity back, so a
/// kept result costs its k items, not all the shards'.
template <typename T, typename Less>
void topk_finalize(std::vector<T>& acc, std::size_t k, Less ranks_before) {
  std::sort(acc.begin(), acc.end(), ranks_before);
  if (k != 0 && acc.size() > k) acc.resize(k);
  acc.shrink_to_fit();
}

}  // namespace swr::retrieve
